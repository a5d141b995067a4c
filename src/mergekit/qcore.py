"""Dense linear algebra for multipartite pure and mixed states.

States carry an explicit list of subsystem dimensions.  The flat index of a
basis vector is ``i = sum_k l_k * prod_{k'>k} d_{k'}`` (first subsystem most
significant), which is numpy's C order, so ``amps.reshape(dims)`` puts
subsystem k on axis k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

DEFAULT_TOL = 1e-9


class StateError(ValueError):
    """Raised when an input violates a state-level requirement."""


class MaximalityError(RuntimeError):
    """Raised when refinement stalls without a certified maximal partition;
    carries the last partition for diagnosis."""

    def __init__(self, message, partition=None):
        super().__init__(message)
        self.partition = partition


class BranchCapError(RuntimeError):
    """Raised when exhaustive enumeration exceeds the branch cap."""


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _as_complex(a) -> np.ndarray:
    return np.asarray(a, dtype=complex)


@dataclass(frozen=True, eq=False)
class Ket:
    """Pure state vector with subsystem dimensions."""

    amps: np.ndarray
    dims: tuple
    normalized: bool = True
    _stack = None       # set on the row views of ``locc._ket_views``

    def __init__(self, amps, dims, normalized=True):
        amps = _as_complex(amps).reshape(-1)
        dims = tuple(int(d) for d in dims)
        if len(dims) == 0 or any(d < 1 for d in dims):
            raise ValueError("dims must be non-empty positive integers")
        if amps.size != math.prod(dims):
            raise ValueError(
                f"amplitude length {amps.size} does not match dims {dims}"
            )
        if normalized:
            norm = np.linalg.norm(amps)
            if abs(norm - 1.0) > 1e-6:
                raise StateError(f"ket norm {norm} deviates from 1")
            if abs(norm - 1.0) > 1e-12 and norm > 0:
                amps = amps / norm
        amps = amps.copy()
        amps.flags.writeable = False
        object.__setattr__(self, "amps", amps)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "normalized", bool(normalized))

    @property
    def nsys(self) -> int:
        return len(self.dims)

    def tensor(self) -> np.ndarray:
        return self.amps.reshape(self.dims)

    def density(self) -> "DensityOp":
        return DensityOp(np.outer(self.amps, self.amps.conj()), self.dims)

    def kron(self, other: "Ket") -> "Ket":
        return Ket(np.multiply.outer(self.amps, other.amps).reshape(-1),
                   self.dims + other.dims,
                   normalized=self.normalized and other.normalized)

    def permute(self, order) -> "Ket":
        """Reorder subsystems; ``order[k]`` is the old index placed at slot k."""
        order = list(order)
        t = np.transpose(self.tensor(), order)
        return Ket(t.reshape(-1), [self.dims[k] for k in order],
                   normalized=self.normalized)

    def overlap(self, other: "Ket") -> complex:
        if self.dims != other.dims:
            raise ValueError("dims mismatch")
        return complex(np.vdot(self.amps, other.amps))


@dataclass(frozen=True, eq=False)
class DensityOp:
    """Density operator with subsystem dimensions."""

    mat: np.ndarray
    dims: tuple

    def __init__(self, mat, dims, check=True, tol=DEFAULT_TOL):
        mat = _as_complex(mat)
        dims = tuple(int(d) for d in dims)
        total = int(np.prod(dims))
        if mat.shape != (total, total):
            raise ValueError(f"matrix shape {mat.shape} does not match dims {dims}")
        if check:
            if np.max(np.abs(mat - mat.conj().T)) > 1e-9 * max(1.0, np.max(np.abs(mat))):
                raise StateError("density operator is not Hermitian")
            ev = np.linalg.eigvalsh((mat + mat.conj().T) / 2)
            if ev.min() < -1e-8:
                raise StateError(f"density operator has negative eigenvalue {ev.min()}")
            if abs(mat.trace() - 1.0) > 1e-8:
                raise StateError(f"density operator trace {mat.trace()} differs from 1")
        mat = mat.copy()
        mat.flags.writeable = False
        object.__setattr__(self, "mat", mat)
        object.__setattr__(self, "dims", dims)

    @property
    def nsys(self) -> int:
        return len(self.dims)


@dataclass(frozen=True)
class Bipartition:
    """A cut of subsystem indices into a left and right group."""

    left: tuple
    right: tuple

    def __init__(self, left, right=None, nsys=None):
        left = tuple(sorted(int(k) for k in left))
        if right is None:
            if nsys is None:
                raise ValueError("provide the right side or the subsystem count")
            right = tuple(k for k in range(nsys) if k not in left)
        else:
            right = tuple(sorted(int(k) for k in right))
        if not left or not right:
            raise ValueError("both sides of a bipartition must be non-empty")
        if set(left) & set(right):
            raise ValueError("bipartition sides overlap")
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)


@dataclass(frozen=True, eq=False)
class SchmidtForm:
    """Schmidt decomposition across a bipartition."""

    coeffs: np.ndarray
    left_basis: list
    right_basis: list
    rank: int = field(default=0)

    def __post_init__(self):
        object.__setattr__(self, "rank", len(self.coeffs))


def partial_trace(rho: DensityOp, keep) -> DensityOp:
    """Trace out all subsystems not listed in ``keep``."""
    keep = sorted(set(int(k) for k in keep))
    n = rho.nsys
    if not keep or any(k < 0 or k >= n for k in keep):
        raise ValueError(f"invalid keep set {keep} for {n} subsystems")
    dims = rho.dims
    t = rho.mat.reshape(dims + dims)
    drop = [k for k in range(n) if k not in keep]
    remaining = n
    for k in sorted(drop, reverse=True):
        t = np.trace(t, axis1=k, axis2=k + remaining)
        remaining -= 1
    kept_dims = [dims[k] for k in keep]
    d = int(np.prod(kept_dims))
    return DensityOp(t.reshape(d, d), kept_dims, check=False)


def reduced_state(psi: Ket, keep) -> DensityOp:
    """Reduced density operator of a pure state on the kept subsystems."""
    keep = sorted(set(int(k) for k in keep))
    n = psi.nsys
    if not keep or any(k < 0 or k >= n for k in keep):
        raise ValueError(f"invalid keep set {keep} for {n} subsystems")
    drop = [k for k in range(n) if k not in keep]
    t = np.transpose(psi.tensor(), keep + drop)
    dk = int(np.prod([psi.dims[k] for k in keep]))
    m = t.reshape(dk, -1)
    return DensityOp(m @ m.conj().T, [psi.dims[k] for k in keep], check=False)


def _cut_matrix(psi: Ket, cut: Bipartition, tol: float) -> np.ndarray:
    """The amplitudes of a normalized ket as a (left, right) matrix, after
    checking ``tol`` and that ``cut`` covers every subsystem."""
    if not (0 < tol < 1):
        raise ValueError("tol must lie in (0, 1)")
    if abs(np.linalg.norm(psi.amps) - 1.0) > 1e-6:
        raise StateError("schmidt_decompose requires a normalized ket")
    left, right = list(cut.left), list(cut.right)
    if set(left) | set(right) != set(range(psi.nsys)):
        raise ValueError("bipartition does not cover all subsystems")
    t = np.transpose(psi.tensor(), left + right)
    dl = int(np.prod([psi.dims[k] for k in left]))
    return t.reshape(dl, -1)


def _rank_above(s: np.ndarray, tol: float):
    """Count of descending singular values above ``tol`` times the largest:
    an int for one spectrum, an array of counts for a stack (n, k)."""
    if s.ndim > 1:
        return np.add.reduce(s > tol * s[:, :1], axis=1)
    return int(np.count_nonzero(s > tol * s[0])) if s.size else 0


def schmidt_decompose(psi: Ket, cut: Bipartition, tol: float = DEFAULT_TOL) -> SchmidtForm:
    """Schmidt decomposition of a normalized ket across ``cut``.

    Coefficients are descending; the rank counts singular values above
    ``tol`` relative to the largest.
    """
    m = _cut_matrix(psi, cut, tol)
    u, s, vh = np.linalg.svd(m, full_matrices=False)
    rank = _rank_above(s, tol)
    left_dims = [psi.dims[k] for k in cut.left]
    right_dims = [psi.dims[k] for k in cut.right]
    lbasis = [Ket(u[:, i], left_dims) for i in range(rank)]
    rbasis = [Ket(vh[i, :], right_dims) for i in range(rank)]
    return SchmidtForm(coeffs=s[:rank].copy(), left_basis=lbasis, right_basis=rbasis)


def schmidt_rank(psi: Ket, cut: Bipartition, tol: float = DEFAULT_TOL) -> int:
    """Rank of ``schmidt_decompose(psi, cut, tol)``, from the singular values
    alone."""
    return singular_rank(_cut_matrix(psi, cut, tol), tol)


def singular_rank(m: np.ndarray, tol: float = DEFAULT_TOL) -> int:
    """Number of singular values of ``m`` above ``tol`` relative to the
    largest: the Schmidt rank of a ket reshaped to ``m`` across its cut.
    A stack of matrices (n, r, c) gives an array of n ranks."""
    return _rank_above(np.linalg.svd(m, compute_uv=False), tol)


def schmidt_reconstruct(form: SchmidtForm, cut: Bipartition, dims) -> Ket:
    """Rebuild the ket (in original subsystem order) from a Schmidt form."""
    dims = tuple(int(d) for d in dims)
    left, right = list(cut.left), list(cut.right)
    dl = int(np.prod([dims[k] for k in left]))
    dr = int(np.prod([dims[k] for k in right]))
    m = np.zeros((dl, dr), dtype=complex)
    for c, lv, rv in zip(form.coeffs, form.left_basis, form.right_basis):
        m += c * np.outer(lv.amps, rv.amps)
    t = m.reshape([dims[k] for k in left] + [dims[k] for k in right])
    inverse = np.argsort(left + right)
    return Ket(np.transpose(t, inverse).reshape(-1), dims, normalized=False)


def purify(rho: DensityOp) -> Ket:
    """A purification of ``rho`` with auxiliary dimension equal to its rank."""
    ev, vec = np.linalg.eigh(rho.mat)
    order = np.argsort(ev)[::-1]
    ev, vec = ev[order], vec[:, order]
    rank = int(np.sum(ev > 1e-12))
    rank = max(rank, 1)
    d = rho.mat.shape[0]
    amps = np.zeros((d, rank), dtype=complex)
    for i in range(rank):
        amps[:, i] = np.sqrt(max(ev[i], 0.0)) * vec[:, i]
    return Ket(amps.reshape(-1), rho.dims + (rank,))


def _sqrtm_psd(mat: np.ndarray, rel_floor: float = 0.0) -> np.ndarray:
    """Square root of a positive semidefinite matrix; eigenvalues at or
    below ``rel_floor`` times the largest count as zero."""
    ev, vec = np.linalg.eigh((mat + mat.conj().T) / 2)
    ev = np.where(ev > rel_floor * max(ev[-1], 0.0), ev, 0.0)
    return (vec * np.sqrt(ev)) @ vec.conj().T


def fidelity(rho: DensityOp, sigma: DensityOp) -> float:
    """Square-root fidelity ``|| sqrt(rho) sqrt(sigma) ||_1``, the sum of
    the singular values of ``sqrt(rho) sqrt(sigma)``.  Eigenvalues within
    rounding of zero (n eps of the largest) count as zero: their square
    roots, ~1e-8, would lift the fidelity of rank-deficient states."""
    if rho.dims != sigma.dims:
        raise ValueError("dims mismatch")
    floor = len(rho.mat) * np.finfo(float).eps
    prod = _sqrtm_psd(rho.mat, floor) @ _sqrtm_psd(sigma.mat, floor)
    return float(min(1.0, np.sum(np.linalg.svd(prod, compute_uv=False))))


def purified_distance(rho: DensityOp, sigma: DensityOp) -> float:
    f = fidelity(rho, sigma)
    return float(np.sqrt(max(0.0, 1.0 - f * f)))


def trace_distance(rho: DensityOp, sigma: DensityOp) -> float:
    """Trace norm of the difference (maximal value 2 for orthogonal states)."""
    if rho.dims != sigma.dims:
        raise ValueError("dims mismatch")
    ev = np.linalg.eigvalsh(rho.mat - sigma.mat)
    return float(np.sum(np.abs(ev)))


def von_neumann_entropy(rho: DensityOp) -> float:
    """Entropy in bits, with 0 log 0 = 0."""
    ev = np.clip(np.linalg.eigvalsh(rho.mat), 0.0, None)
    ev = ev[ev > 1e-15]
    return float(-np.sum(ev * np.log2(ev)))


def conditional_entropy(rho: DensityOp, cut: Bipartition) -> float:
    """H(left|right) = H(whole) - H(right) in bits."""
    h_all = von_neumann_entropy(rho)
    h_right = von_neumann_entropy(partial_trace(rho, cut.right))
    return h_all - h_right


# Weight of the maximally mixed state in every max-entropy iterate.  It keeps
# 1 x sigma_B of full rank, so the upper bound below is defined, and costs at
# most ~1e-12 in the lower bound where the optimal sigma_B is rank-deficient.
HMAX_MIX = 1e-12
# Fixed-point steps before the Nelder-Mead fallback runs.
HMAX_STEP_CAP = 300


def _trace_a(m: np.ndarray) -> np.ndarray:
    """Tr_A[M M^dagger] for a factor M shaped (d_A, d_B, r)."""
    t = m.transpose(1, 0, 2).reshape(m.shape[1], -1)
    return t @ t.conj().T


def _hmax_step(w: np.ndarray, sigma: np.ndarray):
    """One fixed-point step at the density ``sigma`` on B, for the factor
    ``w`` of rho_AB = W W^dagger shaped (d_A, d_B, r).

    With Y = W^dagger (1 x sigma) W and G = Tr_A[W Y^{-1/2} W^dagger],
    returns ``(lower, upper, next)``:

    - lower = 2 log2 Tr sqrt(Y), the objective at ``sigma``.  Tr sqrt(Y) is
      the sum of the singular values S of (1 x sigma^{1/2}) W = U S
      V^dagger, so no eigenvalue of Y is clipped.
    - upper = log2 Tr sqrt(Y) + log2 lambda_max(G), with G = Tr_A[(W V
      S^{-1/2})(W V S^{-1/2})^dagger].  By Alberti's form of the fidelity,
      F(rho, 1 x s)^2 <= Tr(rho Z) Tr((1 x s) Z^{-1}) for every density s
      and Z > 0; Z^{-1} = W V S^{-1} V^dagger W^dagger on the support of
      rho gives Tr(rho Z) = sum S, for whatever V and S the decomposition
      returns.
    - next = sigma^{1/2} G^2 sigma^{1/2} / Tr.  The objective Tr sqrt(Y) is
      concave and homogeneous of degree 1/2 in sigma, with gradient G/2,
      and G is constant on the support of a maximizer, so maximizers are
      fixed points.  Squaring G makes the step exact when rho_AB commutes
      with a basis of B: there the objective is sum_i sqrt(a_i sigma_i),
      maximal at sigma_i proportional to a_i = sigma_i G_i^2.
    """
    ev, vec = np.linalg.eigh(sigma)
    ev = np.clip(ev, 0.0, None)
    root = (vec * np.sqrt(ev)) @ vec.conj().T
    d_a, d_b, r = w.shape
    _, s, vh = np.linalg.svd((root @ w).reshape(-1, r), full_matrices=False)
    total = s.sum()
    c = (w.reshape(-1, r) @ (vh.conj().T / np.sqrt(s))).reshape(d_a, d_b, r)
    g = _trace_a(c)
    lower = 2.0 * np.log2(total) - np.log2(ev.sum())
    upper = np.log2(total) + np.log2(np.linalg.eigvalsh(g)[-1])
    half = root @ g
    nxt = half @ half.conj().T
    return float(lower), float(upper), nxt / np.trace(nxt).real


def _hmax_fallback(w: np.ndarray, restarts: int, tol: float, seed: int):
    """Seeded multi-start Nelder-Mead over sigma_B = g^dagger g on the
    noise-free objective 2 log2 ||(1 x g) W||_1 - log2 Tr(g^dagger g).
    Returns the best value and the number of starts that ended at the
    iteration cap (status 2)."""
    # imported here, its only use, to keep scipy off every other path
    from scipy import optimize

    d_b, r = w.shape[1], w.shape[2]
    n = d_b * d_b

    def neg_lower(x):
        g = (x[:n] + 1j * x[n:]).reshape(d_b, d_b)
        norm2 = np.vdot(g, g).real
        if norm2 <= 1e-300:
            g, norm2 = np.eye(d_b), float(d_b)
        total = np.linalg.svd((g @ w).reshape(-1, r), compute_uv=False).sum()
        return np.inf if total <= 0 else np.log2(norm2) - 2.0 * np.log2(total)

    rng = np.random.default_rng(seed)
    sqrt_rb = _sqrtm_psd(_trace_a(w))
    starts = [np.concatenate([np.eye(d_b).reshape(-1), np.zeros(n)]),
              np.concatenate([sqrt_rb.real.reshape(-1),
                              sqrt_rb.imag.reshape(-1)])]
    while len(starts) < max(2, restarts):
        starts.append(rng.normal(size=2 * n))
    best, at_cap = -np.inf, 0
    for x0 in starts:
        res = optimize.minimize(neg_lower, x0, method="Nelder-Mead",
                                options={"maxiter": 4000, "xatol": tol,
                                         "fatol": tol * 1e-2})
        best = max(best, -res.fun)
        at_cap += res.status == 2
    return float(best), int(at_cap)


def hmax_conditional(psi: Ket, cut_a, cut_b, restarts: int = 32,
                     tol: float = 1e-6, seed: int = 0):
    """Certified conditional max-entropy of ``cut_a`` given ``cut_b``:
    H_max(A|B) = max over densities sigma_B of log2 F(rho_AB, 1 x sigma_B)^2,
    enclosed in an interval [lower, upper].

    The search works on an exact factor rho_AB = W W^dagger, the Schmidt
    vectors of ``psi`` across (rest | a+b) scaled by their coefficients, and
    runs the multiplicative fixed point sigma <- sigma^{1/2} G^2 sigma^{1/2} /
    Tr from sigma = 1/d_B, each iterate mixed as (1 - HMAX_MIX) sigma + HMAX_MIX
    / d_B (see ``_hmax_step``).  No step depends on a seed or on a local
    basis.  Every step gives a lower bound (the objective at that sigma) and
    a rigorous upper bound; the best of each is kept, and the loop stops when
    ``upper - lower <= tol``.  Where the optimal sigma_B is near-singular the
    ascent can stall; after ``HMAX_STEP_CAP`` steps the seeded Nelder-Mead
    starts run on the same noise-free objective (``restarts`` starts, the
    identity, sqrt(rho_B) and random ones drawn from ``seed``), and can only
    raise ``lower``.  ``restarts`` and ``seed`` govern only that fallback.

    Returns a dict with
    ``value`` (equal to ``lower``), ``lower``, ``upper``, ``gap`` (``upper -
    lower`` as computed: where the objective is exactly flat, as for a Bell
    state, it can be a rounding-level negative number such as -4e-16, and is
    reported as such rather than clipped), ``steps`` (fixed-point steps
    taken), ``certified_lower`` (true), ``restarts_at_cap`` (fallback starts
    that ended at Nelder-Mead's iteration cap; 0 when the fallback did not
    run) and, when the complement of ``cut_a + cut_b`` is maximally mixed,
    the closed form ``upper_bound = log2(lambda0_B * D)``.

    References: Koenig, Renner & Schaffner, IEEE TIT 55, 4337 (2009);
    Tomamichel, Colbeck & Renner, IEEE TIT 56, 4674 (2010).
    """
    cut_a = sorted(int(k) for k in cut_a)
    cut_b = sorted(int(k) for k in cut_b)
    if set(cut_a) & set(cut_b):
        raise ValueError("cut_a and cut_b overlap")
    norm = np.linalg.norm(psi.amps)
    if abs(norm - 1.0) > 1e-6:
        raise StateError("hmax_conditional requires a normalized pure state")
    rest = [k for k in range(psi.nsys) if k not in cut_a and k not in cut_b]
    dim_a = math.prod(psi.dims[k] for k in cut_a)
    dim_b = math.prod(psi.dims[k] for k in cut_b)
    m = np.transpose(psi.tensor(), rest + cut_a + cut_b).reshape(
        -1, dim_a * dim_b)
    _, s, vh = np.linalg.svd(m, full_matrices=False)
    rank = _rank_above(s, DEFAULT_TOL)
    w = (vh[:rank].T * s[:rank]).reshape(dim_a, dim_b, rank)

    mixed = np.eye(dim_b) / dim_b
    sigma = mixed
    lower, upper = -np.inf, np.inf
    for steps in range(1, HMAX_STEP_CAP + 1):
        lo, up, nxt = _hmax_step(w, sigma)
        lower, upper = max(lower, lo), min(upper, up)
        if upper - lower <= tol:
            break
        sigma = (1.0 - HMAX_MIX) * nxt + HMAX_MIX * mixed
    at_cap = 0
    if upper - lower > tol:
        best, at_cap = _hmax_fallback(w, restarts, tol, seed)
        lower = max(lower, best)

    out = {"value": lower, "lower": lower, "upper": upper,
           "gap": upper - lower, "steps": steps, "certified_lower": True,
           "restarts_at_cap": at_cap}
    if rest:
        rho_r = m @ m.conj().T
        d_r = rho_r.shape[0]
        if np.max(np.abs(rho_r - np.eye(d_r) / d_r)) < 1e-8:
            lam0_b = float(np.max(np.linalg.eigvalsh(_trace_a(w))))
            out["upper_bound"] = float(np.log2(lam0_b * d_r))
    return out


def random_ket(dims, rng) -> Ket:
    d = int(np.prod(dims))
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return Ket(v / np.linalg.norm(v), dims)


def random_density(dims, rng, rank=None) -> DensityOp:
    d = int(np.prod(dims))
    r = rank or d
    g = rng.normal(size=(d, r)) + 1j * rng.normal(size=(d, r))
    m = g @ g.conj().T
    return DensityOp(m / np.trace(m).real, dims, check=False)


def random_unitary(d, rng) -> np.ndarray:
    return unitary_from_ginibre(
        rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))


def unitary_from_ginibre(g) -> np.ndarray:
    """Haar-random unitary from a complex Ginibre matrix, or a stack of
    them: the Q factor of its QR decomposition, each column times the phase
    of R's diagonal entry."""
    q, r = np.linalg.qr(g)
    diag = r.diagonal(0, -2, -1)
    return q * (diag / np.abs(diag))[..., None, :]
