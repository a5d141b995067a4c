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


def _as_complex(a) -> np.ndarray:
    return np.asarray(a, dtype=complex)


@dataclass(frozen=True)
class Ket:
    """Pure state vector with subsystem dimensions."""

    amps: np.ndarray
    dims: tuple
    normalized: bool = True

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
        return Ket(np.kron(self.amps, other.amps), self.dims + other.dims,
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


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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
        return np.count_nonzero(s > tol * s[:, :1], axis=1)
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
    largest: the Schmidt rank of a ket reshaped to ``m`` across its cut."""
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


def _sqrtm_psd(mat: np.ndarray) -> np.ndarray:
    ev, vec = np.linalg.eigh((mat + mat.conj().T) / 2)
    ev = np.clip(ev, 0.0, None)
    return (vec * np.sqrt(ev)) @ vec.conj().T


def fidelity(rho: DensityOp, sigma: DensityOp) -> float:
    """Square-root fidelity ``|| sqrt(rho) sqrt(sigma) ||_1``."""
    if rho.dims != sigma.dims:
        raise ValueError("dims mismatch")
    s = _sqrtm_psd(rho.mat)
    inner = s @ sigma.mat @ s
    ev = np.clip(np.linalg.eigvalsh((inner + inner.conj().T) / 2), 0.0, None)
    return float(min(1.0, np.sum(np.sqrt(ev))))


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


def _hmax_objective(sqrt_rho_ab: np.ndarray, sigma_b: np.ndarray,
                    dim_a: int) -> float:
    # log2 || sqrt(rho_ab) sqrt(1 x sigma_b) ||_1^2, with sqrt(rho_ab) given
    dim_b = sigma_b.shape[0]
    big = np.zeros((dim_a * dim_b, dim_a * dim_b), dtype=complex)
    for i in range(0, dim_a * dim_b, dim_b):
        big[i:i + dim_b, i:i + dim_b] = sigma_b
    inner = sqrt_rho_ab @ big @ sqrt_rho_ab
    ev = np.clip(np.linalg.eigvalsh((inner + inner.conj().T) / 2), 0.0, None)
    val = float(np.sum(np.sqrt(ev)))
    if val <= 0:
        return -np.inf
    return 2.0 * np.log2(val)


def hmax_conditional(psi: Ket, cut_a, cut_b, restarts: int = 32,
                     tol: float = 1e-6, seed: int = 0):
    """Heuristic conditional max-entropy of ``cut_a`` given ``cut_b``.

    Runs a multi-start Nelder-Mead ascent over the conditioning state on the
    ``cut_b`` factor.  The returned value is a lower bound of the true
    maximum; when the complement of ``cut_a + cut_b`` is maximally mixed the
    closed-form upper bound ``log2(lambda0_B * D)`` is reported alongside.

    Returns a dict with ``value``, ``certified_lower``,
    ``restarts_at_cap`` (the starts that Nelder-Mead ended at its iteration
    cap, status 2) and optionally ``upper_bound``.
    """
    cut_a = sorted(int(k) for k in cut_a)
    cut_b = sorted(int(k) for k in cut_b)
    if set(cut_a) & set(cut_b):
        raise ValueError("cut_a and cut_b overlap")
    norm = np.linalg.norm(psi.amps)
    if abs(norm - 1.0) > 1e-6:
        raise StateError("hmax_conditional requires a normalized pure state")
    rho_ab = reduced_state(psi, cut_a + cut_b)
    dim_a = int(np.prod([psi.dims[k] for k in cut_a]))
    dim_b = int(np.prod([psi.dims[k] for k in cut_b]))
    # reorder the reduced state's factors so the a-group precedes the b-group
    merged = sorted(cut_a + cut_b)
    perm = [merged.index(k) for k in cut_a] + [merged.index(k) for k in cut_b]
    md = [psi.dims[k] for k in merged]
    t = rho_ab.mat.reshape(md + md)
    t = np.transpose(t, perm + [len(md) + p for p in perm])
    rho_ab = DensityOp(t.reshape(dim_a * dim_b, dim_a * dim_b),
                       (dim_a, dim_b), check=False)

    rng = np.random.default_rng(seed)

    def unpack(x):
        g = (x[: dim_b * dim_b] + 1j * x[dim_b * dim_b:]).reshape(dim_b, dim_b)
        s = g.conj().T @ g
        tr = np.trace(s).real
        if tr <= 1e-300:
            return np.eye(dim_b) / dim_b
        return s / tr

    sqrt_rho_ab = _sqrtm_psd(rho_ab.mat)

    def neg_obj(x):
        return -_hmax_objective(sqrt_rho_ab, unpack(x), dim_a)

    best = -np.inf
    starts = [np.concatenate([np.eye(dim_b).reshape(-1), np.zeros(dim_b * dim_b)])]
    # bias one start toward the reduced state on b
    sqrt_rb = _sqrtm_psd(partial_trace(rho_ab, [1]).mat)
    starts.append(np.concatenate([sqrt_rb.real.reshape(-1),
                                  sqrt_rb.imag.reshape(-1)]))
    while len(starts) < max(2, restarts):
        starts.append(rng.normal(size=2 * dim_b * dim_b))
    # imported here, its only use, to keep scipy off every other import path
    from scipy import optimize

    at_cap = 0
    for x0 in starts[: max(2, restarts)]:
        res = optimize.minimize(neg_obj, x0, method="Nelder-Mead",
                                options={"maxiter": 4000, "xatol": tol,
                                         "fatol": tol * 1e-2})
        best = max(best, -res.fun)
        at_cap += res.status == 2

    out = {"value": float(best), "certified_lower": True,
           "restarts_at_cap": int(at_cap)}
    rest = [k for k in range(psi.nsys) if k not in cut_a and k not in cut_b]
    if rest:
        rho_r = reduced_state(psi, rest)
        d_r = rho_r.mat.shape[0]
        if np.max(np.abs(rho_r.mat - np.eye(d_r) / d_r)) < 1e-8:
            lam0_b = float(np.max(np.linalg.eigvalsh(
                reduced_state(psi, cut_b).mat)))
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
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))
