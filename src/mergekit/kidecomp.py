"""Block decomposition of a sender system into classical, quantum, and
redundant parts, computed by iterative subspace refinement with a
maximality certificate.

A partition tiles the sender space with blocks, each carrying a left
(redundant) and right (reference-correlated) tensor factor.  Each block
stores an orthonormal grid ``w[l, r]`` of vectors of the ambient space; the
block subspace is their span and the implied isometry sends ``w[l, r]`` to
``|l>|r>``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .qcore import Ket, reduced_state, singular_rank

PROP_TOL = 1e-8       # relative Frobenius tolerance for proportionality
EIG_TOL = 1e-9        # eigenvalues in (-tol, tol] go to the non-positive side
SUPP_TOL = 1e-9       # relative support threshold
N_RANDOM_CANDIDATES = 16


class MaximalityError(RuntimeError):
    """Raised when refinement stalls without a certified maximal partition;
    carries the last partition for diagnosis."""

    def __init__(self, message, partition=None):
        super().__init__(message)
        self.partition = partition


@dataclass(frozen=True)
class KIBlock:
    """One block: orthonormal grid of shape (dim_left, dim_right, dim_a)."""

    grid: np.ndarray

    @property
    def dim_left(self):
        return self.grid.shape[0]

    @property
    def dim_right(self):
        return self.grid.shape[1]

    def flat(self):
        return self.grid.reshape(-1, self.grid.shape[2])


@dataclass(frozen=True)
class KIPartition:
    """Blocks decomposing the full sender space; directions outside the
    support of the sender's reduced state ride along inside blocks with zero
    weight, matching the uniqueness statement on the ambient space."""

    blocks: list
    dim_a: int

    @property
    def n_blocks(self):
        return len(self.blocks)

    @property
    def block_dims(self):
        return [(b.dim_left, b.dim_right) for b in self.blocks]

    def refinement_index(self) -> int:
        total_r = sum(b.dim_right for b in self.blocks)
        return total_r * (total_r + 1) // 2 - self.n_blocks + 1


class NoRefinement:
    """Sentinel value: no further refinement step applies."""

    def __repr__(self):
        return "NoRefinement"


NO_REFINEMENT = NoRefinement()


def steering_family(dim_r: int, n_random: int = N_RANDOM_CANDIDATES,
                    seed: int = 0):
    """Positive semidefinite operators on the reference spanning all
    steering directions: rank-one structured combinations over all index
    pairs plus seeded random rank-one operators."""
    ops = [np.eye(dim_r, dtype=complex)]
    for k in range(dim_r):
        e = np.zeros(dim_r, dtype=complex)
        e[k] = 1.0
        ops.append(np.outer(e, e.conj()))
    for k in range(dim_r):
        for l in range(k + 1, dim_r):
            v = np.zeros(dim_r, dtype=complex)
            v[k] = 1.0
            v[l] = 1.0
            ops.append(np.outer(v, v.conj()))
            v = np.zeros(dim_r, dtype=complex)
            v[k] = 1.0
            v[l] = 1.0j
            ops.append(np.outer(v, v.conj()))
    rng = np.random.default_rng(seed)
    for _ in range(n_random):
        g = rng.normal(size=(dim_r, dim_r)) + 1j * rng.normal(size=(dim_r, dim_r))
        ops.append(g @ g.conj().T)
    return ops


def steered_states(psi_ra: np.ndarray, dims, family):
    """Apply each reference operator to the bipartite state and trace out the
    reference; returns unnormalized sender-side operators."""
    dr, da = dims
    rho = psi_ra.reshape(dr, da, dr, da)
    out = []
    for lam in family:
        m = np.einsum("rs,sarb->ab", lam, rho, optimize=False)
        out.append((m + m.conj().T) / 2)
    return out


def _vector_candidates(dim, n_random, rng):
    """Unit vectors polarizing all sesquilinear forms on a dim-dimensional
    space: basis vectors, pair combinations, and random extras.  Global
    phases are irrelevant, so dimension one needs a single candidate."""
    if dim == 1:
        return [np.ones(1, dtype=complex)]
    cands = []
    eye = np.eye(dim, dtype=complex)
    for k in range(dim):
        cands.append(eye[k])
    for k in range(dim):
        for l in range(k + 1, dim):
            cands.append((eye[k] + eye[l]) / np.sqrt(2))
            cands.append((eye[k] + 1j * eye[l]) / np.sqrt(2))
    for _ in range(n_random):
        v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        cands.append(v / np.linalg.norm(v))
    return cands


def _block_form(block: KIBlock, x: np.ndarray) -> np.ndarray:
    """Coordinates of the operator ``x`` restricted to the block:
    Y[l, r, l', r'] = <w_lr| x |w_l'r'>."""
    flat = block.flat()
    y = flat.conj() @ x @ flat.T
    dl, dr = block.dim_left, block.dim_right
    return y.reshape(dl, dr, dl, dr)


def _cross_form(b1: KIBlock, b0: KIBlock, x: np.ndarray) -> np.ndarray:
    """Cross coordinates Y[l1, r1, l0, r0] = <w1_l1r1| x |w0_l0r0>."""
    f1, f0 = b1.flat(), b0.flat()
    y = f1.conj() @ x @ f0.T
    return y.reshape(b1.dim_left, b1.dim_right, b0.dim_left, b0.dim_right)


def _contract(y: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """rho[l, l'] = sum_{r, r'} conj(a_r) b_r' Y[l, r, l', r']."""
    return np.einsum("r,lrms,s->lm", a.conj(), y, b, optimize=False)


def l_decompose_step(partition: KIPartition, steered, candidates_by_dim,
                     eig_tol: float = EIG_TOL):
    """Split the left factor of some block by the sign of a normalized
    difference of steered operators; returns the refined partition or
    ``NO_REFINEMENT``."""
    identity_op = steered[0]
    for j0, block in enumerate(partition.blocks):
        if block.dim_left < 2:
            continue
        vecs = candidates_by_dim[block.dim_right]
        ref_y = _block_form(block, identity_op)
        rho_primes = []
        for b_vec in vecs:
            rp = _contract(ref_y, b_vec, b_vec)
            tr = float(np.trace(rp).real)
            if tr <= 1e-12:
                continue
            rp = rp / tr
            if any(np.linalg.norm(rp - q) < 1e-10 for q in rho_primes):
                continue
            rho_primes.append(rp)
        for x in steered:
            y = _block_form(block, x)
            for a_vec in vecs:
                rho = _contract(y, a_vec, a_vec)
                tr = float(np.trace(rho).real)
                if tr <= 1e-12:
                    continue
                rho = rho / tr
                for rho_p in rho_primes:
                    delta = rho - rho_p
                    if np.linalg.norm(delta) <= PROP_TOL * max(
                            1.0, np.linalg.norm(rho)):
                        continue
                    ev, vec = np.linalg.eigh((delta + delta.conj().T) / 2)
                    plus = vec[:, ev > eig_tol]
                    minus = vec[:, ev <= eig_tol]
                    if plus.shape[1] == 0 or minus.shape[1] == 0:
                        continue
                    new_blocks = [b for k, b in enumerate(partition.blocks)
                                  if k != j0]
                    for basis in (plus, minus):
                        grid = np.einsum("lm,lra->mra", basis, block.grid)
                        new_blocks.append(KIBlock(grid))
                    return KIPartition(new_blocks, partition.dim_a)
    return NO_REFINEMENT


def _live_left_rank(block: KIBlock, identity_op: np.ndarray,
                    tol: float = SUPP_TOL) -> int:
    """Rank of the left-factor marginal of the average state on the block;
    directions outside it carry no weight and cannot be steered."""
    y = _block_form(block, identity_op)
    marg = np.einsum("lrmr->lm", y, optimize=False)
    return singular_rank((marg + marg.conj().T) / 2, tol)


def r_combine_step(partition: KIPartition, steered, candidates_by_dim,
                   supp_tol: float = SUPP_TOL):
    """Combine the right factors of two blocks whose left factors are steered
    coherently; returns the refined partition or ``NO_REFINEMENT``.

    The support requirement is evaluated against the live part of each left
    factor, so zero-weight directions riding inside a block cannot veto a
    combination they never participate in.
    """
    blocks = partition.blocks
    identity_op = steered[0]
    live = [_live_left_rank(b, identity_op, supp_tol) for b in blocks]
    for j0 in range(len(blocks)):
        for j1 in range(j0 + 1, len(blocks)):
            b0, b1 = blocks[j0], blocks[j1]
            vecs0 = candidates_by_dim[b0.dim_right]
            vecs1 = candidates_by_dim[b1.dim_right]
            for x in steered:
                y00 = _block_form(b0, x)
                y11 = _block_form(b1, x)
                y10 = _cross_form(b1, b0, x)
                for a_vec in vecs0:
                    rho_a = _contract(y00, a_vec, a_vec)
                    if singular_rank(rho_a, supp_tol) < live[j0]:
                        continue
                    for b_vec in vecs1:
                        rho_b = _contract(y11, b_vec, b_vec)
                        if singular_rank(rho_b, supp_tol) < live[j1]:
                            continue
                        sigma = _contract_cross(y10, b_vec, a_vec)
                        if np.linalg.norm(sigma) <= 1e-9:
                            continue
                        return _apply_combine(partition, j0, j1, sigma)
    return NO_REFINEMENT


def _contract_cross(y10: np.ndarray, b_vec: np.ndarray,
                    a_vec: np.ndarray) -> np.ndarray:
    """sigma[l1, l0] = sum conj(b_r1) a_r0 Y[l1, r1, l0, r0]."""
    return np.einsum("r,lrms,s->lm", b_vec.conj(), y10, a_vec, optimize=False)


def _apply_combine(partition: KIPartition, j0: int, j1: int,
                   sigma: np.ndarray) -> KIPartition:
    b0, b1 = partition.blocks[j0], partition.blocks[j1]
    u, s, vh = np.linalg.svd(sigma)
    rank = int(np.sum(s > SUPP_TOL * s[0]))
    v = vh.conj().T
    new_blocks = [b for k, b in enumerate(partition.blocks)
                  if k not in (j0, j1)]
    dr0, dr1 = b0.dim_right, b1.dim_right
    combined = np.zeros((rank, dr0 + dr1, partition.dim_a), dtype=complex)
    combined[:, :dr0] = np.einsum("lm,lra->mra", v[:, :rank], b0.grid)
    combined[:, dr0:] = np.einsum("lm,lra->mra", u[:, :rank], b1.grid)
    new_blocks.append(KIBlock(combined))
    for basis, blk in ((_orthocomplement(v[:, :rank]), b0),
                       (_orthocomplement(u[:, :rank]), b1)):
        if basis.shape[1] > 0:
            grid = np.einsum("lm,lra->mra", basis, blk.grid)
            new_blocks.append(KIBlock(grid))
    return KIPartition(new_blocks, partition.dim_a)


def _orthocomplement(cols: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the orthogonal complement of the given columns
    inside their ambient space."""
    d, r = cols.shape
    if r >= d:
        return np.zeros((d, 0), dtype=complex)
    q, _ = np.linalg.qr(np.hstack([cols, np.eye(d, dtype=complex)]))
    return q[:, r:d]


def maximality_check(partition: KIPartition, psi_ra: np.ndarray, dims,
                     tol: float = 1e-7) -> bool:
    """True iff every block-projected operator factorizes between the left
    factor and the (reference, right) factors (operator Schmidt rank one)."""
    dr, da = dims
    rho = psi_ra.reshape(dr, da, dr, da)
    for block in partition.blocks:
        flat = block.flat()
        # G[rR, l r, rR', l' r'] with lr collapsed via the grid
        g = np.einsum("xa,rasb,yb->rxsy", flat.conj(), rho, flat,
                      optimize=False)
        dl, drr = block.dim_left, block.dim_right
        g = g.reshape(dr, dl, drr, dr, dl, drr)
        # split (rR, r | l) against (rR', r' | l'): operator Schmidt across
        # the left factor versus the rest
        m = np.transpose(g, (0, 2, 3, 5, 1, 4)).reshape(
            dr * drr * dr * drr, dl * dl)
        s = np.linalg.svd(m, compute_uv=False)
        if s.size == 0 or s[0] <= 1e-14:
            continue
        if s.size > 1 and s[1] > tol * s[0]:
            return False
    return True


def ki_partition(psi_ra: np.ndarray, dims, n_random: int = N_RANDOM_CANDIDATES,
                 seed: int = 0) -> KIPartition:
    """Compute the maximal partition of the sender support of a bipartite
    state (given as a density matrix on reference x sender)."""
    dr, da = dims
    grid = np.eye(da, dtype=complex).reshape(da, 1, da)
    partition = KIPartition([KIBlock(grid)], da)

    family = steering_family(dr, n_random=n_random, seed=seed)
    steered_all = steered_states(psi_ra, dims, family)
    steered = []
    seen = []
    for s in steered_all:
        tr = abs(np.trace(s))
        if tr <= 1e-12:
            continue
        sn = s / tr
        if any(np.linalg.norm(sn - q) < 1e-10 for q in seen):
            continue
        seen.append(sn)
        steered.append(s)
    rng = np.random.default_rng(seed + 1)
    max_dim = max(da, 2)
    candidates_by_dim = {d: _vector_candidates(d, n_random, rng)
                         for d in range(1, max_dim + 1)}

    cap = da * (da + 1) // 2 + 2
    for _ in range(cap):
        result = l_decompose_step(partition, steered, candidates_by_dim)
        if not isinstance(result, NoRefinement):
            new_r, old_r = result.refinement_index(), partition.refinement_index()
            if new_r <= old_r:
                raise MaximalityError(
                    "left split did not increase the refinement index",
                    partition)
            partition = result
            continue
        result = r_combine_step(partition, steered, candidates_by_dim)
        if not isinstance(result, NoRefinement):
            new_r, old_r = result.refinement_index(), partition.refinement_index()
            if new_r <= old_r:
                raise MaximalityError(
                    "right combine did not increase the refinement index",
                    partition)
            partition = result
            continue
        if maximality_check(partition, psi_ra, dims):
            return partition
        raise MaximalityError(
            "candidate family exhausted without reaching a maximal "
            "partition", partition)
    raise MaximalityError("refinement iteration cap exceeded", partition)


@dataclass(frozen=True)
class KITripartiteBlock:
    """One block of the tripartite decomposition."""

    prob: float
    grid_a: np.ndarray       # (dim_left, dim_right, dim_a)
    omega: np.ndarray        # (dim_left, dim_bleft) pure-state coefficients
    phi: np.ndarray          # (dim_r, dim_right, dim_bright) coefficients
    receiver_map: np.ndarray  # (dim_b, dim_bleft * dim_bright) isometry

    @property
    def dim_left(self):
        return self.grid_a.shape[0]

    @property
    def dim_right(self):
        return self.grid_a.shape[1]

    @property
    def dim_bleft(self):
        return self.omega.shape[1]

    @property
    def dim_bright(self):
        return self.phi.shape[2]

    @property
    def omega_spectrum(self):
        """Descending eigenvalues of the left-factor marginal of omega."""
        m = self.omega @ self.omega.conj().T
        return np.sort(np.clip(np.linalg.eigvalsh(m), 0, None))[::-1]


@dataclass(frozen=True)
class TripartiteKI:
    """Full decomposition of a tripartite pure state."""

    psi: Ket
    partition_a: KIPartition
    blocks: list = field(default_factory=list)

    @property
    def probs(self):
        return [b.prob for b in self.blocks]

    def reassembly_residual(self) -> float:
        dr, da, db = self.psi.dims
        total = np.zeros((dr, da, db), dtype=complex)
        for blk in self.blocks:
            t = np.einsum("lx,Rry->Rlrxy", blk.omega, blk.phi, optimize=False)
            t = t.reshape(dr, blk.dim_left * blk.dim_right,
                          blk.dim_bleft * blk.dim_bright)
            flat_a = blk.grid_a.reshape(-1, da)
            t = np.einsum("Rgy,ga,by->Rab", t, flat_a, blk.receiver_map,
                          optimize=False)
            total += np.sqrt(blk.prob) * t
        return float(np.linalg.norm(total.reshape(-1) - self.psi.amps))

    def block_summary(self):
        return [
            {
                "dim_left": b.dim_left,
                "dim_right": b.dim_right,
                "dim_bleft": b.dim_bleft,
                "dim_bright": b.dim_bright,
                "prob": b.prob,
                "lambda0_left": float(b.omega_spectrum[0]),
            }
            for b in self.blocks
        ]


def ki_decompose_tripartite(psi: Ket, n_random: int = N_RANDOM_CANDIDATES,
                            seed: int = 0, tol: float = 1e-7) -> TripartiteKI:
    """Decompose a tripartite pure state on (reference, sender, receiver).

    The returned structure carries, per block, the block probability, the
    redundant-part pure state, the reference-correlated pure state, and the
    receiver-side isometry splitting the receiver support accordingly.
    """
    if psi.nsys != 3:
        raise ValueError("expected a tripartite state")
    if abs(np.linalg.norm(psi.amps) - 1.0) > 1e-6:
        raise ValueError("state must be normalized")
    dr, da, db = psi.dims
    psi_ra = reduced_state(psi, [0, 1]).mat
    partition = ki_partition(psi_ra, (dr, da), n_random=n_random, seed=seed)

    amp = psi.tensor()
    blocks = []
    for block in partition.blocks:
        dl, drt = block.dim_left, block.dim_right
        flat = block.flat()
        comp = np.einsum("ga,Rab->Rgb", flat.conj(), amp, optimize=False)
        comp = comp.reshape(dr, dl, drt, db)
        p = float(np.linalg.norm(comp) ** 2)
        if p < 1e-12:
            continue
        cn = comp / np.sqrt(p)
        # X = left factor, Y = (reference, right factor)
        v = np.transpose(cn, (1, 0, 2, 3))  # (l, R, r, b)
        m_x = v.reshape(dl, -1)
        omega_x = m_x @ m_x.conj().T
        m_y = np.transpose(cn, (0, 2, 1, 3)).reshape(dr * drt, -1)
        phi_y = m_y @ m_y.conj().T
        joint = v.reshape(dl * dr * drt, db)
        rho_xy = joint @ joint.conj().T
        kron = np.kron(omega_x, phi_y)
        if np.linalg.norm(rho_xy - kron) > tol * max(1.0, np.linalg.norm(rho_xy)):
            raise MaximalityError(
                "certified partition failed to factorize a block", partition)
        omega_vec, bl_dim = _canonical_purification(omega_x)
        phi_vec, br_dim = _canonical_purification(phi_y)
        # match the two purifications of rho_xy on the receiver side
        tau = np.einsum("lp,yq->lypq", omega_vec, phi_vec, optimize=False)
        m_t = tau.reshape(dl * dr * drt, bl_dim * br_dim)
        m_c = joint
        w_t = np.linalg.pinv(m_t) @ m_c
        w = w_t.T  # (db, bl*br)
        gram = w.conj().T @ w
        if np.max(np.abs(gram - np.eye(bl_dim * br_dim))) > 1e-7:
            raise MaximalityError(
                "receiver-side factor map failed to be an isometry", partition)
        if np.linalg.norm(m_t @ w_t - m_c) > 1e-7:
            raise MaximalityError(
                "receiver-side factor map failed to reproduce the block",
                partition)
        blocks.append(KITripartiteBlock(
            prob=p,
            grid_a=block.grid,
            omega=omega_vec,
            phi=phi_vec.reshape(dr, drt, br_dim),
            receiver_map=w,
        ))

    blocks.sort(key=lambda b: -b.prob)
    out = TripartiteKI(psi=psi, partition_a=partition, blocks=blocks)
    resid = out.reassembly_residual()
    if resid > 1e-8:
        raise MaximalityError(
            f"reassembly residual {resid:.2e} exceeds tolerance", partition)
    return out


def _canonical_purification(rho: np.ndarray):
    """Eigen-purification of a PSD matrix; returns (coefficients of shape
    (dim, rank), rank)."""
    ev, vec = np.linalg.eigh((rho + rho.conj().T) / 2)
    order = np.argsort(ev)[::-1]
    ev, vec = ev[order], vec[:, order]
    rank = max(1, int(np.sum(ev > 1e-11 * max(ev[0], 1e-300))))
    coeff = np.zeros((rho.shape[0], rank), dtype=complex)
    for i in range(rank):
        coeff[:, i] = np.sqrt(max(ev[i], 0.0)) * vec[:, i]
    return coeff, rank
