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
from functools import cached_property, lru_cache

import numpy as np

from .qcore import (Ket, MaximalityError, _frozen, _rank_above,
                    reduced_state)

PROP_TOL = 1e-8       # relative Frobenius tolerance for proportionality
EIG_TOL = 1e-9        # eigenvalues in (-tol, tol] go to the non-positive side
SUPP_TOL = 1e-9       # relative support threshold


@dataclass(frozen=True, eq=False)
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


@lru_cache(maxsize=None)
def steering_family(dim_r: int) -> np.ndarray:
    """Positive semidefinite reference operators spanning all operators on
    the reference (identity, then ``|v><v|`` for every structured vector),
    as one read-only stack of shape (n_ops, dim_r, dim_r), cached."""
    vecs = _structured_vectors(dim_r)
    return _frozen(np.concatenate([
        np.eye(dim_r, dtype=complex)[None],
        vecs[:, :, None] * vecs[:, None, :].conj()]))


def _structured_vectors(dim):
    """Rows e_k, then e_k + e_l and e_k + i e_l for every pair k < l."""
    eye = np.eye(dim, dtype=complex)
    k, l = np.triu_indices(dim, 1)
    pairs = np.stack([eye[k] + eye[l], eye[k] + 1j * eye[l]], axis=1)
    return np.concatenate([eye, pairs.reshape(-1, dim)])


def steered_states(psi_ra: np.ndarray, dims, family):
    """Apply each reference operator to the bipartite state and trace out the
    reference; returns the stack of unnormalized sender-side operators."""
    dr, da = dims
    m = np.einsum("krs,sarb->kab", family, psi_ra.reshape(dr, da, dr, da))
    return (m + m.conj().transpose(0, 2, 1)) / 2


@lru_cache(maxsize=None)
def _vector_candidates(dim):
    """Unit vectors polarizing all sesquilinear forms on a dim-dimensional
    space, as read-only rows: basis vectors, then normalized pair
    combinations.  Global phases are irrelevant, so dimension one needs one
    candidate."""
    if dim == 1:
        return _frozen(np.ones((1, 1), dtype=complex))
    vecs = _structured_vectors(dim)
    vecs[dim:] /= np.sqrt(2)
    return _frozen(vecs)


def _fro(a: np.ndarray) -> np.ndarray:
    """Euclidean norms along the last axis of a complex array."""
    v = np.ascontiguousarray(a).view(float)
    return np.sqrt(np.einsum("...k,...k->...", v, v))


def _first_kept(ops: np.ndarray, valid: np.ndarray) -> np.ndarray:
    """Mask of the operators an in-order scan keeps: a valid operator is
    dropped when it lies within 1e-10 (Frobenius) of an earlier kept one.
    Only rows whose entry sums come within 2e-10 sqrt(size) of an earlier
    row's can be that close (Cauchy-Schwarz); their distances are direct
    differences, in chunks of at most 2**20 entries (a Gram expansion
    cannot resolve 1e-10)."""
    n = len(ops)
    flat = ops.reshape(n, -1)
    kept = valid.copy()
    if n < 2:
        return kept
    p = flat.sum(axis=1)
    close = np.abs(p[:, None] - p) < 2e-10 * np.sqrt(flat.shape[1])
    rows = np.flatnonzero(np.tril(close, -1).any(axis=1))
    step = max(1, (1 << 20) // max(1, n * flat.shape[1]))
    for c in range(0, len(rows), step):
        chunk = rows[c:c + step]
        for i, near in zip(chunk, _fro(flat[chunk, None] - flat) < 1e-10):
            if kept[i] and (near[:i] & kept[:i]).any():
                kept[i] = False
    return kept


def _contract(b1: KIBlock, b0: KIBlock, x, a, b) -> np.ndarray:
    """rho[l1, l0] = sum_{r1, r0} conj(a_r1) b_r0 <w1_l1r1| x |w0_l0r0>,
    evaluated as the pair-by-pair scan does: block form, then einsum."""
    y = (b1.flat().conj() @ x @ b0.flat().T).reshape(
        b1.dim_left, b1.dim_right, b0.dim_left, b0.dim_right)
    return np.einsum("r,lrms,s->lm", a.conj(), y, b, optimize=False)


def _polarized(block: KIBlock, vecs: np.ndarray):
    """(conj(u), u^T) for u[k, l] = sum_r v_kr w_lr, one row per candidate
    v_k, so that conj(u_k) x u_k^T = _contract(block, block, x, v_k, v_k)."""
    dl, dr, da = block.grid.shape
    u = (vecs @ block.grid.transpose(1, 0, 2).reshape(dr, -1)).reshape(
        -1, dl, da)
    return u.conj(), u.transpose(0, 2, 1)


def _ranks(m: np.ndarray, tol: float) -> np.ndarray:
    """Ranks (count of s > tol * s0) of a stack; a nonzero 1x1 has rank 1."""
    if m.shape[-1] == 1:
        return (m[:, 0, 0] != 0).astype(int)
    return _rank_above(np.linalg.svd(m, compute_uv=False), tol)


def l_decompose_step(partition: KIPartition, steered,
                     eig_tol: float = EIG_TOL):
    """Split the left factor of some block by the sign of a normalized
    difference of steered operators; returns the refined partition or
    ``NO_REFINEMENT``.  Per steered operator, all (candidate, reference)
    pairs are screened at once, on unit-trace forms; screened pairs are
    recomputed alone, in scan order, before ``eigh``."""
    for j0, block in enumerate(partition.blocks):
        if block.dim_left < 2:
            continue
        vecs = _vector_candidates(block.dim_right)
        uc, ut = _polarized(block, vecs)
        for k, x in enumerate(steered):
            rho = (uc @ x @ ut).reshape(len(vecs), -1)
            tr = rho[:, ::block.dim_left + 1].real.sum(axis=1)
            ok = tr > 1e-12
            rho /= np.where(ok, tr, 1.0)[:, None]
            if k == 0:   # the average state supplies the references, and
                primes = np.flatnonzero(_first_kept(rho, ok))
                ref = rho[primes]
                if len(vecs) == 1:   # a lone candidate equals its reference
                    continue
            far = _fro(rho[:, None] - ref) > PROP_TOL * np.maximum(
                1.0, _fro(rho))[:, None]
            for ia, ib in zip(*np.nonzero(far & ok[:, None])):
                r1, r0 = (_contract(block, block, z, v, v) for z, v in (
                    (x, vecs[ia]), (steered[0], vecs[primes[ib]])))
                delta = (r1 / float(np.trace(r1).real)
                         - r0 / float(np.trace(r0).real))
                ev, vec = np.linalg.eigh((delta + delta.conj().T) / 2)
                plus = vec[:, ev > eig_tol]
                minus = vec[:, ev <= eig_tol]
                if plus.shape[1] == 0 or minus.shape[1] == 0:
                    continue
                new_blocks = partition.blocks[:j0] + partition.blocks[j0 + 1:]
                new_blocks += [KIBlock(np.einsum("lm,lra->mra", basis,
                                                 block.grid))
                               for basis in (plus, minus)]
                return KIPartition(new_blocks, partition.dim_a)
    return NO_REFINEMENT


def r_combine_step(partition: KIPartition, steered,
                   supp_tol: float = SUPP_TOL):
    """Combine the right factors of two blocks whose left factors are steered
    coherently; returns the refined partition or ``NO_REFINEMENT``.

    Precondition: ``l_decompose_step`` returns ``NO_REFINEMENT`` on the
    partition, as it does wherever ``ki_partition`` calls this step.  Then
    every steered operator's polarized form on a block is proportional to one
    matrix, so any operator with nonzero weight there meets the full-rank
    mask.  On other partitions the family may miss a coherent pair.

    The support requirement is evaluated against the live part of each left
    factor, so zero-weight directions riding inside a block cannot veto a
    combination they never participate in.  Per steered operator, a pair's
    cross contractions are screened at once, then (if one is nonzero) rank
    masks from one batched SVD per block; the first hit is recomputed."""
    blocks = partition.blocks
    if len(blocks) < 2:
        return NO_REFINEMENT
    n = max(b.dim_left for b in blocks)
    marg = np.zeros((len(blocks), n, n), dtype=complex)
    for j, b in enumerate(blocks):
        m = np.einsum("lra,mra->lm", b.grid.conj() @ steered[0], b.grid)
        marg[j, :b.dim_left, :b.dim_left] = (m + m.conj().T) / 2
    live = _ranks(marg, supp_tol)
    vecs = [_vector_candidates(b.dim_right) for b in blocks]
    pols = [_polarized(b, v) for b, v in zip(blocks, vecs)]
    full = {}   # (block, steered index) -> candidates at full live rank

    def full_rank(j, k):
        if (j, k) not in full:
            uc, ut = pols[j]
            full[j, k] = _ranks(uc @ steered[k] @ ut, supp_tol) >= live[j]
        return full[j, k]

    for j0 in range(len(blocks)):
        for j1 in range(j0 + 1, len(blocks)):
            (uc1, _), (_, ut0) = pols[j1], pols[j0]
            (n1, dl1, da), (n0, _, dl0) = uc1.shape, ut0.shape
            left, right = uc1.reshape(-1, da), np.hstack(ut0)
            for k, x in enumerate(steered):
                # sigma[b, l1, a, l0] = _contract(b1, b0, x, v1_b, v0_a)
                sigma = (left @ x @ right).reshape(n1, dl1, n0, dl0)
                hit = (np.abs(sigma) ** 2).sum(axis=(1, 3)).T > 1e-18
                if not hit.any():
                    continue
                hit &= full_rank(j0, k)[:, None] & full_rank(j1, k)[None, :]
                hits = np.flatnonzero(hit)
                if hits.size:
                    ia, ib = divmod(int(hits[0]), n1)
                    return _apply_combine(partition, j0, j1, _contract(
                        blocks[j1], blocks[j0], x, vecs[j1][ib], vecs[j0][ia]))
    return NO_REFINEMENT


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


def ki_partition(psi_ra: np.ndarray, dims) -> KIPartition:
    """Compute the maximal partition of the sender support of a bipartite
    state (given as a density matrix on reference x sender)."""
    dr, da = dims
    partition = KIPartition([KIBlock(np.eye(da, dtype=complex)[:, None])], da)
    steered = steered_states(psi_ra, dims, steering_family(dr))
    tr = np.abs(np.trace(steered, axis1=1, axis2=2))
    valid = tr > 1e-12
    steered = steered[_first_kept(
        steered / np.where(valid, tr, 1.0)[:, None, None], valid)]

    cap = da * (da + 1) // 2 + 2
    for _ in range(cap):
        for step, name in ((l_decompose_step, "left split"),
                           (r_combine_step, "right combine")):
            result = step(partition, steered)
            if not isinstance(result, NoRefinement):
                break
        else:
            if maximality_check(partition, psi_ra, dims):
                return partition
            raise MaximalityError(
                "candidate family exhausted without reaching a maximal "
                "partition", partition)
        if result.refinement_index() <= partition.refinement_index():
            raise MaximalityError(
                f"{name} did not increase the refinement index", partition)
        partition = result
    raise MaximalityError("refinement iteration cap exceeded", partition)


@dataclass(frozen=True, eq=False)
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

    @cached_property
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
    # merge cost reports per (setting, delta), filled by ``mergesplit``
    _reports: dict = field(default_factory=dict, init=False, repr=False,
                           compare=False)

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


def ki_decompose_tripartite(psi: Ket, tol: float = 1e-7) -> TripartiteKI:
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
    partition = ki_partition(psi_ra, (dr, da))

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
    return vec[:, :rank] * np.sqrt(np.maximum(ev[:rank], 0.0)), rank
