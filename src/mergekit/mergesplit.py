"""Entanglement costs and protocol synthesis for exact state splitting and
exact/approximate state merging, with converse bounds.

Merging protocols are one-way: the sender measures its (state, resource)
registers; the receiver applies an outcome-conditioned isometry producing the
merged copy, its own part, and the returned resource.  The per-block
subprocesses (redundant-part distillation, quantum-part teleportation, block
Fourier measurement) are combined coherently; outcome labels are replicated
to a common count per subprocess so that every branch carries the same
amplitude on each block, which is what makes the combination exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .kidecomp import TripartiteKI, ki_decompose_tripartite
from .locc import (
    InfeasibleError,
    OneWayProtocol,
    ProtocolOp,
    _completion_ops,
    _extend_isometry,
    _op_views,
    _teleport_bell_bra,
    _teleport_correction,
    branch_fidelities,
    one_way_to_locc,
    simulate,
    uniform_distill,
)
from .qcore import Bipartition, Ket, reduced_state, schmidt_rank
from .states import max_entangled

K_EXPLOSION_CAP = 10 ** 9


@dataclass(frozen=True)
class MergeCostReport:
    """Achievable merging costs derived from a block decomposition."""

    catalytic_cost: float
    non_catalytic_cost: float
    resource_rank: int          # K
    returned_rank: int          # L
    per_block: list
    oversized: bool = False

    def __post_init__(self):
        if self.catalytic_cost > self.non_catalytic_cost + 1e-9:
            raise ValueError("catalytic cost exceeds non-catalytic cost")


@dataclass(frozen=True)
class ConverseReport:
    """Lower bound on merging cost from operator majorization."""

    bound: float
    witness: tuple          # (K, L) attaining the bound within the caps
    feasible: bool
    closed_form: float = None


def _ceil_tol(x: float, tol: float = 1e-9) -> int:
    return int(math.ceil(x - tol))


def fraction_in_interval(lo: float, hi: float, max_den: int = 10 ** 6):
    """Smallest-denominator fraction inside [lo, hi], or None beyond the
    denominator cap."""
    if hi < lo:
        return None

    def rec(a, b, depth):
        n = math.ceil(a)
        if n <= b:
            return Fraction(int(n))
        if depth > 64:
            return None
        fl = math.floor(a)
        inner = rec(1.0 / (b - fl), 1.0 / (a - fl), depth + 1)
        if inner is None:
            return None
        return fl + 1 / inner

    f = rec(lo, hi, 0)
    if f is None or f.denominator > max_den:
        return None
    return f


def _block_costs(ki: TripartiteKI):
    out = []
    for j, blk in enumerate(ki.blocks):
        lam0 = float(blk.omega_spectrum[0])
        out.append({
            "block": j,
            "lambda0_left": lam0,
            "dim_right": blk.dim_right,
            "block_cost": float(np.log2(lam0 * blk.dim_right)),
        })
    return out


def merge_cost_noncatalytic(ki: TripartiteKI) -> MergeCostReport:
    """Resource rank K = max over blocks of ceil(lambda0 * dimR), nothing
    returned afterwards."""
    per_block = _block_costs(ki)
    k = max(_ceil_tol(b["lambda0_left"] * b["dim_right"]) for b in per_block)
    k = max(k, 1)
    non_cat = float(np.log2(k))
    cat = merge_cost_catalytic(ki, delta=1e-3).catalytic_cost
    return MergeCostReport(
        catalytic_cost=min(cat, non_cat),
        non_catalytic_cost=non_cat,
        resource_rank=k,
        returned_rank=1,
        per_block=per_block,
    )


def merge_cost_catalytic(ki: TripartiteKI, delta: float = 1e-3) -> MergeCostReport:
    """Rational-approximation construction: K is a common multiple of the
    per-block resource ranks and L the returned rank, with
    log2 K - log2 L within delta of the exact block bound and never above
    the non-catalytic cost."""
    if delta <= 0:
        raise ValueError("delta must be positive")
    per_block = _block_costs(ki)
    j0 = max(range(len(per_block)), key=lambda j: per_block[j]["block_cost"])
    lam0 = per_block[j0]["lambda0_left"]
    d0 = per_block[j0]["dim_right"]
    hi = min(lam0 * (2.0 ** delta), _ceil_tol(lam0 * d0) / d0)
    lam_tilde = fraction_in_interval(lam0 * (1 - 1e-12), hi)
    if lam_tilde is None:
        lam_tilde = Fraction(_ceil_tol(lam0 * d0), d0)
    k = 1
    for b in per_block:
        ratio = Fraction(d0, b["dim_right"]) * lam_tilde  # K_j / L_j
        k = math.lcm(k, b["dim_right"] * ratio.numerator)
    l_frac = Fraction(k) / (lam_tilde * d0)
    if l_frac.denominator != 1:
        raise RuntimeError("returned rank is not an integer")
    l = int(l_frac)
    cost = float(np.log2(k) - np.log2(l))
    non_cat = max(_ceil_tol(b["lambda0_left"] * b["dim_right"])
                  for b in per_block)
    non_cat = max(non_cat, 1)
    return MergeCostReport(
        catalytic_cost=cost,
        non_catalytic_cost=float(np.log2(non_cat)),
        resource_rank=k,
        returned_rank=l,
        per_block=per_block,
        oversized=k > K_EXPLOSION_CAP,
    )


def merge_converse_search(psi: Ket, l_max: int = None, k_max: int = None) -> ConverseReport:
    """Infimum of log2 K - log2 L over resource pairs satisfying the
    operator-majorization necessary condition, within the caps."""
    if psi.nsys != 3:
        raise ValueError("expected a tripartite state")
    d_ref = schmidt_rank(psi, Bipartition([0], [1, 2]))
    l_max = l_max if l_max is not None else d_ref ** 2
    k_max = k_max if k_max is not None else d_ref ** 3
    if l_max < 1 or k_max < 1:
        raise ValueError("caps must be at least 1")
    ev_b = np.clip(np.linalg.eigvalsh(reduced_state(psi, [2]).mat), 0, None)
    ev_ab = np.clip(np.linalg.eigvalsh(reduced_state(psi, [1, 2]).mat), 0, None)
    # Prefix sums of the descending spectra of (1/K) 1_K x rho_B and
    # (1/L) 1_L x rho_AB, zero-padded to one common length: the repeated
    # entries ev * (1/K) are the values kron produces, and padding holds a
    # prefix sum at its total.  So each test is the one ``majorizes`` makes
    # on the padded spectra; past the pair's own length both rows sit at
    # their totals (about 1), where ``total_x <= total_y + tol`` follows
    # exactly from ``|total_x - total_y| <= tol``.
    n = max(k_max * ev_b.size, l_max * ev_ab.size)
    lhs = _padded_prefix_sums(ev_b, k_max, n)
    rhs = _padded_prefix_sums(ev_ab, l_max, n)
    rhs_tol = rhs + 1e-9
    # The whole (K, L) grid at once, in row chunks that bound the (K, L, n)
    # comparison; the first minimum in row-major order is what a scan with
    # strict updates keeps, and ties compare exactly.
    values = (np.log2(np.arange(1, k_max + 1))[:, None]
              - np.log2(np.arange(1, l_max + 1))[None, :])
    best = None
    witness = None
    step = max(1, (1 << 20) // (l_max * n))
    for k0 in range(0, k_max, step):
        rows = lhs[k0:k0 + step]
        ok = ((np.abs(rows[:, -1, None] - rhs[None, :, -1]) <= 1e-9)
              & np.all(rows[:, None, :] <= rhs_tol[None], axis=2))
        masked = np.where(ok, values[k0:k0 + step], np.inf)
        at = int(np.argmin(masked))
        value = masked.flat[at]
        if value < np.inf and (best is None or value < best):
            best = value
            witness = (k0 + at // l_max + 1, at % l_max + 1)
    closed = None
    rho_r = reduced_state(psi, [0]).mat
    d = rho_r.shape[0]
    if np.max(np.abs(rho_r - np.eye(d) / d)) < 1e-8:
        lam0_b = float(np.max(ev_b))
        closed = float(np.log2(lam0_b * d))
    if best is None:
        return ConverseReport(bound=float("inf"), witness=None,
                              feasible=False, closed_form=closed)
    return ConverseReport(bound=float(best), witness=witness, feasible=True,
                          closed_form=closed)


def _padded_prefix_sums(ev: np.ndarray, r_max: int, n: int) -> np.ndarray:
    """Row r - 1 holds the prefix sums of the descending spectrum of
    (1/r) 1_r x diag(ev), padded to length n with its total."""
    desc = np.sort(ev)[::-1]
    out = np.empty((r_max, n))
    for r in range(1, r_max + 1):
        c = np.cumsum(np.repeat(desc * (1.0 / r), r))
        out[r - 1, :c.size] = c
        out[r - 1, c.size:] = c[-1]
    return out


def split_min_cost(psi: Ket) -> float:
    """Minimal splitting cost: log2 of the rank of the moved subsystem."""
    if psi.nsys != 3:
        raise ValueError("expected a state on (reference, keeper, moved)")
    return float(np.log2(schmidt_rank(psi, Bipartition([2], [0, 1]))))


def split_protocol(psi: Ket, resource_rank: int):
    """Compress-teleport-decompress protocol moving the third subsystem.

    The sender acts on (moved, resource) and keeps nothing there; the
    receiver turns its resource half into the moved subsystem plus a junk
    register left in |0>.  Returns (protocol, metadata)."""
    dr, da, dm = psi.dims
    k = int(resource_rank)
    rho_m = reduced_state(psi, [2]).mat
    rank = schmidt_rank(psi, Bipartition([2], [0, 1]))
    if k < rank:
        raise InfeasibleError(
            f"resource rank {k} below transferred rank {rank}")
    ev, vec = np.linalg.eigh(rho_m)
    order = np.argsort(ev)[::-1]
    vec = vec[:, order]
    compress = vec[:, :rank].conj().T        # (rank, dm)
    embed = np.zeros((k, rank), dtype=complex)
    embed[:rank, :] = np.eye(rank)
    u_split = embed @ compress                # (k, dm)

    junk = int(np.ceil(k / dm)) + 1
    decode = np.zeros((dm * junk, k), dtype=complex)
    for l in range(rank):
        target = vec[:, l]
        for b in range(dm):
            decode[b * junk + 0, l] = target[b]
    for l in range(rank, k):
        r, s = l % dm, 1 + (l - rank) // dm
        decode[r * junk + s, l] = 1.0

    a_ops, b_ops = [], []
    encode = np.kron(u_split, np.eye(k))
    for m2 in range(k * k):
        bra = _teleport_bell_bra(k, m2).reshape(1, -1)
        a_ops.append(ProtocolOp(bra @ encode, (dm, k), (1,)))
        b_ops.append(ProtocolOp(decode @ _teleport_correction(k, m2),
                                (k,), (dm, junk)))

    extra = _completion_ops(np.concatenate([op.mat for op in a_ops]), 1,
                            1e-12)
    a_ops += _op_views(extra, (dm, k), (1,))
    b_ops += [ProtocolOp(decode, (k,), (dm, junk))] * len(extra)
    proto = OneWayProtocol(a_ops, b_ops)
    return proto, {"resource_rank": k, "rank": rank, "junk": junk}


def simulate_split(psi: Ket, resource_rank: int):
    """Run the splitting protocol on psi x resource; branch states live on
    (reference, keeper, moved-at-receiver, junk)."""
    proto, meta = split_protocol(psi, resource_rank)
    inp = psi.kron(max_entangled(meta["resource_rank"]))
    locc = one_way_to_locc(proto, a_slots=(2, 3), b_slots=(4,))
    return simulate(locc, inp), meta


def verify_split(psi: Ket, resource_rank: int):
    """Exhaustively simulate the splitting protocol; returns (worst branch
    infidelity against psi, branch count)."""
    branches, _ = simulate_split(psi, resource_rank)
    # branch states on (reference, keeper, sender-out, moved, junk)
    got = np.stack([b.state.tensor() for b in branches])
    fid = branch_fidelities(got[:, :, :, 0, :, 0], psi.amps)
    # np.maximum keeps a NaN, which max(0.0, nan) would read as 0.0
    return float(np.max(np.maximum(1.0 - fid, 0.0))), len(branches)


@dataclass(frozen=True)
class MergeProtocol:
    """Synthesized one-way merging protocol with its register layout."""

    one_way: OneWayProtocol
    resource_rank: int
    returned_rank: int
    setting: str
    dims: tuple
    junk: int
    report: MergeCostReport = None

    def input_state(self, psi: Ket) -> Ket:
        return psi.kron(max_entangled(self.resource_rank))

    def locc(self):
        return one_way_to_locc(self.one_way, a_slots=(1, 3), b_slots=(2, 4))

    def target_state(self, psi: Ket) -> Ket:
        """psi moved to the receiver, returned resource pair, junk in |0>;
        layout (reference, sender-out, merged copy, receiver, returned,
        junk)."""
        dr, da, db = psi.dims
        l = self.returned_rank
        phi_l = max_entangled(l).amps.reshape(l, l)
        t = np.einsum("Rab,xy->Rxaby", psi.tensor(), phi_l, optimize=False)
        out = np.zeros((dr, l, da, db, l, self.junk), dtype=complex)
        out[:, :, :, :, :, 0] = t
        return Ket(out.reshape(-1), (dr, l, da, db, l, self.junk))


def merge_protocol(psi: Ket, setting: str = "non-catalytic",
                   ki: TripartiteKI = None, delta: float = 1e-3,
                   sender_only: bool = False) -> MergeProtocol:
    """Build the exact one-way merging protocol for a tripartite pure state.

    With ``sender_only`` the receiver corrections are skipped (their effect
    is an outcome-determined isometry deferrable to the end), which is what
    sequential network protocols consume.

    Each block's outcome-independent factors are contracted once, and its
    terms for every local label pair (m1, m2) come from one batched
    contraction; the block-Fourier phases over m3 are then applied to all
    outcomes as one matrix product.  Operators come out in (m1, m2, m3)
    order, m3 fastest, followed by the completion outcomes.
    """
    if setting not in ("catalytic", "non-catalytic"):
        raise ValueError("setting must be catalytic or non-catalytic")
    ki = ki or ki_decompose_tripartite(psi)
    dr, da, db = psi.dims
    if setting == "catalytic":
        report = merge_cost_catalytic(ki, delta=delta)
    else:
        report = merge_cost_noncatalytic(ki)
    if report.oversized:
        raise InfeasibleError(
            f"resource rank {report.resource_rank} exceeds the synthesis cap")
    k_total = report.resource_rank
    l_total = report.returned_rank
    blocks = ki.blocks
    n_blocks = len(blocks)

    sub = []
    for blk in blocks:
        dl, drt = blk.dim_left, blk.dim_right
        if setting == "catalytic":
            ratio = Fraction(k_total, l_total * drt)  # K_j / L_j
            kj, lj = ratio.numerator, ratio.denominator
            rj = k_total // (drt * kj)
            if drt * kj * rj != k_total or lj * rj != l_total:
                raise RuntimeError("resource layout failed to factor")
            layout = (drt, kj, rj)
            target = lj
        else:
            layout = (drt, k_total, 1)
            kj, target = k_total, drt
        omega = Ket(blk.omega.reshape(-1), (dl, blk.dim_bleft),
                    normalized=False)
        src = omega.kron(max_entangled(kj))
        a_mats, b_mats, n_out = uniform_distill(
            src, target, Bipartition([0, 2], [1, 3]))
        sub.append({"layout": layout, "a_mats": a_mats, "b_mats": b_mats,
                    "n_out": n_out, "target": target})

    n1 = math.lcm(*[s["n_out"] for s in sub])
    n2 = math.lcm(*[max(blk.dim_right ** 2, 1) for blk in blocks])

    junk = int(np.ceil(k_total / max(da * l_total, 1))) + 2
    out_b_dims = (da, db, l_total, junk)
    d_out_b = int(np.prod(out_b_dims))
    # block-Fourier phases exp(-2 pi i j m3 / n_blocks), indexed [m3, j]
    fourier = np.exp(-2j * np.pi * np.outer(np.arange(n_blocks),
                                            np.arange(n_blocks)) / n_blocks)
    scales = np.array([1.0 / np.sqrt((n1 // s["n_out"])
                                     * (n2 // max(blk.dim_right ** 2, 1))
                                     * n_blocks)
                       for blk, s in zip(blocks, sub)])
    a_all = _fourier_combine(
        (_block_a_terms(blk, s, setting, k_total, l_total, da)
         for blk, s in zip(blocks, sub)),
        n1, n2, fourier * scales, (l_total, da * k_total))
    a_ops = _op_views(a_all, (da, k_total), (l_total,))
    if not sender_only:
        b_all = _fourier_combine(
            (_block_b_terms(blk, s, setting, k_total, l_total, da, db, junk)
             for blk, s in zip(blocks, sub)),
            n1, n2, fourier.conj(), (d_out_b, db * k_total))
        b_ops = _op_views(_extend_isometry(b_all, db * k_total),
                          (db, k_total), out_b_dims)

    # completion outcomes for directions outside the blocks' reach
    extra = _completion_ops(a_all.reshape(-1, da * k_total), l_total, 1e-10)
    a_ops += _op_views(extra, (da, k_total), (l_total,))
    if sender_only:
        b_ops = [ProtocolOp(np.eye(db * k_total), (db, k_total),
                            (db, k_total))] * len(a_ops)
    else:
        # the canonical extension of the zero map: the leading rows of 1
        b_ops += [ProtocolOp(np.eye(d_out_b, db * k_total), (db, k_total),
                             out_b_dims)] * len(extra)
    proto = OneWayProtocol(a_ops, b_ops)
    return MergeProtocol(one_way=proto, resource_rank=k_total,
                         returned_rank=l_total, setting=setting,
                         dims=psi.dims, junk=junk, report=report)


def _fourier_combine(terms, n1, n2, weights, shape):
    """Operators of every outcome (m1, m2, m3), in that loop order, as a
    stack (n1 * n2 * n_blocks, rows, cols) with ``shape = (rows, cols)``.

    ``terms`` yields block j's matrices for its own labels, shape
    (n_out_j, n2_j, rows, cols), one block at a time so that only one is
    held; outcome (m1, m2, m3) takes
    ``sum_j weights[m3, j] * terms[j][m1 % n_out_j, m2 % n2_j]``, applied
    to all outcomes as one matrix product over the block axis."""
    n_blocks = weights.shape[1]
    rows, cols = shape
    tiled = np.empty((n1, n2, n_blocks, rows, cols), dtype=complex)
    for j, t in enumerate(terms):
        nj, n2j = t.shape[:2]
        view = tiled.reshape(n1 // nj, nj, n2 // n2j, n2j, n_blocks,
                             rows, cols)
        view[:, :, :, :, j] = t[None, :, None]
        del t       # drop this block's terms before the next is built
    out = weights @ tiled.reshape(n1 * n2, n_blocks, rows * cols)
    return out.reshape(-1, rows, cols)


# Fixed contraction orders for the per-block einsums, so that no call
# searches for a path: the Bell bras meet the ambient vectors first.
_BRAS_FIRST = ["einsum_path", (1, 2), (0, 1)]


def _block_a_terms(blk, s, setting, k_total, l_total, da):
    """Sender-side matrices of one block for every pair of local outcome
    labels (m1, m2), mapping (sender, resource) to the returned register;
    shape (n_out, dj**2, l_total, da * k_total)."""
    dl = blk.dim_left
    dj, kj, rj = s["layout"]
    n_out = s["n_out"]
    bras = np.stack([_teleport_bell_bra(dj, m2)
                     for m2 in range(max(dj * dj, 1))])  # (m2, coord, shared)
    grid_bra = blk.grid_a.conj()               # (l, r, a)

    if setting == "catalytic":
        d1 = np.reshape(s["a_mats"], (n_out, s["target"], dl, kj))
        core = np.einsum("uxlc,vrd,lra->uvxadc", d1, bras, grid_bra,
                         optimize=_BRAS_FIRST)  # (.., lj, da, dj, kj)
        # the rj resource copies pass through untouched
        out = np.einsum("uvxadc,st->uvxsadct", core, np.eye(rj))
        return out.reshape(n_out, -1, l_total, da * k_total)

    d1 = np.reshape(s["a_mats"], (n_out, dj, dl, k_total))
    core = np.einsum("uxlk,vrx,lra->uvak", d1, bras, grid_bra,
                     optimize=_BRAS_FIRST)
    return core.reshape(n_out, -1, 1, da * k_total)


def _block_b_terms(blk, s, setting, k_total, l_total, da, db, junk):
    """Receiver-side matrices of one block for every pair of local outcome
    labels (m1, m2), mapping (receiver, resource) to (merged copy,
    receiver, returned, junk); shape (n_out, dj**2, rows, db * k_total)."""
    bl, br = blk.dim_bleft, blk.dim_bright
    dj, kj, rj = s["layout"]
    lj = s["target"]
    n_out = s["n_out"]
    n2j = max(dj * dj, 1)
    sigma_t = np.stack([_teleport_correction(dj, m2)
                        for m2 in range(n2j)])  # (m2, new coord, arrived)
    w_embed = blk.receiver_map.reshape(db, bl, br)
    q_coord = w_embed.conj().transpose(1, 2, 0)  # (p, q, b) coordinate bras
    # outcome-independent factors: omega, the ambient vectors grid_a,
    # the receiver map and the coordinate bras
    fixed = np.einsum("lP,lrA,BPq,pqb->rABpb", blk.omega, blk.grid_a,
                      w_embed, q_coord,
                      optimize=["einsum_path", (2, 3), (0, 1), (0, 1)])
    d_rows = da * db * l_total * junk

    if setting == "catalytic":
        dwb = np.reshape(s["b_mats"], (n_out, lj, bl, kj))
        core = np.einsum("vrd,rABpb,uxpc->uvABxbdc", sigma_t, fixed, dwb,
                         optimize=["einsum_path", (1, 2), (0, 1)])
        # axes: A=merged copy, B=receiver, x=distilled, b=receiver in,
        #       d=shared teleport factor, c=distillation factor
        out = np.zeros((n_out, n2j, da, db, lj, rj, junk, db, dj, kj, rj),
                       dtype=complex)
        for kr in range(rj):
            out[:, :, :, :, :, kr, 0, :, :, :, kr] = core
        return out.reshape(n_out, n2j, d_rows, db * k_total)

    dwb = np.reshape(s["b_mats"], (n_out, dj, bl, k_total))
    core = np.einsum("vrx,rABpb,uxpc->uvABbc", sigma_t, fixed, dwb,
                     optimize=["einsum_path", (0, 2), (0, 1)])
    out = np.zeros((n_out, n2j, da, db, 1, junk, db, k_total), dtype=complex)
    out[:, :, :, :, 0, 0] = core
    return out.reshape(n_out, n2j, d_rows, db * k_total)


def verify_merge_protocol(psi: Ket, proto: MergeProtocol, tol: float = 1e-8):
    """Exhaustively simulate the protocol; returns (ok, worst_infidelity,
    branch_count)."""
    branches = simulate(proto.locc(), proto.input_state(psi))
    fid = branch_fidelities([b.state.amps for b in branches],
                            proto.target_state(psi).amps)
    worst = float(np.max(np.maximum(1.0 - fid, 0.0)))   # NaN stays NaN
    return worst <= tol, worst, len(branches)


def approx_merge_candidate(psi: Ket, psi_tilde: Ket, eps: float,
                           delta: float = 1e-3, verify: bool = True):
    """Accept the candidate state if it is eps/2-close in fidelity and return
    the candidate's catalytic cost report plus the measured performance of
    the candidate's protocol on the true state."""
    if psi.dims != psi_tilde.dims:
        raise ValueError("state dimensions differ")
    overlap = abs(np.vdot(psi_tilde.amps, psi.amps)) ** 2
    if overlap < 1.0 - (eps / 2.0) ** 2 - 1e-12:
        return {"accepted": False, "overlap": float(overlap),
                "required": float(1.0 - (eps / 2.0) ** 2)}
    ki = ki_decompose_tripartite(psi_tilde)
    report = merge_cost_catalytic(ki, delta=delta)
    out = {"accepted": True, "overlap": float(overlap), "report": report}
    if verify and not report.oversized:
        proto = merge_protocol(psi_tilde, "catalytic", ki=ki, delta=delta)
        branches = simulate(proto.locc(), proto.input_state(psi))
        fid = np.dot([b.prob for b in branches], branch_fidelities(
            [b.state.amps for b in branches],
            proto.target_state(psi_tilde).amps))
        out["achieved_fidelity"] = float(fid)
        out["meets_bound"] = bool(fid >= 1.0 - eps ** 2 - 1e-9)
    return out


def qubit_optimal(psi: Ket):
    """Optimal non-catalytic merging for a three-qubit state with maximally
    mixed reference: zero cost iff the receiver marginal is maximally mixed,
    realized by decomposing the induced unital qubit channel into a mixture
    of unitaries; otherwise one ebit via teleportation."""
    if psi.dims != (2, 2, 2):
        raise ValueError("expected a three-qubit state")
    rho_r = reduced_state(psi, [0]).mat
    if np.max(np.abs(rho_r - np.eye(2) / 2)) > 1e-8:
        raise ValueError("reference marginal must be maximally mixed")
    rho_b = reduced_state(psi, [2]).mat
    if np.max(np.abs(rho_b - np.eye(2) / 2)) > 1e-8:
        return 1, _teleport_merge_protocol()

    rho_rb = reduced_state(psi, [0, 2]).mat.reshape(2, 2, 2, 2)
    paulis = [np.eye(2, dtype=complex),
              np.array([[0, 1], [1, 0]], dtype=complex),
              np.array([[0, -1j], [1j, 0]], dtype=complex),
              np.array([[1, 0], [0, -1]], dtype=complex)]

    def channel(xmat):
        return 2.0 * np.einsum("sr,rasb->ab", xmat.T, rho_rb, optimize=False)

    t = np.zeros((3, 3))
    for i in range(3):
        for j in range(3):
            t[i, j] = 0.5 * np.trace(paulis[i + 1]
                                     @ channel(paulis[j + 1])).real
    u_mat, sing, vh = np.linalg.svd(t)
    s1, s2 = np.sign(np.linalg.det(u_mat)), np.sign(np.linalg.det(vh))
    u_mat[:, 2] *= s1
    vh[2, :] *= s2
    lam = sing.copy()
    lam[2] *= s1 * s2
    p = np.array([
        (1 + lam[0] + lam[1] + lam[2]) / 4,
        (1 + lam[0] - lam[1] - lam[2]) / 4,
        (1 - lam[0] + lam[1] - lam[2]) / 4,
        (1 - lam[0] - lam[1] + lam[2]) / 4,
    ])
    if p.min() < -1e-9:
        raise RuntimeError(
            f"unitary mixture weights came out negative: {p}")
    p = np.clip(p, 0.0, None)
    p = p / p.sum()
    u1 = _su2_from_so3(u_mat)
    u2 = _su2_from_so3(vh.T)
    unitaries = [u1 @ paulis[m] @ u2.conj().T for m in range(4)]

    phi = max_entangled(2).amps
    acc = np.zeros((4, 4), dtype=complex)
    for pm, um in zip(p, unitaries):
        v = np.kron(np.eye(2), um) @ phi
        acc += pm * np.outer(v, v.conj())
    if np.max(np.abs(acc - reduced_state(psi, [0, 2]).mat)) > 1e-7:
        raise RuntimeError("unitary mixture failed to match the marginal")

    # sender relabeling matching the two purifications of the joint marginal
    m_psi = np.transpose(psi.tensor(), (0, 2, 1)).reshape(4, 2)
    m_chi = np.zeros((4, 4), dtype=complex)
    for m in range(4):
        m_chi[:, m] = np.sqrt(p[m]) * (np.kron(np.eye(2), unitaries[m]) @ phi)
    v_t = np.linalg.pinv(m_psi) @ m_chi
    v_iso = v_t.T          # (4, 2): sender space to outcome labels
    if np.max(np.abs(v_iso.conj().T @ v_iso - np.eye(2))) > 1e-7:
        raise RuntimeError("sender relabeling failed to be an isometry")
    if np.linalg.norm(m_psi @ v_t - m_chi) > 1e-7:
        raise RuntimeError("sender relabeling failed to match the state")

    # receiver isometry sending the maximally entangled pair to the target
    m_phi = phi.reshape(2, 2)
    m_target = psi.tensor().reshape(2, 4)
    w_t = np.linalg.pinv(m_phi) @ m_target
    w_iso = w_t.T          # (4, 2): receiver qubit to (merged, receiver)
    a_ops, b_ops = [], []
    for m in range(4):
        a_ops.append(ProtocolOp(v_iso[m, :].reshape(1, 2), (2,), (1,)))
        b_ops.append(ProtocolOp(w_iso @ unitaries[m].conj().T, (2,), (2, 2)))
    return 0, OneWayProtocol(a_ops, b_ops)


def _teleport_merge_protocol():
    """One-ebit merge of a qubit: teleport the sender share."""
    from .locc import teleport_protocol

    tele = teleport_protocol(2)
    a_ops = [ProtocolOp(op.mat, (2, 2), (1,)) for op in tele.a_ops]
    b_ops = []
    swap = np.zeros((4, 4))
    for i in range(2):
        for j in range(2):
            swap[j * 2 + i, i * 2 + j] = 1.0
    for op in tele.b_ops:
        # correction on the resource half, which becomes the merged copy
        # ahead of the receiver's own qubit
        b_ops.append(ProtocolOp(swap @ np.kron(np.eye(2), op.mat),
                                (2, 2), (2, 2)))
    return OneWayProtocol(a_ops, b_ops)


def _su2_from_so3(o: np.ndarray) -> np.ndarray:
    """SU(2) element implementing a rotation matrix on the Bloch vector.

    The unit quaternion comes from Shepperd's method: of the four
    expressions 1 + tr(o) and 1 - tr(o) + 2 o_ii, the largest fixes one
    component and the off-diagonal sums and differences give the rest, so
    nothing is divided by a small number, including near angle pi."""
    tr = np.trace(o)
    i = int(np.argmax([o[0, 0], o[1, 1], o[2, 2], tr]))
    q = np.empty(4)     # (x, y, z, w)
    if i == 3:
        q[:] = (o[2, 1] - o[1, 2], o[0, 2] - o[2, 0], o[1, 0] - o[0, 1],
                1 + tr)
    else:
        j, k = (i + 1) % 3, (i + 2) % 3
        q[i] = 1 - tr + 2 * o[i, i]
        q[j] = o[j, i] + o[i, j]
        q[k] = o[k, i] + o[i, k]
        q[3] = o[k, j] - o[j, k]
    x, y, z, w = q / np.linalg.norm(q)
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    return w * np.eye(2) - 1j * (x * sx + y * sy + z * sz)
