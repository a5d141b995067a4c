"""Majorization, constructive one-way pure-state conversions, and an
exhaustive LOCC protocol simulator with completeness auditing.

Protocols are explicit operator tables.  A one-way protocol is a sender
measurement plus receiver isometries indexed by the same outcome; a general
protocol is an ordered list of rounds whose instruments may be conditioned on
all prior outcomes.  Simulation enumerates every branch exactly.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .qcore import Bipartition, Ket, schmidt_decompose
from .states import max_entangled, pauli_x, pauli_z

COMPLETENESS_TOL = 1e-8
PRUNE_TOL = 1e-12
# Operators per stacked product when a family of distinct operators is
# stacked: large families go a chunk at a time, so that no temporary copy
# of a whole family is held.
_CHUNK = 16


class InfeasibleError(ValueError):
    """Raised when a requested conversion violates majorization."""


class CompletenessError(ValueError):
    """Raised when an instrument fails its completeness audit."""


def spectrum(values, length=None) -> np.ndarray:
    """Descending real vector padded with zeros to ``length``."""
    v = np.sort(np.asarray(values, dtype=float))[::-1]
    if np.any(v < -1e-12):
        raise ValueError("spectrum entries must be nonnegative")
    v = np.clip(v, 0.0, None)
    if length is not None:
        if length < v.size:
            if np.any(v[length:] > 1e-12):
                raise ValueError("cannot truncate nonzero spectrum entries")
            v = v[:length]
        else:
            v = np.concatenate([v, np.zeros(length - v.size)])
    return v


def majorizes(x, y, tol: float = 1e-9) -> bool:
    """True iff ``x`` is majorized by ``y``: every prefix sum of the
    descending ``x`` is dominated by that of ``y`` and the totals agree."""
    x = np.sort(np.asarray(x, dtype=float))[::-1]
    y = np.sort(np.asarray(y, dtype=float))[::-1]
    if x.size != y.size:
        raise ValueError("spectra must have equal padded lengths")
    cx, cy = np.cumsum(x), np.cumsum(y)
    if abs(cx[-1] - cy[-1]) > tol:
        return False
    return bool(np.all(cx[:-1] <= cy[:-1] + tol))


def op_majorizes(phi, psi, tol: float = 1e-9) -> bool:
    """Majorization between Hermitian operators via padded eigenvalues."""
    a = np.asarray(phi.mat if hasattr(phi, "mat") else phi, dtype=complex)
    b = np.asarray(psi.mat if hasattr(psi, "mat") else psi, dtype=complex)
    for m in (a, b):
        if np.max(np.abs(m - m.conj().T)) > 1e-8 * max(1.0, np.max(np.abs(m))):
            raise ValueError("operators must be Hermitian")
    n = max(a.shape[0], b.shape[0])
    ea, eb = (np.pad(np.linalg.eigvalsh(m), (0, n - m.shape[0]))
              for m in (a, b))
    return majorizes(ea, eb, tol)


def nielsen_convertible(phi: Ket, psi: Ket, cut: Bipartition,
                        tol: float = 1e-9) -> bool:
    """True iff ``phi`` converts into ``psi`` deterministically by LOCC
    across ``cut``."""
    fa = schmidt_decompose(phi, cut).coeffs ** 2
    fb = schmidt_decompose(psi, cut).coeffs ** 2
    n = max(fa.size, fb.size)
    return majorizes(spectrum(fa, n), spectrum(fb, n), tol)


def mixed_convertible_witness(phi: Ket, ensemble, cut: Bipartition,
                              tol: float = 1e-9) -> bool:
    """Check a user-supplied pure-state ensemble as a witness for converting
    ``phi`` into the mixture it represents: true iff the reduced spectrum of
    ``phi`` is majorized by the probability-weighted average of the ensemble
    members' sorted spectra.  No optimization over ensembles is attempted.
    """
    fa = schmidt_decompose(phi, cut).coeffs ** 2
    probs = np.array([p for p, _ in ensemble], dtype=float)
    if abs(probs.sum() - 1.0) > 1e-9 or (probs < -1e-12).any():
        raise ValueError("ensemble weights must form a distribution")
    spectra = []
    for _, member in ensemble:
        spectra.append(schmidt_decompose(member, cut).coeffs ** 2)
    n = max([fa.size] + [s.size for s in spectra])
    avg = np.zeros(n)
    for p, s in zip(probs, spectra):
        avg += p * spectrum(s, n)
    return majorizes(spectrum(fa, n), avg, tol)


@dataclass(frozen=True)
class ProtocolOp:
    """One operator of an instrument, mapping in_dims to out_dims."""

    mat: np.ndarray
    in_dims: tuple
    out_dims: tuple

    def __init__(self, mat, in_dims, out_dims):
        mat = np.asarray(mat, dtype=complex)
        in_dims = tuple(int(d) for d in in_dims)
        out_dims = tuple(int(d) for d in out_dims)
        if mat.shape != (math.prod(out_dims), math.prod(in_dims)):
            raise ValueError(f"operator shape {mat.shape} does not match "
                             f"{out_dims} x {in_dims}")
        mat = mat.copy()
        mat.flags.writeable = False
        object.__setattr__(self, "mat", mat)
        object.__setattr__(self, "in_dims", in_dims)
        object.__setattr__(self, "out_dims", out_dims)


def _op_views(stack: np.ndarray, in_dims, out_dims) -> list:
    """One ``ProtocolOp`` per matrix of a stack (n, rows, cols) that the
    caller owns and hands over: the stack is frozen and each operator views
    its slice instead of copying it."""
    in_dims = tuple(int(d) for d in in_dims)
    out_dims = tuple(int(d) for d in out_dims)
    if (stack.dtype != complex or stack.ndim != 3
            or stack.shape[1:] != (math.prod(out_dims), math.prod(in_dims))):
        raise ValueError(f"operator stack {stack.shape} does not match "
                         f"{out_dims} x {in_dims}")
    _frozen(stack)
    ops = []
    for mat in stack:
        op = object.__new__(ProtocolOp)
        object.__setattr__(op, "mat", mat)
        object.__setattr__(op, "in_dims", in_dims)
        object.__setattr__(op, "out_dims", out_dims)
        ops.append(op)
    return ops


def _isometry_deviation(mats) -> np.ndarray:
    """max |M^dag M - 1| for every matrix of a sequence or a stack, with
    one stacked Gram per chunk of equal-shape matrices."""
    if isinstance(mats, np.ndarray):
        groups = [(range(len(mats)), mats)]
    else:
        shapes = {}
        for i, m in enumerate(mats):
            shapes.setdefault(m.shape, []).append(i)
        groups = [(idx, [mats[i] for i in idx]) for idx in shapes.values()]
    dev = np.empty(len(mats))
    for idx, same in groups:
        for j in range(0, len(idx), _CHUNK):
            chunk = np.asarray(same[j:j + _CHUNK])
            gram = np.conj(chunk.transpose(0, 2, 1)) @ chunk
            diag = np.arange(gram.shape[2])
            gram[:, diag, diag] -= 1.0
            dev[idx[j:j + _CHUNK]] = np.abs(gram).max(axis=(1, 2))
    return dev


def _check_complete(ops, tol=COMPLETENESS_TOL, what="instrument"):
    """Audit sum_m M_m^dag M_m = 1 for an instrument.

    Returns the operators stacked per (in_dims, out_dims) group, in order of
    first appearance, as (outcome indices, in_dims, out_dims, stack)."""
    if not ops:
        raise CompletenessError(f"{what} has no operators")
    din = ops[0].mat.shape[1]
    if any(op.mat.shape[1] != din for op in ops):
        raise CompletenessError(f"{what} mixes input dimensions")
    groups = {}
    for m, op in enumerate(ops):
        groups.setdefault((op.in_dims, op.out_dims), []).append(m)
    stacks = []
    acc = np.zeros((din, din), dtype=complex)
    for (in_dims, out_dims), idx in groups.items():
        stack = np.stack([ops[m].mat for m in idx])
        flat = stack.reshape(-1, din)
        acc += flat.conj().T @ flat
        stacks.append((idx, in_dims, out_dims, stack))
    dev = np.max(np.abs(acc - np.eye(din)))
    if dev > tol:
        raise CompletenessError(f"{what} completeness deviates by {dev:.3e}")
    return stacks


@dataclass(frozen=True)
class OneWayProtocol:
    """Sender measurement with matched receiver isometries, unaudited: it
    runs through ``one_way_to_locc``, whose simulation audits it."""

    a_ops: list
    b_ops: list

    def __init__(self, a_ops, b_ops):
        a_ops = list(a_ops)
        b_ops = list(b_ops)
        if len(a_ops) != len(b_ops):
            raise ValueError("sender and receiver operator counts differ")
        object.__setattr__(self, "a_ops", a_ops)
        object.__setattr__(self, "b_ops", b_ops)

    @property
    def n_outcomes(self):
        return len(self.a_ops)


@dataclass(frozen=True)
class Round:
    """One round: a party applies an instrument, possibly conditioned on the
    tuple of all prior outcomes (key ``()`` means unconditioned)."""

    party: str
    instruments: dict


@dataclass(frozen=True)
class LoccProtocol:
    """Ordered rounds over named parties holding subsystem indices.  Its
    instruments are audited by ``simulate``, as far as branches reach them,
    or all at once by ``audit_protocol``."""

    parties: dict
    rounds: list

    def __init__(self, parties, rounds):
        parties = {k: tuple(int(i) for i in v) for k, v in parties.items()}
        rounds = list(rounds)
        for r in rounds:
            if r.party not in parties:
                raise ValueError(f"round references unknown party {r.party}")
        object.__setattr__(self, "parties", parties)
        object.__setattr__(self, "rounds", rounds)


def one_way_to_locc(protocol: OneWayProtocol, a_slots, b_slots) -> LoccProtocol:
    """View a one-way protocol as a two-round protocol on explicit slots."""
    return LoccProtocol(
        parties={"A": tuple(a_slots), "B": tuple(b_slots)},
        rounds=[
            Round("A", {(): protocol.a_ops}),
            Round("B", {(m,): [protocol.b_ops[m]]
                        for m in range(protocol.n_outcomes)}),
        ],
    )


@dataclass(frozen=True)
class SimBranch:
    """One exhaustively simulated outcome branch."""

    outcomes: tuple
    prob: float
    state: Ket
    ownership: tuple = field(default=())


def _audit_round(rnd, outcomes):
    """Resolve and audit the instrument every live branch reaches.

    Returns the key per branch and, per reachable key, its operator groups
    as ((in_dims, out_dims, outcome indices), ...) with one stack per
    group.  Each reachable instrument is audited once; single-operator
    instruments of one shape share one stacked Gram check.  Failures come back as
    (branch index, error) for the first branch that reaches them, so the
    caller can raise the first in branch order."""
    inst = rnd.instruments
    keys, first, failures = [], {}, []
    for i, o in enumerate(outcomes):
        key = o if o in inst else () if () in inst else None
        if key is None:
            failures.append((i, 0, ValueError(
                f"no instrument for {rnd.party} conditioned on {o}")))
            break
        keys.append(key)
        first.setdefault(key, i)
    groups, singles = {}, []
    for key in first:
        ops = inst[key]
        if len(ops) == 1:
            op = ops[0]
            singles.append(key)
            groups[key] = (((op.in_dims, op.out_dims, (0,)),), [op.mat[None]])
            continue
        try:
            stacks = _check_complete(
                ops, what=f"round for {rnd.party} given {key}")
        except CompletenessError as err:
            failures.append((first[key], 0, err))
            continue
        groups[key] = (tuple((i, o, tuple(idx)) for idx, i, o, _ in stacks),
                       [st for *_, st in stacks])
    dev = _isometry_deviation([inst[k][0].mat for k in singles])
    for j in np.flatnonzero(dev > COMPLETENESS_TOL):
        key = singles[j]
        failures.append((first[key], 0, CompletenessError(
            f"round for {rnd.party} given {key} completeness deviates "
            f"by {dev[j]:.3e}")))
    return keys, groups, failures


def audit_protocol(protocol: LoccProtocol):
    """Audit every instrument of every round, reached or not, as
    ``simulate`` audits the ones its branches reach; raises the first
    failure, rounds in order and keys in table order."""
    for rnd in protocol.rounds:
        failures = _audit_round(rnd, list(rnd.instruments))[2]
        if failures:
            raise min(failures, key=lambda f: f[:2])[2]


def _simulate_round(rnd, outcomes, probs, blocks, where, prune):
    """Apply one round to every live branch.

    Branches are held as blocks of raw amplitudes sharing one layout
    (amps (n, size), dims, owners); ``where`` gives each branch's
    (block, row).  Branches of one block that reach instruments of one
    shape are transposed together and hit with one stacked matmul, with
    their norms and the prune rule vectorised.  The children come back in
    lexicographic order of their outcome tuples, regrouped into blocks by
    their new layout."""
    keys, groups, failures = _audit_round(rnd, outcomes)
    batches = {}
    for i, key in enumerate(keys):
        if key in groups:           # else its audit failed
            batches.setdefault((where[i][0], groups[key][0]), []).append(i)
    plans = []
    for (b, sig), idx in batches.items():
        amps, dims, owners = blocks[b]
        positions = [k for k, o in enumerate(owners) if o == rnd.party]
        in_dims = tuple(dims[p] for p in positions)
        for op_in, _, _ in sig:
            if op_in != in_dims:
                failures.append((idx[0], 1, ValueError(
                    f"operator input dims {op_in} do not match state slots "
                    f"{in_dims}")))
        plans.append((b, sig, idx, positions))
    if failures:
        raise min(failures, key=lambda f: f[:2])[2]

    pieces = []
    for b, sig, idx, positions in plans:
        amps, dims, owners = blocks[b]
        rest = [k for k in range(len(dims)) if k not in positions]
        rest_dims = tuple(dims[k] for k in rest)
        rest_owners = tuple(owners[k] for k in rest)
        n_before = len([k for k in rest if k < min(positions, default=0)])
        rows = [where[i][1] for i in idx]
        t = amps[rows].reshape((len(idx),) + dims)
        t = np.transpose(t, [0] + [1 + k for k in positions + rest])
        t = t.reshape(len(idx), 1, math.prod(dims[p] for p in positions), -1)
        bkeys = [keys[i] for i in idx]
        shared = bkeys.count(bkeys[0]) == len(bkeys)
        for g, (_, op_out, labels) in enumerate(sig):
            if shared:                  # (branch, op, out, rest)
                out = groups[bkeys[0]][1][g][None] @ t
            else:
                mats = [groups[k][1][g] for k in bkeys]
                out = np.concatenate([
                    np.array(mats[j:j + _CHUNK]) @ t[j:j + _CHUNK]
                    for j in range(0, len(mats), _CHUNK)])
            norm2 = np.einsum("bgij,bgij->bg", out.conj(), out).real
            n_out = len(op_out)
            order = ([0, 1] + [2 + n_out + i for i in range(n_before)]
                     + [2 + i for i in range(n_out)]
                     + [2 + n_out + i for i in range(n_before, len(rest))])
            out = np.transpose(out.reshape(out.shape[:2] + op_out + rest_dims),
                               order).reshape(out.shape[0], out.shape[1], -1)
            out /= np.sqrt(np.where(norm2 > 0, norm2, 1.0))[..., None]
            p = norm2 * probs[idx][:, None]
            bi, gi = np.nonzero(p >= prune)
            layout = (rest_dims[:n_before] + op_out + rest_dims[n_before:],
                      rest_owners[:n_before] + (rnd.party,) * n_out
                      + rest_owners[n_before:])
            kept = (out.reshape(bi.size, -1) if bi.size == p.size
                    else out[bi, gi])
            pieces.append((layout, kept, np.asarray(idx)[bi],
                           np.asarray(labels)[gi], p[bi, gi]))

    layouts = {}
    for piece in pieces:
        layouts.setdefault(piece[0], []).append(piece)
    new_blocks, cols = [], []
    for j, (layout, same) in enumerate(layouts.items()):
        parts = list(zip(*same))[1:]
        amps, parent, label, prob = (x[0] if len(x) == 1 else np.concatenate(x)
                                     for x in parts)
        new_blocks.append((amps,) + layout)
        cols.append((parent, label, prob, np.full(len(amps), j),
                     np.arange(len(amps))))
    if not cols:
        return [], np.zeros(0), [], []
    parent, label, prob, blk, row = (np.concatenate(c) for c in zip(*cols))
    order = np.lexsort((label, parent))
    new_outcomes = [outcomes[a] + (m,) for a, m in
                    zip(parent[order].tolist(), label[order].tolist())]
    return (new_outcomes, prob[order], new_blocks,
            list(zip(blk[order].tolist(), row[order].tolist())))


def simulate(protocol: LoccProtocol, input_state: Ket,
             prune: float = PRUNE_TOL):
    """Exhaustively enumerate all branches of a protocol on ``input_state``.

    Probabilities follow the Born rule; branches below ``prune`` are
    dropped; instruments are audited for completeness on every reachable
    conditioning, each once per round.

    Each round takes the live branches in batches of one layout and one
    instrument shape, applied as one stacked matmul; amplitudes stay raw
    arrays until the end, when each returned branch gets its ``Ket``.
    Branches come out in lexicographic order of their outcome tuples, as a
    per-operator loop would produce them.
    """
    holdings = [s for v in protocol.parties.values() for s in v]
    if len(set(holdings)) != len(holdings):
        raise ValueError("parties claim overlapping subsystems")
    for s in holdings:
        if s < 0 or s >= input_state.nsys:
            raise ValueError(f"party subsystem {s} out of range")
    ownership = [None] * input_state.nsys
    for name, slots in protocol.parties.items():
        for s in slots:
            ownership[s] = name

    outcomes, probs = [()], np.ones(1)
    blocks = [(input_state.amps[None], input_state.dims, tuple(ownership))]
    where = [(0, 0)]
    for rnd in protocol.rounds:
        outcomes, probs, blocks, where = _simulate_round(
            rnd, outcomes, probs, blocks, where, prune)

    probs = probs.tolist()
    total = sum(probs)
    if abs(total - 1.0) > 1e-7:
        raise CompletenessError(
            f"branch probabilities sum to {total}, expected 1")
    return [SimBranch(outcomes=o, prob=p,
                      state=Ket(blocks[b][0][r], blocks[b][1],
                                normalized=False),
                      ownership=blocks[b][2])
            for o, p, (b, r) in zip(outcomes, probs, where)]


def branch_fidelities(amps, target) -> np.ndarray:
    """|<target|a>|^2 / (|a|^2 |target|^2) for every row ``a`` of the
    stacked branch amplitudes ``amps`` (n, ...), in one product."""
    a = np.asarray(amps).reshape(len(amps), -1)
    t = np.asarray(target).reshape(-1)
    if a.shape[1] != t.size:
        raise ValueError(f"state sizes differ: {a.shape[1]} vs {t.size}")
    norm2 = np.einsum("ij,ij->i", a.conj(), a).real * np.vdot(t, t).real
    return np.abs(a @ t.conj()) ** 2 / norm2


def branch_fidelity(branch_state: Ket, target: Ket) -> float:
    """|<target|branch>|^2 on the flattened amplitudes; subsystem layouts
    must already agree up to dimension-1 slots."""
    return float(branch_fidelities([branch_state.amps], target.amps)[0])


def distill_to_max_entangled(source: Ket, target_rank: int,
                             cut: Bipartition = None) -> OneWayProtocol:
    """One-way protocol converting a bipartite pure state into the rank-L
    maximally entangled state, exactly on every branch.

    Feasible iff the largest reduced eigenvalue is at most 1/L (Nielsen
    majorization).  The sender measures the n outcomes of
    ``uniform_distill``, each of probability 1/n for Schmidt rank n, plus
    completion outcomes on the complement of the Schmidt support.  The
    sender output register has dimension L; the receiver output is an
    (L, junk) register pair with the junk factor left in |0>.
    """
    if target_rank < 1:
        raise ValueError("target rank must be positive")
    if cut is None:
        cut = Bipartition([0], nsys=source.nsys)
    a_mats, b_mats, n = uniform_distill(source, target_rank, cut)
    L = target_rank
    a_in = tuple(source.dims[k] for k in cut.left)
    b_in = tuple(source.dims[k] for k in cut.right)
    dim_a, dim_b = math.prod(a_in), math.prod(b_in)
    junk = int(np.ceil(dim_b / L)) + 1
    # the co-isometries write the junk-0 rows; the rest completes them
    b_all = np.zeros((n, L, junk, dim_b), dtype=complex)
    b_all[:, :, 0] = b_mats
    b_ops = _op_views(_extend_isometry(b_all.reshape(n, L * junk, dim_b),
                                       dim_b), b_in, (L, junk))

    a_all = np.array(a_mats)
    extra = _completion_ops(a_all.reshape(-1, dim_a), L, 1e-12)
    a_ops = _op_views(np.concatenate([a_all, extra]), a_in, (L,))
    return OneWayProtocol(a_ops, b_ops + b_ops[:1] * len(extra))


def _completion_ops(flat: np.ndarray, rows: int, tol: float) -> np.ndarray:
    """Operators (k, rows, dim) completing a sender family, given stacked
    as (-1, dim), to sum M^dag M = 1: one per eigenvector of the gap whose
    eigenvalue exceeds ``tol``, written into row 0."""
    dim = flat.shape[1]
    gap = np.eye(dim) - flat.conj().T @ flat
    ev, vec = np.linalg.eigh((gap + gap.conj().T) / 2)
    if ev.min() < -1e-7:
        raise RuntimeError(
            f"sender family exceeded completeness by {-ev.min():.2e}")
    fill = np.flatnonzero(ev > tol)
    extra = np.zeros((fill.size, rows, dim), dtype=complex)
    extra[:, 0] = np.sqrt(ev[fill])[:, None] * vec[:, fill].conj().T
    return extra


def _extend_isometry(mat: np.ndarray, dim_in: int) -> np.ndarray:
    """Extend a norm-preserving map defined on a subspace of the input to a
    full isometry, routing the deficit into unused image rows.

    ``mat`` is one matrix (rows, dim_in) or a stack (n, rows, dim_in); a
    complex array is filled in place and returned.  The deficit
    1 - M^dag M is factored as R^dag R by a Cholesky sweep in coordinate
    order that skips zero pivots; for a partial isometry this is
    Gram-Schmidt of the deficit range in coordinate order, so the rows it
    adds depend continuously on M.  They fill the unused (all-zero) rows of
    M in order."""
    out = np.asarray(mat, dtype=complex)
    stack = out.reshape((-1,) + out.shape[-2:])
    need = np.flatnonzero(_isometry_deviation(stack) >= 1e-14)
    for j in range(0, need.size, _CHUNK):
        part = need[j:j + _CHUNK]
        stack[part] = _fill_deficit(stack[part], dim_in)
    return out


def _fill_deficit(sub: np.ndarray, dim_in: int) -> np.ndarray:
    """The rows R^dag R = 1 - M^dag M of ``_extend_isometry`` placed in the
    free rows of each matrix of the stack ``sub``."""
    gap = np.eye(dim_in) - np.conj(sub.transpose(0, 2, 1)) @ sub
    gap = (gap + np.conj(gap.transpose(0, 2, 1))) / 2
    rows = np.zeros_like(gap)
    used = np.zeros(gap.shape[:2], dtype=bool)
    for c in range(dim_in):
        pivot = gap[:, c, c].real
        ok = pivot > 1e-12
        if not ok.any():
            continue
        col = gap[:, :, c] * (ok / np.sqrt(np.where(ok, pivot, 1.0)))[:, None]
        rows[:, c] = col.conj()
        used[:, c] = ok
        gap -= col[:, :, None] * col.conj()[:, None, :]
    free = np.abs(sub).sum(axis=2) < 1e-12
    n_used = used.sum(axis=1)
    if np.any(free.sum(axis=1) < n_used):
        raise ValueError("no room to extend isometry")
    sub[free & (np.cumsum(free, axis=1) <= n_used[:, None])] = rows[used]
    return sub


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _shift_phase(d: int, m2: int) -> np.ndarray:
    """X^(m2 // d) Z^(m2 % d), the m2-th shift-phase operator."""
    x, z = pauli_x(d), pauli_z(d)
    return (np.linalg.matrix_power(x, m2 // d)
            @ np.linalg.matrix_power(z, m2 % d))


@functools.lru_cache(maxsize=None)
def _teleport_bell_bra(d: int, m2: int) -> np.ndarray:
    """Bra of the m2-th shifted-phase maximally entangled vector, as a
    (d, d) tensor over (quantum coordinate, shared factor); cached per
    (d, m2) and read-only."""
    if d == 1:
        return _frozen(np.ones((1, 1), dtype=complex))
    vec = np.kron(np.eye(d), _shift_phase(d, m2)) @ max_entangled(d).amps
    return _frozen(vec.conj().reshape(d, d))


@functools.lru_cache(maxsize=None)
def _teleport_correction(d: int, m2: int) -> np.ndarray:
    """Receiver correction of teleport outcome m2, cached and read-only."""
    if d == 1:
        return _frozen(np.ones((1, 1), dtype=complex))
    return _frozen(_shift_phase(d, m2).T.copy())


def teleport_protocol(d: int) -> OneWayProtocol:
    """Teleportation of a d-dimensional state through |Phi_d^+>.

    The sender measures its (input, resource) pair in the shifted-phase
    maximally entangled basis and keeps nothing; the receiver applies the
    transposed shift-phase correction.
    """
    if d < 2:
        raise ValueError("teleportation needs dimension at least 2")
    a_ops, b_ops = [], []
    for m2 in range(d * d):
        a_ops.append(ProtocolOp(_teleport_bell_bra(d, m2).reshape(1, -1),
                                (d, d), (1,)))
        b_ops.append(ProtocolOp(_teleport_correction(d, m2), (d,), (d,)))
    return OneWayProtocol(a_ops, b_ops)


def _projector_with_diagonal(d: np.ndarray, rank: int) -> np.ndarray:
    """Unitary U such that U 1_rank U^dag has the prescribed diagonal d
    (entries in [0, 1] summing to rank), built from a chain of two-coordinate
    Givens rotations."""
    n = d.size
    start = np.zeros(n)
    start[:rank] = 1.0
    # transfer chain from d up to the seed profile, as (i, j, z_i before the
    # step); it is then realized in reverse
    steps = []
    z = d.astype(float).copy()
    for i in range(rank):
        deficit = start[i] - z[i]
        guard = 0
        while deficit > 1e-12:
            j = n - 1
            while j > i and z[j] <= 1e-12:
                j -= 1
            if j <= i:
                raise InfeasibleError("diagonal profile is not majorized")
            delta = min(deficit, z[j])
            steps.append((i, j, z[i]))
            z[i] += delta
            z[j] -= delta
            deficit = start[i] - z[i]
            guard += 1
            if guard > 4 * n:
                raise InfeasibleError("diagonal chain did not converge")
    if np.max(np.abs(z - start)) > 1e-9:
        raise InfeasibleError("diagonal chain failed to reach the seed")

    p = np.diag(start.astype(complex))
    u = np.eye(n, dtype=complex)
    # walk from the seed back to d
    for i, j, want in reversed(steps):
        a = p[i, i].real
        b = p[j, j].real
        c = p[i, j]
        mean = (a + b) / 2
        radius = np.hypot((a - b) / 2, abs(c))
        if radius < 1e-15:
            if abs(want - a) > 1e-9:
                raise InfeasibleError("degenerate rotation cannot move mass")
            continue
        chi = np.arctan2(abs(c), (a - b) / 2)
        cosv = np.clip((want - mean) / radius, -1.0, 1.0)
        theta = (chi - np.arccos(cosv)) / 2
        phi = np.angle(c) if abs(c) > 1e-15 else 0.0
        rot = np.eye(n, dtype=complex)
        rot[i, i] = np.cos(theta)
        rot[i, j] = np.exp(1j * phi) * np.sin(theta)
        rot[j, i] = -np.exp(-1j * phi) * np.sin(theta)
        rot[j, j] = np.cos(theta)
        p = rot @ p @ rot.conj().T
        u = rot @ u
        if abs(p[i, i].real - want) > 1e-8:
            raise InfeasibleError("rotation missed the diagonal target")
    return u


def uniform_distill(source: Ket, target_rank: int, cut: Bipartition = None):
    """Conversion of a bipartite pure state into the rank-L maximally
    entangled state whose outcomes all carry the same probability.

    Returns (sender matrices, receiver maps, n): n sender operators M_t of
    shape (L, dim_sender) and matching receiver co-isometries of shape
    (L, dim_receiver), where n is the Schmidt rank; every branch maps the
    source to the target with amplitude 1/sqrt(n).  The sender family resolves the identity on the Schmidt
    support only; callers restore global completeness.
    """
    if cut is None:
        cut = Bipartition([0], nsys=source.nsys)
    form = schmidt_decompose(source, cut)
    dim_a = int(np.prod([source.dims[k] for k in cut.left]))
    dim_b = int(np.prod([source.dims[k] for k in cut.right]))
    lam = form.coeffs ** 2
    n = form.rank
    L = target_rank
    if lam[0] > 1.0 / L + 1e-9:
        raise InfeasibleError(
            f"spectrum peak {lam[0]:.6f} violates majorization into rank {L}")
    if n < L:
        raise InfeasibleError(
            f"rank {n} source cannot reach rank {L}")
    ua = np.zeros((n, dim_a), dtype=complex)
    ub = np.zeros((n, dim_b), dtype=complex)
    for i in range(n):
        ua[i] = form.left_basis[i].amps.conj()
        ub[i] = form.right_basis[i].amps.conj()
    u = _projector_with_diagonal(L * lam, L)
    c0 = u.conj().T[:L, :]          # rows of U^dag
    inv_sqrt = 1.0 / np.sqrt(lam)
    a_mats, b_mats = [], []
    omega = np.exp(2j * np.pi / n)
    for t in range(n):
        d_t = omega ** (t * np.arange(n))
        m_coord = (c0 * d_t[None, :]) * inv_sqrt[None, :] / np.sqrt(n * L)
        a_mats.append(m_coord @ ua)
        v_coord = (c0 * d_t[None, :]).conj()
        b_mats.append(v_coord @ ub)
    return a_mats, b_mats, n
