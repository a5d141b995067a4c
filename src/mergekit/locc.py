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
    ea = np.concatenate([np.linalg.eigvalsh(a), np.zeros(n - a.shape[0])])
    eb = np.concatenate([np.linalg.eigvalsh(b), np.zeros(n - b.shape[0])])
    ea = np.sort(ea)[::-1]
    eb = np.sort(eb)[::-1]
    cx, cy = np.cumsum(ea), np.cumsum(eb)
    if abs(cx[-1] - cy[-1]) > tol:
        return False
    return bool(np.all(cx[:-1] <= cy[:-1] + tol))


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
    """Sender measurement with matched receiver isometries."""

    a_ops: list
    b_ops: list

    def __init__(self, a_ops, b_ops, check=True):
        a_ops = list(a_ops)
        b_ops = list(b_ops)
        if len(a_ops) != len(b_ops):
            raise ValueError("sender and receiver operator counts differ")
        if check:
            _check_complete(a_ops, what="sender measurement")
            for i, op in enumerate(b_ops):
                g = op.mat.conj().T @ op.mat
                if np.max(np.abs(g - np.eye(g.shape[0]))) > COMPLETENESS_TOL:
                    raise CompletenessError(
                        f"receiver operator {i} is not an isometry")
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
    """Ordered rounds over named parties holding subsystem indices."""

    parties: dict
    rounds: list

    def __init__(self, parties, rounds, check=True):
        parties = {k: tuple(int(i) for i in v) for k, v in parties.items()}
        rounds = list(rounds)
        if check:
            for r in rounds:
                if r.party not in parties:
                    raise ValueError(f"round references unknown party {r.party}")
                for key, ops in r.instruments.items():
                    _check_complete(ops, what=f"round for {r.party} given {key}")
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
        check=False,
    )


@dataclass(frozen=True)
class SimBranch:
    """One exhaustively simulated outcome branch."""

    outcomes: tuple
    prob: float
    state: Ket
    ownership: tuple = field(default=())


def _apply_instrument(amps, dims, positions, groups):
    """Apply every operator of an instrument to the listed tensor slots.

    The input is transposed once to (consumed slots, untouched slots); each
    group of equal-shape operators is applied as one stacked matmul.  The
    output subsystems replace the consumed slots at the position of the
    first consumed slot.  Returns, per outcome in instrument order,
    (squared norm, normalized amplitudes, new dims)."""
    rest = [k for k in range(len(dims)) if k not in positions]
    in_dims = tuple(dims[p] for p in positions)
    rest_dims = [dims[k] for k in rest]
    n_before = len([k for k in rest if k < min(positions, default=0)])
    t = np.transpose(np.asarray(amps).reshape(dims), positions + rest)
    t = t.reshape(math.prod(in_dims), -1)
    applied = [None] * sum(len(g[0]) for g in groups)
    for idx, op_in, op_out, stack in groups:
        if op_in != in_dims:
            raise ValueError(f"operator input dims {op_in} do not match "
                             f"state slots {in_dims}")
        out = stack @ t
        norm2 = np.einsum("gij,gij->g", out.conj(), out).real
        n_out = len(op_out)
        order = ([0] + [1 + n_out + i for i in range(n_before)]
                 + [1 + i for i in range(n_out)]
                 + [1 + n_out + i for i in range(n_before, len(rest))])
        out = np.transpose(out.reshape((len(idx),) + op_out + tuple(rest_dims)),
                           order).reshape(len(idx), -1)
        out /= np.sqrt(np.where(norm2 > 0, norm2, 1.0))[:, None]
        new_dims = rest_dims[:n_before] + list(op_out) + rest_dims[n_before:]
        for i, m in enumerate(idx):
            applied[m] = (float(norm2[i]), out[i], new_dims)
    return applied, rest, n_before


def simulate(protocol, input_state: Ket, prune: float = PRUNE_TOL):
    """Exhaustively enumerate all branches of a protocol on ``input_state``.

    Accepts a ``LoccProtocol`` or a ``OneWayProtocol`` (the latter with the
    sender on the leading subsystems).  Probabilities follow the Born rule;
    branches below ``prune`` are dropped; instruments are audited for
    completeness on every reachable conditioning.

    Each branch's state is transposed once per round and every instrument
    is applied as one stacked matmul per group of equal-shape operators,
    with the branch norms computed together.  Branches come out in
    lexicographic order of their outcome tuples, as a per-operator loop
    would produce them.
    """
    if isinstance(protocol, OneWayProtocol):
        na = len(protocol.a_ops[0].in_dims)
        nb = len(protocol.b_ops[0].in_dims)
        protocol = one_way_to_locc(protocol, range(na), range(na, na + nb))

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

    branches = [(tuple(), 1.0, input_state.amps, list(input_state.dims),
                 list(ownership))]
    for rnd in protocol.rounds:
        new_branches = []
        for outcomes, prob, amps, dims, owners in branches:
            if outcomes in rnd.instruments:
                key = outcomes
            elif () in rnd.instruments:
                key = ()
            else:
                raise ValueError(
                    f"no instrument for {rnd.party} conditioned on {outcomes}")
            groups = _check_complete(rnd.instruments[key],
                                     what=f"round for {rnd.party} given {key}")
            positions = [k for k, o in enumerate(owners) if o == rnd.party]
            applied, rest, n_before = _apply_instrument(amps, dims, positions,
                                                        groups)
            rest_owners = [owners[k] for k in rest]
            for m, (norm2, new_amps, new_dims) in enumerate(applied):
                p = norm2 * prob
                if p < prune:
                    continue
                n_new = len(new_dims) - len(rest)
                new_owners = (rest_owners[:n_before] + [rnd.party] * n_new
                              + rest_owners[n_before:])
                new_branches.append(
                    (outcomes + (m,), p, new_amps, new_dims, new_owners))
        branches = new_branches

    total = sum(b[1] for b in branches)
    if abs(total - 1.0) > 1e-7:
        raise CompletenessError(
            f"branch probabilities sum to {total}, expected 1")
    return [SimBranch(outcomes=o, prob=p,
                      state=Ket(a, d, normalized=False), ownership=tuple(w))
            for o, p, a, d, w in branches]


def branch_fidelity(branch_state: Ket, target: Ket) -> float:
    """|<target|branch>|^2 on the flattened amplitudes; subsystem layouts
    must already agree up to dimension-1 slots."""
    a = branch_state.amps.reshape(-1)
    b = target.amps.reshape(-1)
    if a.size != b.size:
        raise ValueError(f"state sizes differ: {a.size} vs {b.size}")
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    return float(abs(np.vdot(b, a)) ** 2 / (na * nb) ** 2)


def _transfer_chain(x: np.ndarray, target_rank: int, tol: float = 1e-12):
    """Two-coordinate transfers carrying the descending spectrum ``x`` to the
    uniform spectrum of the given rank, as (i, j, z_before, z_after) steps."""
    n = x.size
    y = np.zeros(n)
    y[:target_rank] = 1.0 / target_rank
    if x[0] > y[0] + 1e-9:
        raise InfeasibleError(
            f"largest coefficient {x[0]:.6f} exceeds 1/{target_rank}")
    z = x.astype(float).copy()
    steps = []
    for i in range(target_rank):
        deficit = y[i] - z[i]
        guard = 0
        while deficit > tol:
            j = n - 1
            while j > i and z[j] <= tol:
                j -= 1
            if j <= i:
                raise InfeasibleError("transfer chain ran out of mass")
            delta = min(deficit, z[j])
            before = z.copy()
            z[i] += delta
            z[j] -= delta
            steps.append((i, j, before, z.copy()))
            deficit = y[i] - z[i]
            guard += 1
            if guard > 4 * n:
                raise InfeasibleError("transfer chain did not converge")
    if np.max(np.abs(z - y)) > 1e-9:
        raise InfeasibleError("transfer chain failed to reach the target")
    return steps


def _pair_measurement(i, j, z, z_next, dim):
    """Two-outcome measurement on coordinates (i, j) realizing one transfer;
    outcome 1 needs the receiver to swap its matching basis pair."""
    zi, zj = z[i], z[j]
    wi, wj = z_next[i], z_next[j]
    c0sq = (zi - wj) / (wi - wj)
    c1sq = (wi - zi) / (wi - wj)
    c0sq, c1sq = max(c0sq, 0.0), max(c1sq, 0.0)
    m0 = np.eye(dim, dtype=complex) * np.sqrt(c0sq)
    m0[i, i] = np.sqrt(c0sq * wi / zi) if zi > 0 else 0.0
    m0[j, j] = np.sqrt(c0sq * wj / zj) if zj > 0 else 0.0
    m1 = np.eye(dim, dtype=complex) * np.sqrt(c1sq)
    m1[i, i] = 0.0
    m1[j, j] = 0.0
    m1[j, i] = np.sqrt(c1sq * wj / zi) if zi > 0 else 0.0
    m1[i, j] = np.sqrt(c1sq * wi / zj) if zj > 0 else 0.0
    return m0, m1


def distill_to_max_entangled(source: Ket, target_rank: int,
                             cut: Bipartition = None) -> OneWayProtocol:
    """One-way protocol converting a bipartite pure state into the rank-L
    maximally entangled state, exactly on every branch.

    Feasible iff the largest reduced eigenvalue is at most 1/L.  The sender
    output register has dimension L; the receiver output is an (L, junk)
    register pair with the junk factor left in |0>.
    """
    if target_rank < 1:
        raise ValueError("target rank must be positive")
    if cut is None:
        cut = Bipartition([0], nsys=source.nsys)
    form = schmidt_decompose(source, cut)
    dim_a = int(np.prod([source.dims[k] for k in cut.left]))
    dim_b = int(np.prod([source.dims[k] for k in cut.right]))
    n = max(form.rank, target_rank)
    if n > min(dim_a, dim_b) and form.rank < target_rank:
        raise InfeasibleError(
            f"rank {form.rank} source cannot reach rank {target_rank}")
    x = spectrum(form.coeffs ** 2, n)
    steps = _transfer_chain(x, target_rank)

    # coordinate maps: row i is the bra of the i-th Schmidt vector
    ua = np.zeros((n, dim_a), dtype=complex)
    ub = np.zeros((n, dim_b), dtype=complex)
    for i in range(form.rank):
        ua[i] = form.left_basis[i].amps.conj()
        ub[i] = form.right_basis[i].amps.conj()

    a_branch = [np.eye(n, dtype=complex)]
    b_branch = [np.eye(n, dtype=complex)]
    for (i, j, z, z_next) in steps:
        m0, m1 = _pair_measurement(i, j, z, z_next, n)
        swap = np.eye(n, dtype=complex)
        swap[i, i] = swap[j, j] = 0.0
        swap[i, j] = swap[j, i] = 1.0
        a_branch = [m @ a for a in a_branch for m in (m0, m1)]
        b_new = []
        for b in b_branch:
            b_new.append(b)
            b_new.append(swap @ b)
        b_branch = b_new
        # keep (a, b) pairs aligned: a_branch alternates m0, m1 per old branch
    assert len(a_branch) == len(b_branch)

    L = target_rank
    w_a = np.zeros((L, n), dtype=complex)
    for i in range(L):
        w_a[i, i] = 1.0
    junk = int(np.ceil(dim_b / L)) + 1
    w_b = np.zeros((L * junk, n), dtype=complex)
    for i in range(L):
        w_b[i * junk + 0, i] = 1.0
    for i in range(L, n):
        r, s = i % L, 1 + (i - L) // L
        w_b[r * junk + s, i] = 1.0

    a_in = tuple(source.dims[k] for k in cut.left)
    b_in = tuple(source.dims[k] for k in cut.right)
    a_ops, b_ops = [], []
    for a_m, b_m in zip(a_branch, b_branch):
        a_ops.append(ProtocolOp(w_a @ a_m @ ua, a_in, (L,)))
        b_full = _extend_isometry(w_b @ b_m @ ub, dim_b)
        b_ops.append(ProtocolOp(b_full, b_in, (L, junk)))

    # completion outcomes restoring exact sender completeness
    acc = np.zeros((dim_a, dim_a), dtype=complex)
    for op in a_ops:
        acc += op.mat.conj().T @ op.mat
    gap = np.eye(dim_a) - acc
    ev, vec = np.linalg.eigh((gap + gap.conj().T) / 2)
    fallback_b = _extend_isometry(w_b @ ub, dim_b)
    for k in range(ev.size):
        if ev[k] > 1e-12:
            m = np.zeros((L, dim_a), dtype=complex)
            m[0, :] = np.sqrt(ev[k]) * vec[:, k].conj()
            a_ops.append(ProtocolOp(m, a_in, (L,)))
            b_ops.append(ProtocolOp(fallback_b, b_in, (L, junk)))
    return OneWayProtocol(a_ops, b_ops)


def _extend_isometry(mat: np.ndarray, dim_in: int) -> np.ndarray:
    """Extend a norm-preserving map defined on a subspace of the input to a
    full isometry, routing the deficit into unused image rows."""
    out = mat.copy()
    gap = np.eye(dim_in) - out.conj().T @ out
    if np.max(np.abs(gap)) < 1e-14:
        return out
    ev, vec = np.linalg.eigh((gap + gap.conj().T) / 2)
    row_norms = np.abs(out).sum(axis=1)
    free = np.flatnonzero(row_norms < 1e-12)
    fi = 0
    for k in range(ev.size):
        if ev[k] > 1e-12:
            if fi >= free.size:
                raise ValueError("no room to extend isometry")
            out[free[fi]] = np.sqrt(ev[k]) * vec[:, k].conj()
            fi += 1
    return out


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
    # transfer chain from the seed profile down to d, then realized in reverse
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
            z[i] += delta
            z[j] -= delta
            steps.append((i, j))
            deficit = start[i] - z[i]
            guard += 1
            if guard > 4 * n:
                raise InfeasibleError("diagonal chain did not converge")
    if np.max(np.abs(z - start)) > 1e-9:
        raise InfeasibleError("diagonal chain failed to reach the seed")

    p = np.diag(start.astype(complex))
    u = np.eye(n, dtype=complex)
    # replay the chain backwards: move mass from coordinate i to j
    targets = []
    z = start.copy()
    for (i, j) in reversed(steps):
        # recompute the target diagonal value for coordinate i after this
        # reversed step by rerunning the forward chain bookkeeping
        targets.append((i, j))
    # forward bookkeeping of intermediate diagonals
    diags = [d.astype(float).copy()]
    z = d.astype(float).copy()
    for (i, j) in steps:
        delta = min(start[i] - z[i], z[j])
        z = z.copy()
        z[i] += delta
        z[j] -= delta
        diags.append(z)
    # walk from the seed back to d
    for t in range(len(steps) - 1, -1, -1):
        i, j = steps[t]
        want = diags[t][i]
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

    Returns (sender matrices, receiver coordinate co-isometries, coordinate
    maps): n sender operators M_t of shape (L, dim_sender) and matching
    receiver maps of shape (L, dim_receiver), where n is the Schmidt support
    size; every branch maps the source to the target with amplitude
    1/sqrt(n).  The sender family resolves the identity on the Schmidt
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
