"""System-size-limited preparation: phase-coupling circuit targets, their
measurement-based preparation from a graph state, exact Schmidt-rank scans
over line layouts, the almost-quadratic local-dimension bound, and the
configuration-limited dynamic simulator.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .qcore import (Bipartition, Ket, StateError, singular_rank,
                    unitary_from_ginibre)


@dataclass(frozen=True)
class CircuitSpec:
    """Pairwise phase-coupling circuit: gates exp(i alpha Z x Z) acting on
    1-based qubit pairs of a plus-state register."""

    n_qubits: int
    gates: tuple

    def __init__(self, n_qubits, gates):
        n_qubits = int(n_qubits)
        gates = tuple((int(i), int(j)) for (i, j) in gates)
        for (i, j) in gates:
            if not (1 <= i <= n_qubits and 1 <= j <= n_qubits) or i == j:
                raise ValueError(f"gate ({i},{j}) out of range")
        object.__setattr__(self, "n_qubits", n_qubits)
        object.__setattr__(self, "gates", gates)

    @property
    def n_gates(self):
        return len(self.gates)


def default_circuit() -> CircuitSpec:
    """Eight qubits coupled along a balanced spanning tree."""
    return CircuitSpec(8, [(1, 2), (1, 3), (2, 4), (2, 5), (3, 6), (3, 7),
                           (4, 8)])


def circuit_state(circ: CircuitSpec, alphas) -> Ket:
    """Output of the circuit for the given gate angles (radians)."""
    alphas = list(alphas)
    if len(alphas) != circ.n_gates:
        raise ValueError(
            f"need {circ.n_gates} angles, got {len(alphas)}")
    n = circ.n_qubits
    amps = np.full(2 ** n, 2.0 ** (-n / 2), dtype=complex)
    for (i, j), alpha in zip(circ.gates, alphas):
        amps = _apply_zz_phase(amps, n, i - 1, j - 1, alpha)
    return Ket(amps, (2,) * n)


def _apply_zz_phase(amps, n, qi, qj, alpha):
    idx = np.arange(2 ** n)
    zi = 1 - 2 * ((idx >> (n - 1 - qi)) & 1)
    zj = 1 - 2 * ((idx >> (n - 1 - qj)) & 1)
    return amps * np.exp(1j * alpha * zi * zj)


@dataclass(frozen=True)
class GraphState:
    """Simple graph with target/auxiliary vertex roles."""

    adjacency: np.ndarray
    roles: tuple   # "target" or ("aux", gate index)

    def neighbors(self, v):
        return [u for u in range(self.adjacency.shape[0])
                if self.adjacency[v, u]]


@functools.lru_cache(maxsize=16)
def resource_graph_state(circ: CircuitSpec) -> GraphState:
    """The preparation resource: one auxiliary vertex per gate wired to the
    gate's two targets.  Built once per circuit; the adjacency is
    read-only."""
    n_t, n_a = circ.n_qubits, circ.n_gates
    n = n_t + n_a
    adj = np.zeros((n, n), dtype=bool)
    roles = ["target"] * n_t + [("aux", k) for k in range(n_a)]
    for k, (i, j) in enumerate(circ.gates):
        a = n_t + k
        adj[a, i - 1] = adj[i - 1, a] = True
        adj[a, j - 1] = adj[j - 1, a] = True
    adj.flags.writeable = False
    return GraphState(adjacency=adj, roles=tuple(roles))


def mbqc_prepare(circ: CircuitSpec, alphas, tol: float = 1e-8) -> dict:
    """Prepare the circuit state from the resource graph state: rotate each
    auxiliary qubit, measure it, and counter-rotate the gate's targets on
    outcome one.  Enumerates all correction branches and reports the worst
    infidelity against the direct circuit output (global phase ignored).
    Every branch is exact, so within ``tol`` the infidelities are rounding
    noise and ``worst_branch`` is ``None``; above it, ``worst_branch`` (and
    ``failing_branch``) is the first branch in outcome order that attains
    the worst.  Party ``p`` holds target qubit ``p`` and the auxiliary
    qubit of gate ``p`` (1-based); ``config`` counts each party's qubit
    slots."""
    alphas = list(alphas)
    if len(alphas) != circ.n_gates:
        raise ValueError("one angle per gate required")
    if not all(math.isfinite(a) for a in alphas):
        raise ValueError(f"gate angles must be finite, got {alphas}")
    probs, infid = _mbqc_branches(circ, alphas)
    n_a = circ.n_gates
    o = int(np.argmax(infid))
    worst_branch = tuple((o >> (n_a - 1 - k)) & 1 for k in range(n_a))
    worst = max(0.0, float(infid[o]))
    total = float(np.sum(probs))
    party_slots = {p: ["target"] * (p <= circ.n_qubits) + ["aux"] * (p <= n_a)
                   for p in range(1, max(circ.n_qubits, n_a) + 1)}
    report = {
        "branches": 2 ** n_a,
        "worst_infidelity": worst,
        "worst_branch": worst_branch if worst > tol else None,
        "total_probability": total,
        "config": {p: len(slots) for p, slots in party_slots.items()},
        "party_slots": party_slots,
        "pass": bool(worst <= tol and abs(total - 1) < 1e-7),
    }
    if not report["pass"]:
        report["failing_branch"] = worst_branch
    return report


def _mbqc_branches(circ: CircuitSpec, alphas):
    """Probability and infidelity of every correction branch, in outcome
    order (auxiliary 0 is the most significant outcome bit).

    The resource graph has no target-target edge, and auxiliary ``k``
    touches exactly the targets ``(i, j)`` of gate ``k``.  Its amplitude at
    target bits ``x`` and auxiliary bits ``y`` is therefore
    ``2^{-n/2} prod_k (-1)^{y_k s_k(x)}`` with ``s_k(x) = x_i XOR x_j``.
    Rotating auxiliary ``k`` by ``R_k``, keeping outcome ``o_k`` and
    applying the correction ``(Z_i Z_j)^{o_k}`` leaves branch ``o`` with
    the target amplitudes

        2^{-n/2} prod_k f_k[o_k, s_k(x)],
        f_k[o, s] = (R_k[o, 0] + R_k[o, 1] (-1)^s) (-1)^{o s},

    one 2x2 table per gate.  The (targets, outcomes) branch matrix is their
    outer product over the outcome bits.  The premise is checked on the
    resource graph's adjacency."""
    graph = resource_graph_state(circ)
    target = circuit_state(circ, alphas)
    n_t, n_a = circ.n_qubits, circ.n_gates
    if graph.adjacency[:n_t, :n_t].any() or any(
            set(graph.neighbors(n_t + k)) != {i - 1, j - 1}
            for k, (i, j) in enumerate(circ.gates)):
        raise RuntimeError("resource graph is not one auxiliary per gate "
                           "wired to the gate's two targets")
    x = np.arange(2 ** n_t)
    signs = np.array([[1.0, 1.0], [1.0, -1.0]])     # (-1)^{a b}
    branches = np.full((2 ** n_t, 1), 2.0 ** (-(n_t + n_a) / 2), dtype=complex)
    for (i, j), alpha in zip(circ.gates, alphas):
        rot = np.array([[np.cos(alpha), 1j * np.sin(alpha)],
                        [1j * np.sin(alpha), np.cos(alpha)]])
        f = (rot @ signs) * signs
        s = ((x >> (n_t - i)) ^ (x >> (n_t - j))) & 1
        branches = (branches[:, :, None] * f.T[s][:, None, :]).reshape(
            2 ** n_t, -1)
    probs = np.einsum("ij,ij->j", branches.conj(), branches).real
    overlaps = target.amps.conj() @ branches
    return probs, 1.0 - np.abs(overlaps) ** 2 / np.maximum(probs, 1e-300)


# ---------------------------------------------------------------------------
# exact arithmetic over Gaussian integers


@dataclass(frozen=True)
class GaussIntVector:
    """State vector with exact Gaussian-integer entries."""

    entries: tuple     # ((re, im), ...) python ints
    dims: tuple

    def __init__(self, entries, dims):
        dims = tuple(int(d) for d in dims)
        entries = tuple((int(a), int(b)) for (a, b) in entries)
        if len(entries) != int(np.prod(dims)):
            raise ValueError("entry count does not match dims")
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "dims", dims)

    def to_complex(self) -> np.ndarray:
        return np.array([a + 1j * b for (a, b) in self.entries])


def _gmul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _gsub(x, y):
    return (x[0] - y[0], x[1] - y[1])


def _gdiv_exact(x, y):
    den = y[0] * y[0] + y[1] * y[1]
    re = x[0] * y[0] + x[1] * y[1]
    im = x[1] * y[0] - x[0] * y[1]
    qr, rr = divmod(re, den)
    qi, ri = divmod(im, den)
    if rr or ri:
        raise ArithmeticError("inexact division in fraction-free elimination")
    return (qr, qi)


def exact_gauss_rank(rows) -> int:
    """Rank over the Gaussian rationals of an integer-pair matrix, by
    fraction-free elimination; exact, no tolerance."""
    mat = [list(r) for r in rows]
    n_rows = len(mat)
    n_cols = len(mat[0]) if n_rows else 0
    prev = (1, 0)
    r = 0
    for c in range(n_cols):
        piv = None
        for rr in range(r, n_rows):
            if mat[rr][c] != (0, 0):
                piv = rr
                break
        if piv is None:
            continue
        if piv != r:
            mat[r], mat[piv] = mat[piv], mat[r]
        for rr in range(r + 1, n_rows):
            for cc in range(c + 1, n_cols):
                num = _gsub(_gmul(mat[r][c], mat[rr][cc]),
                            _gmul(mat[rr][c], mat[r][cc]))
                mat[rr][cc] = _gdiv_exact(num, prev)
            mat[rr][c] = (0, 0)
        prev = mat[r][c]
        r += 1
        if r >= n_rows:
            break
    return r


def exact_schmidt_rank(vec: GaussIntVector, cut: Bipartition) -> int:
    """Schmidt rank across the cut, exactly."""
    left = list(cut.left)
    right = list(cut.right)
    if sorted(left + right) != list(range(len(vec.dims))):
        raise ValueError("cut must partition all subsystems")
    dims = vec.dims
    n = len(dims)
    d_left = int(np.prod([dims[k] for k in left]))
    d_right = int(np.prod([dims[k] for k in right]))
    rows = [[(0, 0)] * d_right for _ in range(d_left)]
    strides = [int(np.prod(dims[k + 1:])) for k in range(n)]
    for flat, entry in enumerate(vec.entries):
        if entry == (0, 0):
            continue
        li = 0
        for k in left:
            li = li * dims[k] + (flat // strides[k]) % dims[k]
        ri = 0
        for k in right:
            ri = ri * dims[k] + (flat // strides[k]) % dims[k]
        rows[li][ri] = entry
    if d_left > d_right:
        rows = [[rows[i][j] for i in range(d_left)] for j in range(d_right)]
    return exact_gauss_rank(rows)


def scaled_quarter_turn_state(circ: CircuitSpec,
                              quarter_multiple: int = 1) -> GaussIntVector:
    """The circuit output at angle (odd multiple of a quarter turn) scaled
    to integer entries: each plus state contributes sqrt(2) and each gate
    contributes sqrt(2), so the amplitudes become products of (+-1 +- i)."""
    k = int(quarter_multiple) % 8
    if k % 2 == 0:
        raise ValueError(
            "exact integer scaling needs an odd multiple of pi/4")
    c = {1: 1, 3: -1, 5: -1, 7: 1}[k]
    d = {1: 1, 3: 1, 5: -1, 7: -1}[k]
    n = circ.n_qubits
    entries = [(1, 0)] * (2 ** n)
    for (i, j) in circ.gates:
        qi, qj = i - 1, j - 1
        for idx in range(2 ** n):
            zi = (idx >> (n - 1 - qi)) & 1
            zj = (idx >> (n - 1 - qj)) & 1
            factor = (c, d) if zi == zj else (c, -d)
            entries[idx] = _gmul(entries[idx], factor)
    return GaussIntVector(entries, (2,) * n)


def permutation_scan(circ: CircuitSpec = None,
                     quarter_multiple: int = 1) -> dict:
    """Exact Schmidt ranks across every edge of every line layout of the
    first seven qubits followed by the eighth, at a gate angle that is an
    odd multiple of a quarter turn.

    Reports whether every one of the 5040 layouts has some edge with rank
    above two, with the circuit connectivity echoed; ranks are computed once
    per distinct cut subset and reused.
    """
    circ = circ or default_circuit()
    if circ.n_qubits != 8 or circ.n_gates != 7:
        raise ValueError("the scan is defined for 8 qubits and 7 gates")
    vec = scaled_quarter_turn_state(circ, quarter_multiple)
    rank_cache = {}

    def cut_rank(subset):
        key = frozenset(subset)
        if key not in rank_cache:
            cut = Bipartition([q - 1 for q in subset],
                              [q - 1 for q in range(1, 9) if q not in key])
            rank_cache[key] = exact_schmidt_rank(vec, cut)
        return rank_cache[key]

    violated = 0
    max_rank_seen = 0
    witness_ok = None
    for perm in itertools.permutations(range(1, 8)):
        has_big = False
        for k in range(2, 7):          # prefix sizes with possible rank > 2
            r = cut_rank(perm[:k])
            max_rank_seen = max(max_rank_seen, r)
            if r > 2:
                has_big = True
                break
        if has_big:
            violated += 1
        elif witness_ok is None:
            witness_ok = perm
    all_violated = violated == 5040
    sample = {str(sorted(k)): v for k, v in
              list(sorted(rank_cache.items(), key=lambda kv: sorted(kv[0])))[:8]}
    return {
        "connectivity": list(circ.gates),
        "permutations": 5040,
        "permutations_with_large_edge": violated,
        "all_have_large_edge": bool(all_violated),
        "distinct_cuts_evaluated": len(rank_cache),
        "max_rank_seen": int(max_rank_seen),
        "counterexample_layout": witness_ok,
        "sample_cut_ranks": sample,
    }


BOUND_CHUNK = 1 << 16   # assignments per array chunk of the bound search


def bipartite_bound_check(m: int, big_d: int, cap: int = 10 ** 7) -> dict:
    """Exhaustive check that pair-distributed entanglement on the complete
    graph of 2m parties meeting every balanced-cut rank condition forces a
    local dimension of at least D^(2 - 1/m).

    Assignments of ranks 1..D^m to the edges are enumerated in
    ``itertools.product`` order, ``BOUND_CHUNK`` at a time; the witness is
    the first assignment in that order attaining the minimum."""
    if m < 2 or big_d < 2:
        raise ValueError("need m >= 2 and D >= 2")
    parties = list(range(2 * m))
    edges = list(itertools.combinations(parties, 2))
    need = big_d ** m
    max_rank = need
    space = max_rank ** len(edges)
    if space > cap:
        raise ValueError(f"search space {space} exceeds the cap {cap}")
    cuts = []
    seen = set()
    for side in itertools.combinations(parties, m):
        other = tuple(p for p in parties if p not in side)
        key = frozenset((side, other))
        if key in seen:
            continue
        seen.add(key)
        cuts.append([i for i, e in enumerate(edges)
                     if (e[0] in side) != (e[1] in side)])
    incident = [[i for i, e in enumerate(edges) if p in e] for p in parties]
    # place value of each edge's digit: the first edge is most significant
    place = max_rank ** np.arange(len(edges) - 1, -1, -1, dtype=np.int64)
    best = None
    best_assign = None
    for start in range(0, space, BOUND_CHUNK):
        idx = np.arange(start, min(start + BOUND_CHUNK, space), dtype=np.int64)
        ranks = idx[:, None] // place % max_rank + 1
        ok = np.ones(len(idx), dtype=bool)
        for cut in cuts:
            ok &= ranks[:, cut].prod(axis=1) >= need
        local = np.max([ranks[:, inc].prod(axis=1) for inc in incident],
                       axis=0)
        j = int(np.argmin(np.where(ok, local, np.iinfo(np.int64).max)))
        if ok[j] and (best is None or local[j] < best):
            best, best_assign = int(local[j]), tuple(ranks[j].tolist())
    bound = big_d ** (2.0 - 1.0 / m)
    symmetric = int(math.ceil(big_d ** (1.0 / m)))
    sym_ok = all(symmetric ** len(cut) >= need for cut in cuts)
    return {
        "m": m,
        "logical_dim": big_d,
        "min_max_local_dim": int(best),
        "bound": float(bound),
        "meets_bound": bool(best >= bound - 1e-9),
        "witness_assignment": best_assign,
        "symmetric_rank": symmetric,
        "symmetric_feasible": bool(sym_ok),
    }


# ---------------------------------------------------------------------------
# dynamic setting


@dataclass(frozen=True)
class Configuration:
    """Per-party qubit-slot counts (dimension caps are 2^slots)."""

    slots: dict

    def __init__(self, slots):
        slots = {int(k): int(v) for k, v in slots.items()}
        if any(v < 0 for v in slots.values()):
            raise ValueError("slot counts must be nonnegative")
        object.__setattr__(self, "slots", slots)

    @functools.cached_property
    def layout(self) -> "SlotLayout":
        """The configuration's slot tables, built on first use."""
        return SlotLayout(self.slots)


class SlotLayout:
    """Index tables of one configuration, shared by every schedule run
    under it.

    - ``slots``: the (party, slot) pairs in party order, the state's axes;
      ``index`` maps a pair to its axis.
    - ``parties``: the parties with at least one slot.
    - ``cut_parties``: the parties with slots on both sides of their cut;
      a cut is named by its place in this tuple, ``all_cuts`` names all.
    - ``cut_axes``: per cut, the party's dimension and the axis order that
      puts the rest of the slots first, so a transposed state reshapes to
      the cut's (rest, party) matrix.
    - ``send_cuts``: per (sending party, receiving party), the cuts a send
      can change: both parties' cuts, none within one party."""

    def __init__(self, slots):
        self.slots = tuple((p, s) for p in sorted(slots)
                           for s in range(slots[p]))
        self.n = len(self.slots)
        self.index = {ps: i for i, ps in enumerate(self.slots)}
        self.parties = tuple(p for p in sorted(slots) if slots[p])
        self.cut_parties = tuple(p for p in self.parties
                                 if slots[p] < self.n)
        self.all_cuts = tuple(range(len(self.cut_parties)))
        self.cut_axes = []
        for p in self.cut_parties:
            mine = [i for i, (q, _) in enumerate(self.slots) if q == p]
            rest = [i for i in range(self.n) if i not in mine]
            self.cut_axes.append((2 ** len(mine), tuple(rest + mine)))
        self.send_cuts = {
            (a, b): tuple(c for c, p in enumerate(self.cut_parties)
                          if a != b and p in (a, b))
            for a in self.parties for b in self.parties}

    def pos(self, party, slot) -> int:
        """The axis of a (party, slot) pair."""
        try:
            return self.index[(int(party), int(slot))]
        except KeyError:
            raise ScheduleError(
                f"party {party} slot {slot} outside the configuration")


CONFIG_D0 = Configuration({1: 2, 2: 2, 3: 2, 4: 2, 5: 2, 6: 2, 7: 2, 8: 1})
CONFIG_D1 = Configuration({1: 2, 2: 1, 3: 1, 4: 1})


class ScheduleError(ValueError):
    """Raised when a schedule step violates the configuration."""


AUDIT_STACK_AMPS = 1 << 14   # amplitudes of pending post-step states


@functools.lru_cache(maxsize=None)
def _identity(d):
    eye = np.eye(d, dtype=complex)
    eye.flags.writeable = False
    return eye


@functools.lru_cache(maxsize=1024)
def _axis_orders(n, pos):
    """Axis order bringing the slots ``pos`` to the front of an ``n``-slot
    state, and its inverse."""
    order = pos + tuple(i for i in range(n) if i not in pos)
    return order, tuple(np.argsort(order).tolist())


def _norm(x):
    """``np.linalg.norm(x)`` without its argument handling: the same dot
    products over the same element order (memory order), so the same
    bits."""
    x = x.ravel(order="K")
    re, im = x.real, x.imag
    return math.sqrt(re.dot(re) + im.dot(im))


class DynamicSimulator:
    """Slot-level simulator for the dynamic setting: local unitaries and
    projective measurements within a party, plus single-qubit sends whose
    receiving slot must be free; an audit trail records the Schmidt rank
    across every single-party cut after each step.

    ``apply`` runs every check at once.  The audit recomputes only the cuts
    a step can change and carries every other rank over from the previous
    entry (the first from ``|0...0>``, where every rank is 1):

    - a ``unitary`` changes none: it passed the unitarity check, so it is
      an invertible operator within one party, which keeps every
      single-party Schmidt rank;
    - a ``send`` between two parties changes their two cuts; for any other
      party it only permutes the rest side of the cut matrix;
    - a ``measure`` may change every cut: a projection at one party can
      lower another party's rank.

    A step that touches a cut keeps its post-step state (no step writes
    into a state array, so a reference suffices); the ranks of all kept
    (state, cut) pairs are computed together when ``audit`` is read, or
    once the kept states hold ``AUDIT_STACK_AMPS`` amplitudes."""

    def __init__(self, config: Configuration, seed: int = 0):
        self.config = config
        self.layout = config.layout
        self.slots = list(self.layout.slots)
        self.n = self.layout.n
        self.state = np.zeros((2,) * self.n, dtype=complex)
        self.state[(0,) * self.n] = 1.0
        self.rng = np.random.default_rng(seed)
        self._audit = []
        self._touched = []   # per step since the last flush: cuts it changes
        self._pending = []   # post-step states of the steps that touch a cut
        self._computed = 0
        self._carried = 0
        self.step_count = 0

    @property
    def state(self) -> np.ndarray:
        """The (2,) * n amplitude tensor, axes in ``slots`` order."""
        return self._state

    @state.setter
    def state(self, value):
        self._state, self._state_norm = value, None

    def _current_norm(self) -> float:
        """``_norm`` of the state, kept until the state is replaced."""
        if self._state_norm is None:
            self._state_norm = _norm(self._state)
        return self._state_norm

    def _check_norm(self):
        norm = self._current_norm()
        if abs(norm - 1.0) > 1e-6:
            raise StateError(
                f"step {self.step_count}: state norm {norm} deviates from 1")

    def _ranks(self, states, touched) -> list:
        """Schmidt rank across the cuts ``touched[i]`` of each state
        ``states[i]``, as one list per state: one singular-value call per
        cut dimension over all (state, cut) pairs, each cut a (rest, party)
        matrix.  A call takes as many cuts as fit in ``AUDIT_STACK_AMPS``
        amplitudes, and at least one."""
        out = [[0] * len(cuts) for cuts in touched]
        by_dim = {}
        for i, cuts in enumerate(touched):
            for j, c in enumerate(cuts):
                by_dim.setdefault(self.layout.cut_axes[c][0], []).append(
                    (i, j, self.layout.cut_axes[c][1]))
        per_call = max(1, AUDIT_STACK_AMPS // 2 ** self.n)
        for dim, pairs in by_dim.items():
            for a in range(0, len(pairs), per_call):
                block = pairs[a:a + per_call]
                mats = np.empty((len(block),) + self._state.shape, complex)
                for k, (i, _, axes) in enumerate(block):
                    mats[k] = states[i].transpose(axes)
                ranks = singular_rank(mats.reshape(len(block), -1, dim))
                for (i, j, _), r in zip(block, ranks.tolist()):
                    out[i][j] = r
                self._computed += len(block)
        return out

    def _flush(self):
        """Audit every step applied since the last flush."""
        if not self._touched:
            return
        parties = self.layout.cut_parties
        found = iter(self._ranks(self._pending,
                                 [cuts for cuts in self._touched if cuts]))
        prev = (self._audit[-1] if self._audit
                else dict.fromkeys(parties, 1))
        for cuts in self._touched:
            prev = dict(prev)
            if cuts:
                for c, r in zip(cuts, next(found)):
                    prev[parties[c]] = r
            self._carried += len(parties) - len(cuts)
            self._audit.append(prev)
        self._touched, self._pending = [], []

    @property
    def audit(self) -> list:
        """Party-cut ranks after each applied step."""
        self._flush()
        return self._audit

    @property
    def diagnostics(self) -> dict:
        """How the audit's ranks were obtained: computed from singular
        values, or carried over from the previous entry."""
        self._flush()
        return {"cut_ranks_computed": self._computed,
                "cut_ranks_carried": self._carried}

    def apply(self, step):
        self.step_count += 1
        op = step["op"]
        try:    # every ScheduleError names its step
            if op == "unitary":
                party = step["party"]
                pos = tuple([self.layout.pos(party, s)
                             for s in step["slots"]])
                if len(set(pos)) != len(pos):
                    raise ScheduleError("repeated slots in a unitary")
                mat = np.asarray(step["matrix"], dtype=complex)
                if mat.shape != (2 ** len(pos),) * 2:
                    raise ScheduleError("unitary size mismatch")
                gram = mat.conj().T.dot(mat)
                gram -= _identity(len(mat))
                dev = np.maximum.reduce(abs(gram), axis=None)
                if not dev <= 1e-9:
                    raise ScheduleError(
                        "matrix is not unitary "
                        f"(max |U^dag U - 1| = {dev:.3g})")
                order, inverse = _axis_orders(self.n, pos)
                t = self._state.transpose(order)
                t = (mat @ t.reshape(len(mat), -1)).reshape(t.shape)
                self.state = t.transpose(inverse)
                touched = ()
            elif op == "measure":
                order, inverse = _axis_orders(
                    self.n, (self.layout.pos(step["party"], step["slot"]),))
                t = self._state.transpose(order)
                p0 = float(_norm(t[0]) ** 2)
                total = float(self._current_norm() ** 2)   # t's memory order
                outcome = 0 if self.rng.random() * total < p0 else 1
                keep = t.copy(order="K")     # t's memory layout
                keep[1 - outcome] = 0
                keep /= _norm(keep)
                self.state = keep.transpose(inverse)
                step = {**step, "outcome": outcome}
                touched = self.layout.all_cuts
            elif op == "send":
                src = self.layout.pos(*step["from"])
                dst = self.layout.pos(*step["to"])
                if src == dst:
                    raise ScheduleError("send to the same slot")
                order, _ = _axis_orders(self.n, (dst,))
                if _norm(self._state.transpose(order)[1].ravel()) > 1e-9:
                    raise ScheduleError(
                        f"receiving slot {step['to']} is not initialized")
                # a view of the same memory: the kept norm still holds
                self._state = self._state.swapaxes(src, dst)
                touched = self.layout.send_cuts[self.slots[src][0],
                                                self.slots[dst][0]]
            else:
                raise ScheduleError(f"unknown step {op}")
        except ScheduleError as e:
            raise ScheduleError(f"step {self.step_count}: {e}") from None
        self._check_norm()
        self._touched.append(touched)
        if touched:
            self._pending.append(self._state)
            if len(self._pending) * self._state.size >= AUDIT_STACK_AMPS:
                self._flush()
        return step

    def ket(self) -> Ket:
        return Ket(self.state.reshape(-1), (2,) * self.n, normalized=False)

    def rank_to_party(self, party) -> int:
        audit = self.audit
        if audit:
            ranks = audit[-1]
        else:
            self._check_norm()
            parties = self.layout.cut_parties
            ranks = dict(zip(parties, self._ranks(
                [self._state], [self.layout.all_cuts])[0]))
        if party not in ranks:
            raise ValueError(f"party {party} has no slots on one side of "
                             "its cut")
        return ranks[party]


H_GATE = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
CZ_GATE = np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)


def resource_preparation_schedule() -> list:
    """Schedule preparing the fifteen-qubit resource graph state inside the
    default configuration: auxiliaries are born next to one endpoint,
    entangled, shipped to the other endpoint, entangled again, and parked
    wherever a slot is permanently free."""
    s = []

    def plus(p, slot):
        s.append({"op": "unitary", "party": p, "slots": [slot],
                  "matrix": H_GATE})

    def cz(p, s1, s2):
        s.append({"op": "unitary", "party": p, "slots": [s1, s2],
                  "matrix": CZ_GATE})

    def send(p1, s1, p2, s2):
        s.append({"op": "send", "from": (p1, s1), "to": (p2, s2)})

    # gate (4, 8): both endpoints created at party 4, target shipped to 8
    plus(4, 0)           # auxiliary a7
    plus(4, 1)           # target t8
    cz(4, 0, 1)
    send(4, 1, 8, 0)     # t8 home
    plus(4, 1)           # target t4
    cz(4, 0, 1)          # a7 - t4
    # gate (2, 4): a3 born at 2, entangled, walked to party 1 to meet t4
    plus(2, 0)           # target t2
    plus(2, 1)           # auxiliary a3
    cz(2, 0, 1)
    send(2, 1, 1, 0)     # a3 parked at 1
    send(4, 1, 1, 1)     # t4 visits party 1
    cz(1, 0, 1)          # a3 - t4
    send(1, 1, 4, 1)     # t4 home
    # gate (2, 5)
    plus(2, 1)           # auxiliary a4
    cz(2, 0, 1)
    plus(5, 0)           # target t5
    send(2, 1, 5, 1)     # a4 home at 5
    cz(5, 0, 1)
    # gate (1, 2): a1 born at 2, entangled, shipped to 1
    plus(2, 1)           # auxiliary a1
    cz(2, 0, 1)
    send(1, 0, 7, 0)     # park a3 at 7
    send(2, 1, 1, 0)     # a1 to party 1
    plus(1, 1)           # target t1
    cz(1, 0, 1)          # a1 - t1
    send(1, 0, 2, 1)     # a1 home at 2
    # gate (1, 3): a2 born at 3, entangled, shipped to 1
    plus(3, 0)           # target t3
    plus(3, 1)           # auxiliary a2
    cz(3, 0, 1)
    send(3, 1, 1, 0)
    cz(1, 0, 1)          # a2 - t1; a2 home at 1
    # gate (3, 6)
    plus(3, 1)           # auxiliary a5
    cz(3, 0, 1)
    plus(6, 0)           # target t6
    send(3, 1, 6, 1)     # a5 home at 6
    cz(6, 0, 1)
    # gate (3, 7): a6 born at 3, entangled, swapped with the parked a3
    plus(3, 1)           # auxiliary a6
    cz(3, 0, 1)          # a6 - t3
    send(3, 1, 7, 1)     # a6 to party 7 (free slot)
    send(7, 0, 3, 1)     # a3 home at 3
    plus(7, 0)           # target t7
    cz(7, 0, 1)          # a6 - t7
    return s


RESOURCE_SLOT_VERTEX = {
    # (party, slot) -> resource-graph vertex (targets 0..7, aux 8..14)
    (1, 0): 9,    # a2
    (1, 1): 0,    # t1
    (2, 0): 1,    # t2
    (2, 1): 8,    # a1
    (3, 0): 2,    # t3
    (3, 1): 10,   # a3
    (4, 0): 14,   # a7
    (4, 1): 3,    # t4
    (5, 0): 4,    # t5
    (5, 1): 11,   # a4
    (6, 0): 5,    # t6
    (6, 1): 12,   # a5
    (7, 0): 6,    # t7
    (7, 1): 13,   # a6
    (8, 0): 7,    # t8
}


def dynamic_simulate(config: Configuration, schedule, seed: int = 0) -> dict:
    """Run a schedule under the configuration; returns the final state, the
    executed steps (with measurement outcomes), the audit trail, and how
    many of its ranks were computed or carried over."""
    sim = DynamicSimulator(config, seed=seed)
    executed = [sim.apply(step) for step in schedule]
    return {
        "state": sim.ket(),
        "slots": list(sim.slots),
        "steps": executed,
        "audit": sim.audit,
        "rank_to_party": {p: sim.rank_to_party(p)
                          for p in sorted(config.slots) if config.slots[p]},
        "diagnostics": sim.diagnostics,
    }


def _run_on_graph(config: Configuration, schedule):
    """Run a schedule of H on a fresh qubit, CZ and sends on the graph of
    its born qubits (Hein, Eisert & Briegel, PRA 69, 062311 (2004)), with
    the simulator's slot checks.  Qubits are named by their first slot;
    returns the slot -> qubit map, the born flags and the adjacency."""
    lay = config.layout
    where = list(range(lay.n))
    born = np.zeros(lay.n, dtype=bool)
    adj = np.zeros((lay.n, lay.n), dtype=bool)
    for t, step in enumerate(schedule, 1):
        try:    # every ScheduleError names its step
            if step["op"] == "send":
                src, dst = lay.pos(*step["from"]), lay.pos(*step["to"])
                if src == dst:
                    raise ScheduleError("send to the same slot")
                if born[where[dst]]:
                    raise ScheduleError(
                        f"receiving slot {step['to']} is not initialized")
                where[src], where[dst] = where[dst], where[src]
                continue
            if step["op"] != "unitary":
                raise ScheduleError(f"{step['op']} leaves graph states")
            q = [where[lay.pos(step["party"], s)] for s in step["slots"]]
            if len(set(q)) != len(q):
                raise ScheduleError("repeated slots in a unitary")
            mat = np.asarray(step["matrix"], dtype=complex)
            gate = {1: H_GATE, 2: CZ_GATE}.get(len(q))
            if gate is None or mat.shape != gate.shape or (
                    mat.tobytes() != gate.tobytes()):      # bit-equal
                raise ScheduleError("unitary is neither H nor CZ")
            if len(q) == 1:
                if born[q[0]]:
                    raise ScheduleError("H on a born qubit")
                born[q[0]] = True
            elif born[q].all():    # CZ on |0> is the identity
                adj[q[0], q[1]] = adj[q[1], q[0]] = not adj[q[0], q[1]]
        except ScheduleError as e:
            raise ScheduleError(f"step {t}: {e}") from None
    return where, born, adj


def verify_resource_preparation() -> dict:
    """The preparation schedule, run on its graph, builds the resource graph
    state under the default configuration.  The overlap is exact:
    ``2^{-(n+|B|)/2} sum_x (-1)^{x^T U x}`` over the ``x`` that vanish off
    the born set ``B``, ``U`` the upper triangle of the graphs' XOR."""
    schedule = resource_preparation_schedule()
    where, born, adj = _run_on_graph(CONFIG_D0, schedule)
    want = resource_graph_state(default_circuit()).adjacency
    qubit = np.empty(len(where), dtype=int)    # vertex -> qubit
    qubit[[RESOURCE_SLOT_VERTEX[ps] for ps in CONFIG_D0.layout.slots]] = where
    got, born = adj[np.ix_(qubit, qubit)], born[qubit]
    u = np.triu(got ^ want) & np.outer(born, born)
    free = np.flatnonzero(u.any(0) | u.any(1))  # the other born x_v sum to 2
    x = np.arange(2 ** len(free))[:, None] >> np.arange(len(free)) & 1
    parity = np.einsum("si,ij,sj->s", x, u[np.ix_(free, free)].astype(int), x)
    total = int(np.sum(1 - 2 * (parity & 1))) << int(born.sum()) - len(free)
    return {
        "fidelity": total ** 2 / 2 ** (len(born) + int(born.sum())),
        "steps": len(schedule),
        "pass": bool(born.all() and (got == want).all()),
        "slot_vertex_map": {str(k): v for k, v in
                            RESOURCE_SLOT_VERTEX.items()},
    }


STEP_KINDS = ("unitary", "unitary", "send", "measure")


def random_legal_schedule(config: Configuration, rng, length: int = 20):
    """Random mixture of local unitaries, measurements, and legal sends.
    Each unitary's Ginibre matrix is drawn with its step, as
    ``qcore.random_unitary`` would draw it; the QR factorisations run once
    every step is drawn, one stacked call per matrix size."""
    lay = config.layout
    parties = lay.parties
    steps = []
    ginibre = {}    # matrix size -> [(step, real and imaginary draws)]
    occupied = [False] * lay.n      # per slot, in ``lay.slots`` order
    for _ in range(length):
        # indexing by rng.integers draws what rng.choice on the list would
        kind = STEP_KINDS[int(rng.integers(len(STEP_KINDS)))]
        if kind == "unitary":
            p = parties[int(rng.integers(len(parties)))]
            n_slots = config.slots[p]
            if n_slots == 1:
                # rng.integers(1, 2) and rng.choice(1, size=1,
                # replace=False) would draw nothing
                slots = [0]
            else:
                k = int(rng.integers(1, min(2, n_slots) + 1))
                slots = [int(s) for s in
                         rng.choice(n_slots, size=k, replace=False)]
            d = 2 ** len(slots)
            step = {"op": "unitary", "party": p, "slots": slots,
                    "matrix": None}
            steps.append(step)
            # one call draws what two (d, d) calls would, in order
            ginibre.setdefault(d, []).append(
                (step, rng.normal(size=(2, d, d))))
            first = lay.index[(p, 0)]
            for s in slots:
                occupied[first + s] = True
        elif kind == "measure":
            busy = [ps for ps, v in zip(lay.slots, occupied) if v]
            if not busy:
                continue
            p, s = busy[int(rng.integers(len(busy)))]
            steps.append({"op": "measure", "party": p, "slot": s})
        else:
            busy = [ps for ps, v in zip(lay.slots, occupied) if v]
            if not busy or len(busy) == lay.n:
                continue
            src = busy[int(rng.integers(len(busy)))]
            dsts = [ps for ps, v in zip(lay.slots, occupied)
                    if not v and ps[0] != src[0]]
            if not dsts:
                continue
            dst = dsts[int(rng.integers(len(dsts)))]
            steps.append({"op": "send", "from": src, "to": dst})
            occupied[lay.index[src]] = False
            occupied[lay.index[dst]] = True
    for pairs in ginibre.values():
        draws = np.array([g for _, g in pairs])
        for (step, _), u in zip(pairs, unitary_from_ginibre(
                draws[:, 0] + 1j * draws[:, 1])):
            step["matrix"] = u
    return steps


def verify_dynamic_rank_limit(trials: int = 500, seed: int = 0) -> dict:
    """Under the four-party configuration with a doubled root, no random
    legal schedule terminates with root-cut rank above two."""
    rng = np.random.default_rng(seed)
    worst = 1
    for t in range(trials):
        schedule = random_legal_schedule(CONFIG_D1, rng,
                                         length=int(rng.integers(8, 25)))
        out = dynamic_simulate(CONFIG_D1, schedule, seed=seed + t)
        worst = max(worst, out["rank_to_party"][1])
    return {"trials": trials, "max_root_rank": int(worst),
            "pass": bool(worst <= 2)}
