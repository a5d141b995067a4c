import functools
import itertools
import re
import tracemalloc

import numpy as np
import pytest

from mergekit import msize, qcore
from mergekit.locc import (LoccProtocol, ProtocolOp, Round, branch_fidelities,
                           simulate)
from mergekit.msize import (
    CONFIG_D0,
    CONFIG_D1,
    CircuitSpec,
    Configuration,
    DynamicSimulator,
    GaussIntVector,
    ScheduleError,
    bipartite_bound_check,
    circuit_state,
    default_circuit,
    dynamic_simulate,
    exact_schmidt_rank,
    mbqc_prepare,
    permutation_scan,
    random_legal_schedule,
    resource_graph_state,
    resource_preparation_schedule,
    scaled_quarter_turn_state,
    verify_dynamic_rank_limit,
    verify_resource_preparation,
)
from mergekit.msize import _mbqc_branches, _run_on_graph
from mergekit.qcore import (Bipartition, Ket, StateError, schmidt_decompose,
                            schmidt_rank)

RNG = np.random.default_rng(17)


def test_circuit_validation():
    with pytest.raises(ValueError):
        CircuitSpec(4, [(1, 5)])
    with pytest.raises(ValueError):
        CircuitSpec(4, [(2, 2)])
    with pytest.raises(ValueError):
        circuit_state(default_circuit(), [0.0] * 3)


def test_circuit_state_zero_angles_product():
    psi = circuit_state(default_circuit(), [0.0] * 7)
    assert np.allclose(psi.amps, 2.0 ** -4)


def test_circuit_state_quarter_fully_entangled():
    psi = circuit_state(default_circuit(), [np.pi / 4] * 7)
    for q in range(8):
        assert schmidt_rank(psi, Bipartition(
            [q], [x for x in range(8) if x != q])) == 2


def test_circuit_state_order_independent():
    rng = np.random.default_rng(3)
    alphas = rng.uniform(0, 2 * np.pi, 7)
    c = default_circuit()
    rev = CircuitSpec(8, list(reversed(c.gates)))
    a = circuit_state(c, alphas)
    b = circuit_state(rev, list(reversed(alphas)))
    assert np.allclose(a.amps, b.amps)


def test_single_gate_matches_two_qubit_form():
    c = CircuitSpec(2, [(1, 2)])
    alpha = 0.37
    psi = circuit_state(c, [alpha])
    plus2 = np.full(4, 0.5, dtype=complex)
    zz = np.diag([1.0, -1.0, -1.0, 1.0])
    expect = (np.cos(alpha) * np.eye(4)
              + 1j * np.sin(alpha) * zz) @ plus2
    assert np.allclose(psi.amps, expect)


def _stabilizer_holds(ket, graph, v, tol=1e-10):
    # X on v, then Z on each neighbour, on flat views (qubit 0 most
    # significant) rather than the slow n-axis tensor
    out = ket.amps.reshape(2 ** v, 2, -1)[:, ::-1].reshape(-1)
    for u in graph.neighbors(v):
        out.reshape(2 ** u, 2, -1)[:, 1] *= -1
    return bool(np.linalg.norm(out - ket.amps) <= tol)


@functools.lru_cache(maxsize=16)
def _resource_ket(circ):
    """The resource graph state on 2^n amplitudes, checked against its
    vertex stabilizers: the oracle of the tensor and per-branch tests."""
    graph = resource_graph_state(circ)
    n = len(graph.adjacency)
    amps = np.full(2 ** n, 2.0 ** (-n / 2), dtype=complex)
    for v, u in zip(*np.nonzero(np.triu(graph.adjacency))):
        # CZ on the edge: negate the entries whose bits v and u are both one
        amps.reshape(2 ** v, 2, 2 ** (u - v - 1), 2, -1)[:, 1, :, 1] *= -1
    ket = Ket(amps, (2,) * n)
    for v in range(n):
        assert _stabilizer_holds(ket, graph, v), v
    return ket


def test_resource_graph_state_structure():
    g = resource_graph_state(default_circuit())
    ket = _resource_ket(default_circuit())
    assert ket.dims == (2,) * 15
    assert abs(np.linalg.norm(ket.amps) - 1) < 1e-12
    # each auxiliary touches exactly its gate's two targets
    for k, (i, j) in enumerate(default_circuit().gates):
        nbrs = g.neighbors(8 + k)
        assert sorted(nbrs) == sorted([i - 1, j - 1])


def test_resource_graph_state_empty_circuit():
    g = resource_graph_state(CircuitSpec(3, []))
    assert not g.adjacency.any()
    ket = _resource_ket(CircuitSpec(3, []))
    assert np.allclose(ket.amps, 2.0 ** -1.5)


def test_three_vertex_correspondence():
    # one gate, one auxiliary: measuring the auxiliary yields the two-qubit
    # phase-coupled state in both branches
    c = CircuitSpec(2, [(1, 2)])
    rep = mbqc_prepare(c, [0.7])
    assert rep["pass"]
    assert rep["branches"] == 2


def test_mbqc_all_branches():
    rep = mbqc_prepare(default_circuit(), [np.pi / 4] * 7)
    assert rep["pass"]
    assert rep["branches"] == 128
    assert rep["worst_infidelity"] < 1e-8
    assert abs(rep["total_probability"] - 1) < 1e-7


def test_mbqc_random_angles():
    for trial in range(3):
        rng = np.random.default_rng(100 + trial)
        rep = mbqc_prepare(default_circuit(), rng.uniform(0, 2 * np.pi, 7))
        assert rep["pass"]


def test_exact_rank_basics():
    # scaled maximally entangled pair
    v = GaussIntVector([(1, 0), (0, 0), (0, 0), (1, 0)], (2, 2))
    assert exact_schmidt_rank(v, Bipartition([0], [1])) == 2
    # integer product vector
    v = GaussIntVector([(1, 0), (2, 0), (2, 0), (4, 0)], (2, 2))
    assert exact_schmidt_rank(v, Bipartition([0], [1])) == 1
    # complex entries
    v = GaussIntVector([(1, 1), (0, 0), (0, 0), (0, 2)], (2, 2))
    assert exact_schmidt_rank(v, Bipartition([0], [1])) == 2


def test_exact_rank_agrees_with_svd():
    for trial in range(1000):
        rng = np.random.default_rng(trial)
        dims = (int(rng.integers(2, 17)), int(rng.integers(2, 17)))
        total = dims[0] * dims[1]
        ints = rng.integers(-3, 4, size=(total, 2))
        v = GaussIntVector([tuple(map(int, e)) for e in ints], dims)
        arr = v.to_complex().reshape(dims)
        s = np.linalg.svd(arr, compute_uv=False)
        float_rank = int(np.sum(s > 1e-9 * max(s[0], 1e-300))) if s.size else 0
        assert exact_schmidt_rank(v, Bipartition([0], [1])) == float_rank


def test_scaled_state_matches_floating():
    c = default_circuit()
    vec = scaled_quarter_turn_state(c)
    psi = circuit_state(c, [np.pi / 4] * 7)
    assert np.allclose(vec.to_complex() / 2 ** 7.5, psi.amps)
    cut = Bipartition([0, 1, 2, 3], [4, 5, 6, 7])
    exact = exact_schmidt_rank(vec, cut)
    assert exact == schmidt_rank(psi, cut)


def test_permutation_scan_zero_angles():
    # the zero-angle state is a product: every cut has rank one, so the
    # exact machinery must see no large edges anywhere
    vec = GaussIntVector([(1, 0)] * 256, (2,) * 8)
    for subset in [(1, 2), (2, 5, 7)]:
        cut = Bipartition([q - 1 for q in subset],
                          [q - 1 for q in range(1, 9) if q not in subset])
        assert exact_schmidt_rank(vec, cut) == 1


def test_permutation_scan_default_circuit():
    rep = permutation_scan(default_circuit())
    assert rep["permutations"] == 5040
    assert rep["connectivity"] == list(default_circuit().gates)
    # certified outcome for this connectivity: twelve layouts stay small
    assert rep["permutations_with_large_edge"] == 5028
    assert not rep["all_have_large_edge"]
    assert rep["max_rank_seen"] == 4
    assert rep["counterexample_layout"] is not None


def test_bound_check():
    rep = bipartite_bound_check(2, 2)
    assert rep["meets_bound"]
    assert rep["min_max_local_dim"] >= 2 ** 1.5
    assert rep["symmetric_feasible"]
    rep = bipartite_bound_check(2, 3)
    assert rep["meets_bound"]
    assert rep["min_max_local_dim"] >= 3 ** 1.5
    assert rep["symmetric_feasible"]
    with pytest.raises(ValueError):
        bipartite_bound_check(4, 4)   # search space above the cap


def _reference_bound_check(m, big_d):
    """The bound search as first written: one Python loop over every
    assignment in ``itertools.product`` order."""
    parties = list(range(2 * m))
    edges = list(itertools.combinations(parties, 2))
    need = big_d ** m
    cuts = []
    seen = set()
    for side in itertools.combinations(parties, m):
        other = tuple(p for p in parties if p not in side)
        key = frozenset((side, other))
        if key in seen:
            continue
        seen.add(key)
        cuts.append([e for e in edges
                     if (e[0] in side) != (e[1] in side)])
    best = None
    best_assign = None
    for assign in itertools.product(range(1, need + 1), repeat=len(edges)):
        ok = True
        for cut in cuts:
            prod = 1
            for idx, e in enumerate(edges):
                if e in cut:
                    prod *= assign[idx]
            if prod < need:
                ok = False
                break
        if not ok:
            continue
        local = max(
            int(np.prod([assign[i] for i, e in enumerate(edges) if p in e]))
            for p in parties)
        if best is None or local < best:
            best, best_assign = local, assign
    bound = big_d ** (2.0 - 1.0 / m)
    symmetric = int(np.ceil(big_d ** (1.0 / m)))
    return {
        "m": m,
        "logical_dim": big_d,
        "min_max_local_dim": int(best),
        "bound": float(bound),
        "meets_bound": bool(best >= bound - 1e-9),
        "witness_assignment": best_assign,
        "symmetric_rank": symmetric,
        "symmetric_feasible": all(symmetric ** len(c) >= need for c in cuts),
    }


def test_bound_check_matches_enumeration_oracle():
    rep = bipartite_bound_check(2, 2)
    ref = _reference_bound_check(2, 2)
    assert rep == ref
    assert all(type(r) is int for r in rep["witness_assignment"])
    assert type(rep["min_max_local_dim"]) is int


def test_bound_check_d3_optimum():
    # the oracle takes ~15 s here; its result is pinned instead
    rep = bipartite_bound_check(2, 3)
    assert rep["min_max_local_dim"] == 8
    assert rep["witness_assignment"] == (2,) * 6
    assert all(type(r) is int for r in rep["witness_assignment"])


def test_bound_check_witness_is_first_minimum_across_chunks(monkeypatch):
    # chunks smaller than the space, so the first minimum must survive the
    # comparison between chunks
    ref = bipartite_bound_check(2, 2)
    for chunk in (7, 64, 4095):
        monkeypatch.setattr(msize, "BOUND_CHUNK", chunk)
        assert bipartite_bound_check(2, 2) == ref


def test_dynamic_simulator_basics():
    sim = DynamicSimulator(Configuration({1: 2, 2: 1}))
    h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    sim.apply({"op": "unitary", "party": 1, "slots": [0], "matrix": h})
    sim.apply({"op": "send", "from": (1, 0), "to": (2, 0)})
    assert sim.rank_to_party(2) == 1
    # sending into an occupied slot fails
    sim.apply({"op": "unitary", "party": 1, "slots": [0], "matrix": h})
    with pytest.raises(ScheduleError):
        sim.apply({"op": "send", "from": (1, 0), "to": (2, 0)})


def test_dynamic_empty_schedule_product():
    out = dynamic_simulate(CONFIG_D1, [])
    assert abs(out["state"].amps[0] - 1) < 1e-12
    assert out["rank_to_party"][1] == 1


def test_dynamic_measure_deterministic_given_seed():
    h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    sched = [{"op": "unitary", "party": 1, "slots": [0], "matrix": h},
             {"op": "measure", "party": 1, "slot": 0}]
    a = dynamic_simulate(CONFIG_D1, sched, seed=7)
    b = dynamic_simulate(CONFIG_D1, sched, seed=7)
    assert a["steps"][-1]["outcome"] == b["steps"][-1]["outcome"]


def test_resource_preparation_schedule():
    rep = verify_resource_preparation()
    assert rep["pass"]
    assert rep["fidelity"] == 1.0      # exact, not rounded
    assert rep["steps"] == 41
    assert rep.keys() == {"fidelity", "steps", "pass", "slot_vertex_map"}


def _gf2_rank(rows):
    """Rank over GF(2) of rows packed into ints."""
    rank, rows = 0, [r for r in rows if r]
    while rows:
        pivot = rows.pop()
        low = pivot & -pivot
        rows = [r for r in (r ^ pivot if r & low else r for r in rows) if r]
        rank += 1
    return rank


def _graph_audit(config, where, adj):
    """Party-cut Schmidt ranks of a tracked graph state: two to the GF(2)
    rank of the cut's biadjacency."""
    slots = config.layout.slots
    ranks = {}
    for p in config.layout.cut_parties:
        mine = [where[i] for i, (q, _) in enumerate(slots) if q == p]
        rest = [where[i] for i, (q, _) in enumerate(slots) if q != p]
        ranks[p] = 2 ** _gf2_rank(
            sum(int(adj[m, r]) << k for k, r in enumerate(rest))
            for m in mine)
    return ranks


def _float_fidelity(schedule):
    """The float simulator's run of a preparation schedule: its fidelity,
    axes permuted to resource vertices, against the graph ket, and the
    run itself."""
    out = dynamic_simulate(CONFIG_D0, schedule)
    order = [msize.RESOURCE_SLOT_VERTEX[ps] for ps in out["slots"]]
    state = out["state"].permute(list(np.argsort(order)))
    target = _resource_ket(default_circuit())
    return abs(np.vdot(target.amps, state.amps)) ** 2, out


def test_resource_preparation_against_the_float_simulator():
    # the float run as the oracle: same state, and at every step an audit
    # equal to the tracked graph's GF(2) cut ranks
    schedule = resource_preparation_schedule()
    fid, out = _float_fidelity(schedule)
    assert fid > 1 - 1e-9
    assert abs(verify_resource_preparation()["fidelity"] - fid) < 1e-12
    assert len(out["audit"]) == len(schedule)
    for t, ranks in enumerate(out["audit"], 1):
        where, _, adj = _run_on_graph(CONFIG_D0, schedule[:t])
        assert _graph_audit(CONFIG_D0, where, adj) == ranks, t
    assert max(max(r.values()) for r in out["audit"]) == 4


def _verify_schedule(monkeypatch, schedule):
    monkeypatch.setattr(msize, "resource_preparation_schedule",
                        lambda: schedule)
    return verify_resource_preparation()


def _cz(party):
    return {"op": "unitary", "party": party, "slots": [0, 1],
            "matrix": msize.CZ_GATE}


def test_resource_preparation_mismatch_is_exact(monkeypatch):
    schedule = resource_preparation_schedule()
    cz_steps = [i for i, step in enumerate(schedule)
                if step["op"] == "unitary" and len(step["slots"]) == 2]
    assert len(cz_steps) == 14
    # one edge short: the overlap is 2^n / 2 of 2^n
    for i in (cz_steps[0], cz_steps[7], cz_steps[-1]):
        short = schedule[:i] + schedule[i + 1:]
        rep = _verify_schedule(monkeypatch, short)
        assert not rep["pass"] and rep["steps"] == 40
        assert rep["fidelity"] == 0.25
        assert abs(rep["fidelity"] - _float_fidelity(short)[0]) < 1e-12
    # a triangle of extra CZs: t3-a6 while a6 is at party 3, a3-a6 while
    # both are at party 7, a3-t3 once a3 is home; the overlap vanishes
    tri = (schedule[:37] + [_cz(3)] + schedule[37:38] + [_cz(7)]
           + schedule[38:] + [_cz(3)])
    rep = _verify_schedule(monkeypatch, tri)
    assert not rep["pass"] and rep["fidelity"] == 0.0
    assert abs(_float_fidelity(tri)[0]) < 1e-12
    # CZ while one or both qubits are still |0> is the identity
    for idle in (schedule[:15] + [_cz(5)] + schedule[15:],
                 schedule[:16] + [_cz(5)] + schedule[16:]):
        rep = _verify_schedule(monkeypatch, idle)
        assert rep["pass"] and rep["fidelity"] == 1.0
        assert _float_fidelity(idle)[0] > 1 - 1e-9
    # t7 left in |0>, its CZ with a6 a no-op: |<+|0>|^2 = 1/2
    unborn = schedule[:-2]
    rep = _verify_schedule(monkeypatch, unborn)
    assert not rep["pass"] and rep["fidelity"] == 0.5
    assert abs(rep["fidelity"] - _float_fidelity(unborn)[0]) < 1e-12


def test_resource_preparation_refuses_what_the_graph_cannot_follow(
        monkeypatch):
    schedule = resource_preparation_schedule()
    h = {"op": "unitary", "party": 4, "slots": [0], "matrix": msize.H_GATE}
    x = np.array([[0, 1], [1, 0]], dtype=complex)

    def send(a, b):
        return {"op": "send", "from": a, "to": b}

    head = schedule[:3]             # a7 and t8 born at party 4, one edge
    graph_only = [
        (head + [h], "step 4: H on a born qubit"),
        (head + [{**h, "matrix": x}], "step 4: unitary is neither H nor CZ"),
        (head + [{**h, "slots": [0, 1]}],
         "step 4: unitary is neither H nor CZ"),
        (head + [{**h, "slots": []}], "step 4: unitary is neither H nor CZ"),
        (head + [{**h, "matrix": msize.H_GATE.reshape(4)}],
         "step 4: unitary is neither H nor CZ"),
        (head + [{**_cz(4), "slots": [0]}],
         "step 4: unitary is neither H nor CZ"),
        (head + [{**_cz(4), "matrix": -msize.CZ_GATE}],
         "step 4: unitary is neither H nor CZ"),
        (head + [{"op": "measure", "party": 4, "slot": 0}],
         "step 4: measure leaves graph states"),
    ]
    # the slot checks word their errors as the float simulator does
    both = [
        (head + [send((4, 1), (4, 0))],
         "step 4: receiving slot (4, 0) is not initialized"),
        (head + [send((4, 1), (8, 1))],
         "step 4: party 8 slot 1 outside the configuration"),
        (head + [{**h, "party": 9}],
         "step 4: party 9 slot 0 outside the configuration"),
        (head + [{**_cz(4), "slots": [1, 1]}],
         "step 4: repeated slots in a unitary"),
        (head + [send((4, 1), (4, 1))], "step 4: send to the same slot"),
    ]
    for bad, message in graph_only + both:
        with pytest.raises(ScheduleError, match=f"^{re.escape(message)}$"):
            _verify_schedule(monkeypatch, bad)
    for bad, message in both:
        with pytest.raises(ScheduleError, match=f"^{re.escape(message)}$"):
            dynamic_simulate(CONFIG_D0, bad)


def test_every_schedule_error_names_its_step():
    h = {"op": "unitary", "party": 1, "slots": [0], "matrix": msize.H_GATE}
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    cases = [
        ({**h, "party": 9}, "party 9 slot 0 outside the configuration"),
        ({**h, "slots": [0, 0]}, "repeated slots in a unitary"),
        ({**h, "matrix": np.eye(4)}, "unitary size mismatch"),
        ({**h, "matrix": np.diag([1.0, 2.0])},
         "matrix is not unitary (max |U^dag U - 1| = 3)"),
        ({"op": "measure", "party": 5, "slot": 0},
         "party 5 slot 0 outside the configuration"),
        ({"op": "send", "from": (1, 0), "to": (1, 0)},
         "send to the same slot"),
        ({"op": "send", "from": (1, 0), "to": (2, 0)},
         "receiving slot (2, 0) is not initialized"),
        ({"op": "send", "from": (1, 0), "to": (2, 3)},
         "party 2 slot 3 outside the configuration"),
        ({"op": "swap"}, "unknown step swap"),
    ]
    # step 2 occupies party 2's slot, so a send into it is refused
    head = [{**h, "matrix": x}, {**h, "party": 2, "matrix": x}]
    for bad, message in cases:
        with pytest.raises(ScheduleError,
                           match=f"^{re.escape('step 3: ' + message)}$"):
            dynamic_simulate(CONFIG_D1, head + [bad])


def test_resource_preparation_never_builds_the_amplitudes(monkeypatch):
    def no_simulator(*args, **kwargs):
        raise AssertionError("float simulator used")

    verify_resource_preparation()       # cached graphs and layouts
    monkeypatch.setattr(msize, "DynamicSimulator", no_simulator)
    monkeypatch.setattr(msize, "dynamic_simulate", no_simulator)
    tracemalloc.start()
    try:
        rep = verify_resource_preparation()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep["pass"] and rep["fidelity"] == 1.0
    # one 2^15-amplitude complex state takes 512 KiB
    assert peak < 2 ** 15 * 16 // 8, peak


def test_dynamic_rank_limit():
    rep = verify_dynamic_rank_limit(trials=60, seed=5)
    assert rep["pass"]
    assert rep["max_root_rank"] <= 2


def test_dynamic_audit_monotone_under_local_ops():
    # local unitaries preserve every party-cut rank; measurements never
    # raise one; only sends may raise the receiving party's cut
    rng = np.random.default_rng(11)
    for trial in range(10):
        sched = random_legal_schedule(CONFIG_D1, rng, length=15)
        out = dynamic_simulate(CONFIG_D1, sched, seed=trial)
        prev = None
        for step, ranks in zip(out["steps"], out["audit"]):
            if prev is not None:
                if step["op"] == "unitary":
                    assert ranks == prev
                elif step["op"] == "measure":
                    for p, r in ranks.items():
                        assert r <= prev[p]
            prev = ranks
        for ranks in out["audit"]:
            assert ranks.get(1, 1) <= 4


def test_scaled_states_at_odd_quarter_multiples():
    c = default_circuit()
    for k in (1, 3, 5, 7):
        vec = scaled_quarter_turn_state(c, k)
        psi = circuit_state(c, [k * np.pi / 4] * 7)
        assert np.allclose(vec.to_complex() / 2 ** 7.5, psi.amps)
    with pytest.raises(ValueError):
        scaled_quarter_turn_state(c, 2)


def _reference_mbqc_branches(circ, alphas):
    """The per-branch preparation as first written: for each outcome string,
    rotate, measure and correct the auxiliaries one by one."""
    ket = _resource_ket(circ)
    target = circuit_state(circ, alphas)
    n_t, n_a = circ.n_qubits, circ.n_gates
    probs, infid = [], []
    for outcomes in itertools.product((0, 1), repeat=n_a):
        t = ket.tensor()
        for k in range(n_a - 1, -1, -1):
            axis = n_t + k
            a = alphas[k]
            rot = np.array([[np.cos(a), 1j * np.sin(a)],
                            [1j * np.sin(a), np.cos(a)]])
            t = np.moveaxis(np.tensordot(rot, t, axes=([1], [axis])), 0, axis)
            t = np.take(t, outcomes[k], axis=axis)
            if outcomes[k] == 1:
                i, j = circ.gates[k]
                flat = t.reshape(-1)
                idx = np.arange(flat.size)
                zi = (idx >> (t.ndim - i)) & 1
                zj = (idx >> (t.ndim - j)) & 1
                t = (flat * (1 - 2.0 * zi) * (1 - 2.0 * zj)).reshape(t.shape)
        p = float(np.vdot(t, t).real)
        probs.append(p)
        fid = abs(np.vdot(target.amps, t.reshape(-1))) ** 2 / max(p, 1e-300)
        infid.append(1.0 - fid)
    return np.array(probs), np.array(infid)


def _tensor_mbqc_branches(circ, alphas):
    """The branches as the rotated graph-state tensor: rotate every
    auxiliary axis of the 2^n-amplitude resource tensor, read column o of
    the (targets, auxiliaries) matrix as branch o, and apply the exact
    +-1 sign of Z_i Z_j where o_k = 1."""
    ket = _resource_ket(circ)
    target = circuit_state(circ, alphas)
    n_t, n_a = circ.n_qubits, circ.n_gates
    t = ket.tensor()
    for k, alpha in enumerate(alphas):
        rot = np.array([[np.cos(alpha), 1j * np.sin(alpha)],
                        [1j * np.sin(alpha), np.cos(alpha)]])
        t = np.moveaxis(np.tensordot(rot, t, axes=([1], [n_t + k])), 0,
                        n_t + k)
    branches = t.reshape(2 ** n_t, 2 ** n_a)
    idx_t = np.arange(2 ** n_t)[:, None]
    idx_a = np.arange(2 ** n_a)[None, :]
    for k, (i, j) in enumerate(circ.gates):
        flip = (((idx_t >> (n_t - i)) ^ (idx_t >> (n_t - j)))
                & (idx_a >> (n_a - 1 - k)) & 1)
        branches = branches * (1 - 2.0 * flip)
    probs = np.einsum("ij,ij->j", branches.conj(), branches).real
    overlaps = target.amps.conj() @ branches
    return probs, 1.0 - np.abs(overlaps) ** 2 / np.maximum(probs, 1e-300)


def test_mbqc_prepare_never_reads_the_graph_state_tensor(monkeypatch):
    def no_tensor(self):
        raise AssertionError("graph-state tensor read")

    monkeypatch.setattr(qcore.Ket, "tensor", no_tensor)
    for circ in (default_circuit(), CircuitSpec(5, [(1, 5), (4, 2)])):
        assert mbqc_prepare(circ, [0.3] * circ.n_gates)["pass"]


def test_mbqc_branches_reject_a_non_factoring_graph(monkeypatch):
    circ = CircuitSpec(3, [(1, 2), (2, 3)])
    graph = resource_graph_state(circ)
    target_edge = graph.adjacency.copy()
    target_edge[0, 2] = target_edge[2, 0] = True
    wrong_target = graph.adjacency.copy()
    wrong_target[3, 1] = wrong_target[1, 3] = False
    wrong_target[3, 2] = wrong_target[2, 3] = True
    for adj in (target_edge, wrong_target):
        patched = msize.GraphState(adjacency=adj, roles=graph.roles)
        monkeypatch.setattr(msize, "resource_graph_state",
                            lambda c, g=patched: g)
        with pytest.raises(RuntimeError, match="one auxiliary per gate"):
            mbqc_prepare(circ, [0.4, 0.9])


def test_mbqc_branches_match_per_branch_reference():
    # the factored branches against the per-branch preparation and the
    # rotated graph-state tensor, repeated gate pairs and no gates included
    cases = [(CircuitSpec(2, [(1, 2)]), [0.7]),
             (CircuitSpec(4, [(1, 3), (2, 4), (3, 2)]), [0.4, 1.9, 2.6])]
    for n, circ in enumerate([default_circuit(), CircuitSpec(2, [(1, 2)]),
                              CircuitSpec(4, [(1, 3), (2, 4), (3, 2)]),
                              CircuitSpec(3, [(1, 2), (1, 2), (2, 3)]),
                              CircuitSpec(3, [])]):
        cases.append((circ, [np.pi / 4] * circ.n_gates))
        for seed in (61, 62):
            cases.append((circ, np.random.default_rng([seed, n]).uniform(
                0, 2 * np.pi, circ.n_gates)))
    for circ, alphas in cases:
        probs, infid = _mbqc_branches(circ, list(alphas))
        assert probs.shape == infid.shape == (2 ** circ.n_gates,)
        for oracle in (_reference_mbqc_branches, _tensor_mbqc_branches):
            ref_probs, ref_infid = oracle(circ, list(alphas))
            assert np.max(np.abs(probs - ref_probs)) < 1e-12
            assert np.max(np.abs(infid - ref_infid)) < 1e-12
        rep = mbqc_prepare(circ, alphas)
        assert rep["pass"]
        assert rep["worst_branch"] is None     # every branch is exact
        assert abs(rep["total_probability"] - ref_probs.sum()) < 1e-12


def _mbqc_protocol(circ, alphas):
    """``mbqc_prepare``'s preparation as an explicit protocol: party ``p``
    holds target ``p`` and the auxiliary of gate ``p``; one round per gate
    measures its rotated auxiliary, then one round per target party applies
    Z to the power of the outcomes of its gates, keyed by all outcomes (the
    earlier corrections, single-operator rounds, add outcome 0 each)."""
    n_t, n_a = circ.n_qubits, circ.n_gates
    parties = {p: (p - 1,) * (p <= n_t) + (n_t + p - 1,) * (p <= n_a)
               for p in range(1, max(n_t, n_a) + 1)}
    rounds = []
    for k, a in enumerate(alphas):
        keep = 2 if k < n_t else 1          # the party's target, if any
        rot = np.array([[np.cos(a), 1j * np.sin(a)],
                        [1j * np.sin(a), np.cos(a)]])
        rounds.append(Round(k + 1, {(): [
            ProtocolOp(np.kron(np.eye(keep), rot[o:o + 1]), (keep, 2),
                       (keep,)) for o in (0, 1)]}))
    z = np.diag([1.0, -1.0])
    for p in range(1, n_t + 1):
        gates = [k for k, g in enumerate(circ.gates) if p in g]
        rounds.append(Round(p, {
            o + (0,) * (p - 1): [ProtocolOp(np.linalg.matrix_power(
                z, sum(o[k] for k in gates)), (2,), (2,))]
            for o in itertools.product((0, 1), repeat=n_a)}))
    return LoccProtocol(parties, rounds)


def test_mbqc_preparation_through_simulator():
    # the exhaustive simulator as the oracle for the vectorised branches
    for circ, alphas in [(default_circuit(), [np.pi / 4] * 7),
                         (CircuitSpec(2, [(1, 2)]), [0.7])]:
        branches = simulate(_mbqc_protocol(circ, alphas),
                            _resource_ket(circ))
        probs, infid = _mbqc_branches(circ, alphas)
        assert [b.outcomes[:circ.n_gates] for b in branches] == list(
            itertools.product((0, 1), repeat=circ.n_gates))
        assert all(b.state.dims == (2,) * circ.n_qubits for b in branches)
        got = 1.0 - branch_fidelities([b.state.amps for b in branches],
                                      circuit_state(circ, alphas).amps)
        assert np.max(np.abs([b.prob for b in branches] - probs)) < 1e-12
        assert np.max(np.abs(got - infid)) < 1e-12


def test_mbqc_worst_branch_is_first_maximum(monkeypatch):
    # within tol the infidelities are rounding noise: no branch is named
    for circ, alphas in [(CircuitSpec(2, [(1, 2)]), [0.7]),
                         (CircuitSpec(3, []), []),
                         (default_circuit(), [np.pi / 4] * 7)]:
        rep = mbqc_prepare(circ, alphas)
        _, infid = _mbqc_branches(circ, alphas)
        assert rep["pass"] and rep["worst_branch"] is None
        assert "failing_branch" not in rep
        assert rep["worst_infidelity"] == max(0.0, float(infid.max()))
    # a failing check names the first branch in outcome order with the
    # largest infidelity, in both fields
    circ = CircuitSpec(3, [(1, 2), (2, 3)])
    probs = np.full(4, 0.25)
    infid = np.array([0.0, 0.3, 0.3, 0.1])
    monkeypatch.setattr(msize, "_mbqc_branches", lambda c, a: (probs, infid))
    rep = mbqc_prepare(circ, [0.1, 0.2])
    assert not rep["pass"]
    assert rep["worst_infidelity"] == 0.3
    assert rep["worst_branch"] == rep["failing_branch"] == (0, 1)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_mbqc_prepare_rejects_non_finite_angles(bad):
    with pytest.raises(ValueError, match="finite"):
        mbqc_prepare(CircuitSpec(2, [(1, 2)]), [bad])


class _StepSimulator:
    """The dynamic simulator as first written with a change-aware audit,
    kept as the bit-for-bit reference: every slot layout rebuilt per
    simulator, ``np.moveaxis`` and ``np.linalg.norm`` per measurement,
    ``np.take`` per send, the unitarity check against a float identity,
    and an audit that transposes each (state, cut) pair on its own and
    gathers the ranks in dicts."""

    def __init__(self, config, seed=0):
        self.config = config
        self.slots = [(p, s) for p in sorted(config.slots)
                      for s in range(config.slots[p])]
        self.n = len(self.slots)
        self._index = {ps: i for i, ps in enumerate(self.slots)}
        self.state = np.zeros((2,) * self.n, dtype=complex)
        self.state[(0,) * self.n] = 1.0
        self.rng = np.random.default_rng(seed)
        self._audit, self._touched, self._pending = [], [], []
        self._computed = self._carried = self.step_count = 0
        self._cuts = {}
        for p in sorted(config.slots):
            mine = [i for i, (q, _) in enumerate(self.slots) if q == p]
            if mine and len(mine) < self.n:
                rest = [i for i in range(self.n) if i not in mine]
                self._cuts[p] = (2 ** len(mine), rest + mine)

    def _pos(self, party, slot):
        try:
            return self._index[(int(party), int(slot))]
        except KeyError:
            raise ScheduleError(
                f"party {party} slot {slot} outside the configuration")

    def _check_norm(self):
        norm = np.linalg.norm(self.state)
        if abs(norm - 1.0) > 1e-6:
            raise StateError(
                f"step {self.step_count}: state norm {norm} deviates from 1")

    def _ranks(self, states, touched):
        out = [{} for _ in states]
        by_dim = {}
        for i, parties in enumerate(touched):
            for p in parties:
                by_dim.setdefault(self._cuts[p][0], []).append((i, p))
        per_call = max(1, msize.AUDIT_STACK_AMPS // self.state.size)
        for dim, pairs in by_dim.items():
            for c in range(0, len(pairs), per_call):
                block = pairs[c:c + per_call]
                mats = np.empty((len(block),) + self.state.shape, complex)
                for j, (i, p) in enumerate(block):
                    mats[j] = states[i].transpose(self._cuts[p][1])
                ranks = qcore.singular_rank(
                    mats.reshape(len(block), -1, dim))
                for (i, p), r in zip(block, ranks.tolist()):
                    out[i][p] = r
                self._computed += len(block)
        return out

    def _flush(self):
        if not self._touched:
            return
        found = iter(self._ranks(self._pending,
                                 [t for t in self._touched if t]))
        prev = (self._audit[-1] if self._audit
                else dict.fromkeys(self._cuts, 1))
        for parties in self._touched:
            prev = {**prev, **next(found)} if parties else dict(prev)
            self._carried += len(self._cuts) - len(parties)
            self._audit.append(prev)
        self._touched, self._pending = [], []

    @property
    def audit(self):
        self._flush()
        return self._audit

    @property
    def diagnostics(self):
        self._flush()
        return {"cut_ranks_computed": self._computed,
                "cut_ranks_carried": self._carried}

    def apply(self, step):
        self.step_count += 1
        op = step["op"]
        if op == "unitary":
            pos = [self._pos(step["party"], s) for s in step["slots"]]
            if len(set(pos)) != len(pos):
                raise ScheduleError("repeated slots in a unitary")
            mat = np.asarray(step["matrix"], dtype=complex)
            if mat.shape != (2 ** len(pos),) * 2:
                raise ScheduleError("unitary size mismatch")
            dev = np.max(np.abs(mat.conj().T @ mat - np.eye(len(mat))))
            if not dev <= 1e-9:
                raise ScheduleError(
                    f"step {self.step_count}: matrix is not unitary "
                    f"(max |U^dag U - 1| = {dev:.3g})")
            order = pos + [i for i in range(self.n) if i not in pos]
            t = self.state.transpose(order)
            t = (mat @ t.reshape(len(mat), -1)).reshape(t.shape)
            self.state = t.transpose(np.argsort(order))
            touched = ()
        elif op == "measure":
            pos = self._pos(step["party"], step["slot"])
            t = np.moveaxis(self.state, pos, 0)
            p0 = float(np.linalg.norm(t[0]) ** 2)
            total = float(np.linalg.norm(t) ** 2)
            outcome = 0 if self.rng.random() * total < p0 else 1
            keep = np.zeros_like(t)
            keep[outcome] = t[outcome]
            norm = np.linalg.norm(keep)
            self.state = np.moveaxis(keep / norm, 0, pos)
            step = dict(step)
            step["outcome"] = outcome
            touched = tuple(self._cuts)
        elif op == "send":
            src = self._pos(*step["from"])
            dst = self._pos(*step["to"])
            if src == dst:
                raise ScheduleError("send to the same slot")
            if np.linalg.norm(np.take(self.state, 1, axis=dst)) > 1e-9:
                raise ScheduleError(
                    f"step {self.step_count}: receiving slot "
                    f"{step['to']} is not initialized")
            self.state = np.swapaxes(self.state, src, dst)
            ends = {self.slots[src][0], self.slots[dst][0]}
            touched = (tuple(p for p in self._cuts if p in ends)
                       if len(ends) == 2 else ())
        else:
            raise ScheduleError(f"unknown step {op}")
        self._check_norm()
        self._touched.append(touched)
        if touched:
            self._pending.append(self.state.copy())
            if len(self._pending) * self.state.size >= msize.AUDIT_STACK_AMPS:
                self._flush()
        return step

    def ket(self):
        return Ket(self.state.reshape(-1), (2,) * self.n, normalized=False)

    def rank_to_party(self, party):
        audit = self.audit
        if audit:
            ranks = audit[-1]
        else:
            self._check_norm()
            ranks = self._ranks([self.state], [tuple(self._cuts)])[0]
        if party not in ranks:
            raise ValueError(f"party {party} has no slots on one side of "
                             "its cut")
        return ranks[party]


def _step_simulate(config, schedule, seed=0):
    """``dynamic_simulate`` on the per-step reference."""
    sim = _StepSimulator(config, seed=seed)
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


def test_dynamic_simulate_matches_the_per_step_simulator():
    # bit for bit: outcomes, audit, ranks, diagnostics and amplitudes
    three_slots = Configuration({1: 3, 2: 1, 3: 1})
    runs = [(CONFIG_D0, resource_preparation_schedule(), 0),
            (CONFIG_D1, [], 0), (CONFIG_D0, [], 0)]
    for config, trials, length in [(CONFIG_D1, 200, None),
                                   (CONFIG_D0, 8, 24),
                                   (three_slots, 60, 30)]:
        rng = np.random.default_rng([6161, len(config.slots)])
        for trial in range(trials):
            runs.append((config, random_legal_schedule(
                config, rng, length=length or int(rng.integers(8, 25))),
                trial))
    for config, schedule, seed in runs:
        fast = dynamic_simulate(config, schedule, seed=seed)
        ref = _step_simulate(config, schedule, seed=seed)
        assert fast.keys() == ref.keys()
        for key in ("slots", "steps", "audit", "rank_to_party",
                    "diagnostics"):
            assert fast[key] == ref[key], key
        assert np.array_equal(fast["state"].amps, ref["state"].amps)
        assert fast["state"].amps.tobytes() == ref["state"].amps.tobytes()


class _ReferenceSimulator(_StepSimulator):
    """The audit as first written: after every step, whatever its kind, a
    Ket and a full Schmidt decomposition per party cut."""

    def __init__(self, config, seed=0):
        super().__init__(config, seed=seed)
        self.full_audit = []

    def apply(self, step):
        step = super().apply(step)
        ket = Ket(self.state.reshape(-1), (2,) * self.n, normalized=False)
        ranks = {}
        for p in sorted(self.config.slots):
            mine = [i for i, (q, _) in enumerate(self.slots) if q == p]
            if not mine or len(mine) == self.n:
                continue
            rest = [i for i in range(self.n) if i not in mine]
            ranks[p] = schmidt_decompose(ket, Bipartition(mine, rest)).rank
        self.full_audit.append(ranks)
        return step

    @property
    def audit(self):
        return self.full_audit


def _run_both(config, schedule, seed):
    sims = [DynamicSimulator(config, seed=seed),
            _ReferenceSimulator(config, seed=seed)]
    steps = [[sim.apply(step) for step in schedule] for sim in sims]
    return sims, steps


def test_dynamic_audit_matches_per_cut_reference():
    rng = np.random.default_rng(5151)
    runs = [(CONFIG_D0, resource_preparation_schedule(), 0)]
    for trial in range(200):
        runs.append((CONFIG_D1, random_legal_schedule(
            CONFIG_D1, rng, length=int(rng.integers(8, 25))), trial))
    for config, schedule, seed in runs:
        (fast, ref), (fast_steps, ref_steps) = _run_both(config, schedule,
                                                         seed)
        assert fast.audit == ref.audit
        assert ([s.get("outcome") for s in fast_steps]
                == [s.get("outcome") for s in ref_steps])
        assert np.array_equal(fast.state, ref.state)
        for p in sorted(config.slots):
            mine = [i for i, (q, _) in enumerate(fast.slots) if q == p]
            if mine and len(mine) < fast.n:
                assert fast.rank_to_party(p) == schmidt_rank(
                    fast.ket(), Bipartition(
                        mine, [i for i in range(fast.n) if i not in mine]))


def test_resource_audit_recomputes_two_cuts_per_send(monkeypatch):
    # 12 sends between parties and 29 local unitaries: 2 cut matrices per
    # send reach the singular-value call, none per unitary
    schedule = resource_preparation_schedule()
    kinds = [step["op"] for step in schedule]
    assert (kinds.count("send"), kinds.count("unitary")) == (12, 29)
    assert all(step["from"][0] != step["to"][0]
               for step in schedule if step["op"] == "send")
    cuts = []
    rank = msize.singular_rank

    def counting_rank(mats, *args, **kwargs):
        cuts.append(len(mats))
        return rank(mats, *args, **kwargs)

    monkeypatch.setattr(msize, "singular_rank", counting_rank)
    out = dynamic_simulate(CONFIG_D0, schedule)
    assert sum(cuts) == 24
    assert out["diagnostics"] == {"cut_ranks_computed": 24,
                                  "cut_ranks_carried": 41 * 8 - 24}


def test_measurement_lowers_other_parties_ranks():
    h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    cnot = np.eye(4, dtype=complex)[[0, 1, 3, 2]]
    ghz = [{"op": "unitary", "party": 1, "slots": [0], "matrix": h},
           {"op": "unitary", "party": 1, "slots": [0, 1], "matrix": cnot},
           {"op": "send", "from": (1, 1), "to": (2, 0)},
           {"op": "unitary", "party": 1, "slots": [0, 1], "matrix": cnot},
           {"op": "send", "from": (1, 1), "to": (3, 0)}]
    for seed in (0, 1):
        sim = DynamicSimulator(CONFIG_D1, seed=seed)
        ref = _ReferenceSimulator(CONFIG_D1, seed=seed)
        for step in ghz:
            sim.apply(step)
            ref.apply(step)
        assert sim.audit[-1] == {1: 2, 2: 2, 3: 2, 4: 1}
        measure = {"op": "measure", "party": 1, "slot": 0}
        assert sim.apply(measure) == ref.apply(measure)
        assert sim.audit[-1] == {1: 1, 2: 1, 3: 1, 4: 1}
        assert sim.audit == ref.audit


def _choice_legal_schedule(config, rng, length):
    """random_legal_schedule as first written, drawing the step kind and
    the party with rng.choice on Python lists."""
    parties = [p for p in sorted(config.slots) if config.slots[p] > 0]
    steps = []
    occupied = {(p, s): False for p in parties
                for s in range(config.slots[p])}
    for _ in range(length):
        kind = rng.choice(["unitary", "unitary", "send", "measure"])
        if kind == "unitary":
            p = int(rng.choice(parties))
            n_slots = config.slots[p]
            k = int(rng.integers(1, min(2, n_slots) + 1))
            slots = list(rng.choice(n_slots, size=k, replace=False))
            steps.append({"op": "unitary", "party": p,
                          "slots": [int(s) for s in slots],
                          "matrix": qcore.random_unitary(2 ** k, rng)})
            for s in slots:
                occupied[(p, int(s))] = True
        elif kind == "measure":
            busy = [ps for ps, v in occupied.items() if v]
            if not busy:
                continue
            p, s = busy[int(rng.integers(len(busy)))]
            steps.append({"op": "measure", "party": p, "slot": s})
        else:
            busy = [ps for ps, v in occupied.items() if v]
            free = [ps for ps, v in occupied.items() if not v]
            if not busy or not free:
                continue
            src = busy[int(rng.integers(len(busy)))]
            dsts = [ps for ps in free if ps[0] != src[0]]
            if not dsts:
                continue
            dst = dsts[int(rng.integers(len(dsts)))]
            steps.append({"op": "send", "from": src, "to": dst})
            occupied[src] = False
            occupied[dst] = True
    return steps


def test_random_legal_schedule_keeps_the_choice_stream():
    # the three-slot party keeps rng.choice (k < n); one-slot parties take
    # the shortcut that draws nothing
    for config in (CONFIG_D1, CONFIG_D0, Configuration({1: 3, 2: 1, 3: 1})):
        for seed in range(200):
            fast = random_legal_schedule(
                config, np.random.default_rng(seed), length=20)
            ref = _choice_legal_schedule(
                config, np.random.default_rng(seed), length=20)
            assert len(fast) == len(ref)
            for a, b in zip(fast, ref):
                assert a.keys() == b.keys()
                for key in a:
                    if key == "matrix":
                        assert np.array_equal(a[key], b[key])
                    else:
                        assert a[key] == b[key]
                        assert type(a[key]) is type(b[key])


def test_dynamic_simulate_builds_no_ket_per_step(monkeypatch):
    rng = np.random.default_rng(808)
    schedule = random_legal_schedule(CONFIG_D1, rng, length=60)
    assert len(schedule) >= 24
    calls = []
    init = qcore.Ket.__init__

    def counting_init(self, *args, **kwargs):
        calls.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(qcore.Ket, "__init__", counting_init)
    counts = []
    for length in (8, 24):
        calls.clear()
        dynamic_simulate(CONFIG_D1, schedule[:length], seed=3)
        counts.append(len(calls))
    assert counts[0] == counts[1]


@pytest.mark.parametrize("matrix", [
    np.diag([1.0, 0.0]), np.diag([1.0, 5.0]), np.array([[1.0, 1.0],
                                                        [1.0, -1.0]])],
    ids=["projector", "stretch", "unnormalized-hadamard"])
def test_non_unitary_step_rejected(matrix):
    sim = DynamicSimulator(CONFIG_D1)
    h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    sim.apply({"op": "unitary", "party": 1, "slots": [0], "matrix": h})
    before = sim.state.copy()
    with pytest.raises(ScheduleError, match="step 2: matrix is not unitary"):
        sim.apply({"op": "unitary", "party": 2, "slots": [0],
                   "matrix": matrix})
    assert np.array_equal(sim.state, before)
    assert len(sim.audit) == 1


def test_audit_has_one_entry_per_applied_step():
    rng = np.random.default_rng(4242)
    for config in (CONFIG_D1, CONFIG_D0):
        sim = DynamicSimulator(config, seed=1)
        ref = _ReferenceSimulator(config, seed=1)
        for step in random_legal_schedule(config, rng, length=12):
            sim.apply(step)
            ref.apply(step)
            assert len(sim.audit) == sim.step_count
            assert sim.audit == ref.audit


def test_audit_flushes_within_the_stack_bound(monkeypatch):
    monkeypatch.setattr(msize, "AUDIT_STACK_AMPS", 3 * 32)
    rng = np.random.default_rng(77)
    schedule = random_legal_schedule(CONFIG_D1, rng, length=20)
    sim = DynamicSimulator(CONFIG_D1, seed=2)
    for step in schedule:
        sim.apply(step)
        assert len(sim._pending) < 3
    ref = _ReferenceSimulator(CONFIG_D1, seed=2)
    for step in schedule:
        ref.apply(step)
    assert sim.audit == ref.audit


def test_schedule_error_keeps_the_earlier_audit():
    rng = np.random.default_rng(31)
    schedule = random_legal_schedule(CONFIG_D1, rng, length=12)
    bad = {"op": "send", "from": (1, 0), "to": (9, 0)}
    for k in (1, 4, len(schedule) + 1):
        steps = schedule[:k - 1] + [bad]
        audits = []
        for sim in (DynamicSimulator(CONFIG_D1, seed=3),
                    _ReferenceSimulator(CONFIG_D1, seed=3)):
            with pytest.raises(ScheduleError):
                for step in steps:
                    sim.apply(step)
            assert sim.step_count == k
            assert len(sim.audit) == k - 1
            audits.append(sim.audit)
        assert audits[0] == audits[1]
    # an occupied-slot send at step j raises before a later non-unitary
    # matrix is reached, and names step j
    h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    steps = schedule[:5] + [
        {"op": "unitary", "party": 2, "slots": [0], "matrix": h},
        {"op": "unitary", "party": 3, "slots": [0], "matrix": h},
        {"op": "send", "from": (2, 0), "to": (3, 0)},
        {"op": "unitary", "party": 1, "slots": [0],
         "matrix": np.diag([1.0, 5.0])}]
    j = 8
    audits = []
    for sim in (DynamicSimulator(CONFIG_D1, seed=3),
                _ReferenceSimulator(CONFIG_D1, seed=3)):
        with pytest.raises(ScheduleError,
                           match=f"step {j}: receiving slot"):
            for step in steps:
                sim.apply(step)
        assert sim.step_count == j
        audits.append(sim.audit)
    assert len(audits[0]) == j - 1
    assert audits[0] == audits[1]
    with pytest.raises(ScheduleError, match=f"step {j}: receiving slot"):
        dynamic_simulate(CONFIG_D1, steps, seed=3)


def test_unnormalised_state_raises_at_its_step():
    sim = DynamicSimulator(CONFIG_D1)
    h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    sim.apply({"op": "unitary", "party": 1, "slots": [0], "matrix": h})
    sim.state = sim.state * 3
    with pytest.raises(StateError, match="step 2: state norm"):
        sim.apply({"op": "unitary", "party": 2, "slots": [0], "matrix": h})
    assert len(sim.audit) == 1


def test_resource_graph_state_cached_read_only():
    circ = default_circuit()
    graph = resource_graph_state(circ)
    assert resource_graph_state(CircuitSpec(8, circ.gates)) is graph
    assert isinstance(graph, msize.GraphState)
    with pytest.raises(ValueError):
        graph.adjacency[0, 1] = False
