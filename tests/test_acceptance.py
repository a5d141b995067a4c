"""Acceptance suite: every top-level requirement runs at its stated
tolerance and prints one pass/fail line (run with ``pytest -s`` to see the
lines as they pass)."""

import numpy as np
import pytest

from mergekit import states
from mergekit.kidecomp import ki_decompose_tripartite
from mergekit.locc import one_way_to_locc, simulate
from mergekit.mergesplit import (
    merge_converse_search,
    merge_cost_catalytic,
    merge_cost_noncatalytic,
    merge_protocol,
    qubit_optimal,
    simulate_split,
    split_min_cost,
    verify_merge_protocol,
)
from mergekit.msize import (
    CONFIG_D1,
    bipartite_bound_check,
    default_circuit,
    dynamic_simulate,
    mbqc_prepare,
    permutation_scan,
    random_legal_schedule,
    verify_dynamic_rank_limit,
    verify_resource_preparation,
)
from mergekit.netcost import (
    IsometrySpec,
    RootedTree,
    concentrating_simulate,
    five_qubit_isometry,
    line_tree,
    relabeled_star_isometry,
    spreading_costs,
    spreading_protocol,
    star_isometry,
    star_tree,
)
from mergekit.qcore import (
    Bipartition,
    Ket,
    hmax_conditional,
    random_ket,
    schmidt_rank,
)
from mergekit.twoway import (
    default_instance,
    entropy_monotonicity_trial,
    verify_one_way,
    verify_two_way,
)


def _line(n, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {n:2d}: {status}  {detail}")
    assert ok, f"criterion {n}: {detail}"


def test_criterion_01_worked_example_decomposition():
    psi = states.ki_worked_example()
    ki = ki_decompose_tripartite(psi)
    dims = sorted((b.dim_left, b.dim_right) for b in ki.blocks)
    probs = sorted(ki.probs)
    resid = ki.reassembly_residual()
    ok = (len(ki.blocks) == 2
          and dims == [(2, 1), (2, 2)]
          and np.allclose(probs, [0.5, 0.5], atol=1e-9)
          and resid < 1e-8)
    _line(1, ok, f"blocks={dims} probs={probs} residual={resid:.2e}")


def test_criterion_02_ghz_merging_and_splitting():
    details = []
    ok = True
    for d in (2, 3, 4):
        psi = states.ghz(3, d)
        ki = ki_decompose_tripartite(psi)
        rep = merge_cost_catalytic(ki)
        ok &= abs(rep.catalytic_cost) < 1e-9
        ok &= abs(rep.non_catalytic_cost) < 1e-9
        for setting in ("catalytic", "non-catalytic"):
            proto = merge_protocol(psi, setting, ki=ki)
            good, worst, _ = verify_merge_protocol(psi, proto)
            ok &= good
        ok &= abs(split_min_cost(psi) - np.log2(d)) < 1e-12
        branches, _ = simulate_split(psi, d)
        tn = psi.amps
        for b in branches:
            t = b.state.tensor()
            got = t[:, :, 0, :, 0].reshape(-1)
            ok &= abs(np.vdot(tn, got / np.linalg.norm(got))) ** 2 > 1 - 1e-8
        details.append(f"d={d} ok")
    _line(2, ok, "; ".join(details))


def test_criterion_03_negative_cost_state():
    psi = states.negative_cost_state()
    ki = ki_decompose_tripartite(psi)
    rep = merge_cost_catalytic(ki)
    ok = (abs(rep.catalytic_cost + 1.0) < 1e-9
          and abs(rep.non_catalytic_cost) < 1e-9)
    worsts = []
    for setting in ("catalytic", "non-catalytic"):
        proto = merge_protocol(psi, setting, ki=ki)
        good, worst, _ = verify_merge_protocol(psi, proto)
        ok &= good
        worsts.append(worst)
    _line(3, ok, f"catalytic={rep.catalytic_cost} "
                 f"non-catalytic={rep.non_catalytic_cost} "
                 f"worst_infidelity={max(worsts):.2e}")


def test_criterion_04_converse_improvement():
    psi = states.converse_gap_state()
    ki = ki_decompose_tripartite(psi)
    rep = merge_cost_noncatalytic(ki)
    cost_q, _ = qubit_optimal(psi)
    conv = merge_converse_search(psi)
    hm = hmax_conditional(psi, [1], [2], restarts=32, seed=0)
    ok = (abs(rep.non_catalytic_cost - 1.0) < 1e-9
          and cost_q == 1
          and conv.closed_form is not None
          and 0.5849 < conv.closed_form < 0.5850
          and hm["value"] < 0.5432 + 1e-3
          and hm["value"] <= conv.closed_form + 1e-6)
    _line(4, ok, f"non-catalytic={rep.non_catalytic_cost} "
                 f"closed_form={conv.closed_form:.6f} "
                 f"heuristic_max_entropy={hm['value']:.6f}")


def test_criterion_05_asymmetry():
    psi = states.asymmetric_state(False)
    cost1, _ = qubit_optimal(psi)
    psi2 = states.asymmetric_state(True)
    cost0, proto = qubit_optimal(psi2)
    ok = cost1 == 1 and cost0 == 0
    branches = simulate(one_way_to_locc(proto, (1,), (2,)), psi2)
    live = [b for b in branches if b.prob > 1e-12]
    ok &= len(live) == 2
    tn = psi2.amps
    for b in live:
        got = b.state.tensor()[:, 0, :, :].reshape(-1)
        ok &= abs(np.vdot(tn, got / np.linalg.norm(got))) ** 2 > 1 - 1e-8
    # each live sender outcome leaves a maximally entangled reference pair
    for a_op in proto.a_ops:
        amp = np.einsum("a,Rab->Rb", a_op.mat[0], psi2.tensor())
        p = np.linalg.norm(amp) ** 2
        if p < 1e-12:
            continue
        ev = np.linalg.eigvalsh(amp @ amp.conj().T / p)
        ok &= bool(np.allclose(np.sort(ev), [0.5, 0.5], atol=1e-8))
    _line(5, ok, f"direct cost={cost1} interchanged cost={cost0} "
                 f"branches={len(live)}")


def test_criterion_06_random_sandwich():
    rng = np.random.default_rng(20260810)
    worst_gap = 0.0
    ok = True
    for trial in range(500):
        dims = [int(rng.integers(2, 5)) for _ in range(3)]
        psi = random_ket(dims, rng)
        ki = ki_decompose_tripartite(psi)
        rep = merge_cost_catalytic(ki)
        conv = merge_converse_search(psi)
        ok &= conv.feasible
        ok &= conv.bound <= rep.catalytic_cost + 1e-9
        ok &= rep.catalytic_cost <= rep.non_catalytic_cost + 1e-9
        rank_a = schmidt_rank(psi, Bipartition([1], [0, 2]))
        ok &= rep.non_catalytic_cost <= np.log2(rank_a) + 1e-9
        for blk in rep.per_block:
            ok &= blk["block_cost"] <= np.log2(rank_a) + 1e-9
        worst_gap = max(worst_gap, conv.bound - rep.catalytic_cost)
        if not ok:
            break
    _line(6, ok, f"500 states, max converse-achievability gap "
                 f"{worst_gap:.2e}")


def test_criterion_07_separation_instance():
    inst = default_instance()
    one = verify_one_way(inst)
    two = verify_two_way(inst)
    lit = verify_two_way(inst, literal=True)
    ok = (one["pass"] and one["resource_rank"] == 2
          and one["cost_ebits"] == 1.0
          and two["pass"] and two["cost_ebits"] == 0.0
          and all(two["checks"].values())
          and not lit["checks"]["sender_completeness"])
    _line(7, ok, f"one-way K={one['resource_rank']} "
                 f"worst={one['worst_infidelity']:.2e}; two-way checks="
                 f"{sum(two['checks'].values())}/4; literal completeness "
                 f"fails={not lit['checks']['sender_completeness']}")


def test_criterion_08_star_and_five_qubit_networks():
    t, iso = star_tree(), star_isometry()
    sc = {e.edge: e.log2 for e in spreading_costs(t, iso)}
    cc = concentrating_simulate(t, iso)
    costs = {e.edge: e.log2 for e in cc["edge_costs"]}
    ok = (sc == {(1, 2): 1.0, (1, 3): 1.0}
          and cc["pass"] and costs == {(1, 2): 1.0, (1, 3): 0.0})
    # leaf interchange moves the expensive edge (stated in original labels)
    cc2 = concentrating_simulate(t, relabeled_star_isometry())
    costs2 = {e.edge: e.log2 for e in cc2["edge_costs"]}
    swapped = {(1, 2): costs2[(1, 3)], (1, 3): costs2[(1, 2)]}
    ok &= cc2["pass"] and swapped == {(1, 2): 0.0, (1, 3): 1.0}
    lt, fq = line_tree(5), five_qubit_isometry()
    sc5 = [e.log2 for e in spreading_costs(lt, fq)]
    ok &= sc5 == [2.0, 3.0, 2.0, 1.0]
    cc5 = concentrating_simulate(lt, fq)
    ok &= cc5["pass"]
    ok &= [e.log2 for e in cc5["edge_costs"]] == [0.0, 0.0, 0.0, 0.0]
    _line(8, ok, f"star spread={sorted(sc.values())} "
                 f"concentrate={sorted(costs.values())}; five-qubit "
                 f"spread={sc5} concentrate=all-zero "
                 f"({cc5['branches']} branches)")


def test_criterion_09_network_inequality_and_rank_audit():
    from mergekit.netcost import BranchCapError

    rng = np.random.default_rng(8800)
    checked = 0
    audited = 0
    capped = 0
    ok = True
    while checked < 100:
        n = int(rng.integers(2, 4))
        parent = {k: int(rng.integers(1, k)) for k in range(2, n + 1)}
        tree = RootedTree(n, parent)
        dims = tuple(int(rng.integers(2, 4)) for _ in range(n))
        d_log = int(rng.integers(2, 4))
        if d_log > int(np.prod(dims)):
            continue
        total = int(np.prod(dims))
        g = rng.normal(size=(total, d_log)) + 1j * rng.normal(
            size=(total, d_log))
        q, _ = np.linalg.qr(g)
        iso = IsometrySpec([Ket(q[:, i], dims) for i in range(d_log)])
        audit = audited < 10
        sc = {e.edge: e.rank for e in spreading_costs(tree, iso)}
        try:
            cc = concentrating_simulate(tree, iso, audit_cuts=audit)
        except BranchCapError:
            capped += 1     # documented diagnostic; draw a fresh instance
            continue
        ok &= cc["pass"]
        for e in cc["edge_costs"]:
            ok &= e.rank <= sc[e.edge]
        if audit:
            ok &= cc.get("rank_audit_ok", True)
            audited += 1
        checked += 1
        if not ok:
            break
    _line(9, ok, f"{checked} random instances, {audited} with cut-rank "
                 f"audit, {capped} redrawn at the branch cap")


def test_criterion_10_mbqc_preparation():
    rng = np.random.default_rng(424242)
    circ = default_circuit()
    worst = 0.0
    ok = True
    for _ in range(20):
        alphas = rng.uniform(0, 2 * np.pi, circ.n_gates)
        rep = mbqc_prepare(circ, alphas)
        ok &= rep["pass"] and rep["branches"] == 128
        worst = max(worst, rep["worst_infidelity"])
    _line(10, ok, f"20 random angle tuples x 128 branches, worst "
                  f"infidelity {worst:.2e}")


def test_criterion_11_permutation_scan():
    import time

    t0 = time.time()
    rep = permutation_scan(default_circuit())
    dt = time.time() - t0
    ok = (rep["permutations"] == 5040
          and rep["connectivity"] == list(default_circuit().gates)
          and rep["max_rank_seen"] == 4
          and dt < 120)
    # certified result for the configured tree: twelve layouts stay within
    # rank two everywhere, so the universal claim does not hold here
    ok &= rep["permutations_with_large_edge"] == 5028
    ok &= rep["all_have_large_edge"] is False
    _line(11, ok, f"exact scan in {dt:.2f}s: "
                  f"{rep['permutations_with_large_edge']}/5040 layouts "
                  f"have an edge above rank two "
                  f"(connectivity {rep['connectivity']})")


def test_criterion_12_bipartite_bound():
    ok = True
    details = []
    for d in (2, 3):
        rep = bipartite_bound_check(2, d)
        ok &= rep["meets_bound"] and rep["symmetric_feasible"]
        ok &= rep["min_max_local_dim"] >= d ** 1.5 - 1e-9
        details.append(f"D={d}: min-max-dim {rep['min_max_local_dim']} >= "
                       f"{rep['bound']:.3f}")
    _line(12, ok, "; ".join(details))


def test_criterion_13_entropy_monotonicity():
    rng = np.random.default_rng(55)
    worst = -np.inf
    ok = True
    for trial in range(200):
        dims = [int(rng.integers(2, 4)) for _ in range(3)]
        psi = random_ket(dims, rng)
        lhs, rhs = entropy_monotonicity_trial(
            psi, seed=trial, n_outcomes=int(rng.integers(2, 4)))
        ok &= lhs <= rhs + 1e-7
        worst = max(worst, lhs - rhs)
    _line(13, ok, f"200 random instrument trials, max entropy drop "
                  f"{worst:.2e}")


def test_criterion_14_dynamic_setting():
    prep = verify_resource_preparation()
    ok = prep["pass"] and prep["fidelity"] > 1 - 1e-9
    limit = verify_dynamic_rank_limit(trials=500, seed=77)
    ok &= limit["pass"] and limit["max_root_rank"] <= 2
    _line(14, ok, f"resource prepared at fidelity {prep['fidelity']:.12f} "
                  f"in {prep['steps']} steps; 500 random schedules, max "
                  f"root-cut rank {limit['max_root_rank']}")
