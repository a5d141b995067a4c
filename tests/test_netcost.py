import numpy as np
import pytest

from mergekit.locc import InfeasibleError
from mergekit.netcost import (
    EdgeCost,
    IsometrySpec,
    RootedTree,
    concentrating_simulate,
    construction_costs,
    five_qubit_isometry,
    line_tree,
    relabeled_star_isometry,
    spreading_costs,
    spreading_protocol,
    star_isometry,
    star_tree,
)
from mergekit.qcore import Ket, random_ket
from mergekit import states


def _random_isometry(dims, d_log, rng):
    total = int(np.prod(dims))
    g = rng.normal(size=(total, d_log)) + 1j * rng.normal(size=(total, d_log))
    q, _ = np.linalg.qr(g)
    return IsometrySpec([Ket(q[:, i], dims) for i in range(d_log)])


def test_tree_validation():
    t = RootedTree(4, {2: 1, 3: 1, 4: 2})
    assert t.edges() == [(1, 2), (1, 3), (2, 4)]
    assert t.descendants_and_self(2) == [2, 4]
    with pytest.raises(ValueError):
        RootedTree(3, {2: 1})            # missing vertex
    with pytest.raises(ValueError):
        RootedTree(3, {2: 3, 3: 1})      # not ascending


def test_isometry_validation():
    with pytest.raises(ValueError):
        IsometrySpec([Ket([1, 0], (2,)), Ket([1, 0], (2,))])


def test_star_costs():
    t, iso = star_tree(), star_isometry()
    sc = {e.edge: e.log2 for e in spreading_costs(t, iso)}
    assert sc == {(1, 2): 1.0, (1, 3): 1.0}
    cc = concentrating_simulate(t, iso)
    assert cc["pass"]
    costs = {e.edge: e.log2 for e in cc["edge_costs"]}
    assert costs == {(1, 2): 1.0, (1, 3): 0.0}


def test_star_relabeled_costs():
    # interchanging the two leaves swaps which physical edge pays the ebit
    t = star_tree()
    cc = concentrating_simulate(t, relabeled_star_isometry())
    assert cc["pass"]
    costs = {e.edge: e.log2 for e in cc["edge_costs"]}
    # new label 2 carries the original third party's share and vice versa,
    # so in original labels this is (0, 1)
    assert costs == {(1, 2): 1.0, (1, 3): 0.0}


def test_five_qubit_line():
    t, iso = line_tree(5), five_qubit_isometry()
    sc = [e.log2 for e in spreading_costs(t, iso)]
    assert sc == [2.0, 3.0, 2.0, 1.0]
    cc = concentrating_simulate(t, iso)
    assert cc["pass"]
    assert [e.log2 for e in cc["edge_costs"]] == [0.0, 0.0, 0.0, 0.0]
    assert cc["branches"] == 16


def test_spreading_protocol_star():
    t, iso = star_tree(), star_isometry()
    rep = spreading_protocol(t, iso)
    assert rep["pass"]
    assert rep["total_branches"] == 16


def test_spreading_protocol_five_qubit():
    t, iso = line_tree(5), five_qubit_isometry()
    rep = spreading_protocol(t, iso)
    assert rep["pass"]
    assert rep["total_branches"] == (4 * 8 * 4 * 2) ** 2


def test_spreading_protocol_infeasible_rank():
    t, iso = star_tree(), star_isometry()
    with pytest.raises(InfeasibleError):
        spreading_protocol(t, iso, ranks={(1, 2): 1})


def test_spreading_protocol_on_random_logical_inputs():
    # linearity: the same splits work for arbitrary encoded inputs
    t, iso = star_tree(), star_isometry()
    rng = np.random.default_rng(3)
    inputs = []
    for _ in range(20):
        alpha = rng.normal(size=2) + 1j * rng.normal(size=2)
        alpha /= np.linalg.norm(alpha)
        amp = sum(a * k.tensor() for a, k in zip(alpha, iso.code_kets))
        ref = np.zeros((1,) + iso.dims, dtype=complex)
        ref[0] = amp
        inputs.append(Ket(ref.reshape(-1), (1,) + iso.dims))
    rep = spreading_protocol(t, iso, inputs=inputs)
    assert rep["pass"]


def test_single_party_tree_trivial():
    t = RootedTree(1, {})
    iso = IsometrySpec([Ket([1, 0], (2,)), Ket([0, 1], (2,))])
    assert spreading_costs(t, iso) == []
    rep = spreading_protocol(t, iso)
    assert rep["pass"] and rep["total_branches"] == 1


def test_construction_costs():
    # GHZ on a three-party line: (1, 1)
    t = line_tree(3)
    costs = [e.log2 for e in construction_costs(t, states.ghz(3, 2))]
    assert costs == [1.0, 1.0]
    # product state: zero everywhere
    prod = Ket(np.kron(np.kron([1, 0], [0, 1]), [1, 0]), (2, 2, 2))
    assert [e.log2 for e in construction_costs(t, prod)] == [0.0, 0.0]
    # maximally entangled pair between the two leaves of a line
    phi = states.max_entangled(4)
    t4 = np.zeros((4, 1, 4), dtype=complex)
    t4[:, 0, :] = phi.amps.reshape(4, 4)
    leafpair = Ket(t4.reshape(-1), (4, 1, 4))
    assert [e.log2 for e in construction_costs(t, leafpair)] == [2.0, 2.0]


def test_ghz_two_party_concentrating_zero():
    t = RootedTree(2, {2: 1})
    iso = IsometrySpec([Ket([1, 0, 0, 0], (2, 2)), Ket([0, 0, 0, 1], (2, 2))])
    cc = concentrating_simulate(t, iso)
    assert cc["pass"]
    assert [e.log2 for e in cc["edge_costs"]] == [0.0]


def test_concentrating_bounded_by_spreading_random():
    rng = np.random.default_rng(42)
    for trial in range(12):
        n = int(rng.integers(2, 5))
        parent = {k: int(rng.integers(1, k)) for k in range(2, n + 1)}
        t = RootedTree(n, parent)
        dims = tuple(int(rng.integers(2, 4)) for _ in range(n))
        d_log = int(rng.integers(2, 4))
        if d_log > int(np.prod(dims)):
            continue
        iso = _random_isometry(dims, d_log, rng)
        sc = {e.edge: e.rank for e in spreading_costs(t, iso)}
        cc = concentrating_simulate(t, iso, audit_cuts=(trial < 4))
        assert cc["pass"]
        for e in cc["edge_costs"]:
            assert e.rank <= sc[e.edge], (
                f"edge {e.edge}: concentrating {e.rank} > spreading "
                f"{sc[e.edge]}")
        if "rank_audit_ok" in cc:
            assert cc["rank_audit_ok"]


def test_concentrating_on_an_inner_vertex_with_two_children():
    # party 2 receives registers from both leaves before it merges; the
    # ranks and branch count are pinned
    def ket(*terms):
        v = np.zeros(16, dtype=complex)
        for amp, bits in terms:
            v[int(bits, 2)] = amp
        return Ket(v / np.linalg.norm(v), (2, 2, 2, 2))

    iso = IsometrySpec([ket((1, "0010"), (-1, "0011"), (1, "1111")),
                        ket((2, "0000"), (-1, "0100"), (1, "1110"))])
    t = RootedTree(4, {2: 1, 3: 2, 4: 2})
    cc = concentrating_simulate(t, iso, audit_cuts=True)
    assert cc["pass"] and cc["rank_audit_ok"]
    assert [e.rank for e in cc["edge_costs"]] == [2, 2, 2]
    assert cc["branches"] == 1024


def test_concentrating_final_check_builds_no_ket(monkeypatch):
    # branches are raw amplitude tensors: after the last synthesis, neither
    # the walk nor the final spectrum check constructs a Ket
    import mergekit.mergesplit as mergesplit
    import mergekit.qcore as qcore

    calls, after_synthesis = [], []
    init = qcore.Ket.__init__
    synthesize = mergesplit.merge_protocol

    def counting_init(self, *args, **kwargs):
        calls.append(1)
        init(self, *args, **kwargs)

    def tracking_synthesis(*args, **kwargs):
        proto = synthesize(*args, **kwargs)
        after_synthesis.append(len(calls))
        return proto

    monkeypatch.setattr(qcore.Ket, "__init__", counting_init)
    monkeypatch.setattr(mergesplit, "merge_protocol", tracking_synthesis)
    cc = concentrating_simulate(line_tree(5), five_qubit_isometry())
    assert cc["pass"] and cc["branches"] == 16
    assert len(calls) == after_synthesis[-1]


def test_concentrating_audits_each_sender_measurement(monkeypatch):
    import dataclasses

    import mergekit.mergesplit as mergesplit
    from mergekit.locc import CompletenessError, OneWayProtocol

    real = mergesplit.merge_protocol

    def short_sender(*args, **kwargs):
        proto = real(*args, **kwargs)
        one = proto.one_way
        return dataclasses.replace(proto, one_way=OneWayProtocol(
            one.a_ops[:-1], one.b_ops[:-1]))

    monkeypatch.setattr(mergesplit, "merge_protocol", short_sender)
    with pytest.raises(CompletenessError,
                       match=r"round for 3 given \(\) completeness deviates"):
        concentrating_simulate(star_tree(), star_isometry())


def test_spreading_identity_embedding_all_zero():
    # everything stays at the root: every child-side reduced state is pure
    t = RootedTree(3, {2: 1, 3: 1})
    kets = []
    for l in range(3):
        v = np.zeros((4, 1, 1), dtype=complex)
        v[l, 0, 0] = 1.0
        kets.append(Ket(v.reshape(-1), (4, 1, 1)))
    iso = IsometrySpec(kets)
    assert [e.log2 for e in spreading_costs(t, iso)] == [0.0, 0.0]
    rep = spreading_protocol(t, iso)
    assert rep["pass"] and rep["total_branches"] == 1
