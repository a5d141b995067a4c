import json
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import mergekit
from mergekit import serialize, states
from mergekit.cli import run
from mergekit.locc import LoccProtocol, ProtocolOp, Round
from mergekit.qcore import Ket


def _run(argv, capsys):
    code = run(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_example_round_trip(tmp_path, capsys):
    path = str(tmp_path / "state.json")
    code, out, err = _run(["example", "ghz:3:3", "-o", path], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["checks"]["round_trip"]
    ket = serialize.load_ket(path)
    assert np.allclose(ket.amps, states.ghz(3, 3).amps)


def test_all_generators_round_trip(tmp_path, capsys):
    names = ["ghz:3:2", "ghz:3:4", "ex2", "ex3", "ex4", "ex4-swapped",
             "qutrit-choi", "ki-example", "chapter4", "fivequbit:0",
             "fivequbit:1", "bell:psi-", "maxent:3"]
    for i, name in enumerate(names):
        path = str(tmp_path / f"s{i}.json")
        code, out, _ = _run(["example", name, "-o", path], capsys)
        assert code == 0, name
        assert json.loads(out)["checks"]["round_trip"], name


def test_unknown_example_usage_error(capsys):
    code, out, err = _run(["example", "nonsense"], capsys)
    assert code == 2


def test_bad_json_input(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, out, err = _run(["merge-cost", str(bad)], capsys)
    assert code == 2


def test_merge_cost_ghz(tmp_path, capsys):
    path = str(tmp_path / "g.json")
    _run(["example", "ghz:3:2", "-o", path], capsys)
    code, out, _ = _run(["merge-cost", path, "--catalytic"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["results"]["catalytic_cost"] == 0.0
    assert rep["results"]["resource_rank"] == 1


def test_ki_report(tmp_path, capsys):
    path = str(tmp_path / "k.json")
    _run(["example", "ki-example", "-o", path], capsys)
    code, out, _ = _run(["ki", path], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["checks"]["maximal"] and rep["checks"]["reassembly"]
    dims = sorted((b[0], b[1]) for b in rep["results"]["blocks"])
    assert dims == [(2, 1), (2, 2)]


def test_ki_with_cut_groups(tmp_path, capsys):
    # five-qubit code state as (reference | first two | last three)
    ket = states.ghz(4, 2)
    path = str(tmp_path / "g4.json")
    serialize.save_ket(ket, path)
    code, out, _ = _run(["ki", path, "--cut", "0|1,2|3"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["results"]["block_count"] == 2


@pytest.mark.parametrize("cut", ["0,1||2", "0||1,2", "0|1|x"])
def test_ki_rejects_malformed_cut_groups(tmp_path, capsys, cut):
    # an empty group would be a dimension-1 sender or reference
    path = str(tmp_path / "g.json")
    _run(["example", "ghz:3:2", "-o", path], capsys)
    code, out, err = _run(["ki", path, "--cut", cut], capsys)
    assert code == 2
    assert out == ""
    assert "0|1,2|3" in err


def test_split_and_converse(tmp_path, capsys):
    path = str(tmp_path / "g.json")
    _run(["example", "ghz:3:2", "-o", path], capsys)
    code, out, _ = _run(["split-cost", path, "--simulate"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["results"]["cost"] == 1.0
    assert rep["checks"]["all_branches_exact"]
    code, out, _ = _run(["converse", path], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["results"]["bound"] <= 0.0


def test_merge_protocol_simulated(tmp_path, capsys):
    path = str(tmp_path / "e3.json")
    _run(["example", "ex3", "-o", path], capsys)
    code, out, _ = _run(
        ["merge-protocol", path, "--setting", "catalytic", "--simulate"],
        capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["checks"]["all_branches_exact"]
    assert rep["results"]["resource_rank"] == 2
    assert rep["results"]["returned_rank"] == 4


def test_simulate_protocol_file(tmp_path, capsys):
    # serialize a teleportation protocol and run it through the CLI
    from mergekit.locc import one_way_to_locc, teleport_protocol

    proto = one_way_to_locc(teleport_protocol(2), (0, 1), (2,))
    ppath = tmp_path / "tele.json"
    ppath.write_text(json.dumps(serialize.protocol_to_dict(proto)))
    inp = Ket(np.kron([1, 0], states.max_entangled(2).amps), (2, 2, 2))
    spath = tmp_path / "in.json"
    serialize.save_ket(inp, str(spath))
    code, out, _ = _run(["simulate", str(ppath), str(spath)], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["results"]["branch_count"] == 4
    assert abs(rep["results"]["total_probability"] - 1) < 1e-7


def test_twoway_cli(capsys):
    code, out, _ = _run(["twoway", "verify"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert all(rep["checks"].values())
    code, out, _ = _run(["twoway", "verify", "--literal"], capsys)
    assert code == 1
    rep = json.loads(out)
    assert not rep["checks"]["two_way_sender_completeness"]


# stdout of ``mergekit twoway verify``; apart from the two gamma fields that
# record the instance (GAMMAS below), the default gammas and
# (exp(0.7i), exp(2.1i)) print the same report
_TWOWAY_STDOUT = (
    '{"checks": {"one_way_exact_at_one_ebit": true, '
    '"two_way_branches_maximally_entangled": true, '
    '"two_way_receiver_completeness": true, '
    '"two_way_sender_completeness": true, "two_way_total_probability": '
    'true}, "command": "twoway", "inputs": {}, "provenance": '
    '"one-shot-communication-separation", "results": '
    '{GAMMAS"generic_block_cost": 1.584962500721156, "one_way": {"branches": '
    '96, "computed_partition_dims": [[1, 2], [3, 1], [3, 1], [3, 1]], '
    '"computed_partition_matches_weights": true, '
    '"computed_partition_probs": [0.181818182, 0.272727273, '
    '0.272727273, 0.272727273], "cost_ebits": 1.0, "pass": true, '
    '"protocol_block_dims_right": [2, 3, 3, 3], '
    '"protocol_block_probs": [0.18181818181818182, 0.2727272727272727, '
    '0.2727272727272727, 0.2727272727272727], "resource_rank": 2, '
    '"returned_rank": 1, "structure_ok": true, "worst_infidelity": '
    '4.440892098500626e-16}, "two_way": {"checks": '
    '{"branches_maximally_entangled": true, "receiver_completeness": '
    'true, "sender_completeness": true, "total_probability": true}, '
    '"cost_ebits": 0.0, "discrimination": true, "pass": true, '
    '"resolved_shift": {"1": 6, "2": 3}, "total_probability": '
    '1.0000000000000002}}, "schema": "mergekit-report/1", "seed": 0}\n')


def test_twoway_cli_golden_stdout(capsys):
    for extra, gammas in [
            ([], '"gamma1": [0.7071067811865476, 0.7071067811865475], '
                 '"gamma2": [0.5000000000000001, 0.8660254037844386], '),
            (["--gamma1", "0.7648421872844885,0.644217687237691",
              "--gamma2=-0.5048461045998576,0.8632093666488737"],
             '"gamma1": [0.7648421872844885, 0.644217687237691], '
             '"gamma2": [-0.5048461045998576, 0.8632093666488737], ')]:
        code, out, _ = _run(["twoway", "verify"] + extra, capsys)
        assert code == 0
        assert out == _TWOWAY_STDOUT.replace("GAMMAS", gammas)


def test_twoway_cli_rejects_non_finite_gammas(capsys):
    for flag, value in [("--gamma1", "nan,nan"), ("--gamma2", "inf,0"),
                        ("--gamma1", "0.5,nan")]:
        code, out, err = _run(["twoway", "verify", flag, value], capsys)
        assert code == 2
        assert out == ""
        assert f"{flag[2:]} must be finite" in err


def test_twoway_cli_rejects_malformed_gammas(capsys):
    for flag, value in [("--gamma1", "1"), ("--gamma1", "1,2,3"),
                        ("--gamma2", "0.5,abc")]:
        code, out, err = _run(["twoway", "verify", flag, value], capsys)
        assert code == 2
        assert out == ""
        assert (f"error: {flag} expects re,im (two numbers), "
                f"got '{value}'") in err
        assert "unpack" not in err


def test_net_cli(tmp_path, capsys):
    from mergekit.netcost import star_isometry, star_tree

    tree = star_tree()
    iso = star_isometry()
    tpath = tmp_path / "tree.json"
    tpath.write_text(json.dumps(serialize.tree_to_dict(tree)))
    cpath = tmp_path / "code.json"
    cpath.write_text(json.dumps(
        [serialize.ket_to_dict(k) for k in iso.code_kets]))
    code, out, _ = _run(["net", "spread", str(tpath), str(cpath),
                         "--simulate"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert [e["log2"] for e in rep["results"]["edge_costs"]] == [1.0, 1.0]
    code, out, _ = _run(["net", "concentrate", str(tpath), str(cpath)],
                        capsys)
    assert code == 0
    rep = json.loads(out)
    assert [e["log2"] for e in rep["results"]["edge_costs"]] == [1.0, 0.0]


def test_net_construct_cli(tmp_path, capsys):
    from mergekit.netcost import line_tree

    tpath = tmp_path / "tree.json"
    tpath.write_text(json.dumps(serialize.tree_to_dict(line_tree(3))))
    spath = tmp_path / "ghz.json"
    serialize.save_ket(states.ghz(3, 2), str(spath))
    code, out, _ = _run(["net", "construct", str(tpath), str(spath)], capsys)
    assert code == 0
    rep = json.loads(out)
    assert [e["log2"] for e in rep["results"]["edge_costs"]] == [1.0, 1.0]


def test_msize_cli(capsys):
    code, out, _ = _run(["msize", "bound", "--m", "2", "--D", "2"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["checks"]["meets_bound"]
    code, out, _ = _run(["msize", "scan"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["results"]["permutations"] == 5040
    code, out, _ = _run(["msize", "prepare", "--alpha", "pi/4"], capsys)
    assert code == 0
    assert json.loads(out)["checks"]["all_branches_exact"]


def test_msize_prepare_reports_the_prepared_circuit(tmp_path, capsys):
    path = tmp_path / "circuit.json"
    path.write_text(json.dumps({"n_qubits": 2, "gates": [[1, 2]]}))
    code, out, _ = _run(["msize", "prepare", "--circuit", str(path)], capsys)
    assert code == 0
    res = json.loads(out)["results"]
    assert res["config"] == {"1": 2, "2": 1}
    assert res["party_slots"] == {"1": ["target", "aux"], "2": ["target"]}
    assert res["branches"] == 2
    assert res["worst_branch"] is None      # every branch is exact


@pytest.mark.parametrize("alpha", ["pi/0", "nan", "inf", "pi/nan"])
def test_msize_alpha_must_be_finite(capsys, alpha):
    for action in ("prepare", "scan"):
        code, out, err = _run(["msize", action, "--alpha", alpha], capsys)
        assert code == 2
        assert out == ""
        assert "--alpha" in err


def test_msize_alpha_may_be_negative(capsys):
    outs = set()
    for argv in (["--alpha", "-pi/4"], ["--alpha=-pi/4"],
                 ["--alpha", "-0.7853981633974483"]):
        code, out, err = _run(["msize", "prepare"] + argv, capsys)
        assert code == 0
        assert err.startswith("[msize-prepare] PASS")
        outs.add(out)
    assert len(outs) == 1
    from mergekit.cli import _parse_angle
    assert _parse_angle("-pi/4") == -0.7853981633974483
    assert _parse_angle("-pi") == -np.pi


def test_msize_alpha_negative_infinity_is_refused(capsys):
    code, out, err = _run(["msize", "prepare", "--alpha", "-inf"], capsys)
    assert code == 2
    assert out == ""
    assert err == ("error: --alpha expects pi, pi/x or a finite number of "
                   "radians, got '-inf'\n")


def test_msize_dynamic_needs_a_schedule(capsys):
    code, out, err = _run(["msize", "dynamic"], capsys)
    assert code == 2
    assert out == ""
    assert "schedule" in err


def test_msize_dynamic_cli(tmp_path, capsys):
    sched = {
        "config": {"1": 2, "2": 1},
        "steps": [
            {"op": "unitary", "party": 1, "slots": [0],
             "matrix": [[[0.7071067811865476, 0], [0.7071067811865476, 0]],
                        [[0.7071067811865476, 0],
                         [-0.7071067811865476, 0]]]},
            {"op": "send", "from": [1, 0], "to": [2, 0]},
        ],
    }
    path = tmp_path / "sched.json"
    path.write_text(json.dumps(sched))
    code, out, _ = _run(["msize", "dynamic", str(path)], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["checks"]["norm_preserved"]
    # the unitary carries both cut ranks over, the send recomputes both
    assert rep["results"]["diagnostics"] == {"cut_ranks_computed": 2,
                                             "cut_ranks_carried": 2}
    assert _run(["msize", "dynamic", str(path)], capsys)[1] == out


@pytest.mark.parametrize("matrix", [
    [[[1, 0], [0, 0]], [[0, 0], [0, 0]]],
    [[[1, 0], [0, 0]], [[0, 0], [5, 0]]],
    [[[1, 0], [1, 0]], [[1, 0], [-1, 0]]]],
    ids=["projector", "stretch", "unnormalized-hadamard"])
def test_msize_dynamic_rejects_non_unitary(tmp_path, capsys, matrix):
    sched = {"config": {"1": 2, "2": 1},
             "steps": [{"op": "unitary", "party": 2, "slots": [0],
                        "matrix": matrix}]}
    path = tmp_path / "sched.json"
    path.write_text(json.dumps(sched))
    code, out, err = _run(["msize", "dynamic", str(path)], capsys)
    assert code == 2
    assert out == ""
    assert "step 1: matrix is not unitary" in err


def test_seeded_determinism(tmp_path, capsys):
    path = str(tmp_path / "g.json")
    _run(["example", "ex2", "-o", path], capsys)
    code1, out1, _ = _run(["--seed", "3", "ki", path], capsys)
    code2, out2, _ = _run(["--seed", "3", "ki", path], capsys)
    assert code1 == code2 == 0
    assert out1 == out2


def test_stdout_does_not_depend_on_the_seed(tmp_path, capsys):
    # every subcommand but ``msize dynamic``, whose measurement outcomes are
    # drawn from the seed, prints the same report at any --seed apart from
    # the ``seed`` field
    from mergekit.mergesplit import merge_protocol
    from mergekit.netcost import line_tree, star_isometry, star_tree

    def path(name):
        return str(tmp_path / name)

    ghz = states.ghz(3, 2)
    serialize.save_ket(states.ki_worked_example(), path("ki.json"))
    serialize.save_ket(ghz, path("ghz.json"))
    k = merge_protocol(ghz, "non-catalytic").resource_rank
    serialize.save_ket(ghz.kron(states.max_entangled(k)), path("pair.json"))
    for name, tree in (("star.json", star_tree()), ("line.json", line_tree(3))):
        with open(path(name), "w") as f:
            f.write(json.dumps(serialize.tree_to_dict(tree)))
    with open(path("code.json"), "w") as f:
        f.write(json.dumps([serialize.ket_to_dict(c)
                            for c in star_isometry().code_kets]))
    state = path("ki.json")
    commands = [
        ["example", "ki-example", "-o", path("example.json")],
        ["ki", state],
        ["merge-cost", state, "--catalytic"],
        ["merge-protocol", state, "--simulate"],
        ["merge-protocol", path("ghz.json"), "--save", path("table.json")],
        ["split-cost", state, "--simulate"],
        ["converse", state],
        ["simulate", path("table.json"), path("pair.json")],
        ["twoway", "verify"],
        ["net", "spread", path("star.json"), path("code.json"), "--simulate"],
        ["net", "concentrate", path("star.json"), path("code.json")],
        ["net", "construct", path("line.json"), path("ghz.json")],
        ["msize", "scan"],
        ["msize", "prepare"],
        ["msize", "bound"],
    ]
    for argv in commands:
        code0, out0, _ = _run(["--seed", "0"] + argv, capsys)
        code7, out7, _ = _run(["--seed", "7"] + argv, capsys)
        assert code0 == code7 == 0, argv
        assert out0.endswith('"seed": 0}\n'), argv
        assert out7 == out0[:-len('0}\n')] + '7}\n', argv


def test_console_entry_point():
    out = subprocess.run(
        [sys.executable, "-m", "mergekit.cli", "--help"],
        capture_output=True, text=True)
    assert out.returncode == 0
    assert "mergekit" in out.stdout


def test_merge_protocol_save_and_resimulate(tmp_path, capsys):
    spath = str(tmp_path / "g.json")
    _run(["example", "ghz:3:2", "-o", spath], capsys)
    ppath = str(tmp_path / "proto.json")
    code, out, _ = _run(["merge-protocol", spath, "--simulate",
                         "--save", ppath], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["checks"]["all_branches_exact"]
    k = rep["results"]["resource_rank"]
    inp = states.ghz(3, 2).kron(states.max_entangled(k))
    ipath = str(tmp_path / "inp.json")
    serialize.save_ket(inp, ipath)
    code, out, _ = _run(["simulate", ppath, ipath], capsys)
    assert code == 0
    rep = json.loads(out)
    assert abs(rep["results"]["total_probability"] - 1) < 1e-7


def test_merge_protocol_save_refuses_an_incomplete_table(
        tmp_path, capsys, monkeypatch):
    import dataclasses

    import mergekit.cli as cli
    from mergekit.locc import OneWayProtocol

    real = cli.merge_protocol

    def short_sender(*args, **kwargs):
        proto = real(*args, **kwargs)
        one = proto.one_way
        return dataclasses.replace(proto, one_way=OneWayProtocol(
            one.a_ops[:-1], one.b_ops[:-1]))

    monkeypatch.setattr(cli, "merge_protocol", short_sender)
    spath = str(tmp_path / "g.json")
    _run(["example", "ghz:3:2", "-o", spath], capsys)
    ppath = tmp_path / "proto.json"
    code, out, err = _run(["merge-protocol", spath, "--save", str(ppath)],
                          capsys)
    assert code == 2
    assert out == ""
    assert "error: round for A given () completeness deviates by" in err
    assert not ppath.exists()


def test_simulate_refuses_a_table_with_an_unreached_incomplete_instrument(
        tmp_path, capsys):
    from mergekit.locc import one_way_to_locc, simulate, teleport_protocol

    proto = one_way_to_locc(teleport_protocol(2), (0, 1), (2,))
    # receiver key (7,) follows no sender outcome: no branch reaches it
    proto.rounds[1].instruments[(7,)] = [
        ProtocolOp(0.5 * np.eye(2), (2,), (2,))]
    inp = Ket(np.kron([1, 0], states.max_entangled(2).amps), (2, 2, 2))
    assert len(simulate(proto, inp)) == 4
    ppath = tmp_path / "table.json"
    ppath.write_text(json.dumps(serialize.protocol_to_dict(proto)))
    spath = str(tmp_path / "in.json")
    serialize.save_ket(inp, spath)
    code, out, err = _run(["simulate", str(ppath), spath], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith(
        "error: round for B given (7,) completeness deviates by 7.500e-01")


def _per_element_pair(z):
    return [float(np.real(z)), float(np.imag(z))]


def _per_element_protocol_dict(proto):
    """Protocol table in format 1 (no ``format`` key, one dense ``mat`` per
    operator), built one complex entry at a time."""
    rounds = []
    for r in proto.rounds:
        instruments = {}
        for key, ops in r.instruments.items():
            instruments[",".join(str(k) for k in key)] = [
                {"in_dims": list(o.in_dims), "out_dims": list(o.out_dims),
                 "mat": [[_per_element_pair(x) for x in row]
                         for row in o.mat]}
                for o in ops]
        rounds.append({"party": r.party, "instruments": instruments})
    return {"parties": {k: list(v) for k, v in proto.parties.items()},
            "rounds": rounds}


def _assert_same_protocol(back, proto):
    """Same parties, rounds, keys, dims, and operator bits, -0.0 included."""
    assert back.parties == proto.parties
    assert len(back.rounds) == len(proto.rounds)
    for r, rb in zip(proto.rounds, back.rounds):
        assert r.party == rb.party
        assert list(r.instruments) == list(rb.instruments)
        for key, ops in r.instruments.items():
            for o, ob in zip(ops, rb.instruments[key], strict=True):
                assert (ob.in_dims, ob.out_dims) == (o.in_dims, o.out_dims)
                assert ob.mat.shape == o.mat.shape
                assert ob.mat.tobytes() == o.mat.tobytes()


def test_protocol_table_matches_per_element_encoder_and_round_trips():
    from mergekit.mergesplit import merge_protocol
    from mergekit.qcore import random_ket

    # the K=6, L=4 catalytic merge and a seeded random (4, 5, 5) state
    omega = (np.sqrt(0.75) * np.kron([1, 0], [1, 0])
             + np.sqrt(0.25) * np.kron([0, 1], [0, 1])).reshape(2, 2)
    t = np.einsum("Rx,ab->Raxb", np.eye(2) / np.sqrt(2), omega)
    cases = [(Ket(t.reshape(-1), (2, 4, 2)), "catalytic"),
             (random_ket((4, 5, 5), np.random.default_rng(41)),
              "non-catalytic")]
    negative_zeros = 0
    for psi, setting in cases:
        proto = merge_protocol(psi, setting).locc()
        table = serialize.protocol_to_dict(proto)
        assert table["format"] == 2
        back = serialize.protocol_from_dict(json.loads(json.dumps(table)))
        _assert_same_protocol(back, proto)
        v1 = json.loads(json.dumps(_per_element_protocol_dict(proto)))
        _assert_same_protocol(serialize.protocol_from_dict(v1), proto)
        # stored entries are exactly those whose bits are not +0.0+0.0j
        stored = bitwise_nonzero = 0
        for r, rt in zip(proto.rounds, table["rounds"]):
            for key, ops in r.instruments.items():
                for o, ot in zip(ops, rt["instruments"][",".join(
                        str(k) for k in key)], strict=True):
                    z = o.mat.view(float).reshape(-1, 2)
                    negative_zeros += int(np.sum((z == 0) & np.signbit(z)))
                    bitwise_nonzero += int(np.sum(
                        ((z != 0) | np.signbit(z)).any(1)))
                    stored += len(ot["nz"])
                    assert len(ot["val"]) == len(ot["nz"])
        assert stored == bitwise_nonzero
        if setting == "non-catalytic":
            total = sum(o.mat.size for r in proto.rounds
                        for ops in r.instruments.values() for o in ops)
            assert stored < total / 2      # most entries are exact zeros
    assert negative_zeros > 0       # the bit-exact check covered -0.0


def test_format_1_table_simulates_like_its_format_2_twin(tmp_path, capsys):
    from mergekit.mergesplit import merge_protocol
    from mergekit.qcore import random_ket

    psi = random_ket((2, 3, 3), np.random.default_rng(7))
    proto = merge_protocol(psi, "non-catalytic")
    locc = proto.locc()
    spath = tmp_path / "in.json"
    serialize.save_ket(psi.kron(states.max_entangled(proto.resource_rank)),
                       str(spath))
    reports = []
    for name, table in (("v1.json", _per_element_protocol_dict(locc)),
                        ("v2.json", serialize.protocol_to_dict(locc))):
        (tmp_path / name).write_text(json.dumps(table))
        code, out, _ = _run(["simulate", str(tmp_path / name), str(spath)],
                            capsys)
        assert code == 0
        rep = json.loads(out)
        rep["inputs"].pop(str(tmp_path / name))   # the table's own hash
        reports.append(rep)
    assert reports[0] == reports[1]
    assert reports[0]["checks"]["probabilities_close"]


def _break_first_op(table, how):
    o = table["rounds"][0]["instruments"][""][0]
    if how == "index-too-large":
        o["nz"][-1] = o["shape"][0] * o["shape"][1]
    elif how == "negative-index":
        o["nz"][0] = -1
    elif how == "repeated-index":
        o["nz"][1] = o["nz"][0]
    elif how == "unsorted-index":
        o["nz"][0], o["nz"][1] = o["nz"][1], o["nz"][0]
    elif how == "non-integer-index":
        o["nz"][0] = 0.5
    elif how == "shape-disagrees":
        o["shape"] = [o["shape"][1], o["shape"][0] + 1]
    elif how == "val-length":
        o["val"].pop()
    elif how == "non-finite-pair":
        o["val"][0] = [float("inf"), 0.0]
    elif how == "unknown-format":
        table["format"] = 3
    return table


@pytest.mark.parametrize("how,message", [
    ("index-too-large", "operator index out of range"),
    ("negative-index", "operator index out of range"),
    ("repeated-index", "operator indices nz must ascend strictly"),
    ("unsorted-index", "operator indices nz must ascend strictly"),
    ("non-integer-index", "operator indices nz must be a flat list of "
                          "integers"),
    ("shape-disagrees", "operator shape [4, 2] does not match"),
    ("val-length", "indices nz but val is not a list of as many"),
    ("non-finite-pair", "complex entries must be finite"),
    ("unknown-format", "unknown protocol table format 3"),
])
def test_malformed_sparse_table_exits_2(tmp_path, capsys, how, message):
    from mergekit.locc import one_way_to_locc, teleport_protocol

    table = serialize.protocol_to_dict(
        one_way_to_locc(teleport_protocol(2), (0, 1), (2,)))
    assert len(table["rounds"][0]["instruments"][""][0]["nz"]) >= 2
    ppath = tmp_path / "table.json"
    ppath.write_text(json.dumps(_break_first_op(table, how)))
    inp = tmp_path / "in.json"
    serialize.save_ket(Ket(np.kron([1, 0], states.max_entangled(2).amps),
                           (2, 2, 2)), str(inp))
    code, out, err = _run(["simulate", str(ppath), str(inp)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize("width", [1, 3], ids=["re", "re-im-extra"])
def test_complex_entries_must_be_pairs(tmp_path, capsys, width):
    def reshape_pairs(pairs):
        return [(p + [0.5] * width)[:width] for p in pairs]

    state = {"dims": [2], "amps": reshape_pairs([[1.0, 0.0], [0.0, 0.0]])}
    spath = tmp_path / "state.json"
    spath.write_text(json.dumps(state))
    code, _, err = _run(["merge-cost", str(spath)], capsys)
    assert code == 2
    assert "[re, im]" in err

    from mergekit.locc import one_way_to_locc, teleport_protocol

    table = serialize.protocol_to_dict(
        one_way_to_locc(teleport_protocol(2), (0, 1), (2,)))
    for r in table["rounds"]:
        for ops in r["instruments"].values():
            for o in ops:
                o["val"] = reshape_pairs(o["val"])
    ppath = tmp_path / "table.json"
    ppath.write_text(json.dumps(table))
    inp = tmp_path / "in.json"
    serialize.save_ket(Ket(np.kron([1, 0], states.max_entangled(2).amps),
                           (2, 2, 2)), str(inp))
    code, _, err = _run(["simulate", str(ppath), str(inp)], capsys)
    assert code == 2
    assert "[re, im]" in err


def test_non_finite_amplitudes_rejected(tmp_path, capsys):
    # a NaN norm passes the normalization check; only the finite check
    # keeps split-cost from reporting a cost of -Infinity with exit code 0
    amps = [[0.0, 0.0]] * 7 + [[1.0, 0.0]]
    for bad in ("NaN", "Infinity"):
        path = tmp_path / f"{bad}.json"
        path.write_text('{"dims": [2, 2, 2], "amps": [[%s, 0.0], %s]}'
                        % (bad, json.dumps(amps)[1:-1]))
        code, _, err = _run(["split-cost", str(path)], capsys)
        assert code == 2
        assert "finite" in err


def test_cli_path_never_imports_scipy(tmp_path):
    # a fresh interpreter: scipy stays unloaded through the commands and
    # through a Bell hmax_conditional, whose certificate closes without the
    # Nelder-Mead fallback, the only user of scipy.optimize
    script = textwrap.dedent("""
        import json, os, sys
        from mergekit import cli, serialize, states
        from mergekit.netcost import star_isometry, star_tree
        from mergekit.qcore import hmax_conditional

        d = sys.argv[1]
        serialize.save_ket(states.ghz(3, 2), os.path.join(d, "g.json"))
        with open(os.path.join(d, "tree.json"), "w") as f:
            json.dump(serialize.tree_to_dict(star_tree()), f)
        with open(os.path.join(d, "code.json"), "w") as f:
            json.dump([serialize.ket_to_dict(k)
                       for k in star_isometry().code_kets], f)
        codes = [
            cli.run(["merge-protocol", os.path.join(d, "g.json"),
                     "--save", os.path.join(d, "p.json")]),
            cli.run(["net", "spread", os.path.join(d, "tree.json"),
                     os.path.join(d, "code.json"), "--simulate"]),
            cli.run(["msize", "scan"]),
        ]
        before = sorted(m for m in sys.modules if m.startswith("scipy"))
        hmax = hmax_conditional(states.bell("phi+"), [0], [1], restarts=2)
        print(json.dumps({"codes": codes, "scipy": before,
                          "hmax": hmax["value"],
                          "loaded": "scipy.optimize" in sys.modules}))
    """)
    src = os.path.dirname(os.path.dirname(mergekit.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["codes"] == [0, 0, 0]
    assert out["scipy"] == []
    assert abs(out["hmax"] + 1) < 1e-6 and not out["loaded"]


def test_msize_scan_alpha_validation(capsys):
    code, _, _ = _run(["msize", "scan", "--alpha", "pi/3"], capsys)
    assert code == 2
    code, out, _ = _run(["msize", "scan", "--alpha", "pi/4"], capsys)
    assert code == 0


def test_unnormalized_state_rejected(tmp_path, capsys):
    bad = tmp_path / "unnorm.json"
    bad.write_text(json.dumps({"dims": [2], "amps": [[1, 0], [1, 0]]}))
    code, _, err = _run(["merge-cost", str(bad)], capsys)
    assert code == 2
    ok = tmp_path / "flagged.json"
    ok.write_text(json.dumps({"dims": [2], "amps": [[1, 0], [1, 0]],
                              "normalized": False}))
    ket = serialize.load_ket(str(ok))
    assert ket.dims == (2,)
