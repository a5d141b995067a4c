"""Command-line front end: machine-readable reports on stdout, a human
summary on stderr, exit code 0 when all checks pass, 1 on a failed check,
2 on usage or input errors."""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys

import numpy as np

from . import msize, netcost, serialize, states, twoway
from .kidecomp import (MaximalityError, ki_decompose_tripartite,
                       maximality_check)
from .locc import (CompletenessError, InfeasibleError, audit_protocol,
                   simulate)
from .mergesplit import (
    merge_converse_search,
    merge_cost_catalytic,
    merge_cost_noncatalytic,
    merge_protocol,
    split_min_cost,
    verify_merge_protocol,
    verify_split,
)
from .qcore import Ket, StateError, reduced_state

SCHEMA = "mergekit-report/1"


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        h.update(f.read())
    return h.hexdigest()


def _report(command, inputs, results, checks, provenance):
    return {
        "schema": SCHEMA,
        "command": command,
        "inputs": {p: _sha256(p) for p in inputs},
        "results": results,
        "checks": checks,
        "provenance": provenance,
    }


def _emit(report):
    # json.dumps runs the C encoder; json.dump to a stream never does
    sys.stdout.write(json.dumps(report, sort_keys=True, default=_jsonable))
    sys.stdout.write("\n")
    checks = report.get("checks", {})
    bad = [k for k, v in checks.items() if v is False]
    summary = "PASS" if not bad else f"FAIL ({', '.join(bad)})"
    print(f"[{report['command']}] {summary}", file=sys.stderr)
    return 0 if not bad else 1


def _jsonable(x):
    if isinstance(x, (np.integer,)):
        return int(x)
    if isinstance(x, (np.floating,)):
        return float(x)
    if isinstance(x, complex):
        return [x.real, x.imag]
    if isinstance(x, np.ndarray):
        return x.tolist()
    if isinstance(x, tuple):
        return list(x)
    raise TypeError(f"cannot serialize {type(x)}")


def _parse_groups(cut_arg, nsys):
    if cut_arg is None:
        if nsys != 3:
            raise ValueError("state is not tripartite; pass --cut")
        return [(0,), (1,), (2,)]
    try:
        groups = [tuple(int(x) for x in part.split(","))
                  for part in cut_arg.split("|")]
    except ValueError:
        raise ValueError(
            f"--cut {cut_arg!r}: expected groups of one or more "
            "comma-separated subsystem indices joined by '|', as in "
            "0|1,2|3") from None
    flat = [i for g in groups for i in g]
    if sorted(flat) != list(range(nsys)):
        raise ValueError(f"cut {cut_arg} does not partition 0..{nsys - 1}")
    return groups


def _load_tripartite(args) -> Ket:
    """The state file of ``args.state``, its subsystems grouped by
    ``args.cut`` into (reference, sender, receiver)."""
    ket = serialize.load_ket(args.state)
    groups = _parse_groups(args.cut, ket.nsys)
    merged = ket.permute([i for g in groups for i in g])
    return Ket(merged.amps,
               [int(np.prod([ket.dims[i] for i in g])) for g in groups])


def _parse_complex(text, option):
    parts = text.split(",")
    try:
        if len(parts) != 2:
            raise ValueError
        return complex(float(parts[0]), float(parts[1]))
    except ValueError:
        raise ValueError(f"--{option} expects re,im (two numbers), "
                         f"got {text!r}") from None


def cmd_example(args):
    ket = states.generate_example(args.name)
    path = args.output or (args.name.replace(":", "-") + ".json")
    serialize.save_ket(ket, path)
    reparsed = serialize.load_ket(path)
    ok = bool(np.allclose(reparsed.amps, ket.amps))
    return _report(
        "example", [path],
        {"path": path, "dims": list(ket.dims)},
        {"round_trip": ok, "normalized": bool(
            abs(np.linalg.norm(ket.amps) - 1) < 1e-9)},
        "built-in-state-generator")


def cmd_ki(args):
    tri = _load_tripartite(args)
    ki = ki_decompose_tripartite(tri)
    resid = ki.reassembly_residual()
    results = {
        "blocks": [[b.dim_left, b.dim_right, b.prob] for b in ki.blocks],
        "block_count": len(ki.blocks),
        "reassembly_residual": resid,
        "refinement_index": ki.partition_a.refinement_index(),
    }
    maximal = maximality_check(ki.partition_a,
                               reduced_state(tri, [0, 1]).mat, tri.dims[:2])
    checks = {"maximal": bool(maximal), "reassembly": bool(resid < 1e-8)}
    return _report("ki", [args.state], results, checks,
                   "block-decomposition-refinement")


def cmd_merge_cost(args):
    tri = _load_tripartite(args)
    ki = ki_decompose_tripartite(tri)
    if args.catalytic:
        rep = merge_cost_catalytic(ki, delta=args.delta)
    else:
        rep = merge_cost_noncatalytic(ki)
    results = {
        "catalytic_cost": rep.catalytic_cost,
        "non_catalytic_cost": rep.non_catalytic_cost,
        "resource_rank": rep.resource_rank,
        "returned_rank": rep.returned_rank,
        "per_block": rep.per_block,
        "oversized": rep.oversized,
    }
    checks = {"cost_ordering": bool(
        rep.catalytic_cost <= rep.non_catalytic_cost + 1e-9)}
    return _report("merge-cost", [args.state], results, checks,
                   "exact-merge-achievability")


def cmd_merge_protocol(args):
    tri = _load_tripartite(args)
    proto = merge_protocol(tri, args.setting, delta=args.delta)
    results = {
        "setting": proto.setting,
        "resource_rank": proto.resource_rank,
        "returned_rank": proto.returned_rank,
        "outcomes": proto.one_way.n_outcomes,
    }
    checks = {}
    if args.simulate:
        ok, worst, branches = verify_merge_protocol(tri, proto)
        results["branches"] = branches
        results["worst_infidelity"] = worst
        checks["all_branches_exact"] = bool(ok)
    if args.save:
        locc = proto.locc()
        audit_protocol(locc)
        with open(args.save, "w") as f:
            f.write(json.dumps(serialize.protocol_to_dict(locc)))
        results["protocol_path"] = args.save
        results["protocol_input_layout"] = (
            "state subsystems first, then the rank-K resource pair")
    return _report("merge-protocol", [args.state], results, checks,
                   "exact-merge-protocol-synthesis")


def cmd_split_cost(args):
    tri = _load_tripartite(args)
    cost = split_min_cost(tri)
    results = {"cost": cost, "rank": int(round(2 ** cost))}
    checks = {}
    if args.simulate:
        rank = args.rank or int(round(2 ** cost))
        worst, results["branches"] = verify_split(tri, rank)
        results["worst_infidelity"] = worst
        checks["all_branches_exact"] = bool(worst < 1e-8)
    return _report("split-cost", [args.state], results, checks,
                   "exact-split-cost")


def cmd_converse(args):
    tri = _load_tripartite(args)
    rep = merge_converse_search(tri, l_max=args.lmax, k_max=args.kmax)
    results = {
        "bound": rep.bound if rep.feasible else None,
        "witness": list(rep.witness) if rep.witness else None,
        "feasible_within_caps": rep.feasible,
        "closed_form": rep.closed_form,
    }
    return _report("converse", [args.state], results,
                   {"feasible_within_caps": bool(rep.feasible)},
                   "merge-converse-majorization")


def cmd_simulate(args):
    proto = serialize.load_protocol(args.protocol)
    ket = serialize.load_ket(args.state)
    branches = simulate(proto, ket)
    total = sum(b.prob for b in branches)
    results = {
        "branches": [{"outcomes": list(b.outcomes), "prob": b.prob}
                     for b in branches],
        "branch_count": len(branches),
        "total_probability": total,
    }
    return _report("simulate", [args.protocol, args.state], results,
                   {"probabilities_close": bool(abs(total - 1) < 1e-7)},
                   "exhaustive-branch-simulation")


def cmd_twoway(args):
    g1 = (_parse_complex(args.gamma1, "gamma1") if args.gamma1
          else np.exp(1j * np.pi / 4))
    g2 = (_parse_complex(args.gamma2, "gamma2") if args.gamma2
          else np.exp(1j * np.pi / 3))
    inst = twoway.build_instance(g1, g2)
    one = twoway.verify_one_way(inst)
    two = twoway.verify_two_way(inst, literal=args.literal)
    results = {
        "gamma1": [inst.gamma1.real, inst.gamma1.imag],
        "gamma2": [inst.gamma2.real, inst.gamma2.imag],
        "one_way": one,
        "two_way": two,
        "generic_block_cost": twoway.generic_one_way_cost(inst),
    }
    checks = {
        "one_way_exact_at_one_ebit": bool(one["pass"]),
        "two_way_receiver_completeness": two["checks"]["receiver_completeness"],
        "two_way_sender_completeness": two["checks"]["sender_completeness"],
        "two_way_branches_maximally_entangled":
            two["checks"]["branches_maximally_entangled"],
        "two_way_total_probability": two["checks"]["total_probability"],
    }
    return _report("twoway", [], results, checks,
                   "one-shot-communication-separation")


def cmd_net(args):
    tree = serialize.load_tree(args.tree)
    results = {}
    checks = {}
    if args.action == "construct":
        ket = serialize.load_ket(args.code)
        costs = netcost.construction_costs(tree, ket)
        results["edge_costs"] = [
            {"edge": list(e.edge), "rank": e.rank, "log2": e.log2}
            for e in costs]
    else:
        iso = serialize.load_isometry(args.code)
        if args.action == "spread":
            costs = netcost.spreading_costs(tree, iso)
            results["edge_costs"] = [
                {"edge": list(e.edge), "rank": e.rank, "log2": e.log2}
                for e in costs]
            if args.simulate:
                rep = netcost.spreading_protocol(tree, iso)
                results["total_branches"] = rep["total_branches"]
                results["worst_infidelity"] = rep["worst_infidelity"]
                checks["all_branches_exact"] = rep["pass"]
        else:
            rep = netcost.concentrating_simulate(tree, iso)
            results["edge_costs"] = [
                {"edge": list(e.edge), "rank": e.rank, "log2": e.log2}
                for e in rep["edge_costs"]]
            results["branches"] = rep["branches"]
            results["worst_deviation"] = rep["worst_deviation"]
            checks["all_branches_exact"] = rep["pass"]
    return _report(f"net-{args.action}", [args.tree] + (
        [args.code] if args.code else []), results, checks,
        "network-edge-entanglement-costs")


def _parse_angle(text):
    """``pi``, ``pi/x``, either negated, or a number of radians; finite,
    else ValueError."""
    body = text[1:] if text.startswith("-pi") else text
    try:
        if body.startswith("pi/"):
            alpha = np.pi / float(body[3:])
        else:
            alpha = np.pi if body == "pi" else float(body)
    except (ValueError, ZeroDivisionError):
        alpha = math.nan
    if body is not text:
        alpha = -alpha
    if not math.isfinite(alpha):
        raise ValueError(f"--alpha expects pi, pi/x or a finite number of "
                         f"radians, got {text!r}")
    return alpha


def cmd_msize(args):
    if args.action == "scan":
        circ = (serialize.load_circuit(args.circuit) if args.circuit
                else msize.default_circuit())
        alpha = _parse_angle(args.alpha)
        mult = alpha / (np.pi / 4)
        if abs(mult - round(mult)) > 1e-12 or int(round(mult)) % 2 == 0:
            raise ValueError(
                "the exact scan needs an odd multiple of pi/4")
        rep = msize.permutation_scan(circ, quarter_multiple=int(round(mult)))
        return _report("msize-scan",
                       [args.circuit] if args.circuit else [], rep,
                       {"scan_complete": True},
                       "exact-layout-rank-scan")
    if args.action == "prepare":
        circ = (serialize.load_circuit(args.circuit) if args.circuit
                else msize.default_circuit())
        alpha = _parse_angle(args.alpha)
        rep = msize.mbqc_prepare(circ, [alpha] * circ.n_gates)
        return _report("msize-prepare",
                       [args.circuit] if args.circuit else [],
                       {k: v for k, v in rep.items() if k != "pass"},
                       {"all_branches_exact": rep["pass"]},
                       "measurement-based-preparation")
    if args.action == "bound":
        rep = msize.bipartite_bound_check(args.m, args.D)
        return _report("msize-bound", [], rep,
                       {"meets_bound": rep["meets_bound"],
                        "symmetric_feasible": rep["symmetric_feasible"]},
                       "pairwise-resource-dimension-bound")
    if args.action == "dynamic":
        if args.schedule is None:
            raise ValueError("msize dynamic needs a schedule file")
        config, steps = serialize.load_schedule(args.schedule)
        out = msize.dynamic_simulate(config, steps, seed=args.seed)
        results = {
            "final_norm": float(np.linalg.norm(out["state"].amps)),
            "rank_to_party": out["rank_to_party"],
            "steps": len(out["steps"]),
            "audit": [{str(k): v for k, v in entry.items()}
                      for entry in out["audit"]],
            "diagnostics": out["diagnostics"],
        }
        return _report("msize-dynamic", [args.schedule], results,
                       {"norm_preserved": bool(
                           abs(results["final_norm"] - 1) < 1e-8)},
                       "configuration-limited-dynamics")
    raise ValueError(f"unknown msize action {args.action}")


def build_parser():
    p = argparse.ArgumentParser(
        prog="mergekit",
        description="entanglement costs of one-shot merging, splitting, and "
                    "network encoding/decoding, certified by simulation")
    p.add_argument("--seed", type=int, default=0)
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("example", help="write a built-in state to a file")
    s.add_argument("name")
    s.add_argument("-o", "--output")
    s.set_defaults(func=cmd_example)

    s = sub.add_parser("ki", help="block decomposition of a tripartite state")
    s.add_argument("state")
    s.add_argument("--cut", help="subsystem groups, e.g. 0|1|2 or 0|1,2|3")
    s.set_defaults(func=cmd_ki)

    s = sub.add_parser("merge-cost")
    s.add_argument("state")
    s.add_argument("--cut")
    s.add_argument("--catalytic", action="store_true")
    s.add_argument("--delta", type=float, default=1e-3)
    s.set_defaults(func=cmd_merge_cost)

    s = sub.add_parser("merge-protocol")
    s.add_argument("state")
    s.add_argument("--cut")
    s.add_argument("--setting", default="non-catalytic",
                   choices=["catalytic", "non-catalytic"])
    s.add_argument("--delta", type=float, default=1e-3)
    s.add_argument("--simulate", action="store_true")
    s.add_argument("--save", help="write the protocol operator table")
    s.set_defaults(func=cmd_merge_protocol)

    s = sub.add_parser("split-cost")
    s.add_argument("state")
    s.add_argument("--cut")
    s.add_argument("--rank", type=int)
    s.add_argument("--simulate", action="store_true")
    s.set_defaults(func=cmd_split_cost)

    s = sub.add_parser("converse")
    s.add_argument("state")
    s.add_argument("--cut")
    s.add_argument("--lmax", type=int)
    s.add_argument("--kmax", type=int)
    s.set_defaults(func=cmd_converse)

    s = sub.add_parser("simulate")
    s.add_argument("protocol")
    s.add_argument("state")
    s.set_defaults(func=cmd_simulate)

    s = sub.add_parser("twoway")
    s.add_argument("action", choices=["verify"])
    s.add_argument("--gamma1", help="re,im")
    s.add_argument("--gamma2", help="re,im")
    s.add_argument("--literal", action="store_true",
                   help="use the zero-padded conditioning that fails "
                        "completeness")
    s.set_defaults(func=cmd_twoway)

    s = sub.add_parser("net")
    s.add_argument("action", choices=["spread", "concentrate", "construct"])
    s.add_argument("tree")
    s.add_argument("code")
    s.add_argument("--simulate", action="store_true")
    s.set_defaults(func=cmd_net)

    s = sub.add_parser("msize")
    s.add_argument("action",
                   choices=["scan", "prepare", "bound", "dynamic"])
    s.add_argument("schedule", nargs="?")
    s.add_argument("--circuit")
    s.add_argument("--alpha", default="pi/4")
    s.add_argument("--m", type=int, default=2)
    s.add_argument("--D", type=int, default=2)
    s.set_defaults(func=cmd_msize)
    return p


def _join_alpha(argv) -> list:
    """``--alpha VALUE`` as ``--alpha=VALUE``, so that argparse reads a
    negative angle such as ``-pi/4`` as the value, not as an option."""
    argv = list(argv)
    for i in range(len(argv) - 2, -1, -1):
        if argv[i] == "--alpha":
            argv[i:i + 2] = [f"--alpha={argv[i + 1]}"]
    return argv


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_join_alpha(argv))
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        report = args.func(args)
    except (StateError, InfeasibleError, CompletenessError, MaximalityError,
            ValueError, OSError, json.JSONDecodeError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    report["seed"] = args.seed
    return _emit(report)


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
