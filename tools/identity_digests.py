"""sha256 digests of every synthesized operator, simulated branch and cost
report, and of the exact-search msize results, for checking that two trees
compute bit-identical results.

    python tools/identity_digests.py TREE OUT.json [--quick]

TREE is a checkout (its ``src`` and ``bench`` directories are imported).
Run it on the parent and on the change, each from its own checkout, and
compare the two JSON files: each category maps to [items, sha256], taken in
order over shapes or dims and bytes.  The inputs are merge-batch cycles 0-3
of seeds 1903 and 9655 (``--quick``: cycle 0), the examples ex2, ex3, ex4,
ki-example and ghz:3:3, the two-way separation instance, criterion 09's
100 network instances (skipped by ``--quick``), and, in the ``msize``
category, exact-search's 1200 pool schedules under the limited
configuration (every executed step with its matrix bytes, the audit, the
slots, ``rank_to_party``, the diagnostics and the final state), the layout
scan, the m=2, D=2 bound check and the resource preparation report.
"""

import hashlib
import json
import os
import sys

os.environ.setdefault("OMP_NUM_THREADS", "1")
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
TREE, OUT = sys.argv[1], sys.argv[2]
QUICK = "--quick" in sys.argv[3:]
sys.path[:0] = [os.path.join(TREE, "src"), os.path.join(TREE, "bench")]

import numpy as np  # noqa: E402
import workloads  # noqa: E402
from mergekit import (kidecomp, locc, mergesplit, msize, netcost,  # noqa: E402
                      states, twoway)
from mergekit.qcore import Ket  # noqa: E402

DIGESTS, COUNTS = {}, {}


def update(category, *items):
    h = DIGESTS.setdefault(category, hashlib.sha256())
    COUNTS[category] = COUNTS.get(category, 0) + 1
    for x in items:
        if isinstance(x, np.ndarray):
            h.update(repr(x.shape).encode())
            h.update(np.ascontiguousarray(x).tobytes())
        else:
            h.update(repr(x).encode())


def operators(category, family):
    for op in family:
        update(category, op.in_dims, op.out_dims, op.mat)


def branches(category, simulated):
    for b in simulated:
        update(category, b.outcomes, b.prob, b.state.dims, b.state.amps)


def cost_report(r):
    update("report", r.catalytic_cost, r.non_catalytic_cost, r.resource_rank,
           r.returned_rank, [sorted(d.items()) for d in r.per_block],
           r.oversized)


def merge_case(psi, sender_only=True, split=True):
    ki = kidecomp.ki_decompose_tripartite(psi)
    cost_report(mergesplit.merge_cost_catalytic(ki))
    cost_report(mergesplit.merge_cost_noncatalytic(ki))
    for setting in ("catalytic", "non-catalytic"):
        try:
            proto = mergesplit.merge_protocol(psi, setting, ki=ki)
        except locc.InfeasibleError as err:
            update("merge_ops", "infeasible", str(err))
            continue
        cost_report(proto.report)
        operators("merge_ops", proto.one_way.a_ops)
        operators("merge_ops", proto.one_way.b_ops)
        branches("merge_branches",
                 locc.simulate(proto.locc(), proto.input_state(psi)))
        update("verify", mergesplit.verify_merge_protocol(psi, proto))
        if sender_only:
            alone = mergesplit.merge_protocol(psi, setting, ki=ki,
                                              sender_only=True)
            operators("sender_only_ops", alone.one_way.a_ops)
            operators("sender_only_ops", alone.one_way.b_ops)
    c = mergesplit.merge_converse_search(psi)
    update("converse", c.bound, c.witness, c.feasible, c.closed_form)
    if split:
        rank = int(round(2 ** mergesplit.split_min_cost(psi)))
        proto, _ = mergesplit.split_protocol(psi, rank)
        operators("split_ops", proto.a_ops)
        operators("split_ops", proto.b_ops)
        branches("split_branches", mergesplit.simulate_split(psi, rank)[0])
        update("verify", mergesplit.verify_split(psi, rank))


def network_instances():
    """Criterion 09's instances, every sender family they synthesize and
    their reports."""
    real = mergesplit.merge_protocol

    def recording(*args, **kwargs):
        proto = real(*args, **kwargs)
        operators("c09_sender_ops", proto.one_way.a_ops)
        return proto

    mergesplit.merge_protocol = recording
    rng = np.random.default_rng(8800)
    checked = audited = 0
    while checked < 100:
        n = int(rng.integers(2, 4))
        parent = {k: int(rng.integers(1, k)) for k in range(2, n + 1)}
        tree = netcost.RootedTree(n, parent)
        dims = tuple(int(rng.integers(2, 4)) for _ in range(n))
        d_log = int(rng.integers(2, 4))
        if d_log > int(np.prod(dims)):
            continue
        total = int(np.prod(dims))
        g = rng.normal(size=(total, d_log)) + 1j * rng.normal(
            size=(total, d_log))
        q, _ = np.linalg.qr(g)
        iso = netcost.IsometrySpec([Ket(q[:, i], dims)
                                    for i in range(d_log)])
        audit = audited < 10
        spread = {e.edge: e.rank for e in netcost.spreading_costs(tree, iso)}
        try:
            cc = netcost.concentrating_simulate(tree, iso, audit_cuts=audit)
        except netcost.BranchCapError as err:
            update("c09", "cap", str(err))
            continue
        update("c09", [(e.edge, e.rank) for e in cc["edge_costs"]],
               cc["branches"], cc["worst_deviation"], cc["pass"],
               cc.get("rank_audit_ok"), sorted(spread.items()))
        audited += audit
        checked += 1
    mergesplit.merge_protocol = real


def msize_results():
    for p in range(workloads.ExactSearch.SCHEDULE_POOL):
        schedule = workloads.pool_schedule(p)
        out = msize.dynamic_simulate(msize.CONFIG_D1, schedule, seed=p)
        for step in out["steps"]:
            update("msize", *[x for k in sorted(step) for x in (k, step[k])])
        update("msize", out["audit"], out["slots"],
               sorted(out["rank_to_party"].items()),
               sorted(out["diagnostics"].items()), out["state"].dims,
               out["state"].amps)
    for rep in (msize.permutation_scan(msize.default_circuit()),
                msize.bipartite_bound_check(2, 2),
                msize.verify_resource_preparation()):
        update("msize", sorted(rep.items()))


n_states = 0
for seed in (1903, 9655):
    batch = workloads.MergeBatch(seed, None)
    for c in range(1 if QUICK else 4):
        for t in range(len(batch.DIMS)):
            m = int((batch.offsets[t] + c) % batch.POOL)
            merge_case(workloads.rotate(
                batch.base(t, m), np.random.default_rng([seed, 6, c, t])))
            n_states += 1
for name in ("ex2", "ex3", "ex4", "ki-example", "ghz:3:3"):
    merge_case(states.generate_example(name))
    n_states += 1
inst = twoway.default_instance()
merge_case(inst.psi, sender_only=not QUICK, split=False)
update("twoway", sorted(twoway.verify_one_way(inst).items()))
if not QUICK:
    network_instances()
msize_results()
out = {k: [COUNTS[k], h.hexdigest()] for k, h in sorted(DIGESTS.items())}
out["states"] = n_states
with open(OUT, "w") as f:
    json.dump(out, f, indent=1)
print(json.dumps(out, indent=1))
