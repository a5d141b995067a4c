"""Tests of the benchmark itself: span arithmetic, result-preserving
wrappers, and the metric catalogue.

    PYTHONPATH=src python -m pytest -q bench/tests
"""

import json
import os
import subprocess
import sys

import pytest

import run
import spans

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def test_self_times_on_nested_call_tree():
    # a [0, 10] holds b [1, 4] (which holds c [2, 3]) and b [5, 9];
    # d [12, 13] is a second root
    clock = FakeClock()
    rec = spans.Recorder(clock=clock)

    def at(t):
        clock.t = t

    at(0); a = rec.open("a")
    at(1); b1 = rec.open("b")
    at(2); c = rec.open("c")
    at(3); rec.close(c)
    at(4); rec.close(b1)
    at(5); b2 = rec.open("b")
    at(9); rec.close(b2)
    at(10); rec.close(a)
    at(12); d = rec.open("d")
    at(13); rec.close(d)
    assert spans.self_times(rec.spans) == [3.0, 2.0, 1.0, 4.0, 1.0]
    agg, root_s = spans.summarize(rec.spans)
    assert agg["a"] == {"calls": 1, "self_s": 3.0, "total_s": 10.0}
    assert agg["b"] == {"calls": 2, "self_s": 6.0, "total_s": 7.0}
    assert agg["c"] == {"calls": 1, "self_s": 1.0, "total_s": 1.0}
    assert root_s == 11.0
    assert sum(x["self_s"] for x in agg.values()) == root_s


def test_recursion_counts_total_once_and_overlap_is_merged():
    # r [0, 8] holds r [1, 5]; two children of the inner r overlap
    sp = [["r", 0.0, 8.0, -1, 0], ["r", 1.0, 5.0, 0, 0],
          ["x", 2.0, 4.0, 1, 0], ["y", 3.0, 4.5, 1, 0]]
    assert spans.self_times(sp) == [4.0, 1.5, 2.0, 1.5]
    agg, root_s = spans.summarize(sp)
    assert agg["r"]["total_s"] == 8.0 and agg["r"]["calls"] == 2
    assert root_s == 8.0


def test_tail_has_ten_samples_beyond():
    lat = list(range(1, 201))
    assert run.tail(lat, 99.9) == (95, 190, 10)
    assert run.tail(lat, 90) == (90, 180, 20)
    assert run.tail(list(range(20)), 99) == (50, 9, 10)
    assert run.tail(list(range(15)), 99)[2] < 10


def _benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


REQUIRED_END_TO_END = ["jobs_per_s", "job_p50_ms", "job_tail_ms", "setup_s",
                    "peak_rss_mb"]
REQUIRED_PER_LAYER = [
    "qcore.Ket.calls", "qcore.Ket.self_s", "qcore.schmidt_decompose.calls",
    "qcore.schmidt_decompose.self_s", "qcore.hmax_conditional.calls",
    "qcore.hmax_conditional.self_s",
    "kidecomp.ki_decompose_tripartite.self_s", "kidecomp.ki_partition.self_s",
    "mergesplit.merge_protocol.self_s", "mergesplit.merge_protocol.outcomes",
    "mergesplit.merge_cost_catalytic.self_s",
    "mergesplit.merge_converse_search.self_s",
    "mergesplit.simulate_split.self_s",
    "locc.simulate.calls", "locc.simulate.self_s", "locc.simulate.branches",
    "locc.simulate.dropped_mass",
    "netcost.concentrating_simulate.self_s",
    "netcost.concentrating_simulate.branches",
    "netcost.spreading_costs.self_s",
    "msize.bipartite_bound_check.self_s", "msize.permutation_scan.self_s",
    "msize.exact_gauss_rank.calls", "msize.exact_gauss_rank.self_s",
    "msize.mbqc_prepare.self_s", "msize.dynamic_simulate.self_s",
    "twoway.verify_one_way.self_s", "twoway.verify_two_way.self_s",
    "serialize.protocol_to_dict.self_s", "serialize.load_protocol.self_s",
    "serialize.load_ket.self_s", "serialize.protocol_bytes",
    "cli.import_s", "cli.run.self_s",
    "trace.wall_s", "trace.unspanned_s", "trace.overhead_ratio",
]


def test_every_metric_has_a_unit_and_matches_the_benchmark_file():
    bench = _benchmark()
    declared = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    assert list(declared) == REQUIRED_END_TO_END
    main = {"latencies": [0.01 * (i + 1) for i in range(40)],
            "failures": [], "busy_s": 2.0, "cycles": 1,
            "cycle_s": [2.0], "cycle_jobs": [40],
            "tail_percentile": 75, "peak_rss_mb": 50.0}
    metrics, _ = run.end_to_end(main, [1.0, 1.2, 1.1])
    assert {k: u for k, (_, u) in metrics.items()} == declared
    assert metrics["jobs_per_s"][0] == 20.0
    assert metrics["setup_s"][0] == 1.1
    # one slow cycle out of three does not move the median cycle rate
    main.update(busy_s=6.0, cycles=3, cycle_s=[0.5, 0.5, 5.0],
                cycle_jobs=[10, 10, 10],
                latencies=main["latencies"][:30])
    metrics, _ = run.end_to_end(main, [1.0, 1.2, 1.1])
    assert metrics["jobs_per_s"][0] == 20.0

    layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert layer == {n: u for n, u, _ in spans.per_layer_metrics()}
    assert all(u for u in layer.values())
    assert set(REQUIRED_PER_LAYER) <= set(layer)
    for span, _ in ((f"{m}.{a}", None) for m, a in spans.TARGETS):
        assert f"{span}.calls" in layer or f"{span}.self_s" in layer


def test_benchmark_names_its_workloads():
    bench = _benchmark()
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)


WRAP_CHECK = r"""
import json, sys
sys.path.insert(0, "bench")
import spans, workloads
from worker import run_job
ref = workloads.load_reference()
picks = {"merge-batch": ["0.", "26."],
         "exact-search": ["bound", "scan", "resource", "mbqc", "schedule",
                          "schedule"],
         "cli-cold": ["split-cost.ex2", "converse.ki-example"]}
jobs = []
for name, prefixes in picks.items():
    wl = workloads.WORKLOADS[name](workloads.HELD_OUT_SEED, ref)
    cyc = wl.cycle(0)
    for prefix in prefixes:
        job = next(j for j in cyc if j.key.startswith(prefix))
        cyc.remove(job)
        jobs.append((name, wl, job))
plain = [workloads.normalize(job.fn()) for _, _, job in jobs]
rec = spans.Recorder()
spans.install(rec)
for _, wl, _ in jobs:
    wl.traced = True
traced = [workloads.normalize(job.fn()) for _, _, job in jobs]
errors = [run_job(job, ref[name]) for name, _, job in jobs]
for _, wl, _ in jobs:
    if hasattr(wl, "close"):
        wl.close()
names = {s[0] for s in rec.spans}
print(json.dumps({"same": plain == traced, "errors": errors,
                  "names": sorted(names), "n": len(plain),
                  "cli": [s["agg"].get("cli.run", {}).get("calls")
                          for _, wl, _ in jobs
                          for s in getattr(wl, "summaries", [])]}))
"""


def test_wrapping_preserves_results():
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"),
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", WRAP_CHECK], cwd=ROOT,
                          env=env, capture_output=True, text=True,
                          timeout=600)
    assert proc.returncode == 0, proc.stderr[-3000:]
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["same"] and out["n"] == 10
    assert out["errors"] == [None] * 10
    for name in ("qcore.Ket", "kidecomp.ki_decompose_tripartite",
                 "mergesplit.merge_protocol", "locc.simulate",
                 "msize.dynamic_simulate",
                 "msize.exact_gauss_rank", "qcore.schmidt_decompose"):
        assert name in out["names"], name
    assert out["cli"] and all(c == 1 for c in out["cli"])


@pytest.mark.parametrize("extra", [[], ["--trace", "1"]])
def test_run_refuses_a_checkout_without_sources(tmp_path, extra):
    os.makedirs(tmp_path / "bench")
    for name in os.listdir(BENCH):
        if name.endswith(".py") or name.endswith(".json"):
            with open(os.path.join(BENCH, name)) as src, \
                    open(tmp_path / "bench" / name, "w") as dst:
                dst.write(src.read())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "merge-batch",
         "--seconds", "1"] + extra,
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
