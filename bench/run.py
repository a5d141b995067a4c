"""mergekit benchmark: certified jobs per second and job latency end to end,
per-layer spans in a separate traced run.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  The script uses the standard library only;
each workload runs in child processes (``worker.py``) with ``src/`` on
``PYTHONPATH`` and single-threaded BLAS, one process at a time.  Set-up is
measured in three children, the timed pass in the last of them.  The last
line of stdout is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics`` (end-to-end metrics with ``--trace 0``, per-layer metrics
with ``--trace 1``).  Everything else, provenance included, is also written
to ``.bench_out/result-<workload>-seed<n>-trace<t>.json``.
"""

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time

import spans

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORKLOADS = ("merge-batch", "exact-search", "cli-cold")
DEFAULT_SEED = 1903     # the held-out seed for confirming claims is 9655
SETUPS = 3
TIME_LIMIT_S = 170
PERCENTILES = (99.9, 99, 95, 90, 75, 50)


class ChildFailed(RuntimeError):
    pass


def now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def child_env():
    env = dict(os.environ)
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONDONTWRITEBYTECODE="1",
               PYTHONHASHSEED="0")
    paths = [os.path.join(ROOT, "src")]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def spawn(args, mode, deadline):
    """Run one worker in its own process group and return its JSON line;
    on timeout the whole group, command processes included, is killed."""
    spawned_at = now()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(BENCH, "worker.py"), args.workload,
         str(args.seed), str(args.seconds), mode, repr(spawned_at)],
        cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - now()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise ChildFailed(f"{mode} child exceeded the time limit")
    if proc.returncode != 0:
        raise ChildFailed(f"{mode} child exited with {proc.returncode}:\n"
                          f"{err.strip()[-2000:]}")
    return json.loads(out.strip().splitlines()[-1])


def tail(lat_ms, preferred):
    """Latency at the highest percentile, at most ``preferred``, that has at
    least ten samples beyond it (nearest rank).  Returns (percentile,
    value, samples beyond)."""
    n = len(lat_ms)
    for p in PERCENTILES:
        rank = math.ceil(p / 100 * n)
        if p <= preferred and n - rank >= 10:
            return p, lat_ms[rank - 1], n - rank
    rank = math.ceil(n / 2)
    return 50, lat_ms[rank - 1], n - rank


def provenance(main):
    sha = "unknown (not a git checkout)"
    try:
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              env=env, capture_output=True, text=True)
        if proc.returncode == 0:
            sha = proc.stdout.strip()
    except OSError:
        pass
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return dict(main["versions"], git_sha=sha, nproc=os.cpu_count(),
                cpu_model=cpu)


def end_to_end(main, setups):
    lat = sorted(x * 1000 for x in main["latencies"])
    n = len(lat)
    failed = len(main["failures"])
    pct, tail_ms, beyond = tail(lat, main["tail_percentile"])
    # Median over cycles of each cycle's rate: a cycle that a burst of
    # machine noise slowed down does not move it.
    rates = [k / t for k, t in zip(main["cycle_jobs"], main["cycle_s"])]
    metrics = {
        "jobs_per_s": (statistics.median(rates) * (n - failed) / n, "1/s"),
        "job_p50_ms": (statistics.median(lat), "ms"),
        "job_tail_ms": (tail_ms, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (main["peak_rss_mb"], "MB"),
    }
    notes = {
        "job_tail_ms": f"p{pct:g} of {n} jobs, {beyond} beyond it"
                       + ("" if beyond >= 10 else
                          "; fewer than ten samples beyond"),
        "setup_s": "median of " + ", ".join(f"{s:.3f}" for s in setups),
        "jobs_per_s": f"median over {main['cycles']} cycle(s) of "
                      f"{n // main['cycles']} jobs; {n - failed} certified "
                      f"jobs in {main['busy_s']:.3f} s",
    }
    return metrics, notes


def per_layer(main):
    tr = main["traced"]
    agg, counts = tr["agg"], tr["counts"]
    values = {}
    for span, kinds in spans.TIMED.items():
        a = agg.get(span, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        for kind in kinds:
            values[f"{span}.{kind}"] = a[kind]
    for name, _, _ in spans.COUNTS:
        values[name] = counts.get(name, 0)
    values["serialize.protocol_bytes"] = main["table_bytes"]
    values["cli.import_s"] = (statistics.median(tr["import_s"])
                              if tr["import_s"] else 0.0)
    values["trace.wall_s"] = tr["busy_s"]
    values["trace.unspanned_s"] = tr["busy_s"] - tr["root_s"]
    values["trace.overhead_ratio"] = tr["busy_s"] / main["busy_s"] - 1.0
    metrics = {name: (values[name], unit)
               for name, unit, _ in spans.per_layer_metrics()}
    self_sum = sum(a["self_s"] for a in agg.values())
    notes = {
        "trace.wall_s": f"sum of self times {self_sum:.4f} s + unspanned "
                        f"{values['trace.unspanned_s']:.4f} s = "
                        f"{self_sum + values['trace.unspanned_s']:.4f} s",
        "trace.overhead_ratio": f"traced {tr['busy_s']:.3f} s vs untraced "
                                f"{main['busy_s']:.3f} s over "
                                f"{main['cycles']} cycle(s) each",
    }
    return metrics, notes


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(ROOT, "src", "mergekit", "cli.py")):
        print("error: no mergekit sources under src/ in this checkout",
              file=sys.stderr)
        return 2
    deadline = now() + TIME_LIMIT_S
    try:
        setups = [spawn(args, "setup", deadline)["setup_s"]
                  for _ in range(SETUPS - 1)]
        main = spawn(args, "trace" if args.trace else "measure", deadline)
    except (ChildFailed, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    setups.append(main["setup_s"])

    attempted = len(main["latencies"])
    failures = list(main["failures"])
    if args.trace:
        metrics, notes = per_layer(main)
        attempted += main["traced"]["n_jobs"]
        failures += main["traced"]["failures"]
    else:
        metrics, notes = end_to_end(main, setups)
    failed = len(failures)

    prov = provenance(main)
    print(f"workload {args.workload}  seed {args.seed}  seconds "
          f"{args.seconds:g}  trace {args.trace}")
    print("provenance " + json.dumps(prov, sort_keys=True))
    for name, (value, unit) in metrics.items():
        note = notes.get(name)
        print(f"{name} = {value:.6g} {unit}" + (f"  ({note})" if note else ""))
    print(f"failed_ratio = {failed / attempted:.6g}  "
          f"({failed} of {attempted} jobs)")
    for msg in failures[:5]:
        print(f"failure: {msg}", file=sys.stderr)

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in
                    metrics.items()},
    }
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, f"result-{args.workload}-seed"
                           f"{args.seed}-trace{args.trace}.json"), "w") as f:
        json.dump(dict(result, provenance=prov, notes=notes,
                       failures=failures, seconds=args.seconds,
                       workload=args.workload, seed=args.seed), f, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
