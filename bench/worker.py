"""One workload child: set up, then run the timed pass and report.

    python bench/worker.py WORKLOAD SEED SECONDS MODE SPAWNED_AT

MODE is ``setup`` (set up and stop), ``measure`` (the untraced timed pass)
or ``trace`` (an untraced pass over half the time, then a traced pass over
as many cycles).  SPAWNED_AT is the parent's CLOCK_MONOTONIC reading just
before it started this process.  The last line of stdout is a JSON object.
"""

import json
import os
import resource
import sys
import time

import numpy
import scipy

import spans
import workloads


def now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def run_job(job, reference):
    """Run one job and compare its outputs with the reference; returns an
    error message, or None when the job is certified."""
    try:
        out = workloads.normalize(job.fn())
    except workloads.CheckFailed as e:
        return f"{job.label}: {e}"
    except Exception as e:   # a job that raises is a failed job
        return f"{job.label}: raised {type(e).__name__}: {e}"
    want = reference.get(job.key)
    if want is None:
        return f"{job.label}: no reference entry {job.key!r}"
    if out != want:
        return f"{job.label}: outputs {out} differ from reference {want}"
    return None


def timed_pass(wl, reference, seconds, first_cycle, n_cycles=None,
               rec=None, first_jobs=None):
    """Run whole cycles until the next one is not expected to finish within
    ``seconds`` (at least one), or exactly ``n_cycles``.  Inputs of a cycle
    are made before its clock starts; ``first_jobs`` are the first cycle's,
    made during set-up."""
    lat, failures, cycle_s, cycle_jobs = [], [], [], []
    done = 0
    start = now()
    while True:
        mark = len(rec.spans) if rec else 0
        if done == 0 and first_jobs is not None:
            jobs = first_jobs
        else:
            jobs = wl.cycle(first_cycle + done)
        if rec:
            del rec.spans[mark:]    # spans of input generation
        t_cycle = now()
        for job in jobs:
            if rec:
                rec.job = len(lat)
            t0 = now()
            err = run_job(job, reference)
            lat.append(now() - t0)
            if err:
                failures.append(err)
        if rec:
            rec.job = None
        cycle_s.append(now() - t_cycle)
        cycle_jobs.append(len(jobs))
        done += 1
        if n_cycles is not None:
            if done >= n_cycles:
                break
        elif (now() - start) * (done + 1) / done > seconds:
            break
    return {"latencies": lat, "failures": failures, "busy_s": sum(cycle_s),
            "cycles": done, "cycle_s": cycle_s, "cycle_jobs": cycle_jobs}


def main():
    name, seed, seconds, mode, spawned_at = sys.argv[1:6]
    seed, seconds, spawned_at = int(seed), float(seconds), float(spawned_at)
    full_ref = workloads.load_reference()
    reference = full_ref[name]
    wl = workloads.WORKLOADS[name](seed, full_ref)
    first_jobs = wl.cycle(0)
    err = run_job(wl.warmup(), reference)
    if err:
        print(f"warm-up failed: {err}", file=sys.stderr)
        sys.exit(1)
    ready = now()
    out = {"setup_s": ready - spawned_at,
           "tail_percentile": wl.tail_percentile}
    if mode != "setup":
        budget = seconds / 2 if mode == "trace" else seconds
        res = timed_pass(wl, reference, budget, 0, first_jobs=first_jobs)
        out.update(res)
        if mode == "trace":
            out["traced"] = traced_pass(wl, reference, res, name, seed)
        out["table_bytes"] = getattr(wl, "table_bytes", 0)
        out["versions"] = {"python": sys.version.split()[0],
                           "numpy": numpy.__version__,
                           "scipy": scipy.__version__}
    if hasattr(wl, "close"):
        wl.close()
    rss = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    out["peak_rss_mb"] = rss / 1024.0
    print(json.dumps(out))


def traced_pass(wl, reference, untraced, name, seed):
    """Repeat the untraced pass's number of cycles, on the next cycles'
    inputs, with every layer wrapped; return per-layer aggregates."""
    rec = spans.Recorder(clock=now)
    if wl.in_process:
        spans.install(rec)
    else:
        wl.traced = True
    res = timed_pass(wl, reference, None, untraced["cycles"],
                     n_cycles=untraced["cycles"], rec=rec)
    agg, root_s = spans.summarize(rec.spans)
    for summary in getattr(wl, "summaries", []):
        sub_agg, sub_root = summary["agg"], summary["root_s"]
        root_s += sub_root
        for span, a in sub_agg.items():
            mine = agg.setdefault(span, {"calls": 0, "self_s": 0.0,
                                         "total_s": 0.0})
            for k in mine:
                mine[k] += a[k]
        for k, v in summary["counts"].items():
            if k == "locc.simulate.dropped_mass":
                rec.peak(k, v)
            else:
                rec.add(k, v)
    if rec.spans:
        out_dir = os.path.join(os.getcwd(), ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        rec.write(os.path.join(out_dir, f"spans-{name}-seed{seed}.jsonl"))
    return {"agg": agg, "root_s": root_s, "counts": rec.counts,
            "busy_s": res["busy_s"], "failures": res["failures"],
            "n_jobs": len(res["latencies"]),
            "import_s": [s["import_s"] for s in getattr(wl, "summaries", [])]}


if __name__ == "__main__":
    main()
