"""Record ``reference.json``: the certified outputs of every reference input,
computed by the program as it is now.

    PYTHONPATH=src python bench/record.py

Every input is computed under the default and the held-out seed, which
rotate states and draw isometries differently; an output that changes
between the two is an error, since the outputs are meant to depend only on
the reference key.  Run this only when the certified outputs are meant to
change; a speed-up must leave ``reference.json`` as it is.
"""

import json
import os
import sys

import workloads


def record():
    ref = {}
    for name, cls in workloads.WORKLOADS.items():
        table = {}
        for seed in (workloads.DEFAULT_SEED, workloads.HELD_OUT_SEED):
            wl = cls(seed, ref)
            try:
                for job in wl.reference_jobs():
                    out = workloads.normalize(job.fn())
                    if table.setdefault(job.key, out) != out:
                        raise SystemExit(
                            f"{name} {job.key}: {out} under seed {seed}, "
                            f"{table[job.key]} under the other seed")
            finally:
                if hasattr(wl, "close"):
                    wl.close()
        ref[name] = table
        print(f"{name}: {len(table)} reference entries", file=sys.stderr)
    return ref


if __name__ == "__main__":
    path = os.path.join(workloads.BENCH_DIR, "reference.json")
    ref = record()
    with open(path, "w") as f:
        json.dump(ref, f, indent=1, sort_keys=True)
        f.write("\n")
