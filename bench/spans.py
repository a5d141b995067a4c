"""Outside-in spans around the public functions of each mergekit layer.

Nothing under ``src/`` is changed: ``install`` replaces each listed function
at its module attribute, and under every name another ``mergekit`` module
imported it by, with a wrapper that records a span (name, start, end, parent
span, job id).  ``Ket.__init__`` is wrapped on the class.  Spans stay in
memory until the run ends; ``summarize`` turns them into per-layer calls,
self times and total times.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

KET = "qcore.Ket"

# Spans and the per-layer metrics the traced run prints for each.  Every
# "<module>.<function>" here except ``qcore.Ket`` (``Ket.__init__``) and
# ``cli.run`` (opened by traced_cli.py) is wrapped by ``install``.
TIMED = {
    "qcore.Ket": ("calls", "self_s"),
    "qcore.schmidt_decompose": ("calls", "self_s"),
    "qcore.hmax_conditional": ("calls", "self_s"),
    "kidecomp.ki_decompose_tripartite": ("calls", "self_s", "total_s"),
    "kidecomp.ki_partition": ("calls", "self_s", "total_s"),
    "mergesplit.merge_protocol": ("calls", "self_s", "total_s"),
    "mergesplit.merge_cost_catalytic": ("calls", "self_s", "total_s"),
    "mergesplit.merge_converse_search": ("calls", "self_s", "total_s"),
    "mergesplit.simulate_split": ("calls", "self_s", "total_s"),
    "locc.simulate": ("calls", "self_s"),
    "netcost.concentrating_simulate": ("calls", "self_s", "total_s"),
    "netcost.spreading_costs": ("calls", "self_s", "total_s"),
    "msize.bipartite_bound_check": ("calls", "self_s", "total_s"),
    "msize.permutation_scan": ("calls", "self_s", "total_s"),
    "msize.exact_gauss_rank": ("calls", "self_s"),
    "msize.mbqc_prepare": ("calls", "self_s", "total_s"),
    "msize.dynamic_simulate": ("calls", "self_s", "total_s"),
    "twoway.verify_one_way": ("calls", "self_s", "total_s"),
    "twoway.verify_two_way": ("calls", "self_s", "total_s"),
    "serialize.protocol_to_dict": ("calls", "self_s", "total_s"),
    "serialize.load_protocol": ("calls", "self_s", "total_s"),
    "serialize.load_ket": ("calls", "self_s", "total_s"),
    "cli.run": ("self_s",),
}
TARGETS = [tuple(name.split(".")) for name in TIMED
           if name not in (KET, "cli.run")]
# Counts read from results, and metrics computed from the run.
COUNTS = [
    ("mergesplit.merge_protocol.outcomes", "count", "lower"),
    ("locc.simulate.branches", "count", "lower"),
    ("locc.simulate.dropped_mass", "1", "lower"),
    ("netcost.concentrating_simulate.branches", "count", "lower"),
    ("serialize.protocol_bytes", "bytes", "lower"),
    ("cli.import_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.unspanned_s", "s", "lower"),
    ("trace.overhead_ratio", "1", "lower"),
]
UNITS = {"calls": ("count", "lower"), "self_s": ("s", "lower"),
         "total_s": ("s", "lower")}


def per_layer_metrics():
    """Every per-layer metric as (name, unit, better), in report order."""
    out = []
    for span, kinds in TIMED.items():
        for kind in kinds:
            unit, better = UNITS[kind]
            out.append((f"{span}.{kind}", unit, better))
    return out + COUNTS


class Recorder:
    """In-memory span list.  A span is [name, start, end, parent, job]
    with ``parent`` the index of the enclosing span or -1."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.stack = []
        self.job = None
        self.counts = {}

    def open(self, name):
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, self.clock(), None, parent, self.job])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, idx):
        self.spans[idx][2] = self.clock()
        self.stack.pop()

    def add(self, name, value):
        self.counts[name] = self.counts.get(name, 0) + value

    def peak(self, name, value):
        self.counts[name] = max(self.counts.get(name, value), value)

    def wrap(self, name, fn, on_result=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if on_result is not None:
                on_result(result)
            return result
        return wrapper

    def write(self, path):
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps(s) + "\n")


def _hooks(rec):
    def outcomes(proto):
        rec.add("mergesplit.merge_protocol.outcomes",
                len(proto.one_way.a_ops))

    def branches(result):
        rec.add("locc.simulate.branches", len(result))
        rec.peak("locc.simulate.dropped_mass",
                 1.0 - sum(b.prob for b in result))

    def conc(report):
        rec.add("netcost.concentrating_simulate.branches", report["branches"])

    return {"mergesplit.merge_protocol": outcomes,
            "locc.simulate": branches,
            "netcost.concentrating_simulate": conc}


def install(rec: Recorder):
    """Wrap every target in every loaded ``mergekit`` module."""
    for short in {m for m, _ in TARGETS} | {"cli"}:
        importlib.import_module(f"mergekit.{short}")
    modules = [m for n, m in sys.modules.items()
               if n.startswith("mergekit.") and m is not None]
    hooks = _hooks(rec)
    for short, attr in TARGETS:
        name = f"{short}.{attr}"
        orig = getattr(sys.modules[f"mergekit.{short}"], attr)
        wrapper = rec.wrap(name, orig, hooks.get(name))
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, wrapper)
    ket = sys.modules["mergekit.qcore"].Ket
    ket.__init__ = rec.wrap(KET, ket.__init__)


def self_times(spans):
    """Per span index: its duration minus the part of it covered by its
    direct children (the union of their intervals, clipped to the span)."""
    children = {}
    for i, s in enumerate(spans):
        if s[3] >= 0:
            children.setdefault(s[3], []).append(i)
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted((max(spans[c][1], start), min(spans[c][2], end))
                             for c in children.get(i, [])):
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end - start) - covered)
    return out


def summarize(spans):
    """Aggregate spans by name: calls, self_s, total_s.  ``total_s`` counts
    only outermost spans of a name, so recursion is not counted twice.
    Also returns the summed duration of root spans."""
    selfs = self_times(spans)
    agg = {}
    root_s = 0.0
    for i, (name, start, end, parent, _) in enumerate(spans):
        a = agg.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        a["calls"] += 1
        a["self_s"] += selfs[i]
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            a["total_s"] += end - start
        if parent < 0:
            root_s += end - start
    return agg, root_s
