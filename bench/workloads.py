"""The three benchmark workloads.

Each workload is a closed loop with one client: a job is one input taken
through its whole certify path, checks included, and the next job starts
only after the previous one has returned.  Jobs come in fixed cycles whose
composition never changes, so a run's figures do not depend on where it
happened to stop; the seed only changes the inputs inside a cycle.

The program is always called through its module attributes
(``mergesplit.merge_protocol``), so the wrappers of the traced run see
every call the workload makes.

Every job returns its certified outputs, which the worker compares with
``reference.json`` (recorded from the program by ``record.py``).  Inputs are
built so that those outputs do not depend on the run seed:

* merge-batch draws distinct states as seeded local unitaries applied to a
  fixed pool of random base states; block dimensions, K, L, costs and the
  converse witness are local-unitary invariants of the base state.
* exact-search draws its schedules from a fixed, seed-permuted pool.
* cli-cold rotates fixed example states by seeded local unitaries.
"""

from __future__ import annotations

import itertools
import json
import os
import shutil
import subprocess
import sys

import numpy as np

from mergekit import (kidecomp, mergesplit, msize, netcost, qcore, serialize,
                      states)

POOL_SEED = 6550
DEFAULT_SEED = 1903
HELD_OUT_SEED = 9655

# Cycle numbers that timed passes never reach, for the untimed warm-up job
# and the inputs recorded in reference.json.
WARMUP_CYCLE = 10 ** 6
REFERENCE_CYCLE = 10 ** 6 + 1

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


class CheckFailed(Exception):
    """A job's output violated one of its certified properties."""


def require(ok, message):
    if not ok:
        raise CheckFailed(message)


class Job:
    def __init__(self, label, key, fn):
        self.label = label   # shown in failure messages
        self.key = key       # entry in the workload's reference table
        self.fn = fn         # runs the job, returns its certified outputs


def normalize(outputs):
    """JSON round trip, so tuples and numpy scalars compare as stored."""
    return json.loads(json.dumps(outputs, default=_jsonable))


def _jsonable(x):
    if isinstance(x, np.integer):
        return int(x)
    if isinstance(x, np.floating):
        return float(x)
    if isinstance(x, np.bool_):
        return bool(x)
    raise TypeError(f"cannot serialize {type(x)}")


def rotate(ket, rng):
    """Apply a Haar-random local unitary to every subsystem of ``ket``."""
    t = ket.tensor()
    for axis, d in enumerate(ket.dims):
        u = qcore.random_unitary(d, rng)
        t = np.moveaxis(np.tensordot(u, t, axes=([1], [axis])), 0, axis)
    return qcore.Ket(t.reshape(-1), ket.dims)


def interleave(jobs):
    """A fixed shuffle of a cycle, so that each kind of job is sampled all
    over the cycle rather than in one stretch of time."""
    order = np.random.default_rng([POOL_SEED, len(jobs)]).permutation(
        len(jobs))
    return [jobs[i] for i in order]


def split_worst_infidelity(psi, branches):
    """Worst branch infidelity of the splitting protocol (criterion 02)."""
    tn = psi.amps / np.linalg.norm(psi.amps)
    worst = 0.0
    for b in branches:
        got = b.state.tensor()[:, :, 0, :, 0].reshape(-1)
        fid = abs(np.vdot(tn, got / np.linalg.norm(got))) ** 2
        worst = max(worst, 1.0 - fid)
    return worst


# ---------------------------------------------------------------------------
# merge-batch


class MergeBatch:
    """Criterion-06 states: local dimensions drawn from 2-4, each state
    taken through decomposition, both cost reports, both synthesized
    protocols with exhaustive verification, the converse search and the
    simulated split.  A cycle visits each of the 27 dimension triples once;
    every state in a run is distinct."""

    name = "merge-batch"
    tail_percentile = 95
    in_process = True
    DIMS = list(itertools.product((2, 3, 4), repeat=3))
    POOL = 10   # base states per dimension triple

    def __init__(self, seed, reference):
        self.seed = seed
        rng = np.random.default_rng([seed, 6])
        self.offsets = rng.integers(0, self.POOL, size=len(self.DIMS))

    def base(self, t, m):
        rng = np.random.default_rng([POOL_SEED, 6, t, m])
        return qcore.random_ket(self.DIMS[t], rng)

    def _job(self, t, m, c):
        psi = rotate(self.base(t, m),
                     np.random.default_rng([self.seed, 6, c, t]))
        return Job(f"dims {self.DIMS[t]} base {m} cycle {c}", f"{t}.{m}",
                   lambda: merge_job(psi))

    def cycle(self, c):
        return interleave([self._job(t, int((self.offsets[t] + c) % self.POOL),
                                     c) for t in range(len(self.DIMS))])

    def warmup(self):
        return self.cycle(WARMUP_CYCLE)[0]

    def reference_jobs(self):
        return [self._job(t, m, REFERENCE_CYCLE) for t in range(len(self.DIMS))
                for m in range(self.POOL)]


def merge_job(psi):
    ki = kidecomp.ki_decompose_tripartite(psi)
    cat = mergesplit.merge_cost_catalytic(ki)
    nc = mergesplit.merge_cost_noncatalytic(ki)
    for setting in ("catalytic", "non-catalytic"):
        proto = mergesplit.merge_protocol(psi, setting, ki=ki)
        ok, worst, _ = mergesplit.verify_merge_protocol(psi, proto)
        require(ok, f"{setting} protocol: branch infidelity {worst:.2e}")
    conv = mergesplit.merge_converse_search(psi)
    split = mergesplit.split_min_cost(psi)
    rank = int(round(2 ** split))
    branches, _ = mergesplit.simulate_split(psi, rank)
    worst = split_worst_infidelity(psi, branches)
    require(worst < 1e-8, f"split branch infidelity {worst:.2e}")
    rank_a = qcore.schmidt_rank(psi, qcore.Bipartition([1], [0, 2]))
    require(conv.feasible, "converse search infeasible within its caps")
    chain = [conv.bound, cat.catalytic_cost, nc.non_catalytic_cost,
             float(np.log2(rank_a))]
    require(all(a <= b + 1e-9 for a, b in zip(chain, chain[1:])),
            f"cost sandwich violated: converse, catalytic, non-catalytic, "
            f"log2 rank_A = {chain}")
    return {
        "blocks": sorted([b.dim_left, b.dim_right] for b in ki.blocks),
        "catalytic": [cat.resource_rank, cat.returned_rank,
                      cat.catalytic_cost],
        "non_catalytic": [nc.resource_rank, nc.non_catalytic_cost],
        "converse_witness": list(conv.witness),
        "split_rank": rank,
    }


# ---------------------------------------------------------------------------
# exact-search


def mixed_complement_state(k):
    """Pool state k: reference maximally mixed, as in the qcore max-entropy
    test, with a reference qutrit."""
    rng = np.random.default_rng([POOL_SEED, 4, k])
    v = qcore.random_unitary(4, rng)
    d = 3
    t = np.zeros((d, 4), dtype=complex)
    for l in range(d):
        t[l] = v[:, l] / np.sqrt(d)
    return qcore.Ket(t.reshape(-1), (d, 2, 2))


def pool_schedule(p):
    """Pool schedule p under the four-party limited configuration."""
    rng = np.random.default_rng([POOL_SEED, 14, p])
    return msize.random_legal_schedule(msize.CONFIG_D1, rng,
                                       length=int(rng.integers(8, 25)))


class ExactSearch:
    """Exact enumeration and the max-entropy optimizer: the bound check,
    the layout scan, MBQC preparation over all branches, random schedules
    under the limited configuration, the resource preparation schedule,
    and conditional max-entropy on the converse-gap state (four restarts)
    and, with two restarts, on two fixed states whose reference is
    maximally mixed.  Every cycle costs the same, about 4 s, so that a run
    holds several cycles.  Left out, since one call is longer than a
    cycle: the m=2, D=3 bound check (about 20 s), max-entropy of the
    converse-gap state at 32 restarts (about 8 s) and of pool state 0
    (about 5 s even at one restart)."""

    name = "exact-search"
    tail_percentile = 95
    in_process = True
    GAP_RESTARTS = 4
    MIXED_STATES = (1, 2)
    MBQC_PER_CYCLE = 6      # so the p95 tail falls inside the MBQC jobs
    SCHEDULE_POOL = 1200
    SCHEDULES_PER_CYCLE = 120

    def __init__(self, seed, reference):
        self.seed = seed
        self.perm = np.random.default_rng([seed, 14]).permutation(
            self.SCHEDULE_POOL)

    def fixed_jobs(self):
        return [
            Job("hmax converse-gap state", "hmax.gap", hmax_gap_job),
            Job("bound m=2 D=2", "bound.2.2", bound_job),
            Job("layout scan", "scan", scan_job),
            Job("resource preparation", "resource", resource_job),
        ]

    def mixed_job(self, k):
        return Job(f"hmax mixed-complement state {k}", f"hmax.mixed.{k}",
                   lambda: hmax_mixed_job(mixed_complement_state(k)))

    def schedule_job(self, p):
        return Job(f"schedule {p}", f"schedule.{p}",
                   lambda: {"root_rank": schedule_job(pool_schedule(p), p)})

    def cycle(self, c):
        jobs = self.fixed_jobs()
        jobs += [self.mixed_job(k) for k in self.MIXED_STATES]
        for i in range(self.MBQC_PER_CYCLE):
            rng = np.random.default_rng([self.seed, 10, c, i])
            alphas = rng.uniform(0, 2 * np.pi, msize.default_circuit().n_gates)
            jobs.append(Job(f"mbqc cycle {c} #{i}", "mbqc",
                            lambda a=alphas: mbqc_job(a)))
        base = c * self.SCHEDULES_PER_CYCLE
        for i in range(self.SCHEDULES_PER_CYCLE):
            jobs.append(self.schedule_job(
                int(self.perm[(base + i) % self.SCHEDULE_POOL])))
        return interleave(jobs)

    def warmup(self):
        return self.schedule_job(int(self.perm[-1]))

    def reference_jobs(self):
        mbqc = [j for j in self.cycle(0) if j.key == "mbqc"][:1]
        return (self.fixed_jobs()
                + [self.mixed_job(k) for k in self.MIXED_STATES]
                + mbqc
                + [self.schedule_job(p) for p in range(self.SCHEDULE_POOL)])


def _closed_form(psi):
    """log2(lambda0_B * d_R) for a pure state on (R, A, B), computed here
    independently of the program."""
    t = psi.tensor()
    rho_b = np.einsum("rab,rac->bc", t, t.conj())
    return float(np.log2(np.max(np.linalg.eigvalsh(rho_b)) * psi.dims[0]))


def _hmax_checked(psi, restarts, seed):
    res = qcore.hmax_conditional(psi, [1], [2], restarts=restarts, seed=seed)
    closed = _closed_form(psi)
    require("upper_bound" in res, "closed-form bound missing")
    require(abs(res["upper_bound"] - closed) < 1e-9,
            f"closed form {res['upper_bound']} != {closed}")
    require(res["value"] <= closed + 1e-6,
            f"max-entropy {res['value']} above closed form {closed}")
    return {"upper_bound": round(res["upper_bound"], 9)}


def hmax_gap_job():
    return _hmax_checked(states.converse_gap_state(),
                         ExactSearch.GAP_RESTARTS, 0)


def hmax_mixed_job(psi):
    return _hmax_checked(psi, 2, 0)


def bound_job():
    rep = msize.bipartite_bound_check(2, 2)
    require(rep["meets_bound"] and rep["symmetric_feasible"],
            "bound check failed")
    return {"min_max_local_dim": rep["min_max_local_dim"]}


def scan_job():
    rep = msize.permutation_scan(msize.default_circuit())
    return {"permutations": rep["permutations"],
            "with_large_edge": rep["permutations_with_large_edge"],
            "all_have_large_edge": rep["all_have_large_edge"],
            "max_rank_seen": rep["max_rank_seen"]}


def resource_job():
    rep = msize.verify_resource_preparation()
    require(rep["pass"] and rep["fidelity"] > 1 - 1e-9,
            f"resource fidelity {rep['fidelity']}")
    return {"steps": rep["steps"]}


def mbqc_job(alphas):
    rep = msize.mbqc_prepare(msize.default_circuit(), alphas)
    require(rep["pass"], f"mbqc worst infidelity {rep['worst_infidelity']}")
    return {"pass": rep["pass"]}


def schedule_job(schedule, seed):
    out = msize.dynamic_simulate(msize.CONFIG_D1, schedule, seed=seed)
    rank = out["rank_to_party"][1]
    require(rank <= 2, f"root-cut rank {rank} above two")
    return rank


# ---------------------------------------------------------------------------
# cli-cold


class CliCold:
    """A fixed script of ``mergekit`` subcommands, each in a fresh
    ``python -m mergekit.cli`` process, on input files the harness writes:
    two example states and one random state under seeded local unitaries,
    a tree with a seeded isometry and state, and a pool schedule.  The
    random state's protocol table is written and read back by ``simulate``.
    The example states exclude ``ex3``: its block dimensions change with the
    local basis (see README.md).
    In the traced run each command goes through ``traced_cli.py`` instead,
    which installs the span wrappers and calls ``mergekit.cli.run``."""

    name = "cli-cold"
    tail_percentile = 50
    in_process = False
    SMALL = ("ex2", "ki-example")
    BIG = "big"     # a random (4, 5, 5) state: a 5.8 MB protocol table
    NET = (3, {2: 1, 3: 2}, (2, 3, 2), 2)

    def __init__(self, seed, reference):
        self.seed = seed
        self.schedules = reference.get("exact-search", {})
        self.traced = False     # set by the traced pass
        self.dir = os.path.join(os.getcwd(), ".bench_out",
                                f"cli-work-{os.getpid()}")
        os.makedirs(self.dir, exist_ok=True)
        self.perm = np.random.default_rng([seed, 1]).permutation(
            ExactSearch.SCHEDULE_POOL)
        self.summaries = []
        self.table_bytes = 0

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)

    def path(self, name):
        return os.path.join(self.dir, name)

    def write_inputs(self, c):
        rng = np.random.default_rng([self.seed, 1, c])
        big = qcore.random_ket((4, 5, 5),
                               np.random.default_rng([POOL_SEED, 1]))
        for name in self.SMALL + (self.BIG,):
            ket = big if name == self.BIG else states.generate_example(name)
            serialize.save_ket(rotate(ket, rng), self.path(f"{name}.json"))
        n, parent, dims, d_log = self.NET
        tree = netcost.RootedTree(n, parent)
        with open(self.path("tree.json"), "w") as f:
            json.dump(serialize.tree_to_dict(tree), f)
        total = int(np.prod(dims))
        g = rng.normal(size=(total, d_log)) + 1j * rng.normal(
            size=(total, d_log))
        q, _ = np.linalg.qr(g)
        with open(self.path("code.json"), "w") as f:
            json.dump([serialize.ket_to_dict(qcore.Ket(q[:, i], dims))
                       for i in range(d_log)], f)
        serialize.save_ket(qcore.random_ket(dims, rng),
                           self.path("net-state.json"))
        p = int(self.perm[c % ExactSearch.SCHEDULE_POOL])
        with open(self.path("schedule.json"), "w") as f:
            json.dump(schedule_to_dict(msize.CONFIG_D1, pool_schedule(p)), f)
        return p

    def script(self, c):
        """(label, reference key, argv) for every command of cycle c."""
        p = self.write_inputs(c)
        P = self.path
        cmds = [("example", "example",
                 ["example", "ghz:3:3", "-o", P("ghz.json")])]
        for name in self.SMALL:
            s = P(f"{name}.json")
            cmds += [(f"ki {name}", f"ki.{name}", ["ki", s]),
                     (f"merge-cost {name}", f"merge-cost.{name}",
                      ["merge-cost", s, "--catalytic"]),
                     (f"split-cost {name}", f"split-cost.{name}",
                      ["split-cost", s, "--simulate"]),
                     (f"converse {name}", f"converse.{name}",
                      ["converse", s])]
        cmds += [
            (f"ki {self.BIG}", f"ki.{self.BIG}",
             ["ki", P(f"{self.BIG}.json")]),
            ("merge-protocol", "merge-protocol",
             ["merge-protocol", P(f"{self.BIG}.json"), "--simulate",
              "--save", P("table.json")]),
            ("simulate", "simulate",
             ["simulate", P("table.json"), P("pair.json")]),
            ("twoway verify", "twoway", ["twoway", "verify"]),
            ("net spread", "net-spread",
             ["net", "spread", P("tree.json"), P("code.json"), "--simulate"]),
            ("net concentrate", "net-concentrate",
             ["net", "concentrate", P("tree.json"), P("code.json")]),
            ("net construct", "net-construct",
             ["net", "construct", P("tree.json"), P("net-state.json")]),
            ("msize scan", "msize-scan", ["msize", "scan"]),
            ("msize prepare", "msize-prepare",
             ["msize", "prepare", "--alpha", "pi/4"]),
            ("msize bound", "msize-bound", ["msize", "bound", "--D", "2"]),
            (f"msize dynamic schedule {p}", "msize-dynamic",
             ["msize", "dynamic", P("schedule.json")]),
        ]
        return p, cmds

    def cycle(self, c):
        p, cmds = self.script(c)
        return [Job(f"{label} cycle {c}", key,
                    lambda a=argv: self.command(a, p))
                for label, key, argv in cmds]

    def warmup(self):
        return Job("example (warm-up)", "example",
                   lambda: self.command(
                       ["example", "ghz:3:3", "-o", self.path("warm.json")],
                       None))

    def reference_jobs(self):
        return self.cycle(REFERENCE_CYCLE)

    def command(self, argv, schedule):
        if self.traced:
            summary = self.path("spans-summary.json")
            spans_dir = os.path.join(os.path.dirname(self.dir),
                                     f"spans-cli-cold-seed{self.seed}")
            os.makedirs(spans_dir, exist_ok=True)
            cmd = [sys.executable, os.path.join(BENCH_DIR, "traced_cli.py"),
                   summary, os.path.join(spans_dir,
                                     f"command-{len(self.summaries)}.jsonl"),
                   "--"] + argv
        else:
            cmd = [sys.executable, "-m", "mergekit.cli"] + argv
        proc = subprocess.run(cmd, capture_output=True, text=True)
        require(proc.returncode == 0,
                f"exit code {proc.returncode}: {proc.stderr.strip()[-300:]}")
        if self.traced:
            with open(summary) as f:
                self.summaries.append(json.load(f))
        report = json.loads(proc.stdout.strip().splitlines()[-1])
        require(all(report["checks"].values()),
                f"failed checks {report['checks']}")
        if argv[0] == "merge-protocol":
            self.after_protocol(report)
        out = cli_outputs(argv[0], report)
        if "root_rank" in out:
            # the library computed the same schedule in exact-search
            want = self.schedules[f"schedule.{schedule}"]["root_rank"]
            rank = out.pop("root_rank")
            require(rank == want, f"root-cut rank {rank}, reference {want}")
        return out

    def after_protocol(self, report):
        """Write the simulate input: the state x a rank-K maximally
        entangled pair, as the saved table's layout needs."""
        k = report["results"]["resource_rank"]
        big = serialize.load_ket(self.path(f"{self.BIG}.json"))
        serialize.save_ket(big.kron(states.max_entangled(k)),
                           self.path("pair.json"))
        self.table_bytes = os.path.getsize(self.path("table.json"))


def schedule_to_dict(config, steps):
    out = []
    for s in steps:
        s = dict(s)
        if s["op"] == "unitary":
            s["matrix"] = [[[z.real, z.imag] for z in row]
                           for row in np.asarray(s["matrix"])]
        out.append(s)
    return {"config": {str(k): v for k, v in config.slots.items()},
            "steps": out}


def cli_outputs(command, report):
    """Certified values of a report: its checks plus the exact numbers
    named for the command; branch and outcome counts are left out."""
    r = report["results"]
    out = {"checks": report["checks"]}
    if command == "example":
        out["dims"] = r["dims"]
    elif command == "ki":
        out["blocks"] = sorted([b[0], b[1]] for b in r["blocks"])
    elif command == "merge-cost":
        out["ranks"] = [r["resource_rank"], r["returned_rank"]]
        out["costs"] = [r["catalytic_cost"], r["non_catalytic_cost"]]
    elif command == "split-cost":
        out["rank"] = r["rank"]
    elif command == "converse":
        out["witness"] = r["witness"]
    elif command == "merge-protocol":
        out["ranks"] = [r["resource_rank"], r["returned_rank"]]
    elif command == "twoway":
        out["one_way_rank"] = r["one_way"]["resource_rank"]
        out["costs"] = [r["one_way"]["cost_ebits"],
                        r["two_way"]["cost_ebits"]]
    elif command == "net":
        out["edge_ranks"] = [[e["edge"], e["rank"]] for e in r["edge_costs"]]
    elif command == "msize":
        for key in ("permutations_with_large_edge", "min_max_local_dim"):
            if key in r:
                out[key] = r[key]
        if "rank_to_party" in r:
            out["root_rank"] = r["rank_to_party"]["1"]
    return out


WORKLOADS = {w.name: w for w in (MergeBatch, ExactSearch, CliCold)}


def load_reference():
    with open(os.path.join(BENCH_DIR, "reference.json")) as f:
        return json.load(f)
