#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the hydrolimit eps-ladder study.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload ladder-32 --seed 1 --seconds 36 --trace 0

Each round runs one workload through the program's own entry points in a
fresh process tree: ``python -m hydrolimit.cli sweep`` for the ladders, and
``perfbench/ledger_child.py`` (``shmhd.run`` / ``pehm.run``) for the energy
audit.  Every round's outputs are checked by ``checks.py`` before the next
round starts; a failed check stops the run with exit code 1 and names the
violated property.  A run repeats whole rounds while one more round still
ends within ``--seconds``.

--trace 0 prints the end-to-end metrics: medians over rounds of wall time,
CPU time and peak RSS of the round's process tree (``os.wait4`` on the
round's child), and the median set-up time over fresh processes.
--trace 1 alternates untraced and traced rounds and prints the per-layer
metrics of the traced ones (see trace_layers.py), plus the tracing overhead.

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import sys
import threading
import time
from dataclasses import asdict, dataclass

import numpy as np

import checks
import trace_layers

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_REPS = 7
HARD_LIMIT_S = 165.0  # the whole run, set-up and probes included, ends before this


@dataclass(frozen=True)
class Workload:
    kind: str                 # "sweep" (the CLI) or "ledger" (the energy audit)
    n: int                    # modes per axis
    alpha: float
    ladder: tuple
    dt: float
    steps: int
    sample_every: int
    jobs: int

    @property
    def t_end(self) -> float:
        return self.steps * self.dt

    @property
    def samples_per_run(self) -> int:
        return 1 + math.ceil(self.steps / self.sample_every)

    @property
    def ops_per_round(self) -> int:
        # ladder cells, or solver runs of the audit
        return len(self.ladder) if self.kind == "sweep" else 4


LADDER = (0.2, 0.1, 0.05, 0.025)
# why each workload exists: BENCHMARK.json and README.md
WORKLOADS = {
    "ladder-32": Workload("sweep", 32, 4.0, LADDER, 0.002, 10, 10, 1),
    "ladder-64-jobs2": Workload("sweep", 64, 3.0, LADDER, 0.002, 2, 1, 2),
    "ledger-32": Workload("ledger", 32, 3.0, (0.1,), 0.001, 20, 2, 1),
}


def config_text(wl: Workload, seed: int) -> str:
    lines = [f"n1 = {wl.n}", f"n2 = {wl.n}", f"n3 = {wl.n}", f"alpha = {wl.alpha!r}"]
    lines += [f"eps = {e!r}" for e in wl.ladder]
    lines += [f"dt = {wl.dt!r}", f"t_end = {wl.t_end!r}", f"seed = {seed}",
              f"sample_every = {wl.sample_every}", "mode = l2"]
    return "\n".join(lines) + "\n"


class BenchError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# child processes

@dataclass
class Usage:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float


def spawn(argv, env, log_prefix, timeout_s) -> Usage:
    """Run argv in its own session; return wall time and the rusage of its
    whole process tree from os.wait4.  Kills the session on timeout."""
    if timeout_s <= 0:
        raise BenchError(f"no time left to start {argv[1:3]}")
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 1, log_prefix + ".out", flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, log_prefix + ".err", flags, 0o644)]
    t0 = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, env, file_actions=actions, setsid=True)
    killed = threading.Event()

    def kill():
        killed.set()
        try:
            os.killpg(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    timer = threading.Timer(timeout_s, kill)
    timer.start()
    try:
        _, status, ru = os.wait4(pid, 0)
    except BaseException:
        kill()
        os.wait4(pid, 0)
        raise
    finally:
        timer.cancel()
    wall = time.perf_counter() - t0
    # pool workers are in the child's session; none may outlive it
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    code = os.waitstatus_to_exitcode(status)
    if killed.is_set() or code != 0:
        with open(log_prefix + ".err") as fh:
            tail = fh.read()[-2000:]
        why = f"timed out after {timeout_s:.0f} s" if killed.is_set() else f"exit code {code}"
        raise BenchError(f"{' '.join(argv[1:4])} ... {why}\n{tail}")
    return Usage(wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0)


def child_env(root: str, traced: bool, trace_dir: str | None = None) -> dict:
    env = dict(os.environ)
    paths = [os.path.join(root, "src")]
    if traced:
        paths = [os.path.join(HERE, "tracehook"), HERE] + paths
        env["PERFBENCH_TRACE_DIR"] = trace_dir
    else:
        env.pop("PERFBENCH_TRACE_DIR", None)
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


# ---------------------------------------------------------------------------
# rounds

class Bench:
    def __init__(self, root: str, wl: Workload, seed: int, work: str, deadline: float):
        self.root = root
        self.wl = wl
        self.work = work
        self.deadline = deadline
        self.config = os.path.join(work, "bench.cfg")
        self.rounds = 0
        with open(self.config, "w") as fh:
            fh.write(config_text(wl, seed))

    def remaining(self) -> float:
        return self.deadline - time.monotonic()

    def setup_time(self) -> float:
        """Median wall time of fresh processes that import the package, parse
        the config and build the seeded initial states (after one warm-up
        that fills the bytecode cache)."""
        code = ("import sys, hydrolimit.cli\n"
                "from hydrolimit.sweep import initial_states, load_config\n"
                "initial_states(load_config(sys.argv[1]))\n")
        argv = [sys.executable, "-c", code, self.config]
        env = child_env(self.root, False)
        log = os.path.join(self.work, "setup")
        spawn(argv, env, log, self.remaining())
        return statistics.median(spawn(argv, env, log, self.remaining()).wall_s
                                 for _ in range(SETUP_REPS))

    def probe(self) -> dict:
        log = os.path.join(self.work, "probe")
        spawn([sys.executable, os.path.join(HERE, "probe.py"), self.config],
              child_env(self.root, False), log, self.remaining())
        with open(log + ".out") as fh:
            out = json.loads(fh.read().strip().splitlines()[-1])
        if out["failed"]:
            prop, _, detail = out["failed"].partition(": ")
            raise checks.CheckFailed(prop, detail)
        return out

    def round(self, traced: bool) -> tuple[Usage, dict, str]:
        """One round; returns its usage, the properties it checked, and the
        trace directory when traced."""
        self.rounds += 1
        rdir = os.path.join(self.work, f"round-{self.rounds}")
        report = os.path.join(rdir, "report")
        trace_dir = os.path.join(rdir, "spans")
        os.makedirs(trace_dir)
        env = child_env(self.root, traced, trace_dir)
        if self.wl.kind == "sweep":
            argv = [sys.executable, "-m", "hydrolimit.cli", "sweep", "--config", self.config,
                    "--out", report, "--jobs", str(self.wl.jobs)]
        else:
            argv = [sys.executable, os.path.join(HERE, "ledger_child.py"), self.config, report]
        usage = spawn(argv, env, os.path.join(rdir, "child"), self.remaining())
        facts = self.check_sweep(report) if self.wl.kind == "sweep" else self.check_ledger(report)
        return usage, facts, trace_dir

    def check_sweep(self, report: str) -> dict:
        wl = self.wl

        def read(name):
            with open(os.path.join(report, name)) as fh:
                return fh.read()

        slope = checks.check_sweep(read("sweep.csv"), read("summary.txt"), wl.ladder, wl.alpha)
        checks.check_runs(read("runs.csv"), len(wl.ladder), wl.samples_per_run)
        return {"slope": slope}

    def check_ledger(self, report: str) -> dict:
        wl = self.wl
        eps = wl.ladder[0]
        with open(os.path.join(report, "records.json")) as fh:
            runs = json.load(fh)["runs"]
        if len(runs) != 4:
            raise checks.CheckFailed("runs_complete", f"{len(runs)} audit runs, expected 4")
        facts = {}
        for r in runs:
            label = f"{r['system']}/{'advect' if r['advect'] else 'linear'}"
            recs = r["records"]
            if len(recs) != wl.samples_per_run:
                raise checks.CheckFailed("runs_complete",
                                         f"{label}: {len(recs)} samples, expected {wl.samples_per_run}")
            checks.check_defects(recs, label)
            facts[label] = checks.check_ledger(recs, label)
            if r["advect"]:
                continue
            checks.check_linear_ledger(recs, label)
            weight = eps ** (wl.alpha - 2.0) if r["system"] == "shmhd" else 0.0
            with np.load(os.path.join(report, f"linear_{r['system']}.npz")) as z:
                t = float(z["t"])
                arrays = [z[f"arr_{i}"] for i in range(len(z.files) - 1)]
            if abs(t - wl.t_end) > 1e-9:
                raise checks.CheckFailed("final_time", f"{label}: ends at t={t!r}, expected {wl.t_end!r}")
            half = len(arrays) // 2
            facts[label + "/decay"] = checks.check_linear_decay(
                arrays[:half], arrays[half:], t, wl.dt, wl.n, 2.0 * math.pi, 2.0 * math.pi, weight, label)
        return facts


# ---------------------------------------------------------------------------
# reporting

def machine_facts() -> dict:
    def sysconf(name, glibc_id):
        # Python exposes no names for the cache-size queries; the numbers are
        # glibc's _SC_LEVEL1_DCACHE_SIZE, _SC_LEVEL2_CACHE_SIZE and
        # _SC_LEVEL3_CACHE_SIZE (sizes per core for L1 and L2)
        try:
            value = os.sysconf(os.sysconf_names.get(name, glibc_id))
        except (ValueError, OSError):
            return None
        return value if value > 0 else None

    import numpy.fft

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "fft_backend": "pocketfft" if hasattr(numpy.fft, "_pocketfft") else numpy.fft.fftn.__module__,
        "l1d_bytes": sysconf("SC_LEVEL1_DCACHE_SIZE", 188),
        "l2_bytes": sysconf("SC_LEVEL2_CACHE_SIZE", 191),
        "l3_bytes": sysconf("SC_LEVEL3_CACHE_SIZE", 194),
    }


def fits(stop: float, walls: list, bench: Bench) -> bool:
    """Whether one more round, as long as the longest so far, ends before
    stop and well before the hard limit.  Runs measure whole rounds only."""
    longest = max(walls)
    return time.monotonic() + longest <= stop and bench.remaining() > 1.5 * longest


def run_untraced(bench: Bench, seconds: float) -> tuple[dict, int]:
    setup = bench.setup_time()
    print(f"setup: median {setup:.4f} s over {SETUP_REPS} fresh processes")
    usages = []
    stop = time.monotonic() + seconds
    while not usages or fits(stop, [u.wall_s for u in usages], bench):
        usage, facts, _ = bench.round(False)
        usages.append(usage)
        print(f"round {len(usages)}: wall {usage.wall_s:.4f} s  cpu {usage.cpu_s:.4f} s  "
              f"peak_rss {usage.peak_rss_mb:.1f} MB  checks ok {json.dumps(facts)}")
    return {
        "wall_s": (statistics.median(u.wall_s for u in usages), "s"),
        "cpu_s": (statistics.median(u.cpu_s for u in usages), "s"),
        "peak_rss_mb": (statistics.median(u.peak_rss_mb for u in usages), "MB"),
        "setup_s": (setup, "s"),
    }, len(usages)


def run_traced(bench: Bench, seconds: float, table_path: str) -> tuple[dict, int]:
    wl = bench.wl
    probe = bench.probe()
    for name in probe["absent"]:
        print(f"absent: {name}")
    print(f"probe: {json.dumps(probe)}")
    plain, traced, layers = [], [], []
    table = None
    stop = time.monotonic() + seconds
    while not traced or fits(stop, [u.wall_s for u in plain + traced], bench):
        is_traced = len(plain) > len(traced)
        usage, facts, trace_dir = bench.round(is_traced)
        print(f"round {len(plain) + len(traced) + 1} ({'traced' if is_traced else 'untraced'}): "
              f"wall {usage.wall_s:.4f} s  checks ok {json.dumps(facts)}")
        if not is_traced:
            plain.append(usage)
            continue
        traced.append(usage)
        spans, absent = trace_layers.load_spans(trace_dir)
        for name in sorted(absent):
            print(f"absent: {name}")
        layers.append(trace_layers.layer_metrics(spans, absent, wl.steps, wl.jobs))
        table = trace_layers.span_table(spans, trace_layers.self_times(spans))
    print("spans of the last traced round (calls, total s, self s):")
    for name, row in table.items():
        print(f"  {name:34s} {row['calls']:7d} {row['total_s']:10.4f} {row['self_s']:10.4f}")
    with open(table_path, "w") as fh:
        json.dump({"workload": asdict(bench.wl), "spans": table, "layers": layers, "probe": probe}, fh, indent=1)

    def med(key):
        vals = [m[key] for m in layers]
        return None if any(v is None for v in vals) else statistics.median(vals)

    values = {key: med(key) for key in layers[0]}
    values["shmhd.nonlinear_tendency_ms"] = probe["shmhd.nonlinear_tendency_ms"]
    values["cli.import_s"] = probe["cli.import_s"]
    values["trace.overhead_share"] = (statistics.median(u.wall_s for u in traced)
                                      / statistics.median(u.wall_s for u in plain) - 1.0)
    metrics = {k: (values[k], unit) for k, (unit, _) in trace_layers.LAYER_METRICS.items()}
    return metrics, len(plain) + len(traced)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    start = time.monotonic()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "hydrolimit", "cli.py")):
        print("error: run from the root of a hydrolimit checkout (src/hydrolimit/cli.py not found)",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    runs_dir = os.path.join(root, ".perfbench_runs")
    work = os.path.join(runs_dir, f"{args.workload}-{os.getpid()}")
    os.makedirs(work)
    bench = Bench(root, wl, args.seed, work, start + HARD_LIMIT_S)
    print(f"workload {args.workload}: {json.dumps(asdict(wl))} seed {args.seed}")
    print(f"machine: {json.dumps(machine_facts())}")
    try:
        if args.trace:
            metrics, rounds = run_traced(bench, args.seconds,
                                         os.path.join(runs_dir, f"{args.workload}.trace.json"))
        else:
            metrics, rounds = run_untraced(bench, args.seconds)
    except checks.CheckFailed as e:
        print(f"check failed: {e}", file=sys.stderr)
        return 1
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for name, (value, unit) in metrics.items():
        shown = "absent" if value is None else f"{value:.6g}"
        print(f"{name:40s} {shown:>14s} {unit}")
    print(json.dumps({"correct": True, "attempted": rounds * wl.ops_per_round, "failed": 0,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
