"""Turn the spans of one traced round into per-layer metrics.

Spans come from ``tracehook/sitecustomize.py``.  A span's self time is its
duration minus the part of its interval that its child spans cover.  A metric
whose wrapped function no longer exists in the program is ``None`` (absent);
a metric whose layer the workload does not exercise is 0.
"""

import glob
import json
import os
from collections import defaultdict
from dataclasses import dataclass

RUNS = ("shmhd.run", "pehm.run")
RECORDS = ("shmhd.record", "pehm.record")
MIB = float(1 << 20)

# each per-layer metric, with its unit and the spans it is built from
LAYER_METRICS = {
    "shmhd.step_ms": ("ms", ["shmhd.run"]),
    "pehm.step_ms": ("ms", ["pehm.run"]),
    "shmhd.nonlinear_tendency_ms": ("ms", []),
    "pehm.run_calls": ("count", ["pehm.run"]),
    "spectral.fft_calls_per_shmhd_step": ("count/step", ["shmhd.run"]),
    "spectral.fft_calls_per_pehm_step": ("count/step", ["pehm.run"]),
    "spectral.fft_points_per_shmhd_step": ("points/step", ["shmhd.run"]),
    "spectral.fft_time_share": ("ratio", ["shmhd.run", "pehm.run"]),
    "constraints.leray_ms": ("ms", ["constraints.leray"]),
    "constraints.leray_calls_per_step": ("count/step", ["constraints.leray", "shmhd.run"]),
    "constraints.parity_calls_per_step": ("count/step", ["constraints.parity", "shmhd.run", "pehm.run"]),
    "constraints.barotropic_ms": ("ms", ["constraints.barotropic"]),
    "constraints.hydrostatic_ms": ("ms", ["constraints.hydrostatic"]),
    "diagnostics.difference_metrics_ms": ("ms", ["diagnostics.difference_metrics"]),
    "diagnostics.difference_metrics_calls": ("count", ["diagnostics.difference_metrics"]),
    "diagnostics.dissipation_rate_ms": ("ms", ["diagnostics.dissipation_rate"]),
    "diagnostics.sample_record_ms": ("ms", ["shmhd.record", "pehm.record"]),
    "sweep.run_pair_s": ("s", ["sweep.run_pair"]),
    "sweep.pool_idle_s": ("s", ["sweep.run_sweep", "sweep.run_pair"]),
    "sweep.retained_sample_mb": ("MB", ["sweep.run_pair", "shmhd.run", "pehm.run"]),
    "sweep.emit_report_ms": ("ms", ["sweep.emit_report"]),
    "sweep.initial_states_ms": ("ms", ["sweep.initial_states"]),
    "shmhd.run_self_share": ("ratio", ["shmhd.run"]),
    "pehm.run_self_share": ("ratio", ["pehm.run"]),
    "cli.import_s": ("s", []),
    "trace.overhead_share": ("ratio", []),
}


@dataclass
class Span:
    sid: int
    parent: int | None
    name: str
    t0: int
    t1: int
    pid: int
    extra: int | None

    @property
    def dur(self) -> float:
        return (self.t1 - self.t0) * 1e-9


def load_spans(trace_dir: str) -> tuple[dict, set]:
    spans = {}
    for path in glob.glob(os.path.join(trace_dir, "spans-*.jsonl")):
        with open(path) as fh:
            for line in fh:
                if line.strip():
                    s = Span(*json.loads(line))
                    spans[s.sid] = s
    absent = set()
    for path in glob.glob(os.path.join(trace_dir, "absent-*.json")):
        with open(path) as fh:
            absent.update(json.load(fh))
    return spans, absent


def self_times(spans: dict) -> dict:
    """Self time of every span: duration minus the union of its children's
    intervals, clipped to its own (children in pool workers may overlap)."""
    children = defaultdict(list)
    for s in spans.values():
        if s.parent in spans:
            children[s.parent].append((s.t0, s.t1))
    out = {}
    for sid, s in spans.items():
        covered = 0
        end = s.t0
        for a, b in sorted(children.get(sid, ())):
            a, b = max(a, end), min(b, s.t1)
            if b > a:
                covered += b - a
                end = b
        out[sid] = (s.t1 - s.t0 - covered) * 1e-9
    return out


def span_table(spans: dict, selfs: dict) -> dict:
    """Per span name: calls, total and self seconds."""
    table = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for sid, s in spans.items():
        row = table[s.name]
        row["calls"] += 1
        row["total_s"] += s.dur
        row["self_s"] += selfs[sid]
    return dict(sorted(table.items(), key=lambda kv: -kv[1]["total_s"]))


def _context(spans: dict) -> dict:
    """For each span: the nearest enclosing solver run (or None) and whether a
    per-sample record span lies between it and that run."""
    memo: dict = {}

    def ctx(sid):
        if sid not in memo:
            parent = spans[sid].parent
            if parent not in spans:
                memo[sid] = (None, False)
            elif spans[parent].name in RUNS:
                memo[sid] = (spans[parent].name, False)
            else:
                run, in_record = ctx(parent)
                memo[sid] = (run, in_record or spans[parent].name in RECORDS)
        return memo[sid]

    for sid in spans:
        ctx(sid)
    return memo


def layer_metrics(spans: dict, absent: set, steps: int, jobs: int) -> dict:
    """Per-layer metrics of one traced round; ``steps`` is the step count of
    every solver run in it and ``jobs`` the sweep's worker count."""
    selfs = self_times(spans)
    ctx = _context(spans)
    by_name = defaultdict(list)
    for s in spans.values():
        by_name[s.name].append(s)

    def total(name):
        return sum(s.dur for s in by_name[name])

    def mean_ms(*names):
        group = [s for n in names for s in by_name[n]]
        return 1e3 * sum(s.dur for s in group) / len(group) if group else 0.0

    def per(x, n):
        return x / n if n else 0.0

    steps_s = steps * len(by_name["shmhd.run"])
    steps_p = steps * len(by_name["pehm.run"])
    ffts = [s for s in spans.values() if s.name.startswith("numpy.fft.")]
    fft_s = [s for s in ffts if ctx[s.sid][0] == "shmhd.run"]
    fft_p = [s for s in ffts if ctx[s.sid][0] == "pehm.run"]

    def stepping(name, runs):
        return sum(1 for s in by_name[name] if ctx[s.sid][0] in runs and not ctx[s.sid][1])

    retained = [0]
    for pair in by_name["sweep.run_pair"]:
        retained.append(sum(s.extra or 0 for n in RUNS for s in by_name[n] if s.parent == pair.sid))

    def self_share(name):
        return per(sum(selfs[s.sid] for s in by_name[name]), total(name))

    values = {
        "shmhd.step_ms": 1e3 * per(total("shmhd.run"), steps_s),
        "pehm.step_ms": 1e3 * per(total("pehm.run"), steps_p),
        "pehm.run_calls": len(by_name["pehm.run"]),
        "spectral.fft_calls_per_shmhd_step": per(len(fft_s), steps_s),
        "spectral.fft_calls_per_pehm_step": per(len(fft_p), steps_p),
        "spectral.fft_points_per_shmhd_step": per(sum(s.extra or 0 for s in fft_s), steps_s),
        "spectral.fft_time_share": per(sum(s.dur for s in fft_s + fft_p),
                                       total("shmhd.run") + total("pehm.run")),
        "constraints.leray_ms": mean_ms("constraints.leray"),
        "constraints.leray_calls_per_step": per(stepping("constraints.leray", ("shmhd.run",)), steps_s),
        "constraints.parity_calls_per_step": per(stepping("constraints.parity", RUNS), steps_s + steps_p),
        "constraints.barotropic_ms": mean_ms("constraints.barotropic"),
        "constraints.hydrostatic_ms": mean_ms("constraints.hydrostatic"),
        "diagnostics.difference_metrics_ms": mean_ms("diagnostics.difference_metrics"),
        "diagnostics.difference_metrics_calls": len(by_name["diagnostics.difference_metrics"]),
        "diagnostics.dissipation_rate_ms": mean_ms("diagnostics.dissipation_rate"),
        "diagnostics.sample_record_ms": mean_ms(*RECORDS),
        "sweep.run_pair_s": 1e-3 * mean_ms("sweep.run_pair"),
        "sweep.pool_idle_s": (jobs * total("sweep.run_sweep") - total("sweep.run_pair"))
        if by_name["sweep.run_sweep"] else 0.0,
        "sweep.retained_sample_mb": max(retained) / MIB,
        "sweep.emit_report_ms": 1e3 * total("sweep.emit_report"),
        "sweep.initial_states_ms": mean_ms("sweep.initial_states"),
        "shmhd.run_self_share": self_share("shmhd.run"),
        "pehm.run_self_share": self_share("pehm.run"),
    }
    for metric, (_, needs) in LAYER_METRICS.items():
        if metric in values and any(n in absent for n in needs):
            values[metric] = None
    return values
