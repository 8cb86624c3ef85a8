"""Span tracer for the traced benchmark run.

Python imports ``sitecustomize`` at start-up from the first directory on
``sys.path`` that holds one, so putting this directory on ``PYTHONPATH``
traces every interpreter of the run, the CLI and its pool workers alike,
whatever their start method.  With ``PERFBENCH_TRACE_DIR`` unset it does
nothing.

It wraps, from outside, the public functions of each ``hydrolimit`` module and
every ``numpy.fft`` transform, before any program code runs, and rebinds each
wrapped name in every ``hydrolimit`` module that imported it.  Each call
records one span: (id, parent id, name, start ns, end ns, pid, extra), where
extra is the transform size in points for an FFT and the bytes of complex
arrays a solver ``run`` returns.  Spans stay in memory and are appended to
``spans-<pid>.jsonl`` when a span that is a root in its process ends, and at
exit.  The span name of a target that no longer exists is listed in
``absent-<pid>.json`` and the run goes on.
"""

import atexit
import functools
import importlib
import itertools
import json
import os
import sys
import time

TARGETS = [
    # (module, attribute, span name)
    ("hydrolimit.sweep", "load_config", "sweep.load_config"),
    ("hydrolimit.sweep", "initial_states", "sweep.initial_states"),
    ("hydrolimit.sweep", "run_sweep", "sweep.run_sweep"),
    ("hydrolimit.sweep", "run_pair", "sweep.run_pair"),
    ("hydrolimit.sweep", "fit_rate", "sweep.fit_rate"),
    ("hydrolimit.sweep", "emit_report", "sweep.emit_report"),
    ("hydrolimit.shmhd", "run", "shmhd.run"),
    ("hydrolimit.shmhd", "nonlinear_tendency", "shmhd.nonlinear_tendency"),
    ("hydrolimit.shmhd", "_record", "shmhd.record"),
    ("hydrolimit.pehm", "run", "pehm.run"),
    ("hydrolimit.pehm", "_record", "pehm.record"),
    ("hydrolimit.constraints", "anisotropic_leray_project", "constraints.leray"),
    ("hydrolimit.constraints", "parity_project", "constraints.parity"),
    ("hydrolimit.constraints", "barotropic_project", "constraints.barotropic"),
    ("hydrolimit.constraints", "hydrostatic_reconstruct", "constraints.hydrostatic"),
    ("hydrolimit.diagnostics", "difference_metrics", "diagnostics.difference_metrics"),
    ("hydrolimit.diagnostics", "shmhd_dissipation_rate", "diagnostics.dissipation_rate"),
    ("hydrolimit.diagnostics", "pehm_dissipation_rate", "diagnostics.dissipation_rate"),
    ("hydrolimit.diagnostics", "energy_ledger", "diagnostics.energy_ledger"),
]
FFT_NAMES = ["fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
             "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn", "hfft", "ihfft"]
RUN_SPANS = {"shmhd.run", "pehm.run"}


class Tracer:
    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.pid = os.getpid()
        self.ids = itertools.count(1)
        self.stack: list[int] = []
        self.spans: list = []

    def after_fork(self) -> None:
        # the child keeps the stack, so its first spans name their parent in
        # the forking process, and drops the parent's unwritten spans
        self.pid = os.getpid()
        self.ids = itertools.count(1)
        self.spans = []

    def flush(self) -> None:
        if not self.spans:
            return
        path = os.path.join(self.out_dir, f"spans-{self.pid}.jsonl")
        with open(path, "a") as fh:
            fh.write("\n".join(json.dumps(s) for s in self.spans) + "\n")
        self.spans = []

    def wrap(self, fn, name: str, extra=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = (self.pid << 24) | next(self.ids)
            parent = self.stack[-1] if self.stack else None
            self.stack.append(sid)
            t0 = time.perf_counter_ns()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = time.perf_counter_ns()
                self.stack.pop()
                x = extra(args, result) if extra is not None and result is not None else None
                self.spans.append((sid, parent, name, t0, t1, self.pid, x))
                if parent is None or (parent >> 24) != self.pid:
                    self.flush()
        return traced


def _fft_points(args, result) -> int:
    size = getattr(args[0], "size", 0) if args else 0
    return int(max(size, getattr(result, "size", 0)))


def _retained_bytes(args, result) -> int:
    from statewalk import complex_arrays

    return int(sum(a.nbytes for a in complex_arrays(result)))


def install(out_dir: str) -> None:
    import numpy.fft

    tracer = Tracer(out_dir)
    os.register_at_fork(after_in_child=tracer.after_fork)
    atexit.register(tracer.flush)
    for name in FFT_NAMES:
        fn = getattr(numpy.fft, name, None)
        if fn is not None:
            setattr(numpy.fft, name, tracer.wrap(fn, f"numpy.fft.{name}", _fft_points))

    import hydrolimit  # noqa: F401  (loads every module but the CLI)

    absent = []
    replaced = {}
    for mod_name, attr, span in TARGETS:
        try:
            fn = getattr(importlib.import_module(mod_name), attr, None)
        except ImportError:
            fn = None
        if fn is None:
            absent.append(span)
            continue
        extra = _retained_bytes if span in RUN_SPANS else None
        replaced[id(fn)] = tracer.wrap(fn, span, extra)
    # rebind every module-level reference, so `from .x import f` call sites
    # in other modules reach the wrapper too
    for mod_name, mod in list(sys.modules.items()):
        if mod_name != "hydrolimit" and not mod_name.startswith("hydrolimit."):
            continue
        for key, val in list(vars(mod).items()):
            if id(val) in replaced:
                setattr(mod, key, replaced[id(val)])
    with open(os.path.join(out_dir, f"absent-{os.getpid()}.json"), "w") as fh:
        json.dump(absent, fh)


if os.environ.get("PERFBENCH_TRACE_DIR"):
    install(os.environ["PERFBENCH_TRACE_DIR"])
