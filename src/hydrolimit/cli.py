"""Command-line entry points: simulate, sweep, verify."""

import argparse
import os
import sys

from .constraints import SpectrumParams
from .shmhd import BlowUpError, ShmhdParams
from .shmhd import run as shmhd_run
from .pehm import run as pehm_run
from .sweep import (
    ConfigError,
    SweepConfig,
    check_out_dir,
    emit_report,
    initial_states,
    load_config,
    record_row,
    run_sweep,
    runs_csv_text,
    write_text_atomic,
)
from .verify import run_battery

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_BLOWUP = 3


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", required=True, help="path to a key = value config file")
    p.add_argument("--out", default="out", help="output directory")
    p.add_argument("--mode", choices=["l2", "h1"], default=None, help="override config mode")


def _load(args) -> SweepConfig:
    cfg = load_config(args.config)
    if args.mode is not None:
        cfg = SweepConfig(**{**cfg.__dict__, "mode": args.mode})
        cfg.validate()
    return cfg


def cmd_simulate(args) -> int:
    cfg = _load(args)
    eps = args.eps if args.eps is not None else cfg.eps_ladder[0]
    s_eps0, s_lim0 = initial_states(cfg)
    check_out_dir(args.out)

    def record_only(state, record):
        return record

    try:
        if args.system == "shmhd":
            params = ShmhdParams(eps=eps, alpha=cfg.alpha, dt=cfg.dt, t_end=cfg.t_end)
            records = shmhd_run(s_eps0, params, cfg.sample_every, sample=record_only)
        else:
            records = pehm_run(s_lim0, cfg.dt, cfg.t_end, cfg.sample_every, sample=record_only)
    except BlowUpError as e:
        print(f"solver blow-up at step {e.step_index}: {e}", file=sys.stderr)
        return EXIT_BLOWUP
    rows = [record_row(cfg, args.system, eps, r) for r in records]
    write_text_atomic(os.path.join(args.out, "runs.csv"), runs_csv_text(rows))
    print(f"{args.system} run complete: {len(records)} samples, final t={records[-1].t:g}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg = _load(args)
    check_out_dir(args.out)
    result = run_sweep(cfg, jobs=args.jobs)
    emit_report(result, args.out)
    if result.fit is not None:
        print(f"fitted slope {result.fit.slope:.4f} "
              f"(predicted {result.fit.gamma_half_predicted:g}), "
              f"r^2 {result.fit.r_squared:.4f}")
    else:
        print("no rate fit (fewer than 2 successful cells); partial report emitted")
    return EXIT_OK


def cmd_verify(args) -> int:
    cfg = _load(args)
    if args.states < 1:
        raise ValueError(f"--states: must be >= 1, got {args.states}")
    seeds = range(cfg.seed, cfg.seed + args.states)
    results = run_battery(cfg.grid, seeds, SpectrumParams(cfg.amplitude, cfg.m0))
    ok = True
    for r in results:
        verdict = "PASS" if r.passed else "FAIL"
        print(f"{verdict} {r.name}: worst {r.worst:.3e} (tol {r.tol:.0e})")
        ok = ok and r.passed
    return EXIT_OK if ok else EXIT_VALIDATION


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="hydrolimit",
        description="Pseudo-spectral thin-domain MHD / hydrostatic-limit convergence suite",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run a single system at a single eps")
    _add_common(p_sim)
    p_sim.add_argument("--system", choices=["shmhd", "pehm"], default="shmhd")
    p_sim.add_argument("--eps", type=float, default=None, help="aspect ratio (default: first ladder value)")
    p_sim.set_defaults(func=cmd_simulate)

    p_sweep = sub.add_parser("sweep", help="run the eps-ladder convergence-rate study")
    _add_common(p_sweep)
    p_sweep.add_argument("--jobs", type=int, default=1, help="parallel workers for sweep cells")
    p_sweep.set_defaults(func=cmd_sweep)

    p_verify = sub.add_parser("verify", help="constraint + invariant battery on seeded fixtures")
    _add_common(p_verify)
    p_verify.add_argument("--states", type=int, default=20, help="number of seeded states")
    p_verify.set_defaults(func=cmd_verify)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
