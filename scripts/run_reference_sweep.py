#!/usr/bin/env python3
"""Run the reference aspect-ratio convergence study of
configs/reference_alpha{3,4}.cfg and write its report.

Usage:
    python scripts/run_reference_sweep.py [--alpha {3,4}] [--jobs N] [--out DIR] [--mode {l2,h1}]
"""

import argparse
import dataclasses
import pathlib
import sys

from hydrolimit.sweep import emit_report, load_config, run_sweep

CONFIG_DIR = pathlib.Path(__file__).resolve().parent.parent / "configs"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--alpha", type=float, default=4.0, choices=[3.0, 4.0])
    parser.add_argument("--jobs", type=int, default=4)
    parser.add_argument("--out", default="out/reference")
    parser.add_argument("--mode", choices=["l2", "h1"], default=None, help="override config mode")
    args = parser.parse_args()

    cfg = load_config(CONFIG_DIR / f"reference_alpha{args.alpha:g}.cfg")
    if args.mode is not None:
        cfg = dataclasses.replace(cfg, mode=args.mode)
        cfg.validate()
    result = run_sweep(cfg, jobs=args.jobs)
    emit_report(result, args.out)
    fit = result.fit
    print(f"alpha={args.alpha:g} mode={cfg.mode}: fitted slope {fit.slope:.4f} "
          f"(predicted {fit.gamma_half_predicted:g}), r^2 {fit.r_squared:.4f}")
    print(f"report written to {args.out}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
