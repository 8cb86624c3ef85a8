#!/usr/bin/env python3
"""Audit the energy accounting of both solvers on the seed-7 reference run.

Prints the worst ledger residual for the full and the linearized (advection
off) configurations of each system.

Usage:
    python scripts/run_energy_audit.py [--steps N] [--dt DT]
"""

import argparse
import sys
import time

from hydrolimit.diagnostics import energy_ledger
from hydrolimit.pehm import run as pehm_run
from hydrolimit.shmhd import ShmhdParams
from hydrolimit.shmhd import run as shmhd_run
from hydrolimit.sweep import SweepConfig, initial_samples


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--steps", type=int, default=500)
    parser.add_argument("--dt", type=float, default=1e-3)
    parser.add_argument("--eps", type=float, default=0.1)
    parser.add_argument("--alpha", type=float, default=3.0)
    args = parser.parse_args()

    t_end = args.steps * args.dt
    cfg = SweepConfig(alpha=args.alpha, dt=args.dt, t_end=t_end)
    s_eps0, s_lim0 = initial_samples(cfg)

    for label, advect in (("full", True), ("linearized", False)):
        t0 = time.perf_counter()
        params = ShmhdParams(
            eps=args.eps, alpha=args.alpha, dt=args.dt, t_end=t_end, advect=advect
        )
        traj = shmhd_run(s_eps0, params, sample_every=max(1, args.steps // 10))
        report = energy_ledger([s.record for s in traj])
        worst = max(abs(r) for r in report.residuals)
        print(f"shmhd {label:>10}: {'PASS' if report.passed else 'FAIL'} "
              f"worst residual {worst:.3e}  ({time.perf_counter() - t0:.1f}s)")

    for label, advect in (("full", True), ("linearized", False)):
        t0 = time.perf_counter()
        traj = pehm_run(
            s_lim0, args.dt, t_end, sample_every=max(1, args.steps // 10), advect=advect
        )
        report = energy_ledger([s.record for s in traj])
        worst = max(abs(r) for r in report.residuals)
        print(f"pehm  {label:>10}: {'PASS' if report.passed else 'FAIL'} "
              f"worst residual {worst:.3e}  ({time.perf_counter() - t0:.1f}s)")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except ValueError as e:  # bad input, a config error included: one line, exit 2 as in the CLI
        print(f"error: {e}", file=sys.stderr)
        sys.exit(2)
