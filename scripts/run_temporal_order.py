#!/usr/bin/env python3
"""dt-refinement study against the manufactured linear solution.

The field (0, sin(2*pi*x), 0) with l1 = l2 = 1 is an exact solution of both
linearized systems and decays as exp(-4*pi^2*t); halving dt three times and
comparing against it reports the observed temporal order of each solver.

Usage:
    python scripts/run_temporal_order.py [--dt0 DT] [--t-end T]
"""

import argparse
import math
import sys

import numpy as np

from hydrolimit.grid import GridSpec
from hydrolimit.integrator import Sample
from hydrolimit.pehm import PehmState
from hydrolimit.pehm import run as pehm_run
from hydrolimit.shmhd import ElsasserState, ShmhdParams
from hydrolimit.shmhd import run as shmhd_run
from hydrolimit.spectral import band_from_physical, l2_norm


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dt0", type=float, default=4e-3)
    parser.add_argument("--t-end", type=float, default=0.02)
    args = parser.parse_args()
    if not args.t_end > 0:  # at t = 0 every error is 0 and no order exists
        raise ValueError(f"--t-end: must be positive, got {args.t_end}")

    grid = GridSpec(8, 8, 8, 1.0, 1.0)
    x = np.arange(grid.n1).reshape(-1, 1, 1) * grid.dx
    f = band_from_physical(grid, np.sin(2 * np.pi * x) * np.ones(grid.shape))
    zero = np.zeros_like(f)
    exact = math.exp(-4 * np.pi**2 * args.t_end)

    def shmhd_error(dt):
        s = Sample(ElsasserState, grid, 0.0, [zero, f, zero, zero, f, zero], None)
        p = ShmhdParams(eps=0.1, alpha=3.0, dt=dt, t_end=args.t_end, advect=False)
        final = shmhd_run(s, p, sample_every=10**6)[-1].blocks[1]  # a_h2
        return l2_norm(grid, final - exact * f)

    def pehm_error(dt):
        s = Sample(PehmState, grid, 0.0, [zero, f, zero, f], None)
        final = pehm_run(s, dt, args.t_end, sample_every=10**6, advect=False)[-1].blocks[1]  # a_h2
        return l2_norm(grid, final - exact * f)

    dts = [args.dt0, args.dt0 / 2, args.dt0 / 4]
    for name, err in (("shmhd", shmhd_error), ("pehm", pehm_error)):
        errors = [err(dt) for dt in dts]
        orders = [math.log2(errors[i] / errors[i + 1]) for i in range(len(errors) - 1)]
        cols = "  ".join(f"{e:.3e}" for e in errors)
        print(f"{name}: errors {cols}  orders " + "  ".join(f"{o:.2f}" for o in orders))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except ValueError as e:  # bad input, a config error included: one line, exit 2 as in the CLI
        print(f"error: {e}", file=sys.stderr)
        sys.exit(2)
