"""The energy audit of scripts/run_energy_audit.py at one eps, as one
benchmark round: SHMHD and PEHM, each with advection on and off, from the
seeded initial states of a config file.

Writes to OUT:
  records.json   per run: system, advect flag and the sampled diagnostics
  linear_<system>.npz   initial and final coefficient arrays of the linear run

Usage (with src/ on PYTHONPATH): python perfbench/ledger_child.py CONFIG OUT
"""

import json
import os
import sys

import numpy as np

from hydrolimit.pehm import run as pehm_run
from hydrolimit.shmhd import ShmhdParams
from hydrolimit.shmhd import run as shmhd_run
from hydrolimit.sweep import initial_states, load_config
from statewalk import complex_arrays

RECORD_KEYS = ("t", "e_l2", "dissipation_accum", "parity_defect", "div_defect")


def main(config: str, out: str) -> int:
    cfg = load_config(config)
    eps = cfg.eps_ladder[0]
    s_eps0, s_lim0 = initial_states(cfg)
    os.makedirs(out, exist_ok=True)
    runs = []
    for system in ("shmhd", "pehm"):
        for advect in (True, False):
            if system == "shmhd":
                params = ShmhdParams(eps=eps, alpha=cfg.alpha, dt=cfg.dt, t_end=cfg.t_end, advect=advect)
                traj = shmhd_run(s_eps0, params, cfg.sample_every)
            else:
                traj = pehm_run(s_lim0, cfg.dt, cfg.t_end, cfg.sample_every, advect=advect)
            runs.append({
                "system": system,
                "advect": advect,
                "records": [{k: float(getattr(s.record, k)) for k in RECORD_KEYS} for s in traj],
            })
            if not advect:
                first = complex_arrays(traj[0].state)
                last = complex_arrays(traj[-1].state)
                np.savez(os.path.join(out, f"linear_{system}.npz"),
                         *first, *last, t=np.float64(traj[-1].record.t))
    with open(os.path.join(out, "records.json"), "w") as fh:
        json.dump({"runs": runs}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
