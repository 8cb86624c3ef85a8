"""Constraint and invariant battery over seeded fixture states."""

from dataclasses import dataclass

import numpy as np

from .constraints import (
    EVEN_IN_Z,
    ODD_IN_Z,
    SpectrumParams,
    VectorState,
    anisotropic_leray_project,
    divergence_defect,
    generate_initial_data,
    k_dot,
    parity_defect,
    z_trace,
)
from .grid import GridSpec
from .spectral import from_physical, l2_norm, to_physical

# each check of the battery and its tolerance, in report order
TOLS = {
    "transform round-trip": 1e-12,
    "parseval": 1e-12,
    "divergence": 1e-10,
    "parity": 1e-10,
    "hydrostatic trace": 1e-11,
    "hydrostatic residual": 1e-11,
    "leray idempotence": 1e-10,
}


@dataclass
class CheckResult:
    name: str
    worst: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.worst < self.tol


def run_battery(grid: GridSpec, seeds, spectrum: SpectrumParams | None = None) -> list[CheckResult]:
    """Check transform, Parseval, divergence, parity, and hydrostatic-trace
    invariants on one generated state per seed."""
    spectrum = spectrum or SpectrumParams()
    worst = dict.fromkeys(TOLS, 0.0)
    for seed in seeds:
        data = generate_initial_data(seed, spectrum, grid)
        a = VectorState(data.a_h[0], data.a_h[1], data.a3)
        b = VectorState(data.b_h[0], data.b_h[1], data.b3)
        scale = max(l2_norm(f) for f in (*data.a_h, *data.b_h)) or 1.0

        # band-limited lattice values, the only ones the pair maps back exactly
        rng = np.random.default_rng(seed + 10_000)
        values = to_physical(from_physical(grid, rng.standard_normal(grid.shape)))
        spec = from_physical(grid, values)
        back = to_physical(spec)
        sup = float(np.max(np.abs(values)))
        worst["transform round-trip"] = max(
            worst["transform round-trip"], float(np.max(np.abs(back - values))) / sup
        )
        lattice_l2 = float(np.sqrt(np.mean(values**2) * grid.volume))
        worst["parseval"] = max(worst["parseval"], abs(lattice_l2 - l2_norm(spec)) / lattice_l2)

        for g in (a, b):
            worst["divergence"] = max(worst["divergence"], divergence_defect(g) / scale)
            proj = anisotropic_leray_project(g, 0.1)
            delta = max(
                float(np.max(np.abs(x.half - y.half)))
                for x, y in zip(proj.components(), g.components())
            )
            worst["leray idempotence"] = max(worst["leray idempotence"], delta / scale)

        for f_ in (a.h1, a.h2, b.h1, b.h2):
            worst["parity"] = max(worst["parity"], parity_defect(f_, EVEN_IN_Z) / scale)
        for f_ in (a.v, b.v):
            worst["parity"] = max(worst["parity"], parity_defect(f_, ODD_IN_Z) / scale)

        for h, v in ((data.a_h, data.a3), (data.b_h, data.b3)):
            trace = float(np.max(np.abs(z_trace(v))))
            worst["hydrostatic trace"] = max(worst["hydrostatic trace"], trace / scale)
            resid = k_dot((h[0], h[1], v))  # dz v + div_H h, without its factor i
            worst["hydrostatic residual"] = max(
                worst["hydrostatic residual"], float(np.max(np.abs(resid))) / scale
            )

    return [CheckResult(name, worst[name], tol) for name, tol in TOLS.items()]
