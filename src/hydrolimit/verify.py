"""Constraint and invariant battery over seeded fixture states."""

from dataclasses import dataclass

import numpy as np

from .constraints import (
    EVEN_IN_Z,
    ODD_IN_Z,
    SpectrumParams,
    anisotropic_leray_project,
    divergence_defect,
    generate_initial_data,
    parity_defect,
    z_trace,
)
from .grid import GridSpec
from .spectral import band_from_physical, l2_norm, parseval_sum, to_physical

# each check of the battery and its tolerance, in report order
TOLS = {
    "transform round-trip": 1e-12,
    "parseval": 1e-12,
    "divergence": 1e-11,
    "parity": 1e-10,
    "hydrostatic trace": 1e-11,
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
        blocks = generate_initial_data(seed, spectrum, grid)
        horizontal = (*blocks[:2], *blocks[3:5])  # the largest L2 norm of these is the scale
        scale = float(np.sqrt(grid.volume * max(parseval_sum(grid, c) for c in horizontal))) or 1.0

        # band-limited lattice values, the only ones the pair maps back exactly
        rng = np.random.default_rng(seed + 10_000)
        values = to_physical(grid, band_from_physical(grid, rng.standard_normal(grid.shape)))
        block = band_from_physical(grid, values)
        back = to_physical(grid, block)
        sup = float(np.max(np.abs(values)))
        worst["transform round-trip"] = max(
            worst["transform round-trip"], float(np.max(np.abs(back - values))) / sup
        )
        lattice_l2 = float(np.sqrt(np.mean(values**2) * grid.volume))
        worst["parseval"] = max(worst["parseval"], abs(lattice_l2 - l2_norm(grid, block)) / lattice_l2)

        for c in (blocks[:3], blocks[3:]):
            worst["divergence"] = max(worst["divergence"], divergence_defect(grid, c) / scale)
            delta = max(float(np.max(np.abs(x - y))) for x, y in zip(anisotropic_leray_project(grid, c, 0.1), c))
            worst["leray idempotence"] = max(worst["leray idempotence"], delta / scale)
            for x, cls in zip(c, (EVEN_IN_Z, EVEN_IN_Z, ODD_IN_Z)):
                worst["parity"] = max(worst["parity"], parity_defect(grid, x, cls) / scale)
            trace = float(np.max(np.abs(z_trace(c[2]))))
            worst["hydrostatic trace"] = max(worst["hydrostatic trace"], trace / scale)

    return [CheckResult(name, worst[name], tol) for name, tol in TOLS.items()]
