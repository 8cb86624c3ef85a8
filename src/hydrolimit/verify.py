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
    horizontal_divergence,
    parity_defect,
)
from .grid import GridSpec
from .spectral import (
    RealField,
    forward_transform,
    inverse_transform,
    l2_norm,
    partial_derivative,
)

ROUND_TRIP_TOL = 1e-12
DIV_TOL = 1e-10
PARITY_TOL = 1e-10
TRACE_TOL = 1e-11


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
    worst = {
        "transform round-trip": 0.0,
        "parseval": 0.0,
        "divergence": 0.0,
        "parity": 0.0,
        "hydrostatic trace": 0.0,
        "hydrostatic residual": 0.0,
        "leray idempotence": 0.0,
    }
    for seed in seeds:
        data = generate_initial_data(seed, spectrum, grid)
        a = VectorState(data.a_h[0], data.a_h[1], data.a3)
        b = VectorState(data.b_h[0], data.b_h[1], data.b3)
        scale = max(l2_norm(f) for f in (*data.a_h, *data.b_h)) or 1.0

        rng = np.random.default_rng(seed + 10_000)
        f = RealField(grid, rng.standard_normal(grid.shape))
        spec = forward_transform(f)
        back = inverse_transform(spec)
        sup = float(np.max(np.abs(f.values)))
        worst["transform round-trip"] = max(
            worst["transform round-trip"], float(np.max(np.abs(back.values - f.values))) / sup
        )
        lattice_l2 = float(
            np.sqrt(np.mean(f.values**2) * grid.volume)
        )
        worst["parseval"] = max(worst["parseval"], abs(lattice_l2 - l2_norm(spec)) / lattice_l2)

        for g in (a, b):
            worst["divergence"] = max(worst["divergence"], divergence_defect(g) / scale)
            proj = anisotropic_leray_project(g, 0.1)
            delta = max(
                float(np.max(np.abs(x.coeffs - y.coeffs)))
                for x, y in zip(proj.components(), g.components())
            )
            worst["leray idempotence"] = max(worst["leray idempotence"], delta / scale)

        for f_ in (a.h1, a.h2, b.h1, b.h2):
            worst["parity"] = max(worst["parity"], parity_defect(f_, EVEN_IN_Z) / scale)
        for f_ in (a.v, b.v):
            worst["parity"] = max(worst["parity"], parity_defect(f_, ODD_IN_Z) / scale)

        for h, v in ((data.a_h, data.a3), (data.b_h, data.b3)):
            trace = float(np.max(np.abs(np.sum(v.coeffs, axis=2))))
            worst["hydrostatic trace"] = max(worst["hydrostatic trace"], trace / scale)
            resid = partial_derivative(v, "z") + horizontal_divergence(h)
            worst["hydrostatic residual"] = max(
                worst["hydrostatic residual"], float(np.max(np.abs(resid.coeffs))) / scale
            )

    tols = {
        "transform round-trip": ROUND_TRIP_TOL,
        "parseval": 1e-12,
        "divergence": DIV_TOL,
        "parity": PARITY_TOL,
        "hydrostatic trace": TRACE_TOL,
        "hydrostatic residual": TRACE_TOL,
        "leray idempotence": DIV_TOL,
    }
    return [CheckResult(name, worst[name], tols[name]) for name in worst]
