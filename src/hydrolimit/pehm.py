"""Time integration of the hydrostatic limit system: prognostic horizontal
Elsaesser fields with z-independent pressure, horizontal-only diffusion, and
vertical components diagnosed from the incompressibility constraints.

Scheme: the shared IMEX-Heun step of ``integrator``.  The surface pressure
gradient is a kz = 0 horizontal gradient, which the barotropic projection of
the predictor and the new state removes exactly, so the step never solves for
the pressure; ``surface_pressure_solve`` recovers it as a diagnostic.
"""

from dataclasses import dataclass

from . import integrator
from .constraints import (
    EVEN_IN_Z,
    barotropic_defect,
    barotropic_project,
    horizontal_divergence,
    hydrostatic_reconstruct,
    parity_defect,
    parity_project,
)
from .diagnostics import DiagnosticsRecord, pehm_dissipation_rate, pehm_energy
from .integrator import elsasser_advection, imex_factors, imex_heun
from .spectral import SpectralField, anisotropic_poisson_solve, diffusion_symbol, l2_norm

PRESSURE_CONSISTENCY_TOL = 1e-6


@dataclass
class PehmState:
    a_h: tuple[SpectralField, SpectralField]
    b_h: tuple[SpectralField, SpectralField]
    t: float = 0.0

    FIELD_NAMES = ("a_h1", "a_h2", "b_h1", "b_h2")

    @property
    def grid(self):
        return self.a_h[0].grid

    def fields(self):
        return [*self.a_h, *self.b_h]

    @classmethod
    def from_fields(cls, fields, t: float) -> "PehmState":
        return cls(tuple(fields[:2]), tuple(fields[2:]), t)

    def copy(self) -> "PehmState":
        return self.from_fields([f.copy() for f in self.fields()], self.t)


def diagnose_vertical(s: PehmState) -> tuple[SpectralField, SpectralField]:
    """Vertical components from the hydrostatic integrals of div_H."""
    return hydrostatic_reconstruct(s.a_h), hydrostatic_reconstruct(s.b_h)


def _tendency(s: PehmState):
    """Negated 3D advection of the horizontal pairs, with diagnosed verticals
    inside the advecting fields."""
    a3, b3 = diagnose_vertical(s)
    return elsasser_advection((*s.a_h, a3), (*s.b_h, b3), 2)


def _surface_poisson(source_pair) -> SpectralField:
    """Solve Delta_H p = div_H <source>_z (the kz = 0 slice), zero-mean gauge."""
    div = horizontal_divergence(source_pair)
    div.coeffs[:, :, 1:] = 0.0
    return anisotropic_poisson_solve(div, 1.0)


def _surface_pressure(s: PehmState) -> tuple[SpectralField, float]:
    """Surface pressure sourced from the A equation, and its relative
    discrepancy from the one sourced from the B equation."""
    t, _ = _tendency(s)
    p_a = _surface_poisson(t[:2])
    scale = l2_norm(p_a)
    discrepancy = l2_norm(p_a - _surface_poisson(t[2:]))
    return p_a, discrepancy / scale if scale > 0 else 0.0


def surface_pressure_solve(s: PehmState) -> SpectralField:
    """z-independent pressure from the vertically averaged horizontal momentum
    equation.  The same solve sourced from the other Elsaesser equation must
    agree; a large discrepancy signals broken incompressibility."""
    p_a, rel = _surface_pressure(s)
    if rel > PRESSURE_CONSISTENCY_TOL:
        raise RuntimeError(
            f"surface-pressure consistency broken: relative discrepancy "
            f"{rel:.3e} exceeds {PRESSURE_CONSISTENCY_TOL:.0e}"
        )
    return p_a


def pressure_discrepancy(s: PehmState) -> float:
    """Relative discrepancy between the two admissible pressure sources."""
    return _surface_pressure(s)[1]


def _enforce(s: PehmState) -> PehmState:
    """Constraint enforcement: barotropic projection, then even parity."""
    fields = [*barotropic_project(s.a_h), *barotropic_project(s.b_h)]
    return PehmState.from_fields([parity_project(f, EVEN_IN_Z) for f in fields], s.t)


def _scheme(grid, dt: float, advect: bool) -> dict:
    return dict(
        tendency=_tendency if advect else None,
        enforce=_enforce,
        dt=dt,
        **imex_factors(diffusion_symbol(grid, 1.0, 2.0, "none"), dt),
    )


def step(s: PehmState, dt: float, advect: bool = True) -> PehmState:
    """Advance one time step dt."""
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    return imex_heun(s, **_scheme(s.grid, dt, advect))


def _record(s: PehmState, diss_accum: float) -> DiagnosticsRecord:
    return DiagnosticsRecord(
        t=s.t,
        e_l2=pehm_energy(s.a_h, s.b_h),
        dissipation_accum=diss_accum,
        parity_defect=max(parity_defect(f, EVEN_IN_Z) for f in s.fields()),
        div_defect=max(barotropic_defect(s.a_h), barotropic_defect(s.b_h)),
    )


def run(
    s0: PehmState,
    dt: float,
    t_end: float,
    sample_every: int = 1,
    advect: bool = True,
) -> list[integrator.Sample]:
    """Repeated stepping with diagnostics every sample_every steps."""
    return integrator.run(
        s0, t_end, sample_every, **_scheme(s0.grid, dt, advect),
        dissipation_rate=lambda s: pehm_dissipation_rate(s.a_h, s.b_h),
        record=_record,
    )
