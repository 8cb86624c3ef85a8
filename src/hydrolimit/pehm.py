"""Time integration of the hydrostatic limit system: prognostic horizontal
Elsaesser fields with z-independent pressure, horizontal-only diffusion, and
vertical components diagnosed from the incompressibility constraints.

Scheme: the shared IMEX-Heun step of ``integrator``.  The surface pressure
gradient is a kz = 0 horizontal gradient, which the barotropic projection of
the predictor and the new state removes exactly, so the step never solves for
the pressure; ``surface_pressure`` recovers it as a diagnostic.
"""

from dataclasses import dataclass

from . import integrator
from .constraints import (
    EVEN_IN_Z,
    barotropic_defect,
    barotropic_potential,
    barotropic_project,
    hydrostatic_reconstruct,
    parity_defect,
    parity_project,
)
from .diagnostics import DiagnosticsRecord, pehm_dissipation_rate, pehm_energy
from .integrator import elsasser_advection, imex_factors
from .spectral import SpectralField, l2_norm, zero_field

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


def diagnose_vertical(s: PehmState) -> tuple[SpectralField, SpectralField]:
    """Vertical components from the hydrostatic integrals of div_H."""
    return hydrostatic_reconstruct(s.a_h), hydrostatic_reconstruct(s.b_h)


def _tendency(s: PehmState):
    """Negated 3D advection of the horizontal pairs, with diagnosed verticals
    inside the advecting fields."""
    a3, b3 = diagnose_vertical(s)
    return elsasser_advection((*s.a_h, a3), (*s.b_h, b3), 2)


def surface_pressure(s: PehmState) -> tuple[SpectralField, float]:
    """z-independent pressure p = -i phi from the vertically averaged horizontal
    momentum equation, phi being the ``barotropic_potential`` of the A-equation
    tendency, and its relative discrepancy from the pressure sourced from the
    B equation.  A discrepancy above PRESSURE_CONSISTENCY_TOL signals broken
    incompressibility and raises RuntimeError."""
    t, _ = _tendency(s)
    p_a, p_b = zero_field(s.grid), zero_field(s.grid)
    p_a.half[:, :, 0] = -1j * barotropic_potential(t[:2])
    p_b.half[:, :, 0] = -1j * barotropic_potential(t[2:])
    scale = l2_norm(p_a)
    rel = l2_norm(p_a - p_b) / scale if scale > 0 else 0.0
    if rel > PRESSURE_CONSISTENCY_TOL:
        raise RuntimeError(
            f"surface-pressure consistency broken: relative discrepancy "
            f"{rel:.3e} exceeds {PRESSURE_CONSISTENCY_TOL:.0e}"
        )
    return p_a, rel


def _enforce(s: PehmState) -> PehmState:
    """Constraint enforcement: barotropic projection, then even parity."""
    fields = [*barotropic_project(s.a_h), *barotropic_project(s.b_h)]
    return PehmState.from_fields([parity_project(f, EVEN_IN_Z) for f in fields], s.t)


def _scheme(grid, dt: float, advect: bool) -> dict:
    return dict(
        tendency=_tendency if advect else None,
        enforce=_enforce,
        dt=dt,
        **imex_factors(grid.k2h, dt),  # horizontal diffusion only: (n1, n2, 1), broadcasts
    )


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
    sample=integrator.keep_state,
) -> list:
    """Repeated stepping with diagnostics every sample_every steps; each
    sample is ``sample(state, record)``, by default an ``integrator.Sample``."""
    return integrator.run(
        s0, t_end, sample_every, **_scheme(s0.grid, dt, advect),
        dissipation_rate=lambda s: pehm_dissipation_rate(s.a_h, s.b_h),
        record=_record,
        sample=sample,
    )
