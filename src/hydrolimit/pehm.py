"""Time integration of the hydrostatic limit system: prognostic horizontal
Elsaesser fields with z-independent pressure, horizontal-only diffusion, and
vertical components diagnosed from the incompressibility constraints.

Scheme: the shared IMEX-Heun step of ``integrator``.  The surface pressure
gradient is a kz = 0 horizontal gradient, which the barotropic projection of
the predictor and the new state removes exactly, so the step never solves for
the pressure.  The horizontal pairs stay even in z without a projection: the
hydrostatic reconstruction makes the verticals odd, and the advection keeps both.
"""

from dataclasses import dataclass

from . import integrator
from .constraints import (
    EVEN_IN_Z,
    barotropic_defect,
    barotropic_project,
    hydrostatic_reconstruct,
    parity_defect,
)
from .diagnostics import DiagnosticsRecord, pehm_dissipation_rate, pehm_energy
from .integrator import elsasser_advection
from .spectral import SpectralField


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


def _tendency(grid, c):
    """Negated 3D advection of the horizontal pairs whose band blocks are c,
    with diagnosed verticals inside the advecting fields."""
    a_h, b_h = c[:2], c[2:]
    a3, b3 = hydrostatic_reconstruct(grid, a_h), hydrostatic_reconstruct(grid, b_h)
    return elsasser_advection(grid, (*a_h, a3), (*b_h, b3), 2)


def _enforce(grid, c) -> list:
    """Barotropic projection of the band blocks c of each horizontal pair; the
    step keeps them even in z."""
    return [*barotropic_project(grid, c[:2]), *barotropic_project(grid, c[2:])]


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
    sample=integrator.Sample,
) -> list:
    """Repeated stepping with diagnostics every sample_every steps; each
    sample is ``sample(state, record)``, by default an ``integrator.Sample``."""
    return integrator.run(
        s0, t_end, sample_every,
        tendency=_tendency if advect else None,
        enforce=_enforce,
        lam=s0.grid.k2h,  # horizontal diffusion only: one (m1, m2) plane, broadcasts
        dt=dt,
        dissipation_rate=lambda grid, c: pehm_dissipation_rate(grid, c[:2], c[2:]),
        record=_record,
        sample=sample,
    )
