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
    barotropic_project,
    divergence_defect,
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


def _record(grid, c, t: float, diss_accum: float) -> DiagnosticsRecord:
    """The record of the state at time t whose fields have the band blocks c."""
    return DiagnosticsRecord(
        t=t,
        e_l2=pehm_energy(grid, c[:2], c[2:]),
        dissipation_accum=diss_accum,
        parity_defect=max(parity_defect(grid, x, EVEN_IN_Z) for x in c),
        div_defect=max(divergence_defect(grid, c[:2], 0), divergence_defect(grid, c[2:], 0)),
    )


def run(
    s0: PehmState | integrator.Sample,
    dt: float,
    t_end: float,
    sample_every: int = 1,
    advect: bool = True,
    sample=None,
) -> list:
    """Repeated stepping with diagnostics every sample_every steps; each
    sample is an ``integrator.Sample``, or ``sample(smp)`` of it if given."""
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
