"""Time integration of the symmetrized (Elsaesser-form) scaled MHD system on
the fixed periodic box, with anisotropic diffusion and weighted pressure
projection.

Scheme: the shared IMEX-Heun step of ``integrator``; the pressure is enforced
exactly by the weighted Leray projection of the predictor and the new state,
and the z parities ``PARITY`` are kept by every operator of the step.
"""

from dataclasses import dataclass

from . import integrator
from .constraints import (EVEN_IN_Z, ODD_IN_Z, VectorState, anisotropic_leray_project, divergence_defect,
                          leray_denominator, parity_defect)
from .diagnostics import DiagnosticsRecord, shmhd_dissipation_rate, shmhd_energy
from .grid import normal_powers
from .integrator import elsasser_advection
from .spectral import from_band, gather

FIELD_NAMES = ("a_h1", "a_h2", "a_v", "b_h1", "b_h2", "b_v")
PARITY = (EVEN_IN_Z, EVEN_IN_Z, ODD_IN_Z) * 2


def check_eps(eps: float, alpha: float) -> None:
    """Raise ValueError unless eps > 0 and eps**2 and eps**alpha are normal
    floats, so that every eps weight and its inverse are finite and nonzero."""
    if not normal_powers(eps, 2, alpha):
        raise ValueError(f"eps: must be positive with eps**2 and eps**{alpha:g} normal floats, got {eps}")


@dataclass
class ShmhdParams:
    eps: float
    alpha: float
    dt: float
    t_end: float
    advect: bool = True

    def __post_init__(self):
        if not self.alpha >= 2:
            raise ValueError(f"alpha must be >= 2, got {self.alpha}")
        check_eps(self.eps, self.alpha)


@dataclass
class ElsasserState:
    a: VectorState
    b: VectorState
    t: float = 0.0

    @property
    def grid(self):
        return self.a.grid

    def fields(self):
        return [*self.a.components(), *self.b.components()]


def _tendency(grid, c):
    """Negated advection of the Elsaesser fields whose components have the band blocks c."""
    return elsasser_advection(grid, c[:3], c[3:], 3)


def nonlinear_tendency(s: ElsasserState) -> tuple[VectorState, VectorState]:
    """Negated advection terms: the A-family is advected by B and vice versa."""
    t = [from_band(s.grid, c) for c in _tendency(s.grid, gather(s.fields()))[0]]
    return VectorState(*t[:3]), VectorState(*t[3:])


def _enforce(grid, c, eps: float, denom) -> list:
    """Weighted Leray projection of the band blocks c of each Elsaesser family,
    with denom = ``leray_denominator(grid, eps)``; the step keeps ``PARITY``."""
    return [*anisotropic_leray_project(grid, c[:3], eps, denom), *anisotropic_leray_project(grid, c[3:], eps, denom)]


def _record(grid, c, t: float, diss_accum: float, eps: float) -> DiagnosticsRecord:
    """The record of the state at time t whose fields have the band blocks c."""
    return DiagnosticsRecord(
        t=t,
        e_l2=shmhd_energy(grid, c[:3], c[3:], eps),
        dissipation_accum=diss_accum,
        parity_defect=max(parity_defect(grid, x, cls) for x, cls in zip(c, PARITY)),
        div_defect=max(divergence_defect(grid, c[:3]), divergence_defect(grid, c[3:])),
    )


def run(s0: ElsasserState | integrator.Sample, p: ShmhdParams, sample_every: int = 1, sample=None) -> list:
    """Repeated stepping with diagnostics every sample_every steps; each
    sample is an ``integrator.Sample``, or ``sample(smp)`` of it if given."""
    denom = leray_denominator(s0.grid, p.eps)
    return integrator.run(
        s0, p.t_end, sample_every,
        tendency=_tendency if p.advect else None,
        enforce=lambda grid, c: _enforce(grid, c, p.eps, denom),
        lam=s0.grid.k2h + p.eps ** (p.alpha - 2.0) * s0.grid.kz**2,  # |k_H|^2 + eps^(alpha-2) kz^2
        dt=p.dt,
        dissipation_rate=lambda grid, c: shmhd_dissipation_rate(grid, c[:3], c[3:], p.eps, p.alpha),
        record=lambda grid, c, t, diss: _record(grid, c, t, diss, p.eps),
        names=FIELD_NAMES,
        sample=sample,
    )
