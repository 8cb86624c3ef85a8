"""Time integration of the symmetrized (Elsaesser-form) scaled MHD system on
the fixed periodic box, with anisotropic diffusion and weighted pressure
projection.

Scheme: the shared IMEX-Heun step of ``integrator``; the pressure is enforced
exactly by the weighted Leray projection of the predictor and the new state.
"""

from dataclasses import dataclass

from . import integrator
from .constraints import (EVEN_IN_Z, ODD_IN_Z, VectorState, anisotropic_leray_project, divergence_defect,
                          parity_defect, parity_project)
from .diagnostics import DiagnosticsRecord, shmhd_dissipation_rate, shmhd_energy
from .grid import normal_powers
from .integrator import BlowUpError, elsasser_advection, imex_factors  # noqa: F401  (BlowUpError re-exported)

PARITY = (EVEN_IN_Z, EVEN_IN_Z, ODD_IN_Z) * 2


def check_eps(eps: float, alpha: float) -> None:
    """Raise ValueError unless eps > 0 and eps**2 and eps**alpha are normal
    floats, so that every eps weight and its inverse are finite and nonzero."""
    if not normal_powers(eps, 2, alpha):
        raise ValueError(f"eps must be positive with eps**2 and eps**{alpha:g} normal floats, got {eps}")


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
        if not self.dt > 0:
            raise ValueError(f"dt must be positive, got {self.dt}")


@dataclass
class ElsasserState:
    a: VectorState
    b: VectorState
    t: float = 0.0

    FIELD_NAMES = ("a_h1", "a_h2", "a_v", "b_h1", "b_h2", "b_v")

    @property
    def grid(self):
        return self.a.grid

    def fields(self):
        return [*self.a.components(), *self.b.components()]

    @classmethod
    def from_fields(cls, fields, t: float) -> "ElsasserState":
        return cls(VectorState(*fields[:3]), VectorState(*fields[3:]), t)


def _tendency(s: ElsasserState):
    return elsasser_advection(s.a.components(), s.b.components(), 3)


def nonlinear_tendency(s: ElsasserState) -> tuple[VectorState, VectorState]:
    """Negated advection terms: the A-family is advected by B and vice versa."""
    t, _ = _tendency(s)
    return VectorState(*t[:3]), VectorState(*t[3:])


def _enforce(s: ElsasserState, eps: float) -> ElsasserState:
    """Constraint enforcement: divergence first, then parity."""
    a = anisotropic_leray_project(s.a, eps)
    b = anisotropic_leray_project(s.b, eps)
    fields = [*a.components(), *b.components()]
    return ElsasserState.from_fields([parity_project(f, c) for f, c in zip(fields, PARITY)], s.t)


def _scheme(grid, p: ShmhdParams) -> dict:
    return dict(
        tendency=_tendency if p.advect else None,
        enforce=lambda s: _enforce(s, p.eps),
        dt=p.dt,
        # diffusion symbol: |k_H|^2 + eps^(alpha-2) kz^2
        **imex_factors(grid.k2h + p.eps ** (p.alpha - 2.0) * grid.kz**2, p.dt),
    )


def _record(s: ElsasserState, p: ShmhdParams, diss_accum: float) -> DiagnosticsRecord:
    return DiagnosticsRecord(
        t=s.t,
        e_l2=shmhd_energy(s.a, s.b, p.eps),
        dissipation_accum=diss_accum,
        parity_defect=max(parity_defect(f, c) for f, c in zip(s.fields(), PARITY)),
        div_defect=max(divergence_defect(s.a), divergence_defect(s.b)),
    )


def run(s0: ElsasserState, p: ShmhdParams, sample_every: int = 1,
        sample=integrator.keep_state) -> list:
    """Repeated stepping with diagnostics every sample_every steps; each
    sample is ``sample(state, record)``, by default an ``integrator.Sample``."""
    return integrator.run(
        s0, p.t_end, sample_every, **_scheme(s0.grid, p),
        dissipation_rate=lambda s: shmhd_dissipation_rate(s.a, s.b, p.eps, p.alpha),
        record=lambda s, diss: _record(s, p, diss),
        sample=sample,
    )
