"""The IMEX-Heun scheme shared by both solvers, and its sampling loop.

Diffusion is implicit-trapezoidal; advection is a Heun (explicit trapezoidal)
predictor-corrector.  A system supplies its tendency, its constraint
enforcement, the IMEX factors of its diffusion symbol (built once per run) and
its dissipation rate.  Constraints are enforced on the predictor and on the
new state, not on the tendencies: every projection commutes with the diagonal
diffusion factor (Leray and barotropic projections act mode by mode; parity
pairs m3 with -m3, where the symbol is equal), so this equals projecting the
tendencies, to rounding.

A state exposes ``t``, ``grid``, ``FIELD_NAMES``, ``fields()`` (its spectral
components in that order) and ``from_fields(fields, t)``.
"""

from dataclasses import dataclass
import math
import warnings

import numpy as np

from .diagnostics import DiagnosticsRecord
from .spectral import SpectralField, band_from_physical, from_band, to_physical

CFL_LIMIT = 0.5
STEP_TOL = 1e-9


class BlowUpError(RuntimeError):
    """Non-finite field detected during time stepping."""

    def __init__(self, message: str, step_index: int | None = None):
        super().__init__(message)
        self.step_index = step_index


def elsasser_advection(a, b, n_advected: int) -> tuple[list[SpectralField], float]:
    """Negated advection of the first n_advected components of the Elsaesser
    field a by b and of b by a, given all three components of each.

    Both fields are divergence-free, so (b . grad) a_i = d_j(a_i b_j) and
    (a . grad) b_i = d_j(a_j b_i): each product a_i b_j is formed and
    transformed once and feeds both tendencies.  The products of the two
    vertical components enter only when those are advected.  Both fields hold
    only band modes, so by the 2/3 rule each product aliases only onto modes
    the forward transform drops, and k_j F(a_i b_j) is formed on the band block.

    Returns the tendencies (a's first) and the largest physical velocity
    component, for the CFL guard.
    """
    grid = a[0].grid
    a_phys = [to_physical(f) for f in a]
    b_phys = [to_physical(f) for f in b]
    max_speed = max(float(np.max(np.abs(c))) for c in (*a_phys, *b_phys))
    i1, i2, k3 = grid.band
    k = (grid.kx[i1], grid.ky[:, i2], grid.kz[:, :, :k3])
    t_a = [0.0] * n_advected
    t_b = [0.0] * n_advected
    for i in range(3):
        for j in range(3):
            if i >= n_advected and j >= n_advected:
                continue
            prod = band_from_physical(grid, a_phys[i] * b_phys[j])
            if i < n_advected:
                t_a[i] = t_a[i] + k[j] * prod
            if j < n_advected:
                t_b[j] = t_b[j] + k[i] * prod
    return [from_band(grid, -1j * t) for t in (*t_a, *t_b)], max_speed


def imex_factors(lam, dt: float) -> dict:
    """The per-mode factors of one IMEX step with diffusion symbol lam, as the
    ``decay`` and ``gain`` keywords of ``imex_heun`` and ``run``: a field c
    with advection tendencies t1, t2 becomes decay * c + gain * (t1 + t2),
    where decay = (1 - h lam) / (1 + h lam), gain = h / (1 + h lam), h = dt/2."""
    h = 0.5 * dt
    denom = 1.0 + h * lam
    return dict(decay=(1.0 - h * lam) / denom, gain=h / denom)


def _rebuild(like, arrays, t):
    return type(like).from_fields([SpectralField(like.grid, c) for c in arrays], t)


def check_finite(s) -> None:
    for name, f in zip(s.FIELD_NAMES, s.fields()):
        if not np.all(np.isfinite(f.half)):
            raise BlowUpError(f"non-finite coefficients in field {name} at t={s.t:.6g}")


def imex_heun(s, tendency, enforce, decay, gain, dt: float):
    """Advance s by one step dt.

    ``tendency(state)`` returns the advection tendencies, one per field, and
    the largest velocity component; ``None`` steps the diffusion alone.
    ``enforce(state)`` projects a state onto the constraints; ``decay`` and
    ``gain`` are the ``imex_factors`` of the diffusion symbol for this dt.
    """
    t_new = s.t + dt
    c = [f.half for f in s.fields()]
    if tendency is None:
        new = [decay * x for x in c]
    else:
        t1, max_speed = tendency(s)
        grid = s.grid
        cfl = dt * max_speed / min(grid.dx, grid.dy, grid.dz)
        if cfl >= CFL_LIMIT:
            warnings.warn(
                f"CFL guard exceeded: dt*max|u|/min(dx) = {cfl:.3f} >= {CFL_LIMIT}", stacklevel=3
            )
        t1 = [g.half for g in t1]
        pred = enforce(_rebuild(s, [decay * x + gain * (g + g) for x, g in zip(c, t1)], t_new))
        t2 = [g.half for g in tendency(pred)[0]]
        new = [decay * x + gain * (g1 + g2) for x, g1, g2 in zip(c, t1, t2)]
    s_new = enforce(_rebuild(s, new, t_new))
    check_finite(s_new)
    return s_new


@dataclass
class Sample:
    state: object
    record: DiagnosticsRecord


def keep_state(state, record: DiagnosticsRecord) -> Sample:
    """The default per-sample hook of ``run``: a copy of the state and its record."""
    return Sample(_rebuild(state, [f.half.copy() for f in state.fields()], state.t), record)


def step_count(t0: float, t_end: float, dt: float) -> int:
    """Number of steps of size dt from t0 to t_end.

    Raises ValueError unless dt is positive, both times are finite, and
    t_end - t0 is a whole number n < 1 / (2 STEP_TOL) of steps to within
    STEP_TOL relative (any larger n would pass that test vacuously).
    """
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"dt: must be positive and finite, got {dt}")
    if not (math.isfinite(t0) and math.isfinite(t_end)):
        raise ValueError(f"t_end: must be finite, got {t_end} (start {t0})")
    if t_end < t0:
        raise ValueError(f"t_end={t_end} precedes initial time {t0}")
    n = (t_end - t0) / dt
    if n >= 0.5 / STEP_TOL:
        raise ValueError(f"t_end: {t_end} is {n:.3g} steps of dt={dt} from t={t0}, "
                         f"at or above the limit of {0.5 / STEP_TOL:.0e} steps")
    if abs(n - round(n)) > STEP_TOL * max(n, 1.0):
        raise ValueError(f"t_end: {t_end} is not a whole number of dt={dt} steps from t={t0}")
    return int(round(n))


def run(s0, t_end: float, sample_every: int, *, tendency, enforce, decay, gain, dt: float,
        dissipation_rate, record, sample=keep_state) -> list:
    """Step s0 to t_end and return ``sample(state, record(state, dissipation))``
    taken every sample_every steps and at the end.

    The dissipation integral is accumulated per step at the midpoint state, so
    the linear (advection off) energy balance closes to rounding.
    """
    n_steps = step_count(s0.t, t_end, dt)
    samples = [sample(s0, record(s0, 0.0))]
    s = s0
    diss = 0.0
    for i in range(n_steps):
        try:
            s_new = imex_heun(s, tendency, enforce, decay, gain, dt)
        except BlowUpError as e:
            e.step_index = i
            raise
        mid = [0.5 * (f.half + g.half) for f, g in zip(s.fields(), s_new.fields())]
        diss += dt * dissipation_rate(_rebuild(s, mid, s.t))
        del mid  # a midpoint kept alive through the next step raises the peak memory by a state
        s = s_new
        if (i + 1) % sample_every == 0 or i + 1 == n_steps:
            samples.append(sample(s, record(s, diss)))
    return samples
