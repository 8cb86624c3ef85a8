"""The IMEX-Heun scheme shared by both solvers, and its sampling loop.

Diffusion is implicit-trapezoidal; advection is a Heun (explicit trapezoidal)
predictor-corrector.  A system supplies its tendency, its constraint
enforcement, its diffusion symbol (whose IMEX factors ``run`` builds once) and
its dissipation rate.  Constraints are enforced on the predictor and on the
new state, not on the tendencies: the Leray and barotropic projections act mode
by mode, so they commute with the diagonal diffusion factor and this equals
projecting the tendencies, to rounding.  Parity in z is an invariant of every
operator of the step, not enforced, so a recorded parity defect measures drift.

A step works on band blocks (``GridSpec.band_index``, about 0.3 of a field
each) from one gather to one embed: it gathers each field's block of the stored
half-spectrum state where it is used, runs both tendencies, both IMEX updates
and both enforcements on blocks, and embeds each field of the new state once;
the predictor is blocks only.  The midpoint dissipation is formed on blocks
too, and a ``Sample`` keeps only blocks.  A step frees each temporary at its
last use, so its peak is the corrector's tendency: the state, the blocks of t1
and of the predictor, and the four lattice fields alive in the advection (all
of b, one component of a), about 19 fields for SHMHD and 15 for PEHM.

A state exposes ``t``, ``grid``, ``FIELD_NAMES``, ``fields()`` (its spectral
components in that order) and ``from_fields(fields, t)``.
"""

import ctypes
import math
import warnings

import numpy as np

from .diagnostics import DiagnosticsRecord
from .spectral import band_from_physical, from_band, gather, to_physical

CFL_LIMIT = 0.5
STEP_TOL = 1e-9


def _keep_heap_pages() -> None:
    """Have glibc serve every array of a step from the heap (its mmap threshold
    at the 32 MiB maximum) and never trim the heap top, so a step reuses the
    pages of the last one instead of faulting fresh ones in.  Set by ``run``,
    not at import; skipped where the C library has no ``mallopt``."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
        mallopt(-1, 2**31 - 1)  # M_TRIM_THRESHOLD
    except (OSError, AttributeError, TypeError):
        pass


class BlowUpError(RuntimeError):
    """Non-finite field detected during time stepping."""

    def __init__(self, message: str, step_index: int | None = None):
        super().__init__(message)
        self.step_index = step_index


def elsasser_advection(grid, a, b, n_advected: int) -> tuple[list[np.ndarray], float]:
    """Negated advection of the first n_advected components of the Elsaesser
    field a by b and of b by a, given the band blocks of all three components
    of each.

    Both fields are divergence-free, so (b . grad) a_i = d_j(a_i b_j) and
    (a . grad) b_i = d_j(a_j b_i): each product a_i b_j is formed and
    transformed once and feeds both tendencies.  The products of the two
    vertical components enter only when those are advected.  Both fields hold
    only band modes, so by the 2/3 rule each product aliases only onto modes
    the forward transform drops, and k_j F(a_i b_j) is formed on the band block.
    b is lifted to the lattice whole, each a_i only for its own row of products.

    Returns the tendencies (a's first) as band blocks and the largest physical
    velocity component, for the CFL guard.
    """
    b_phys = [to_physical(grid, c) for c in b]
    k = (grid.kx, grid.ky, grid.kz)
    t_a = [0.0] * n_advected
    t_b = [0.0] * n_advected
    speeds = []
    for i in range(3):
        a_i = to_physical(grid, a[i])
        speeds.append(float(np.max(np.abs(a_i))))
        for j in range(3):
            if i >= n_advected and j >= n_advected:
                continue
            prod = band_from_physical(grid, a_i * b_phys[j])
            if i < n_advected:
                t_a[i] = t_a[i] + k[j] * prod
            if j < n_advected:
                t_b[j] = t_b[j] + k[i] * prod
    speeds += [float(np.max(np.abs(c))) for c in b_phys]
    del a_i, b_phys
    return [-1j * t for t in (*t_a, *t_b)], max(speeds)


def imex_heun(s, tendency, enforce, decay, gain, dt: float):
    """Advance s by one step dt.

    ``tendency(grid, blocks)`` returns the advection tendencies of the state
    whose fields have the band blocks ``blocks``, as band blocks, one per
    field, and the largest velocity component, which the CFL guard reads at
    both stages; ``None`` steps the diffusion alone.  ``enforce(grid, blocks)``
    returns the band blocks of the projection onto the constraints.  With
    diffusion symbol lam and h = dt/2, a field c with advection tendencies t1,
    t2 becomes decay * c + gain * (t1 + t2), where decay = (1 - h lam) /
    (1 + h lam) and gain = h / (1 + h lam), both given on the band block.
    Each field's block of s is gathered where it is used, and each field of
    the new state is checked finite and embedded in the half-spectrum once,
    after ``enforce``.
    """
    grid = s.grid

    def blocks():
        return (f.half[grid.band_index] for f in s.fields())

    if tendency is None:
        new = enforce(grid, [decay * c for c in blocks()])
    else:
        t1, speed1 = tendency(grid, gather(s.fields()))
        pred = enforce(grid, [decay * c + gain * (g + g) for c, g in zip(blocks(), t1)])
        t2, speed2 = tendency(grid, pred)
        del pred
        new = enforce(grid, [decay * c + gain * (g1 + g2) for c, g1, g2 in zip(blocks(), t1, t2)])
        del t1, t2
        cfl = dt * max(speed1, speed2) / min(grid.dx, grid.dy, grid.dz)
        if cfl >= CFL_LIMIT:
            warnings.warn(
                f"CFL guard exceeded: dt*max|u|/min(dx) = {cfl:.3f} >= {CFL_LIMIT}", stacklevel=3
            )
    t_new = s.t + dt
    for name, c in zip(s.FIELD_NAMES, new):
        if not np.all(np.isfinite(c)):
            raise BlowUpError(f"non-finite coefficients in field {name} at t={t_new:.6g}")
    return type(s).from_fields([from_band(grid, c) for c in new], t_new)


class Sample:
    """A sampled state and its record.  Every field is zero outside the band, so
    the sample keeps only each field's band block, ``blocks``, and ``state``
    rebuilds the half-spectrum state from them, bit-identical to the one sampled."""

    def __init__(self, state, record: DiagnosticsRecord):
        self.record, self.kind, self.grid, self.t = record, type(state), state.grid, state.t
        self.blocks = gather(state.fields())

    @property
    def state(self):
        return self.kind.from_fields([from_band(self.grid, c) for c in self.blocks], self.t)


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


def run(s0, t_end: float, sample_every: int, *, tendency, enforce, lam, dt: float,
        dissipation_rate, record, sample=Sample) -> list:
    """Step s0 to t_end and return ``sample(state, record(state, dissipation))``
    taken at s0, every sample_every steps and at the end.  ``lam`` is the
    diffusion symbol on the band block; its IMEX factors (see ``imex_heun``)
    are built once here.

    The default ``Sample`` keeps the band block of each field of the state, a
    copy that no later step can change.

    The dissipation integral is accumulated per step at the midpoint state,
    ``dissipation_rate(grid, blocks)`` of its band blocks, so the linear
    (advection off) energy balance closes to rounding.
    """
    _keep_heap_pages()
    n_steps = step_count(s0.t, t_end, dt)
    h = 0.5 * dt
    decay, gain = (1.0 - h * lam) / (1.0 + h * lam), h / (1.0 + h * lam)
    samples = [sample(s0, record(s0, 0.0))]
    s = s0
    band = s0.grid.band_index
    diss = 0.0
    for i in range(n_steps):
        try:
            s_new = imex_heun(s, tendency, enforce, decay, gain, dt)
        except BlowUpError as e:
            e.step_index = i
            raise
        mid = [0.5 * (f.half[band] + g.half[band]) for f, g in zip(s.fields(), s_new.fields())]
        diss += dt * dissipation_rate(s.grid, mid)
        del mid  # a midpoint kept alive through the next step raises its peak by a state's blocks
        s = s_new
        if (i + 1) % sample_every == 0 or i + 1 == n_steps:
            samples.append(sample(s, record(s, diss)))
    return samples
