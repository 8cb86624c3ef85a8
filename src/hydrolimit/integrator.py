"""The IMEX-Heun scheme shared by both solvers, and its sampling loop.

Diffusion is implicit-trapezoidal; advection is a Heun (explicit trapezoidal)
predictor-corrector.  A system supplies its tendency, its constraint
enforcement, its diffusion symbol (whose IMEX factors ``run`` builds once) and
its dissipation rate.  Constraints are enforced on the predictor and on the
new state, not on the tendencies: the Leray and barotropic projections act mode
by mode, so they commute with the diagonal diffusion factor and this equals
projecting the tendencies, to rounding.  Parity in z is an invariant of every
operator of the step, not enforced, so a recorded parity defect measures drift.

A run works on band blocks (``GridSpec.band``, about 0.3 of a stored field
each): ``run`` starts from the blocks of a ``Sample`` (or gathers a state's
once) and carries the blocks and the time through the loop, and ``imex_heun``
takes and returns blocks, so both tendencies, both IMEX updates, both
enforcements, the predictor, the midpoint dissipation, the records and the
samples are blocks only, and no ``SpectralField`` is built inside a run.  A
step frees each temporary at its last use, so its peak is the corrector's
tendency: the blocks of the state, of t1 and of the predictor, and the four
lattice fields alive in the advection (all of b and s = a_1 + a_3, or a_2),
about 14 fields for SHMHD and 12 for PEHM.

A run's state is a ``Sample``: its grid, ``t`` and one band block per field,
in the order of the system's ``FIELD_NAMES``.
"""

import ctypes
import math
import operator
import warnings

import numpy as np

from .diagnostics import DiagnosticsRecord
from .spectral import band_from_physical, from_band, gather, partner, to_physical

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
    of each, of z parities (even, even, odd) in both fields.

    Both fields are divergence-free, so (b . grad) a_i = d_j(a_i b_j) and
    (a . grad) b_i = d_j(a_j b_i): each product a_i b_j feeds both tendencies
    as k_j F(a_i b_j) and k_i F(a_i b_j).  The products of the two vertical
    components enter only when those are advected.  Both fields hold only band
    modes, so by the 2/3 rule each product aliases only onto modes the forward
    transform drops, and k_j F(a_i b_j) is formed on the band block.

    The products are transformed in pairs.  A product of two components of
    equal parity is even in z and one of unequal parity is odd, so with
    s = a_1 + a_3 each of s b_1, s b_2, s b_3 and a_2 (b_1 + b_3) is an even
    product plus an odd one.  A real field is even in z exactly when its band
    block G equals ``partner(G)`` and odd when G = -partner(G), so one forward
    transform gives both: (G + partner(G)) / 2 is the even product and
    (G - partner(G)) / 2 the odd one.  That split is the parity projection of
    each product (``constraints.parity_project``), exact only for components
    of the parities above; a part of the wrong parity in a component is
    projected away or sent to the wrong product.  Five lattice fields, s, a_2
    and all of b, are lifted and five products transformed.

    Returns the tendencies (a's first) as band blocks and the largest physical
    velocity component, for the CFL guard.
    """
    k = (grid.kx, grid.ky, grid.kz)
    t = {}  # (0, i): the tendency of a_i, (1, j): that of b_j

    def add(i, j, c):
        """Add the band block c of F(a_i b_j) to the tendencies it feeds."""
        for key, kc in (((0, i), k[j]), ((1, j), k[i])):
            if key[1] < n_advected:
                if key in t:
                    t[key] += kc * c
                else:
                    t[key] = kc * c

    def add_pair(values, even, odd):
        """Add the products (i, j) = even and odd whose sum has the lattice values."""
        g = band_from_physical(grid, values)
        refl = partner(g)
        add(*even, 0.5 * (g + refl))
        add(*odd, 0.5 * (g - refl))

    s = to_physical(grid, a[0] + a[2])
    # s(-z) = a_1(z) - a_3(z), so |s(z)| + |s(-z)| = 2 max(|a_1(z)|, |a_3(z)|),
    # paired here over z = 1 ... n3/2 with -z = n3 - 1 ... n3/2 (z = 0 is its own)
    m = grid.n3 // 2
    r = np.abs(s)
    speed = max(float(np.max(r[:, :, 0])), 0.5 * float(np.max(r[:, :, 1 : m + 1] + r[:, :, : m - 1 : -1])))
    del r
    b_1, b_2, b_3 = (to_physical(grid, c) for c in b)
    add_pair(s * b_1, (0, 0), (2, 0))
    add_pair(s * b_2, (0, 1), (2, 1))
    add_pair(s * b_3, (2, 2), (0, 2))
    del s
    a_2 = to_physical(grid, a[1])
    speed = max(speed, *(max(float(c.max()), -float(c.min())) for c in (a_2, b_1, b_2, b_3)))
    b_3 += b_1  # b_1 + b_3: b_3 alone is read no more
    del b_1
    add_pair(a_2 * b_3, (1, 0), (1, 2))
    del b_3
    add(1, 1, band_from_physical(grid, a_2 * b_2))
    del a_2, b_2
    return [-1j * t[f, i] for f in (0, 1) for i in range(n_advected)], speed


def imex_heun(grid, c, t: float, tendency, enforce, decay, gain, dt: float, names) -> tuple[list, float]:
    """Advance the state whose fields, named ``names``, have the band blocks c
    at time t by one step dt, and return the new blocks and t + dt.

    ``tendency(grid, blocks)`` returns the advection tendencies of the state
    whose fields have the band blocks ``blocks``, as band blocks, one per
    field, and the largest velocity component, which the CFL guard reads at
    both stages; ``None`` steps the diffusion alone.  ``enforce(grid, blocks)``
    returns the band blocks of the projection onto the constraints.  With
    diffusion symbol lam and h = dt/2, a field c with advection tendencies t1,
    t2 becomes decay * c + gain * (t1 + t2), where decay = (1 - h lam) /
    (1 + h lam) and gain = h / (1 + h lam), both given on the band block.
    Each new block is checked finite after ``enforce``; no array of c is written.
    """
    if tendency is None:
        new = enforce(grid, [decay * x for x in c])
    else:
        t1, speed1 = tendency(grid, c)
        pred = enforce(grid, [decay * x + gain * (g + g) for x, g in zip(c, t1)])
        t2, speed2 = tendency(grid, pred)
        del pred
        new = enforce(grid, [decay * x + gain * (g1 + g2) for x, g1, g2 in zip(c, t1, t2)])
        del t1, t2
        cfl = dt * max(speed1, speed2) / min(grid.dx, grid.dy, grid.dz)
        if cfl >= CFL_LIMIT:
            warnings.warn(
                f"CFL guard exceeded: dt*max|u|/min(dx) = {cfl:.3f} >= {CFL_LIMIT}", stacklevel=3
            )
    t_new = t + dt
    for name, x in zip(names, new):
        if not np.all(np.isfinite(x)):
            raise BlowUpError(f"non-finite coefficients in field {name} at t={t_new:.6g}")
    return new, t_new


class Sample:
    """A state at time ``t`` as the band block of each field, ``blocks``, in
    its system's ``FIELD_NAMES`` order: a run's start (``record=None``) or a
    sample, with its record.  No step writes a block in place, and ``state``
    embeds each block as the field stepped: every field is zero outside the band."""

    def __init__(self, grid, t: float, blocks: list, record: DiagnosticsRecord | None):
        self.grid, self.t, self.blocks, self.record = grid, t, blocks, record

    @property
    def state(self) -> list:
        return [from_band(self.grid, c) for c in self.blocks]


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
        dissipation_rate, record, names, sample=None) -> list:
    """Step s0 to t_end and return a ``Sample`` of the state, with its
    ``record(grid, blocks, t, dissipation)``, at s0, every sample_every steps
    and at the end, or ``sample(smp)`` of each if a hook is given.  The run
    reads the blocks of a ``Sample`` s0 with no copy (its first sample keeps
    them) and gathers those of a state's ``fields()`` once.  The loop carries
    band blocks and the time, and a sample keeps the step's own blocks.
    ``names`` are the fields' names, for the ``BlowUpError`` message.  ``lam``
    is the diffusion symbol on the band block; its IMEX factors (see
    ``imex_heun``) are built once here, and the run holds no reference to it.

    The dissipation integral is accumulated per step at the midpoint state,
    ``dissipation_rate(grid, blocks)`` of its band blocks, so the linear
    (advection off) energy balance closes to rounding.
    """
    if not hasattr(sample_every, "__index__") or operator.index(sample_every) < 1:
        raise ValueError(f"sample_every: must be an integer >= 1, got {sample_every!r}")
    _keep_heap_pages()
    n_steps = step_count(s0.t, t_end, dt)
    h = 0.5 * dt
    decay, gain = (1.0 - h * lam) / (1.0 + h * lam), h / (1.0 + h * lam)
    del lam
    c = s0.blocks if isinstance(s0, Sample) else gather(s0.fields())
    grid, t, diss = s0.grid, s0.t, 0.0

    def take(c, t, diss):
        smp = Sample(grid, t, c, record(grid, c, t, diss))
        return smp if sample is None else sample(smp)

    samples = [take(c, t, diss)]
    for i in range(n_steps):
        try:
            c_new, t = imex_heun(grid, c, t, tendency, enforce, decay, gain, dt, names)
        except BlowUpError as e:
            e.step_index = i
            raise
        mid = [0.5 * (x + y) for x, y in zip(c, c_new)]
        diss += dt * dissipation_rate(grid, mid)
        del mid  # a midpoint kept alive through the next step raises its peak by a state's blocks
        c = c_new
        if (i + 1) % sample_every == 0 or i + 1 == n_steps:
            samples.append(take(c, t, diss))
    return samples
