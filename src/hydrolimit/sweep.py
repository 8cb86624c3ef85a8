"""Sweep orchestration: matched solver pairs over an aspect-ratio ladder,
rate fitting, and CSV/SVG reporting.

Config grammar: flat ``key = value`` lines, ``#`` comments, and repeated
``eps`` keys building the ladder.  Unknown keys and any other repeated key
are errors.
"""

from dataclasses import dataclass, fields
import math
import os
import tempfile

import numpy as np

from .constraints import SpectrumParams, generate_initial_data
from .diagnostics import difference_metrics, energy_ledger, gamma_of_alpha, trapezoid_accumulate
from .grid import GridSpec, normal_powers
from .integrator import BlowUpError, Sample, step_count
from .pehm import PehmState
from .pehm import run as pehm_run
from .shmhd import ElsasserState, ShmhdParams, check_eps
from .shmhd import run as shmhd_run


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class SweepConfig:
    """A sweep's settings, validated once, at construction: every instance,
    ``dataclasses.replace`` copies included, is valid, and none can change."""

    n1: int = 32
    n2: int = 32
    n3: int = 32
    l1: float = GridSpec.l1
    l2: float = GridSpec.l2
    alpha: float = 4.0
    eps_ladder: tuple[float, ...] = (0.2, 0.1, 0.05, 0.025)
    dt: float = 2e-3
    t_end: float = 0.5
    seed: int = 7
    amplitude: float = SpectrumParams.amplitude
    m0: float = SpectrumParams.m0
    sample_every: int = 10
    mode: str = "l2"

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type is float and not math.isfinite(value):
                raise ConfigError(f"{f.name}: must be finite, got {value}")
        if not all(math.isfinite(e) for e in self.eps_ladder):
            raise ConfigError(f"eps: all ladder values must be finite, got {self.eps_ladder}")
        if not self.eps_ladder:
            raise ConfigError("eps: ladder must be nonempty")
        for a, b in zip(self.eps_ladder, self.eps_ladder[1:]):
            if a <= b:
                raise ConfigError("eps: ladder must be strictly decreasing")
            if f"{a:g}" == f"{b:g}":  # run ids and summary lines print eps with :g
                raise ConfigError(f"eps: ladder values {a!r} and {b!r} both print as {a:g}")
        if self.mode not in ("l2", "h1"):
            raise ConfigError(f"mode: must be 'l2' or 'h1', got {self.mode!r}")
        if self.alpha < 2:
            raise ConfigError(f"alpha: must be >= 2, got {self.alpha}")
        if self.mode == "h1" and self.alpha <= 2:
            raise ConfigError(f"alpha: must exceed 2 in h1 mode, got {self.alpha}")
        for eps in self.eps_ladder:
            try:
                check_eps(eps, self.alpha)
            except ValueError as e:
                raise ConfigError(str(e)) from None
        if self.t_end <= 0:
            raise ConfigError(f"t_end: must be positive, got {self.t_end}")
        try:
            step_count(0.0, self.t_end, self.dt)
        except ValueError as e:
            raise ConfigError(str(e)) from None
        if self.seed < 0:
            raise ConfigError(f"seed: must be >= 0, got {self.seed}")
        if self.amplitude != 0 and not normal_powers(abs(self.amplitude), 2):
            raise ConfigError(f"amplitude: must be 0 or have amplitude**2 a normal float, got {self.amplitude}")
        if not normal_powers(self.m0, 2):
            raise ConfigError(f"m0: must be positive with m0**2 a normal float, got {self.m0}")
        if self.sample_every < 1:
            raise ConfigError(f"sample_every: must be >= 1, got {self.sample_every}")
        GridSpec(self.n1, self.n2, self.n3, self.l1, self.l2)

    @property
    def grid(self) -> GridSpec:
        return GridSpec(self.n1, self.n2, self.n3, self.l1, self.l2)

    @property
    def spectrum(self) -> SpectrumParams:
        return SpectrumParams(self.amplitude, self.m0)


# the type of each config key; ``eps``, the one key that repeats, builds ``eps_ladder``
_KEY_TYPES = {f.name: f.type for f in fields(SweepConfig) if f.name != "eps_ladder"}


def load_config(path) -> SweepConfig:
    """Parse and validate a flat key = value config file."""
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    values: dict = {}
    eps: list[float] = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
            key, _, val = line.partition("=")
            key = key.strip()
            val = val.strip()
            if key in values:
                raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
            try:
                if key == "eps":
                    eps.append(float(val))
                elif key in _KEY_TYPES:
                    values[key] = _KEY_TYPES[key](val)
                else:
                    raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            except ValueError as e:
                if isinstance(e, ConfigError):
                    raise
                raise ConfigError(f"{path}:{lineno}: bad value for {key!r}: {val!r}") from None
    if eps:
        values["eps_ladder"] = tuple(eps)
    return SweepConfig(**values)


# ---------------------------------------------------------------------------
# matched pair runs

@dataclass
class RunRow:
    run_id: str
    system: str
    eps: float
    alpha: float
    t: float
    e_l2: float
    dissipation_accum: float
    d_l2: float | None
    d_diss_accum: float | None
    d_h1: float | None
    parity_defect: float
    div_defect: float


@dataclass
class PairResult:
    """One ladder cell: its runs.csv rows and its sweep.csv line, the sup over
    the cell's samples of each error norm (NaN unless ``status`` is ok)."""
    eps: float
    rows: list[RunRow]
    sup_err_l2: float
    sup_err_h1: float
    energy_pass: bool
    status: str


def record_row(cfg: SweepConfig, system: str, eps: float, r, diff=(None, None, None)) -> RunRow:
    """The runs.csv row of one sampled record, with its difference metrics
    ``diff = (d_l2, d_diss_accum, d_h1)`` if any."""
    return RunRow(f"seed{cfg.seed}-eps{eps:g}-alpha{cfg.alpha:g}", system, eps, cfg.alpha,
                  r.t, r.e_l2, r.dissipation_accum, *diff, r.parity_defect, r.div_defect)


def initial_samples(cfg: SweepConfig) -> tuple[Sample, Sample]:
    """Seed-deterministic shared initial data as each system's start ``Sample``:
    PEHM's blocks are SHMHD's horizontal ones, as no solver writes its input."""
    grid = cfg.grid
    c = generate_initial_data(cfg.seed, cfg.spectrum, grid)
    return Sample(ElsasserState, grid, 0.0, c, None), Sample(PehmState, grid, 0.0, [*c[:2], *c[3:5]], None)


def initial_states(cfg: SweepConfig) -> tuple[ElsasserState, PehmState]:
    """``initial_samples`` as states, which share their horizontal arrays."""
    s = initial_samples(cfg)[0].state
    return s, PehmState((s.a.h1, s.a.h2), (s.b.h1, s.b.h2), 0.0)


def _failed_cell(eps: float, status: str) -> PairResult:
    return PairResult(eps, [], math.nan, math.nan, False, status)


# the failures of a solver run that fail its cells, not the sweep
_CELL_FAILURES = (ValueError, RuntimeError, ArithmeticError, MemoryError)


def _failure_status(e: Exception) -> str:
    return f"blowup:{e}" if isinstance(e, BlowUpError) else f"error:{type(e).__name__}"


def run_pair(cfg: SweepConfig, eps: float, limit: list, s_eps0) -> PairResult:
    """Run SHMHD from the seeded start ``s_eps0`` and difference it, sample by
    sample, against the PEHM trajectory ``limit`` from the same seed (both only
    read, and shared by every cell of a sweep)."""
    params = ShmhdParams(eps=eps, alpha=cfg.alpha, dt=cfg.dt, t_end=cfg.t_end)
    lim = iter(limit)

    def compare(smp):
        ref = next(lim)
        if abs(smp.t - ref.t) > 1e-12 * max(1.0, abs(smp.t)):
            raise ValueError(f"time mismatch: {smp.t} vs {ref.t}")
        return difference_metrics(smp.grid, smp.blocks, ref.blocks, eps, cfg.alpha), smp.record

    diffs, records = zip(*shmhd_run(s_eps0, params, cfg.sample_every, sample=compare))
    accums = trapezoid_accumulate([r.t for r in records], [d.d_diss_rate for d in diffs])
    rows = [record_row(cfg, "shmhd", eps, r, (d.d_l2, accum, d.d_h1))
            for r, d, accum in zip(records, diffs, accums)]
    rows += [record_row(cfg, "pehm", eps, sl.record) for sl in limit]
    return PairResult(eps, rows, math.sqrt(max(d.d_l2 for d in diffs)),
                      math.sqrt(max(d.d_h1 for d in diffs)), energy_ledger(records).passed, "ok")


# ---------------------------------------------------------------------------
# rate fitting

@dataclass
class RateFit:
    slope: float
    intercept: float
    r_squared: float
    gamma_half_predicted: float


def fit_rate(eps_values, errors, gamma_half: float) -> RateFit:
    """Least-squares fit of log(error) against log(eps)."""
    x = np.log(np.asarray(eps_values, dtype=float))
    y = np.log(np.asarray(errors, dtype=float))
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    ss_res = float(np.sum(resid**2))
    r_squared = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return RateFit(float(slope), float(intercept), max(0.0, min(1.0, r_squared)), gamma_half)


@dataclass
class SweepResult:
    config: SweepConfig
    cells: list[PairResult]
    fit: RateFit | None
    errors: list[tuple[float, float]]


# The ``run_pair`` inputs every cell shares, set in pool workers by their
# initializer: under the fork start method they inherit them without pickling.
_pool_inputs: tuple = (None, None)


def _share_inputs(limit: list, s_eps0: Sample) -> None:
    global _pool_inputs
    _pool_inputs = (limit, s_eps0)


def _run_cell(cfg: SweepConfig, eps: float, inputs: tuple | None = None) -> PairResult:
    """One ladder cell; a ``_CELL_FAILURES`` exception fails this cell only,
    with the status ``error:<type>`` (``blowup:<message>``)."""
    try:
        return run_pair(cfg, eps, *(_pool_inputs if inputs is None else inputs))
    except _CELL_FAILURES as e:
        return _failed_cell(eps, _failure_status(e))


def _pool_cells(cfg: SweepConfig, inputs: tuple, jobs: int) -> list[PairResult]:
    """The ladder cells, run in a pool of ``jobs`` forked workers, or one per
    cell if the ladder is shorter (a forking pool starts all its workers at
    the first submit).

    A worker that dies (killed, or exiting mid-cell) breaks its pool, and every
    cell unfinished in that pool is lost with it; the finished ones are kept.
    Each lost cell is rerun once, in a fresh pool of its own, so that a cell
    that kills its worker again takes no other cell with it.  A cell that still
    does not finish gets the status ``error:WorkerDied``.
    """
    # imported here: serial sweeps and plain imports of the CLI skip their cost
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    def attempt(ladder, workers: int) -> dict:
        futures = {}
        with ProcessPoolExecutor(max_workers=workers, initializer=_share_inputs,
                                 initargs=inputs) as pool:
            for eps in ladder:
                try:
                    futures[eps] = pool.submit(_run_cell, cfg, eps)
                except BrokenProcessPool:
                    break
        done = {}
        for eps, future in futures.items():
            try:
                done[eps] = future.result()
            except BrokenProcessPool:
                pass
        return done

    cells = attempt(cfg.eps_ladder, min(jobs, len(cfg.eps_ladder)))
    for eps in cfg.eps_ladder:
        if eps not in cells:
            cells.update(attempt([eps], 1))
    return [cells[eps] if eps in cells else _failed_cell(eps, "error:WorkerDied")
            for eps in cfg.eps_ladder]


def no_fit_reason(errors: list[tuple[float, float]]) -> str | None:
    """Why the ``(eps, error)`` pairs of the successful cells admit no
    log-log rate fit, or None if they admit one."""
    if len(errors) < 2:
        return "fewer than 2 successful cells"
    if not all(v > 0 for _, v in errors):
        return "a successful cell has zero error, which has no logarithm"
    return None


def check_sweep(cfg: SweepConfig, jobs: int) -> None:
    """Raise ConfigError unless cfg and jobs can run a convergence sweep."""
    if cfg.alpha <= 2:
        raise ConfigError(f"alpha: must exceed 2 for the convergence study, got {cfg.alpha}")
    if len(cfg.eps_ladder) < 3:
        raise ConfigError("eps: at least 3 ladder points are required for a sweep")
    if jobs < 1:
        raise ConfigError(f"jobs: must be >= 1, got {jobs}")


def run_sweep(cfg: SweepConfig, jobs: int = 1) -> SweepResult:
    """Run all ladder cells (optionally in parallel) and fit the rate.  The
    PEHM trajectory is run once and shared: the limit system contains neither
    eps nor alpha, so a ``_CELL_FAILURES`` exception there fails every cell."""
    check_sweep(cfg, jobs)
    s_eps0, s_lim0 = initial_samples(cfg)
    try:
        limit = pehm_run(s_lim0, cfg.dt, cfg.t_end, cfg.sample_every)
    except _CELL_FAILURES as e:
        cells = [_failed_cell(eps, _failure_status(e)) for eps in cfg.eps_ladder]
    else:
        if jobs > 1:
            cells = _pool_cells(cfg, (limit, s_eps0), jobs)
        else:
            cells = [_run_cell(cfg, eps, (limit, s_eps0)) for eps in cfg.eps_ladder]
    errors = [(c.eps, c.sup_err_l2 if cfg.mode == "l2" else c.sup_err_h1) for c in cells if c.status == "ok"]
    fit = None
    if no_fit_reason(errors) is None:
        fit = fit_rate([e for e, _ in errors], [v for _, v in errors], gamma_of_alpha(cfg.alpha) / 2.0)
    return SweepResult(cfg, cells, fit, errors)


# ---------------------------------------------------------------------------
# reporting

def _fmt(x) -> str:
    if x is None:
        return ""
    return repr(x) if isinstance(x, float) else str(x)


RUNS_COLUMNS = [f.name for f in fields(RunRow)]


def runs_csv_text(rows: list[RunRow]) -> str:
    lines = [",".join(RUNS_COLUMNS)]
    for r in rows:
        lines.append(",".join(_fmt(getattr(r, c)) for c in RUNS_COLUMNS))
    return "\n".join(lines) + "\n"


def sweep_csv_text(result: SweepResult) -> str:
    lines = ["eps,sup_err_l2,sup_err_h1,status"]
    for cell in result.cells:
        lines.append(f"{_fmt(cell.eps)},{_fmt(cell.sup_err_l2)},{_fmt(cell.sup_err_h1)},{cell.status}")
    return "\n".join(lines) + "\n"


def summary_text(result: SweepResult) -> str:
    cfg = result.config
    lines = [f"sweep: alpha={cfg.alpha:g} mode={cfg.mode} seed={cfg.seed} "
             f"grid={cfg.n1}x{cfg.n2}x{cfg.n3} dt={cfg.dt:g} t_end={cfg.t_end:g}"]
    for cell in result.cells:
        if cell.status == "ok":
            lines.append(f"eps={cell.eps:g}: err_l2={cell.sup_err_l2:.6e} err_h1={cell.sup_err_h1:.6e} "
                         f"energy={'PASS' if cell.energy_pass else 'FAIL'}")
        else:
            lines.append(f"eps={cell.eps:g}: {cell.status}")
    if result.fit is not None:
        f = result.fit
        lines.append(
            f"fitted slope={f.slope:.6f} (predicted gamma/2={f.gamma_half_predicted:g}) "
            f"r_squared={f.r_squared:.6f}"
        )
        if f.slope > f.gamma_half_predicted:
            lines.append("note: observed rate exceeds the predicted upper-bound rate")
    else:
        lines.append(f"{no_fit_reason(result.errors)}: no rate fit, partial report only")
    return "\n".join(lines) + "\n"


def rate_svg_text(result: SweepResult) -> str:
    """Deterministic log-log scatter of error vs eps with the fitted line."""
    w, h, pad = 480, 360, 50
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
        f'viewBox="0 0 {w} {h}">',
        f'<rect width="{w}" height="{h}" fill="white"/>',
        f'<text x="{w // 2}" y="20" text-anchor="middle" font-size="14">'
        "convergence rate: log error vs log eps</text>",
    ]
    pts = [(e, v) for e, v in result.errors if v > 0]
    if pts:
        xs = [math.log10(e) for e, _ in pts]
        ys = [math.log10(v) for _, v in pts]
        x0, x1 = min(xs), max(xs)
        y0, y1 = min(ys), max(ys)
        xr = (x1 - x0) or 1.0
        yr = (y1 - y0) or 1.0

        def px(x):
            return pad + (x - x0) / xr * (w - 2 * pad)

        def py(y):
            return h - pad - (y - y0) / yr * (h - 2 * pad)

        if result.fit is not None:
            ln10 = math.log(10.0)
            ya = (result.fit.slope * (x0 * ln10) + result.fit.intercept) / ln10
            yb = (result.fit.slope * (x1 * ln10) + result.fit.intercept) / ln10
            parts.append(
                f'<line x1="{px(x0):.2f}" y1="{py(ya):.2f}" x2="{px(x1):.2f}" '
                f'y2="{py(yb):.2f}" stroke="steelblue" stroke-width="1.5"/>'
            )
        for x, y in zip(xs, ys):
            parts.append(f'<circle cx="{px(x):.2f}" cy="{py(y):.2f}" r="4" fill="black"/>')
        if result.fit is not None:
            parts.append(
                f'<text x="{w // 2}" y="{h - 12}" text-anchor="middle" font-size="12">'
                f"slope={result.fit.slope:.4f} r2={result.fit.r_squared:.4f}</text>"
            )
    else:
        parts.append(f'<text x="{w // 2}" y="{h // 2}" text-anchor="middle">no data</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def check_out_dir(out_dir) -> None:
    """Create out_dir if needed and check that files can be written in it;
    raises OSError naming the directory otherwise."""
    try:
        os.makedirs(out_dir, exist_ok=True)
        with tempfile.TemporaryFile(dir=out_dir):
            pass
    except OSError as e:
        raise OSError(f"output directory not writable: {out_dir} ({e})") from e


def write_text_atomic(path, text: str) -> None:
    """Write text to path through a temporary file beside it, so path holds
    either its old content or all of the new."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def emit_report(result: SweepResult, out_dir) -> None:
    """Write runs.csv, sweep.csv, summary.txt, rate.svg, each atomically;
    byte-stable for identical results."""
    check_out_dir(out_dir)
    for name, text in (
        ("runs.csv", runs_csv_text([r for cell in result.cells for r in cell.rows])),
        ("sweep.csv", sweep_csv_text(result)),
        ("summary.txt", summary_text(result)),
        ("rate.svg", rate_svg_text(result)),
    ):
        write_text_atomic(os.path.join(out_dir, name), text)
