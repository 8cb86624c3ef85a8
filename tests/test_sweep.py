"""Sweep orchestration: config grammar, rate fitting, matched-pair plumbing,
reporting, and cross-parallelism determinism."""

import concurrent.futures
import dataclasses
import math
import os
from pathlib import Path

import numpy as np
import pytest

import hydrolimit.sweep as sweep_mod
from hydrolimit.pehm import run as pehm_run
from hydrolimit.integrator import STEP_TOL, BlowUpError, Sample, step_count
from hydrolimit.shmhd import run as shmhd_run
from hydrolimit.spectral import gather
from hydrolimit.sweep import (
    ConfigError,
    SweepConfig,
    emit_report,
    fit_rate,
    initial_samples,
    load_config,
    run_pair,
    run_sweep,
    runs_csv_text,
    sweep_csv_text,
    summary_text,
)
from conftest import hydrostatic

TINY = dict(n1=8, n2=8, n3=8, dt=2e-3, t_end=0.02, sample_every=5)


def shared_inputs(cfg: SweepConfig) -> tuple:
    """What every cell of a sweep shares, as ``run_pair``'s ``(limit, s_eps0)``:
    the PEHM trajectory and the seeded SHMHD start."""
    s_eps0, s_lim0 = initial_samples(cfg)
    return pehm_run(s_lim0, cfg.dt, cfg.t_end, cfg.sample_every), s_eps0


class TestConfigGrammar:
    def test_full_round_trip(self, tmp_path):
        path = tmp_path / "sweep.cfg"
        path.write_text(
            "# reference study\n"
            "n1 = 16\nn2 = 16\nn3 = 8\n"
            "alpha = 3.5  # comment after value\n"
            "eps = 0.2\neps = 0.1\neps = 0.05\n"
            "dt = 0.001\nt_end = 0.25\nseed = 11\nmode = h1\n"
        )
        cfg = load_config(path)
        assert (cfg.n1, cfg.n2, cfg.n3) == (16, 16, 8)
        assert cfg.alpha == 3.5
        assert cfg.eps_ladder == (0.2, 0.1, 0.05)
        assert cfg.seed == 11
        assert cfg.mode == "h1"

    def test_defaults_when_keys_absent(self, tmp_path):
        path = tmp_path / "min.cfg"
        path.write_text("alpha = 4.0\n")
        cfg = load_config(path)
        assert cfg.eps_ladder == (0.2, 0.1, 0.05, 0.025)
        assert cfg.seed == 7

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "absent.cfg")

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("frobnicate = 3\n")
        with pytest.raises(ConfigError, match="unknown key"):
            load_config(path)

    def test_bad_value(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("dt = fast\n")
        with pytest.raises(ConfigError, match="bad value"):
            load_config(path)

    def test_repeated_key_rejected(self, tmp_path):
        """Only eps may repeat: a second dt would otherwise silently win."""
        path = tmp_path / "dup.cfg"
        path.write_text("dt = 0.002\neps = 0.2\neps = 0.1\neps = 0.05\ndt = 0.004\n")
        with pytest.raises(ConfigError, match=r"dup\.cfg:5: duplicate key 'dt'"):
            load_config(path)

    def test_line_without_equals(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("just some words\n")
        with pytest.raises(ConfigError, match="key = value"):
            load_config(path)

    def test_non_decreasing_ladder_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("eps = 0.1\neps = 0.2\neps = 0.05\n")
        with pytest.raises(ConfigError, match="decreasing"):
            load_config(path)

    def test_ladder_values_that_print_alike(self, tmp_path):
        """Run ids and summary lines print eps with ``:g``, so two ladder values
        with one printed form would give two cells one run id."""
        path = tmp_path / "alike.cfg"
        path.write_text("n1 = 8\nn2 = 8\nn3 = 8\nalpha = 4.0\neps = 0.1000002\neps = 0.1000001\neps = 0.05\n")
        with pytest.raises(ConfigError, match=r"^eps: .*0\.1000002.*0\.1000001"):
            load_config(path)

    # a value other than the default for every key, so a key read and then
    # dropped shows; a new SweepConfig field fails here until it has one
    OTHER_VALUES = dict(n1=16, n2=12, n3=8, l1=3.0, l2=5.0, alpha=3.5, dt=1e-3, t_end=0.25,
                        seed=11, amplitude=0.2, m0=2.0, sample_every=5, mode="h1")

    @pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(SweepConfig)
                                      if f.name != "eps_ladder"])
    def test_every_field_but_the_ladder_is_a_key(self, tmp_path, name):
        path = tmp_path / "one.cfg"
        path.write_text(f"{name} = {self.OTHER_VALUES[name]}\n")
        value = getattr(load_config(path), name)
        assert value == self.OTHER_VALUES[name]
        assert type(value) is type(self.OTHER_VALUES[name])

    def test_ladder_field_is_not_a_key(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("eps_ladder = 0.1\n")
        with pytest.raises(ConfigError, match="unknown key 'eps_ladder'"):
            load_config(path)

    def test_replace_validates(self):
        # the CLI's --mode override builds its config this way
        with pytest.raises(ConfigError, match="mode"):
            dataclasses.replace(SweepConfig(), mode="h3")
        with pytest.raises(ConfigError, match="alpha"):
            dataclasses.replace(SweepConfig(alpha=2.0), mode="h1")

    def test_config_is_immutable(self):
        cfg = SweepConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.dt = -1.0
        assert cfg.dt == 2e-3

    def test_bad_mode_rejected(self):
        with pytest.raises(ConfigError, match="mode"):
            SweepConfig(mode="h3")

    def test_h1_mode_needs_alpha_above_two(self):
        with pytest.raises(ConfigError, match="alpha"):
            SweepConfig(alpha=2.0, mode="h1")

    def test_alpha_two_valid_outside_h1(self):
        SweepConfig(alpha=2.0)

    @pytest.mark.parametrize(
        "key", ["l1", "l2", "alpha", "dt", "t_end", "amplitude", "m0", "eps"]
    )
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_value_rejected(self, tmp_path, key, value):
        path = tmp_path / "bad.cfg"
        path.write_text(f"{key} = {value}\n")
        with pytest.raises(ConfigError, match=key):
            load_config(path)

    @pytest.mark.parametrize("ladder", [(0.2, 0.1, 1e-200), (0.2, 0.1, 1e-100), (1e160, 0.1, 0.05)])
    def test_eps_without_normal_weights_rejected(self, ladder):
        # eps**2 or eps**alpha underflows to a subnormal or zero, or overflows
        with pytest.raises(ConfigError, match="eps"):
            SweepConfig(alpha=4.0, eps_ladder=ladder, **TINY)

    @pytest.mark.parametrize(
        "key, value", [("seed", "-1"), ("m0", "0"), ("m0", "-2.5"), ("m0", "1e-300"), ("m0", "1e200")]
    )
    def test_out_of_range_seed_or_m0_rejected(self, tmp_path, key, value):
        # a negative seed, or an m0 whose square is not a normal float
        path = tmp_path / "bad.cfg"
        path.write_text(f"{key} = {value}\n")
        with pytest.raises(ConfigError, match=key):
            load_config(path)

    @pytest.mark.parametrize("value", ["1e160", "-1e160", "1e-170"])
    def test_amplitude_without_normal_square_rejected(self, tmp_path, value):
        # amplitude**2, and with it the initial energy, overflows or underflows
        path = tmp_path / "bad.cfg"
        path.write_text(f"amplitude = {value}\n")
        with pytest.raises(ConfigError, match="amplitude"):
            load_config(path)

    @pytest.mark.parametrize("value", [0.0, 0.1, -0.1, 1e8])
    def test_amplitude_zero_or_with_normal_square_accepted(self, value):
        SweepConfig(amplitude=value, **TINY)

    @pytest.mark.parametrize("dt", [0.0, -0.002])
    def test_nonpositive_dt_rejected(self, dt):
        # by step_count, the function that counts the solvers' steps
        with pytest.raises(ConfigError, match="^dt: must be positive"):
            SweepConfig(dt=dt)

    def test_t_end_not_multiple_of_dt_rejected(self):
        with pytest.raises(ConfigError, match="t_end"):
            SweepConfig(dt=0.002, t_end=0.0105)

    def test_enormous_t_end_rejected(self):
        # 5e302 steps: every such t_end looks like a whole number of steps
        with pytest.raises(ConfigError, match="t_end"):
            SweepConfig(dt=0.002, t_end=1e300)

    def test_step_count_bound_is_half_over_step_tol(self):
        assert STEP_TOL == 1e-9  # so the first count refused is 5e8
        assert step_count(0.0, 499_999_999.0, 1.0) == 499_999_999
        with pytest.raises(ValueError, match="t_end"):
            step_count(0.0, 500_000_000.0, 1.0)


class TestRateFit:
    def test_exact_power_law_recovered(self):
        eps = [0.2, 0.1, 0.05, 0.025]
        errors = [3.0 * e**1.25 for e in eps]
        fit = fit_rate(eps, errors, gamma_half=0.5)
        assert fit.slope == pytest.approx(1.25, abs=1e-12)
        assert fit.intercept == pytest.approx(math.log(3.0), abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_noisy_data_reduces_r_squared(self):
        eps = [0.2, 0.1, 0.05, 0.025]
        errors = [e**1.0 * (1.0 + 0.3 * (-1) ** i) for i, e in enumerate(eps)]
        fit = fit_rate(eps, errors, gamma_half=0.5)
        assert 0.0 <= fit.r_squared < 1.0


class TestRunPair:
    def test_plumbing_cannot_manufacture_error(self, monkeypatch):
        """With the SHMHD solver replaced by a hydrostatic lift of the PEHM
        trajectory, every difference metric is identically zero."""
        cfg = SweepConfig(alpha=3.0, **TINY)

        def lifted_run(s0, params, sample_every, sample):
            _, s_lim0 = initial_samples(cfg)
            out = []
            for smp in pehm_run(s_lim0, params.dt, params.t_end, sample_every):
                f = smp.state
                a3, b3 = hydrostatic(f[:2]), hydrostatic(f[2:])
                out.append(sample(Sample(smp.grid, smp.t, gather([*f[:2], a3, *f[2:], b3]), smp.record)))
            return out

        monkeypatch.setattr(sweep_mod, "shmhd_run", lifted_run)
        result = run_pair(cfg, 0.1, *shared_inputs(cfg))
        assert result.status == "ok"
        assert result.sup_err_l2 == 0.0
        assert result.sup_err_h1 == 0.0
        assert all(r.d_diss_accum == 0.0 for r in result.rows if r.system == "shmhd")

    def test_real_pair_produces_positive_error(self):
        cfg = SweepConfig(alpha=3.0, **TINY)
        result = run_pair(cfg, 0.2, *shared_inputs(cfg))
        assert result.status == "ok"
        assert result.sup_err_l2 > 0.0
        assert result.energy_pass

    def test_shared_inputs_match_self_seeded_cells(self):
        """Cells run from one shared seeded state and PEHM trajectory give the
        results of cells that each get fresh ones, and leave both unchanged."""
        cfg = SweepConfig(alpha=4.0, **TINY)
        limit, s_eps0 = shared_inputs(cfg)
        shared = [run_pair(cfg, eps, limit, s_eps0) for eps in (0.2, 0.1)]
        assert shared == [run_pair(cfg, eps, *shared_inputs(cfg)) for eps in (0.2, 0.1)]
        lim_fresh, fresh = shared_inputs(cfg)
        for got, want in zip(s_eps0.state, fresh.state):
            assert np.array_equal(got.coeffs, want.coeffs)
        for got, want in zip(limit, lim_fresh):
            assert all(np.array_equal(f.coeffs, g.coeffs)
                       for f, g in zip(got.state, want.state))

    def test_smaller_eps_gives_smaller_error(self):
        cfg = SweepConfig(alpha=4.0, **TINY)
        limit, s_eps0 = shared_inputs(cfg)
        big = run_pair(cfg, 0.2, limit, s_eps0).sup_err_l2
        small = run_pair(cfg, 0.05, limit, s_eps0).sup_err_l2
        assert small < big


class TestRunSweep:
    def test_rejects_alpha_at_two(self):
        cfg = SweepConfig(alpha=2.0, **TINY)
        with pytest.raises(ConfigError, match="alpha"):
            run_sweep(cfg)

    def test_rejects_short_ladder(self):
        cfg = SweepConfig(alpha=3.0, eps_ladder=(0.2, 0.1), **TINY)
        with pytest.raises(ConfigError, match="3 ladder points"):
            run_sweep(cfg)

    def test_tiny_sweep_fits_a_rate(self):
        cfg = SweepConfig(alpha=4.0, eps_ladder=(0.2, 0.1, 0.05), **TINY)
        result = run_sweep(cfg, jobs=1)
        assert result.fit is not None
        assert result.fit.slope > 0.0
        assert result.fit.gamma_half_predicted == 1.0

    def test_parallel_matches_serial_bytes(self):
        cfg = SweepConfig(alpha=4.0, eps_ladder=(0.2, 0.1, 0.05), **TINY)
        serial = run_sweep(cfg, jobs=1)
        parallel = run_sweep(cfg, jobs=2)
        assert sweep_csv_text(serial) == sweep_csv_text(parallel)
        assert runs_csv_text([r for c in serial.cells for r in c.rows]) == \
            runs_csv_text([r for c in parallel.cells for r in c.rows])


    def test_pool_size_is_capped_by_the_ladder(self, monkeypatch):
        """A forking pool starts all its workers at the first submit, so a
        ``jobs`` above the ladder length must not reach it.  The pool here
        runs each cell inline and starts no process."""
        sizes = []

        class InlinePool:
            def __init__(self, max_workers, initializer, initargs):
                sizes.append(max_workers)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def submit(self, fn, *args):
                future = concurrent.futures.Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(sweep_mod, "_pool_inputs", sweep_mod._pool_inputs)
        cfg = SweepConfig(alpha=4.0, eps_ladder=(0.2, 0.1, 0.05, 0.025), **TINY)
        serial = run_sweep(cfg, jobs=1)
        pooled = run_sweep(cfg, jobs=10**6)
        assert sizes and max(sizes) <= 4
        for text in (sweep_csv_text, summary_text):
            assert text(pooled) == text(serial)
        assert runs_csv_text([r for c in pooled.cells for r in c.rows]) == \
            runs_csv_text([r for c in serial.cells for r in c.rows])

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_pehm_runs_once_per_sweep(self, monkeypatch, tmp_path, jobs):
        """Every cell compares against one PEHM trajectory, computed in the
        parent; calls are logged to a file so pool workers would show too."""
        log = tmp_path / "pehm_calls"

        def logged_run(*args, **kwargs):
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()}\n")
            return pehm_run(*args, **kwargs)

        monkeypatch.setattr(sweep_mod, "pehm_run", logged_run)
        cfg = SweepConfig(alpha=4.0, eps_ladder=(0.2, 0.1, 0.05), **TINY)
        result = run_sweep(cfg, jobs=jobs)
        assert [c.status for c in result.cells] == ["ok"] * 3
        assert log.read_text().split() == [str(os.getpid())]

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("exc", [ValueError, RuntimeError, ZeroDivisionError, MemoryError, BlowUpError])
    def test_failing_cell_is_isolated(self, monkeypatch, tmp_path, jobs, exc):
        def failing_run(s0, params, *args, **kwargs):
            if params.eps == 0.1:
                raise exc("injected failure")
            return shmhd_run(s0, params, *args, **kwargs)

        monkeypatch.setattr(sweep_mod, "shmhd_run", failing_run)
        cfg = SweepConfig(alpha=4.0, eps_ladder=(0.2, 0.1, 0.05), **TINY)
        result = run_sweep(cfg, jobs=jobs)
        status = "blowup:injected failure" if exc is BlowUpError else f"error:{exc.__name__}"
        assert [c.status for c in result.cells] == ["ok", status, "ok"]
        assert [e for e, _ in result.errors] == [0.2, 0.05]
        emit_report(result, tmp_path / "report")
        assert f"0.1,nan,nan,{status}" in (tmp_path / "report" / "sweep.csv").read_text()

    def test_dead_worker_fails_only_its_cell(self, monkeypatch, tmp_path):
        """A pool worker that exits mid-cell, on its first attempt and on the
        rerun, costs that cell alone; the report is still written."""
        def dying_run(s0, params, *args, **kwargs):
            if params.eps == 0.1:
                os._exit(1)
            return shmhd_run(s0, params, *args, **kwargs)

        monkeypatch.setattr(sweep_mod, "shmhd_run", dying_run)
        cfg = SweepConfig(alpha=4.0, eps_ladder=(0.2, 0.1, 0.05), **TINY)
        result = run_sweep(cfg, jobs=2)
        assert [c.status for c in result.cells] == ["ok", "error:WorkerDied", "ok"]
        assert result.fit is not None
        emit_report(result, tmp_path / "report")
        assert "0.1,nan,nan,error:WorkerDied" in (tmp_path / "report" / "sweep.csv").read_text()

    def test_worker_dying_once_is_rerun(self, monkeypatch, tmp_path):
        """A worker that dies on a cell's first attempt only: the rerun
        finishes it and the report matches the serial sweep byte for byte."""
        cfg = SweepConfig(alpha=4.0, eps_ladder=(0.2, 0.1, 0.05), **TINY)
        emit_report(run_sweep(cfg, jobs=1), tmp_path / "serial")
        died = tmp_path / "died"

        def dying_once(s0, params, *args, **kwargs):
            if params.eps == 0.1 and not died.exists():
                died.touch()
                os._exit(1)
            return shmhd_run(s0, params, *args, **kwargs)

        monkeypatch.setattr(sweep_mod, "shmhd_run", dying_once)
        emit_report(run_sweep(cfg, jobs=2), tmp_path / "pool")
        assert died.exists()
        for name in ("sweep.csv", "runs.csv", "summary.txt"):
            assert (tmp_path / "pool" / name).read_bytes() == (tmp_path / "serial" / name).read_bytes()

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_initial_samples_once_per_sweep(self, monkeypatch, tmp_path, jobs):
        """The seeded data is built once, in the parent, for the PEHM run and
        every cell; calls are logged to a file so pool workers would show too."""
        log = tmp_path / "seed_calls"

        def logged_initial_samples(*args, **kwargs):
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()}\n")
            return initial_samples(*args, **kwargs)

        monkeypatch.setattr(sweep_mod, "initial_samples", logged_initial_samples)
        cfg = SweepConfig(alpha=4.0, eps_ladder=(0.2, 0.1, 0.05), **TINY)
        result = run_sweep(cfg, jobs=jobs)
        assert [c.status for c in result.cells] == ["ok"] * 3
        assert log.read_text().split() == [str(os.getpid())]

    def test_zero_error_is_named_as_why_no_rate_fits(self):
        """Zero initial data: every cell succeeds with error 0, which a log-log
        fit cannot take, and the summary says so instead of blaming the cells."""
        cfg = SweepConfig(alpha=4.0, eps_ladder=(0.2, 0.1, 0.05), amplitude=0.0, **TINY)
        result = run_sweep(cfg, jobs=1)
        assert [c.status for c in result.cells] == ["ok"] * 3
        assert result.errors == [(0.2, 0.0), (0.1, 0.0), (0.05, 0.0)]
        assert result.fit is None
        assert summary_text(result).splitlines()[-1] == (
            "a successful cell has zero error, which has no logarithm: no rate fit, partial report only")

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("exc", [BlowUpError, ValueError, MemoryError])
    def test_pehm_blow_up_fails_every_cell(self, monkeypatch, jobs, exc):
        """The shared PEHM run fails every cell, whatever the failure's type,
        and the sweep still reports."""
        def exploding_run(*args, **kwargs):
            raise exc("non-finite coefficients in field a_h1 at t=0.01")

        monkeypatch.setattr(sweep_mod, "pehm_run", exploding_run)
        cfg = SweepConfig(alpha=4.0, eps_ladder=(0.2, 0.1, 0.05), **TINY)
        result = run_sweep(cfg, jobs=jobs)
        status = ("blowup:non-finite coefficients in field a_h1 at t=0.01" if exc is BlowUpError
                  else f"error:{exc.__name__}")
        assert [c.status for c in result.cells] == [status] * 3
        assert result.fit is None
        assert summary_text(result).splitlines()[-1] == (
            "fewer than 2 successful cells: no rate fit, partial report only")


class TestPinnedOracle:
    """The quick-smoke sweep against values from the two-copy implementation
    that preceded the shared integrator: a refactor of the solvers must not
    move them beyond rounding."""

    SUP_ERR_L2 = (1.6714225004581515, 1.0439873236438089, 0.6003024648745318)
    SUP_ERR_H1 = (12.275665608836727, 8.273269179862732, 5.0051433963354945)
    SLOPE = 0.7386574827958219

    def test_quick_smoke_matches_pinned_values(self):
        cfg = load_config(Path(__file__).resolve().parent.parent / "configs" / "quick_smoke.cfg")
        result = run_sweep(cfg)
        assert [c.status for c in result.cells] == ["ok"] * 3
        got_l2 = [c.sup_err_l2 for c in result.cells]
        got_h1 = [c.sup_err_h1 for c in result.cells]
        assert got_l2 == pytest.approx(self.SUP_ERR_L2, rel=1e-8)
        assert got_h1 == pytest.approx(self.SUP_ERR_H1, rel=1e-8)
        assert result.fit.slope == pytest.approx(self.SLOPE, rel=1e-6)


class TestReporting:
    @staticmethod
    def _result():
        cfg = SweepConfig(alpha=4.0, eps_ladder=(0.2, 0.1, 0.05), **TINY)
        return run_sweep(cfg, jobs=1)

    def test_emit_report_writes_all_files(self, tmp_path):
        result = self._result()
        out = tmp_path / "report"
        emit_report(result, out)
        for name in ("runs.csv", "sweep.csv", "summary.txt", "rate.svg"):
            assert (out / name).exists()

    def test_csv_round_trip_parse(self):
        result = self._result()
        lines = sweep_csv_text(result).strip().splitlines()
        assert lines[0] == "eps,sup_err_l2,sup_err_h1,status"
        for line, cell in zip(lines[1:], result.cells):
            eps, err_l2, err_h1, status = line.split(",")
            assert float(eps) == cell.eps
            assert float(err_l2) == pytest.approx(cell.sup_err_l2)
            assert status == "ok"

    def test_runs_csv_schema(self):
        result = self._result()
        lines = runs_csv_text([r for c in result.cells for r in c.rows]).strip().splitlines()
        assert lines[0] == (
            "run_id,system,eps,alpha,t,e_l2,dissipation_accum,"
            "d_l2,d_diss_accum,d_h1,parity_defect,div_defect"
        )
        row = lines[1].split(",")
        assert row[1] in ("shmhd", "pehm")
        assert float(row[4]) == 0.0  # first sample is t = 0

    def test_summary_mentions_faster_than_predicted_rates(self):
        result = self._result()
        text = summary_text(result)
        assert "fitted slope" in text
        if result.fit.slope > result.fit.gamma_half_predicted:
            assert "exceeds the predicted" in text

    def test_svg_has_points_and_fit_line(self):
        result = self._result()
        from hydrolimit.sweep import rate_svg_text

        svg = rate_svg_text(result)
        assert svg.count("<circle") == len(result.errors)
        assert "<line" in svg
        assert "slope=" in svg

    def test_report_files_are_replaced_atomically(self, monkeypatch, tmp_path):
        result = self._result()
        out = tmp_path / "report"
        emit_report(result, out)
        before = (out / "runs.csv").read_bytes()

        def failing_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(sweep_mod.os, "replace", failing_replace)
        with pytest.raises(OSError, match="disk full"):
            emit_report(result, out)
        assert (out / "runs.csv").read_bytes() == before
        assert sorted(p.name for p in out.iterdir()) == ["rate.svg", "runs.csv", "summary.txt", "sweep.csv"]

    def test_unwritable_directory_raises(self, tmp_path):
        result = self._result()
        target = tmp_path / "blocked"
        target.write_text("a plain file occupies the output path")
        with pytest.raises(OSError, match="not writable"):
            emit_report(result, target)

    def test_write_check_leaves_every_existing_file(self, tmp_path):
        """The write check of ``--out`` uses no fixed file name, so a file of
        the user's that has the name an earlier probe used keeps its content."""
        probe = tmp_path / ".write_probe"
        probe.write_text("the user's own file")
        sweep_mod.check_out_dir(tmp_path)
        assert probe.read_text() == "the user's own file"
        assert [p.name for p in tmp_path.iterdir()] == [".write_probe"]
