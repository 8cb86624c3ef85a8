"""CLI subcommands, flags, exit codes, and emitted files."""

import numpy as np
import pytest

import hydrolimit.cli as cli_mod
from hydrolimit.cli import EXIT_BLOWUP, EXIT_OK, EXIT_VALIDATION, main

TINY_CFG = (
    "n1 = 8\nn2 = 8\nn3 = 8\n"
    "alpha = 3.0\n"
    "eps = 0.2\neps = 0.1\neps = 0.05\n"
    "dt = 0.002\nt_end = 0.02\nsample_every = 5\n"
)


@pytest.fixture
def tiny_cfg(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY_CFG)
    return str(path)


class TestVerify:
    def test_passes_on_seeded_states(self, tiny_cfg, capsys):
        code = main(["verify", "--config", tiny_cfg, "--states", "3"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert out.count("PASS") == 7
        assert "FAIL" not in out


class TestSimulate:
    @pytest.mark.parametrize("system", ["shmhd", "pehm"])
    def test_runs_and_writes_csv(self, tiny_cfg, tmp_path, system):
        out = tmp_path / f"out_{system}"
        code = main(
            ["simulate", "--config", tiny_cfg, "--system", system, "--out", str(out)]
        )
        assert code == EXIT_OK
        lines = (out / "runs.csv").read_text().strip().splitlines()
        assert lines[0].startswith("run_id,system,eps,alpha,t")
        assert all(f",{system}," in line for line in lines[1:])

    def test_explicit_eps_flag(self, tiny_cfg, tmp_path):
        out = tmp_path / "out"
        code = main(
            ["simulate", "--config", tiny_cfg, "--eps", "0.07", "--out", str(out)]
        )
        assert code == EXIT_OK
        assert ",0.07," in (out / "runs.csv").read_text()

    @pytest.mark.filterwarnings("ignore::UserWarning")
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_blow_up_exit_code(self, tmp_path):
        path = tmp_path / "explode.cfg"
        # huge amplitude and time step: guaranteed non-finite within the run
        path.write_text(
            TINY_CFG.replace("dt = 0.002", "dt = 0.5").replace("t_end = 0.02", "t_end = 5.0")
            + "amplitude = 1e8\n"
        )
        code = main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == EXIT_BLOWUP


class TestSweep:
    def test_writes_report(self, tiny_cfg, tmp_path):
        out = tmp_path / "report"
        code = main(["sweep", "--config", tiny_cfg, "--out", str(out), "--jobs", "2"])
        assert code == EXIT_OK
        for name in ("runs.csv", "sweep.csv", "summary.txt", "rate.svg"):
            assert (out / name).exists()

    def test_mode_override_flag(self, tiny_cfg, tmp_path):
        code = main(
            ["sweep", "--config", tiny_cfg, "--mode", "h1", "--out", str(tmp_path / "o")]
        )
        assert code == EXIT_OK


class TestValidationFailures:
    def test_missing_config(self, tmp_path):
        code = main(["sweep", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path)])
        assert code == EXIT_VALIDATION

    def test_malformed_config(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("alpha == 3\n")
        code = main(["verify", "--config", str(path)])
        assert code == EXIT_VALIDATION

    @pytest.mark.parametrize(
        "old, new",
        [
            ("t_end = 0.02", "t_end = inf"),
            ("alpha = 3.0", "alpha = nan"),
            ("eps = 0.1", "eps = nan"),
            ("t_end = 0.02", "t_end = 0.0105"),  # not a whole number of dt = 0.002 steps
        ],
    )
    def test_simulate_rejects_bad_number(self, tmp_path, capsys, old, new):
        path = tmp_path / "bad.cfg"
        path.write_text(TINY_CFG.replace(old, new))
        code = main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:")

    @pytest.mark.parametrize(
        "command, flags, ladder",
        [
            ("sweep", [], "eps = 0.2\neps = 0.1\neps = 1e-200\n"),  # eps**2 underflows to zero
            ("sweep", [], "eps = 1e160\neps = 0.1\neps = 0.05\n"),  # eps**2 overflows
            ("simulate", ["--eps", "1e-200"], "eps = 0.2\neps = 0.1\neps = 0.05\n"),
        ],
        ids=["sweep-tiny", "sweep-huge", "simulate-tiny"],
    )
    def test_rejects_eps_without_normal_weights(self, tmp_path, capsys, command, flags, ladder):
        path = tmp_path / "eps.cfg"
        path.write_text(TINY_CFG.replace("eps = 0.2\neps = 0.1\neps = 0.05\n", ladder))
        code = main([command, "--config", str(path), "--out", str(tmp_path / "o"), *flags])
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:")

    @pytest.mark.parametrize(
        "argv", [["sweep", "--jobs", "0"], ["sweep", "--jobs", "-3"],
                 ["verify", "--states", "0"], ["verify", "--states", "-1"]],
        ids=["jobs0", "jobs-3", "states0", "states-1"],
    )
    def test_rejects_non_positive_count(self, tiny_cfg, tmp_path, capsys, argv):
        code = main([*argv, "--config", tiny_cfg, "--out", str(tmp_path / "o")])
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:")

    def test_sweep_rejects_alpha_two(self, tmp_path):
        path = tmp_path / "a2.cfg"
        path.write_text(TINY_CFG.replace("alpha = 3.0", "alpha = 2.0"))
        code = main(["sweep", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == EXIT_VALIDATION

    @pytest.mark.parametrize("command, runner", [("sweep", "run_sweep"), ("simulate", "shmhd_run")])
    def test_unwritable_out_fails_before_running(self, tiny_cfg, tmp_path, capsys, monkeypatch,
                                                 command, runner):
        blocked = tmp_path / "blocked"
        blocked.write_text("a plain file occupies the output path")

        def must_not_run(*args, **kwargs):
            raise AssertionError(f"{runner} ran before --out was checked")

        monkeypatch.setattr(cli_mod, runner, must_not_run)
        code = main([command, "--config", tiny_cfg, "--out", str(blocked)])
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: output directory not writable")
