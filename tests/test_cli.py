"""CLI subcommands, flags, exit codes, and emitted files."""

import math
import os
from pathlib import Path
import resource
import subprocess
import sys
import tracemalloc

import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

import hydrolimit.cli as cli_mod
import hydrolimit.verify as verify_mod
from hydrolimit.cli import EXIT_BLOWUP, EXIT_OK, EXIT_VALIDATION, main
from hydrolimit.grid import GridSpec
from hydrolimit.verify import run_battery

SRC = str(Path(__file__).resolve().parent.parent / "src")
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
        assert out.count("PASS") == 6
        assert "FAIL" not in out

    def test_battery_checks_the_solvers_transform_pair(self, monkeypatch):
        """A fault planted in the forward transform the solvers use (one kept
        x line zeroed) fails the round-trip and Parseval checks."""
        forward = verify_mod.band_from_physical

        def faulty(grid, values):
            block = forward(grid, values)
            block[1] = 0.0
            return block

        monkeypatch.setattr(verify_mod, "band_from_physical", faulty)
        verdicts = {r.name: r.passed for r in run_battery(GridSpec(8, 8, 8), [7])}
        assert not verdicts["transform round-trip"]
        assert not verdicts["parseval"]


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

    def test_enormous_t_end_exits_before_running(self, tmp_path):
        # in a subprocess with a timeout: an unchecked run would never end
        path = tmp_path / "huge.cfg"
        path.write_text(TINY_CFG.replace("t_end = 0.02", "t_end = 1e300"))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run(
            [sys.executable, "-m", "hydrolimit.cli", "simulate", "--config", str(path),
             "--out", str(tmp_path / "o")],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == EXIT_VALIDATION
        lines = proc.stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: t_end:")

    @pytest.mark.parametrize("system, n_fields", [("shmhd", 6), ("pehm", 4)])
    def test_keeps_records_not_states(self, tmp_path, system, n_fields):
        # 41 samples at 16^3: keeping each state would hold 41 of them; the
        # bound is half of that, well above the working set of one step
        path = tmp_path / "mem.cfg"
        path.write_text(TINY_CFG.replace("= 8", "= 16").replace("t_end = 0.02", "t_end = 0.08")
                        .replace("sample_every = 5", "sample_every = 1"))
        state_bytes = n_fields * 16 * 16 * (16 // 2 + 1) * 16
        tracemalloc.start()
        try:
            code = main(["simulate", "--config", str(path), "--system", system,
                         "--out", str(tmp_path / "o")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_OK
        assert len((tmp_path / "o" / "runs.csv").read_text().splitlines()) == 1 + 41
        assert peak < 0.5 * 41 * state_bytes


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

    def test_no_rate_fit_names_zero_error(self, tiny_cfg, tmp_path, capsys):
        # every cell of a zero-amplitude sweep succeeds with error 0
        Path(tiny_cfg).write_text(TINY_CFG + "amplitude = 0\n")
        code = main(["sweep", "--config", tiny_cfg, "--out", str(tmp_path / "o")])
        assert code == EXIT_OK
        assert capsys.readouterr().out == ("no rate fit (a successful cell has zero error, which "
                                           "has no logarithm); partial report emitted\n")
        assert (tmp_path / "o" / "sweep.csv").read_text().splitlines()[1:] == [
            "0.2,0.0,0.0,ok", "0.1,0.0,0.0,ok", "0.05,0.0,0.0,ok"]


class TestValidationFailures:
    def test_missing_config(self, tmp_path):
        code = main(["sweep", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path)])
        assert code == EXIT_VALIDATION

    def test_repeated_key(self, tiny_cfg, capsys):
        Path(tiny_cfg).write_text(TINY_CFG + "dt = 0.004\n")
        assert main(["verify", "--config", tiny_cfg]) == EXIT_VALIDATION
        assert f"{tiny_cfg}:11: duplicate key 'dt'" in capsys.readouterr().err

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
            # --eps replaces the ladder, so the config checks it for PEHM too, whose rows carry it
            ("simulate", ["--system", "pehm", "--eps", "-5"], "eps = 0.2\neps = 0.1\neps = 0.05\n"),
            ("simulate", ["--system", "pehm", "--eps", "nan"], "eps = 0.2\neps = 0.1\neps = 0.05\n"),
            ("simulate", ["--system", "pehm", "--eps", "1e-200"], "eps = 0.2\neps = 0.1\neps = 0.05\n"),
        ],
        ids=["sweep-tiny", "sweep-huge", "simulate-tiny", "pehm-negative", "pehm-nan", "pehm-tiny"],
    )
    def test_rejects_eps_without_normal_weights(self, tmp_path, capsys, command, flags, ladder):
        path = tmp_path / "eps.cfg"
        path.write_text(TINY_CFG.replace("eps = 0.2\neps = 0.1\neps = 0.05\n", ladder))
        code = main([command, "--config", str(path), "--out", str(tmp_path / "o"), *flags])
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err.strip().splitlines()
        # the key is named once, in the ``<key>: `` form of every config message
        assert len(err) == 1 and err[0].startswith("error: eps: ")
        assert not err[0].removeprefix("error: eps: ").startswith("eps")

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    def test_rejects_ladder_values_that_print_alike(self, tmp_path, capsys, command):
        """Two cells would share a run id in runs.csv and a line in summary.txt."""
        path = tmp_path / "alike.cfg"
        ladder = "alpha = 4.0\neps = 0.1000002\neps = 0.1000001\neps = 0.05\n"
        path.write_text(TINY_CFG.replace("alpha = 3.0\neps = 0.2\neps = 0.1\neps = 0.05\n", ladder))
        code = main([command, "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: eps: ")
        assert "0.1000002" in err[0] and "0.1000001" in err[0]
        assert not (tmp_path / "o").exists()

    # a negative seed, an m0 whose square is not a normal float, a box length
    # whose spacing l1 / n1 rounds to zero (the CFL guard divided by it), and an
    # amplitude whose square overflows (the run blew up at step 0)
    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    @pytest.mark.parametrize(
        "line", ["seed = -1", "m0 = 0", "m0 = 1e-300", "l1 = 5e-324", "amplitude = 1e160", "amplitude = -1e160"]
    )
    def test_rejects_out_of_range_key(self, tmp_path, capsys, command, line):
        path = tmp_path / "bad.cfg"
        path.write_text(TINY_CFG + line + "\n")
        code = main([command, "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err.strip().splitlines()
        key = line.split()[0]
        assert len(err) == 1 and err[0].startswith(f"error: {key}:")

    @pytest.mark.parametrize("command", ["simulate", "verify"])
    def test_jobs_is_a_sweep_only_flag(self, tiny_cfg, tmp_path, command):
        out = ["--out", str(tmp_path / "o")] if command == "simulate" else []
        with pytest.raises(SystemExit) as exc_info:
            main([command, "--config", tiny_cfg, *out, "--jobs", "2"])
        assert exc_info.value.code == EXIT_VALIDATION

    # --mode is read only by sweep, and verify writes no files
    @pytest.mark.parametrize(
        "command, flag", [("simulate", "--mode"), ("verify", "--mode"), ("verify", "--out")],
        ids=["simulate-mode", "verify-mode", "verify-out"],
    )
    def test_flag_is_accepted_only_where_read(self, tiny_cfg, tmp_path, command, flag):
        out = ["--out", str(tmp_path / "o")]
        argv = [command, "--config", tiny_cfg, *(out if command == "simulate" else [])]
        with pytest.raises(SystemExit) as exc_info:
            main([*argv, *({"--mode": ["--mode", "h1"], "--out": out}[flag])])
        assert exc_info.value.code == EXIT_VALIDATION

    @pytest.mark.parametrize(
        "argv", [["sweep", "--jobs", "0"], ["sweep", "--jobs", "-3"],
                 ["verify", "--states", "0"], ["verify", "--states", "-1"]],
        ids=["jobs0", "jobs-3", "states0", "states-1"],
    )
    def test_rejects_non_positive_count(self, tiny_cfg, tmp_path, capsys, argv):
        out = ["--out", str(tmp_path / "o")] if argv[0] == "sweep" else []
        code = main([*argv, "--config", tiny_cfg, *out])
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert not (tmp_path / "o").exists()

    @staticmethod
    def sweep_rejects_before_making_out(tmp_path, capsys, cfg_text):
        path = tmp_path / "bad.cfg"
        path.write_text(cfg_text)
        code = main(["sweep", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert not (tmp_path / "o").exists()

    def test_sweep_rejects_alpha_two(self, tmp_path, capsys):
        self.sweep_rejects_before_making_out(tmp_path, capsys, TINY_CFG.replace("alpha = 3.0", "alpha = 2.0"))

    def test_sweep_rejects_two_point_ladder(self, tmp_path, capsys):
        self.sweep_rejects_before_making_out(tmp_path, capsys, TINY_CFG.replace("eps = 0.05\n", ""))

    @pytest.mark.parametrize("argv", [["simulate", "--out", "o"], ["verify"], ["sweep", "--jobs", "2", "--out", "o"]],
                             ids=["simulate", "verify", "sweep-jobs2"])
    def test_grid_too_large_to_allocate(self, tmp_path, argv):
        # the first draw of a 65536^3 grid asks for 2 PiB, beyond the address
        # space, so malloc refuses it without touching memory; the address-space
        # limit keeps any smaller allocation a future change puts first harmless
        def limit_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))

        path = tmp_path / "big.cfg"
        path.write_text(TINY_CFG.replace("= 8", "= 65536"))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run(
            [sys.executable, "-m", "hydrolimit.cli", *argv, "--config", str(path)],
            capture_output=True, text=True, env=env, timeout=60, cwd=tmp_path,
            preexec_fn=limit_address_space,
        )
        assert proc.returncode == EXIT_VALIDATION
        assert "Traceback" not in proc.stderr
        lines = proc.stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: Unable to allocate")

    @pytest.mark.parametrize("command, runner",
                             [("sweep", "run_sweep"), ("simulate", "shmhd_run"), ("simulate", "initial_samples")])
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


# ---------------------------------------------------------------------------
# fuzzing: any config text and flags give exit 0, 2 or 3 and never a traceback

_EDGE_NUMBERS = ["0", "-0", "-1", "5e-324", "1e-310", "1e-300", "1e-160", "1e160", "1e300",
                 "1.7e308", "1e999", "nan", "inf", "-inf"]
_ANY_VALUE = st.one_of(
    st.sampled_from(_EDGE_NUMBERS),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.integers(-10**20, 10**20).map(str),
    st.text(alphabet=st.characters(blacklist_categories=("Cs",), blacklist_characters="\r\n"),
            max_size=6),
)
# the grid stays 8^3 whenever it is valid, so a generated config never allocates much
_BAD_GRID_COUNT = st.sampled_from(["7", "2", "0", "-8", "8.0", "eight", ""])
_TYPICAL = {
    "n1": ["8"], "n2": ["8"], "n3": ["8"], "dt": ["0.002", "0.5"], "l1": ["1.0", "6.28"],
    "l2": ["1.0", "6.28"], "alpha": ["3.0", "4.0"], "amplitude": ["0.1", "1e160"], "m0": ["2.5"],
    "seed": ["0", "7"], "sample_every": ["1", "5"], "mode": ["l2", "h1"],
}
_OPTIONAL = ["l1", "l2", "alpha", "amplitude", "m0", "seed", "sample_every", "mode"]


def _as_float(text: str):
    try:
        return float(text)
    except ValueError:
        return None


@st.composite
def _config_text(draw) -> str:
    """A valid 8^3 config in any key order, with up to two of its keys (the
    ladder and t_end included) given arbitrary values or a bad line added."""
    bad = draw(st.lists(st.sampled_from([*_TYPICAL, "eps", "t_end", "line"]), max_size=2, unique=True))
    keys = ["n1", "n2", "n3", "dt", *(k for k in _OPTIONAL if draw(st.booleans()) or k in bad)]
    values = {}
    for key in keys:
        if key not in bad:
            values[key] = draw(st.sampled_from(_TYPICAL[key]))
        elif key in ("n1", "n2", "n3"):
            values[key] = draw(_BAD_GRID_COUNT)
        else:
            values[key] = draw(_ANY_VALUE)
    # t_end is two steps of dt whenever dt parses, or a value that validation
    # rejects: a valid but huge t_end would only make a long run
    dt = _as_float(values["dt"])
    values["t_end"] = "0.004" if dt is None else repr(2.0 * dt)
    if "t_end" in bad:
        values["t_end"] = draw(st.one_of(
            st.just("0.003" if dt is None else repr(1.5 * dt)),
            _ANY_VALUE.filter(lambda v: not 0 < (_as_float(v) or 0) < math.inf),
        ))
    lines = draw(st.permutations([f"{key} = {value}" for key, value in values.items()]))
    if "line" in bad:
        lines.append(draw(st.sampled_from(["frobnicate = 1", "no equals sign", "mode"])))
    ladder = draw(st.lists(_ANY_VALUE, max_size=4)) if "eps" in bad else ["0.2", "0.1", "0.05"]
    at = draw(st.integers(0, len(lines)))
    lines[at:at] = [f"eps = {e}" for e in ladder]
    return "\n".join(lines) + "\n"


def _flags(command: str):
    """Up to two valid flags of the subcommand, sometimes followed by one
    that is malformed, out of range or belongs to another subcommand."""
    valid = {
        "simulate": [["--system", "pehm"], ["--eps", "0.07"]],
        "sweep": [["--jobs", "1"], ["--jobs", "2"], ["--mode", "l2"], ["--mode", "h1"]],
        "verify": [["--states", "1"], ["--states", "3"]],
    }[command]
    bad = st.one_of(
        st.sampled_from([["--mode", "x"], ["--mode", "h1"], ["--bogus"], ["--jobs", "0"], ["--jobs", "x"],
                         ["--jobs", "2"], ["--states", "0"], ["--states", "-1"],
                         ["--system", "x"], ["--eps"]]),
        _ANY_VALUE.map(lambda v: ["--eps", v]),
    )
    good = st.lists(st.sampled_from(valid), max_size=2)
    flags = st.one_of(good, st.tuples(good, bad).map(lambda gb: [*gb[0], gb[1]]))
    return flags.map(lambda fl: [f for flag in fl for f in flag])


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), command=st.sampled_from(["simulate", "sweep", "verify"]),
       text=_config_text(), out_blocked=st.sampled_from([False] * 9 + [True]))
def test_fuzzed_config_and_flags_exit_cleanly(tmp_path_factory, data, command, text, out_blocked):
    work = tmp_path_factory.mktemp("fuzz")
    cfg = work / "fuzz.cfg"
    cfg.write_text(text)
    out = work / "out"
    if out_blocked:
        out.write_text("a plain file occupies the output path")
    out_flag = [] if command == "verify" else ["--out", str(out)]  # verify writes no files
    argv = [command, "--config", str(cfg), *out_flag, *data.draw(_flags(command))]
    try:
        code = main(argv)
    except SystemExit as e:  # argparse rejects the flags
        code = e.code
    event(f"{command} exit {code}")
    assert code in (EXIT_OK, EXIT_VALIDATION, EXIT_BLOWUP)
