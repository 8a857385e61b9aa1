"""CLI behaviour (fast paths only; figure generation is benched)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.experiments import parallel
from repro.experiments.cli import EXPERIMENTS, build_parser, main
from repro.experiments.scenarios import GAMING_DL

#: One bad value per ``REPRO_*`` variable that holds a choice.
BAD_ENV = {"REPRO_WORKERS": "abc", "REPRO_FAULT_PROFILE": "bogus", "REPRO_SIM_KERNEL": "bogus"}


class TestParser:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out

    def test_unknown_experiment_rejected(self, capsys):
        assert main(["run", "figure99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_requires_names(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run"])

    def test_every_benchmarked_figure_is_exposed(self):
        expected = {
            "figure3", "figure4", "figure12", "table2", "figure13",
            "figure14", "figure15", "figure16a", "figure16b",
            "figure17", "figure18",
        }
        assert expected == set(EXPERIMENTS)


class TestRun:
    def test_run_fast_experiment(self, capsys):
        assert main(["run", "figure16a"]) == 0
        out = capsys.readouterr().out
        assert "Figure 16a" in out
        assert "w/ TLC" in out


class TestFleet:
    def test_out_of_range_override_is_usage_error(self, tmp_path, capsys):
        code = main(
            ["fleet", "--ues", "4", "--outage-eta", "1.5", "--no-cache",
             "--out-dir", str(tmp_path)]
        )
        assert code == 2
        assert "eta must be in (0, 1)" in capsys.readouterr().err

    def test_non_finite_zipf_is_usage_error(self, tmp_path, capsys):
        # A NaN exponent used to put every UE on the last archetype.
        code = main(
            ["fleet", "--ues", "4", "--cycles", "1", "--cycle-seconds", "2",
             "--zipf", "nan", "--no-cache", "--out-dir", str(tmp_path)]
        )
        assert code == 2
        assert "zipf exponent must be finite, got nan" in capsys.readouterr().err


class TestBadEnvironment:
    """A bad ``REPRO_*`` value is a usage error naming it, never a traceback
    (they were read at import, so every subcommand died in it)."""

    @pytest.mark.parametrize("var", list(BAD_ENV))
    def test_bad_value_is_a_usage_error(self, tmp_path, var):
        env = {**os.environ, var: BAD_ENV[var]}
        src = str(Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)

        def repro_cli(*args):
            return subprocess.run(
                [sys.executable, "-m", "repro", *args],
                capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
            )

        assert repro_cli("list").returncode == 0  # reads no REPRO_* variable
        done = repro_cli(
            "fleet", "--ues", "2", "--cycles", "1", "--cycle-seconds", "2",
            "--no-cache", "--no-manifest",
        )
        assert done.returncode == 2
        (line,) = done.stderr.splitlines()
        assert f"{var}={BAD_ENV[var]!r}" in line
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "var, argv",
        [
            pytest.param(var, argv, id=f"{var}-{argv[0]}")
            for var in BAD_ENV
            for argv in (
                ["run", "figure14"], ["fleet", "--ues", "2"], ["serve", "--ues", "2"],
                ["report", "--out", "r.md"], ["baseline"], ["obs", "--list"],
            )
            # obs reads cached results and simulates nothing.
            if (var, argv[0]) != ("REPRO_SIM_KERNEL", "obs")
        ],
    )
    def test_every_subcommand_that_reads_it_refuses(
        self, tmp_path, monkeypatch, capsys, var, argv
    ):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv(var, BAD_ENV[var])
        assert main(argv) == 2
        assert f"{var}={BAD_ENV[var]!r}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("var", ["REPRO_WORKERS", "REPRO_FAULT_PROFILE"])
    def test_library_sweep_reads_the_environment_on_first_use(self, monkeypatch, var):
        monkeypatch.setattr(parallel, "_from_env", True)
        for name in ("_default_workers", "_default_cache", "_default_faults"):
            monkeypatch.setattr(parallel, name, getattr(parallel, name))
        monkeypatch.setenv(var, BAD_ENV[var])
        with pytest.raises(ValueError, match=f"{var}={BAD_ENV[var]!r}"):
            parallel.run_scenarios([GAMING_DL.with_(n_cycles=1, cycle_duration_s=2.0)])
