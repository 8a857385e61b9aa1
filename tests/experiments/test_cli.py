"""CLI behaviour (fast paths only; figure generation is benched)."""

import pytest

from repro.experiments.cli import EXPERIMENTS, build_parser, main


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
