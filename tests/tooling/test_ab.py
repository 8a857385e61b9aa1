"""The paired A/B comparison's summary and verdict, on synthetic numbers."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[2] / "benchmarks" / "ab.py"
_SPEC = importlib.util.spec_from_file_location("ab", _PATH)
ab = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab)

BASE = [20.0, 22.0, 24.0, 21.0, 23.0, 25.0, 22.5, 21.5, 23.5, 24.5]


def test_clear_gain_on_a_higher_is_better_metric():
    change = [b * 1.4 for b in BASE]
    row = ab.summarize(BASE, change, "higher", 0.24)
    assert row["verdict"] == ab.GAIN
    assert row["wins"] == 10
    assert row["ratio_median"] == pytest.approx(1.4)
    assert row["base"]["median"] == pytest.approx(22.75)


def test_gain_needs_nine_of_ten_wins():
    change = [b * 1.4 for b in BASE]
    change[0] = change[1] = 1.0  # two lost pairs
    row = ab.summarize(BASE, change, "higher", 0.24)
    assert row["wins"] == 8
    assert row["verdict"] != ab.GAIN


def test_gain_needs_the_median_beyond_the_base_iqr():
    # Every pair wins by a hair: consistent, but inside the base spread.
    change = [b + 0.01 for b in BASE]
    row = ab.summarize(BASE, change, "higher", 0.24)
    assert row["wins"] == 10
    assert row["verdict"] == ab.NO_WORSE


def test_lower_is_better_metric_flips_the_sign():
    change = [b * 0.5 for b in BASE]
    assert ab.summarize(BASE, change, "lower", 0.24)["verdict"] == ab.GAIN
    assert ab.summarize(BASE, change, "higher", 0.24)["verdict"] == ab.WORSE


def test_worse_beyond_the_bound():
    change = [b * 0.7 for b in BASE]
    row = ab.summarize(BASE, change, "higher", 0.24)
    assert row["verdict"] == ab.WORSE
    assert row["wins"] == 0


def test_small_loss_inside_the_bound_is_no_worse():
    change = [b * 0.9 for b in BASE]
    assert ab.summarize(BASE, change, "higher", 0.24)["verdict"] == ab.NO_WORSE


def test_wide_spread_is_unresolved_not_unchanged():
    base = [10.0, 20.0, 30.0, 15.0, 25.0, 12.0, 28.0, 18.0, 22.0, 16.0]
    change = list(reversed(base))
    row = ab.summarize(base, change, "lower", 0.24)
    assert row["verdict"] == ab.UNRESOLVED


def test_identical_constant_metric_is_no_worse():
    ones = [1.0] * 10
    row = ab.summarize(ones, ones, "higher", 0.01)
    assert row["verdict"] == ab.NO_WORSE
    assert row["wins"] == 0
    assert row["ratio_median"] == 1.0


def test_single_pair_and_zero_base():
    row = ab.summarize([0.0], [0.0], "lower", 0.2)
    assert row["verdict"] == ab.NO_WORSE
    assert row["ratio_median"] is None


def test_rejects_unpaired_samples():
    with pytest.raises(ValueError):
        ab.summarize([1.0, 2.0], [1.0], "higher", 0.24)
    with pytest.raises(ValueError):
        ab.summarize([1.0], [1.0], "sideways", 0.24)


def test_parse_seeds_ranges_and_lists():
    assert ab.parse_seeds(["31-33", "40"]) == [31, 32, 33, 40]
    with pytest.raises(ValueError):
        ab.parse_seeds(["1-3", "2"])


def test_ratio_summary_medians_and_ratio_quartiles():
    base = [1.0, 2.0, 4.0, 1.0, 2.0]
    change = [1.1, 1.8, 4.4, 1.0, 2.2]  # ratios 1.1, 0.9, 1.1, 1.0, 1.1
    row = ab.ratio_summary(base, change)
    assert row["rounds"] == 5
    assert row["base_median"] == 2.0
    assert row["change_median"] == pytest.approx(1.8)
    assert row["ratio"]["median"] == pytest.approx(1.1)
    assert row["ratio"]["q1"] == pytest.approx(0.95)
    assert row["ratio"]["q3"] == pytest.approx(1.1)


def test_ratio_summary_pairs_rounds_not_sorted_sides():
    # Per-side medians agree, yet every round the change took twice as
    # long: the paired ratio must say so.
    base = [1.0, 2.0, 3.0, 4.0]
    change = [2.0, 4.0, 6.0, 0.5]
    row = ab.ratio_summary(base, change)
    assert row["ratio"]["median"] == pytest.approx(2.0)


def test_ratio_summary_rejects_unpaired_or_zero_samples():
    with pytest.raises(ValueError):
        ab.ratio_summary([1.0, 2.0], [1.0])
    with pytest.raises(ValueError):
        ab.ratio_summary([], [])
    with pytest.raises(ValueError):
        ab.ratio_summary([0.0], [1.0])


def test_bootstrap_interval_of_identical_sides_is_one():
    row = ab.summarize(BASE, list(BASE), "higher", 0.24)
    assert row["ratio_ci95"] == [1.0, 1.0]


def test_bootstrap_interval_is_seeded_and_brackets_the_median():
    ratios = [1.3, 1.5, 1.4, 1.2, 1.6, 1.45, 1.35, 1.25, 1.55, 1.4]
    change = [b * r for b, r in zip(BASE, ratios)]
    first = ab.summarize(BASE, change, "higher", 0.24)["ratio_ci95"]
    assert ab.summarize(BASE, change, "higher", 0.24)["ratio_ci95"] == first
    low, high = first
    assert 1.2 <= low <= 1.4 <= high <= 1.6


def test_bootstrap_interval_needs_ratios():
    assert ab.summarize([0.0], [0.0], "lower", 0.2)["ratio_ci95"] is None
