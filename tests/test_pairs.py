"""The summary maths of tools/pairs.py, on synthetic perfbench runs."""

import importlib.util
import math
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "pairs.py"
_SPEC = importlib.util.spec_from_file_location("pairs", _PATH)
pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(pairs)

LOWER = {"name": "wall_ref", "better": "lower", "bound": 0.15}
HIGHER = {"name": "rate", "better": "higher", "bound": 0.15}
SETUP = {"name": "setup_s", "better": "lower", "bound": 0.25}


def runs(metric, values, failed=0, attempted=10):
    return [
        {"metrics": {metric: {"value": v, "unit": "x"}}, "failed": failed, "attempted": attempted}
        for v in values
    ]


def summary(parent, change, metric=LOWER):
    (row,) = pairs.summarize(runs(metric["name"], parent), runs(metric["name"], change), [metric])
    return row


class TestQuartiles:
    def test_inclusive_quartiles_of_ten(self):
        # inclusive: positions (n - 1) / 4 = 2.25 and 6.75 of 0..9
        assert pairs.quartiles(list(range(1, 11))) == (3.25, 5.5, 7.75)

    def test_order_does_not_matter(self):
        assert pairs.quartiles([5, 1, 3, 2, 4]) == (2, 3, 4)

    def test_one_run(self):
        assert pairs.quartiles([0.2]) == (0.2, 0.2, 0.2)


class TestSummarize:
    def test_medians_quartiles_and_change(self):
        row = summary([1.0, 2.0, 3.0, 4.0, 5.0], [0.5, 1.0, 1.5, 2.0, 2.5])
        assert row["parent"] == {"q1": 2.0, "median": 3.0, "q3": 4.0}
        assert row["change"] == {"q1": 1.0, "median": 1.5, "q3": 2.0}
        assert row["change_frac"] == pytest.approx(-0.5)
        assert (row["wins"], row["pairs"]) == (5, 5)
        assert row["parent_iqr"] == 2.0

    def test_wins_count_strictly_better_pairs(self):
        # pair by pair: better, worse, tie, better
        row = summary([2, 2, 2, 2], [1, 3, 2, 1])
        assert row["wins"] == 2
        assert summary([2, 2, 2, 2], [1, 3, 2, 1], HIGHER)["wins"] == 1

    def test_equal_counts_win_nothing_and_read_plus_zero(self):
        row = summary([801699] * 10, [801699] * 10)
        assert (row["wins"], row["change_frac"], row["verdict"]) == (0, 0.0, "no worse")
        assert math.copysign(1, row["change_frac"]) == 1

    def test_gain_needs_nine_wins_in_ten(self):
        parent = [1.0] * 10
        assert summary(parent, [0.5] * 9 + [1.5])["verdict"] == "gain"
        assert summary(parent, [0.5] * 8 + [1.5] * 2)["verdict"] != "gain"

    def test_gain_needs_a_gap_beyond_the_parents_quartile_spread(self):
        parent = [1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8, 1.9]  # spread 0.45
        wide = summary(parent, [x - 0.4 for x in parent])
        assert wide["wins"] == 10 and wide["parent_iqr"] == pytest.approx(0.45)
        assert wide["verdict"] != "gain"
        assert summary(parent, [x - 0.5 for x in parent])["verdict"] == "gain"

    def test_gain_follows_the_better_direction(self):
        assert summary([1.0] * 10, [2.0] * 10, HIGHER)["verdict"] == "gain"
        assert summary([1.0] * 10, [2.0] * 10, LOWER)["verdict"] == "worse"
        assert summary([2.0] * 10, [1.0] * 10, LOWER)["change_frac"] == -0.5

    def test_zero_parent_median_has_no_change_fraction(self):
        assert math.isnan(summary([0, 0, 0], [0, 0, 0])["change_frac"])

    def test_worse_is_a_median_past_the_bound(self):
        parent = [1.0] * 10
        assert summary(parent, [1.16] * 10)["verdict"] == "worse"
        assert summary(parent, [1.14] * 10)["verdict"] == "no worse"
        assert summary(parent, [0.84] * 10, HIGHER)["verdict"] == "worse"
        # a worse median past the bound is worse however wide the spread
        assert summary([0.5, 1.0, 1.5, 2.0], [1.6] * 4)["verdict"] == "worse"

    def test_a_parent_spread_wider_than_the_bound_is_unresolved(self):
        parent = [0.8, 0.9, 1.0, 1.1, 1.2]  # spread 0.2 of a median of 1.0
        assert summary(parent, [1.05] * 5)["verdict"] == "unresolved"
        assert summary(parent, [0.95] * 5)["verdict"] == "unresolved"
        assert summary(parent, [0.95] * 5, {**LOWER, "bound": 0.25})["verdict"] == "no worse"

    def test_every_change_run_beating_every_parent_run_is_resolved(self):
        # spread 0.35, so a gap of 0.11 is no gain
        parent = [0.9, 0.95, 1.0, 1.3, 1.4]
        assert summary(parent, [0.89] * 5)["verdict"] == "no worse"
        assert summary(parent, [0.89] * 4 + [0.91])["verdict"] == "unresolved"
        assert summary([0.6, 0.7, 1.0, 1.05, 1.1], [1.11] * 5, HIGHER)["verdict"] == "no worse"

    @pytest.mark.parametrize("parent, change", [([], []), ([1.0], [1.0, 2.0])])
    def test_runs_must_pair_up(self, parent, change):
        with pytest.raises(ValueError):
            summary(parent, change)


class TestTable:
    def test_rows_as_quoted_in_the_change_log(self):
        parent = runs("wall_ref", [0.2, 0.19, 0.21], attempted=100)
        change = runs("wall_ref", [0.15, 0.16, 0.17], failed=1, attempted=120)
        rows = pairs.summarize(parent, change, [LOWER])
        assert pairs.table("learn-binary-large", rows, parent, change).splitlines() == [
            "| workload | metric | parent | change | change | wins | verdict |",
            "|---|---|---|---|---|---|---|",
            "| learn-binary-large | wall_ref | 0.2 [0.195, 0.205]"
            " | 0.16 [0.155, 0.165] | -20.0% | 3/3 | gain |",
            "| learn-binary-large | failed / attempted | 0 / 300 | 3 / 360 | | | |",
        ]


class TestSetupSpawns:
    def test_summary_of_pairwise_spawn_times(self):
        parent = [0.10, 0.12, 0.09, 0.11, 0.30]
        change = [0.09, 0.13, 0.08, 0.10, 0.09]
        row = pairs.setup_summary(parent, change, SETUP)
        assert row["metric"] == "setup_s" and row["better"] == "lower"
        assert row["parent"] == {"q1": 0.10, "median": 0.11, "q3": 0.12}
        assert row["change"]["median"] == 0.09
        assert (row["wins"], row["pairs"]) == (4, 5)
        assert row["parent_iqr"] == pytest.approx(0.02)
        assert row["verdict"] == "no worse"

    def test_a_slow_spell_on_both_sides_is_no_gain(self):
        # One slow spawn on each side of the same pair moves neither median.
        parent = [0.1] * 19 + [0.5]
        change = [0.1] * 19 + [0.6]
        row = pairs.setup_summary(parent, change, SETUP)
        assert (row["change_frac"], row["wins"], row["verdict"]) == (0.0, 0, "no worse")

    def test_line_printed_under_the_table(self):
        row = pairs.setup_summary([0.2, 0.19, 0.21], [0.15, 0.16, 0.17], SETUP)
        assert pairs.setup_line(row) == (
            "--setup-only spawns (3 a side): parent 0.2 [0.195, 0.205] s,"
            " change 0.16 [0.155, 0.165] s, -20.0%, change faster in 3/3, gain"
        )

    def test_runs_must_pair_up(self):
        with pytest.raises(ValueError):
            pairs.setup_summary([0.1, 0.2], [0.1], SETUP)
