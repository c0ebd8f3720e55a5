import itertools
import json
import math
import sys

import pytest
from oracles import true_sequence_by_sort

from ruleorder import (
    CostModel,
    CountingOracle,
    GroundTruthOrder,
    IncorrectOrderError,
    InvalidPermutationError,
    SizeLimitError,
    adversarial_ground_truth,
    adversarial_worst_case,
    binary_steps,
    block_steps_exact,
    complexity,
    exhaustive_worst_case,
    harness,
    random_trials,
    comparison_table,
    learn_order,
    run_trial,
)
from ruleorder.ordering import _learn_ranks

PLACEMENT = CostModel.COMPARISONS_PLUS_PLACEMENT


def binary_search_cost(m, target):
    """Simulate the insertion loop for a newcomer landing at ``target``."""
    lo, hi, queries = 0, m, 0
    while lo < hi:
        mid = (lo + hi) // 2
        queries += 1
        if target <= mid:
            hi = mid
        else:
            lo = mid + 1
    assert lo == target
    return queries


class TestRunTrial:
    def test_single_rule(self):
        result = run_trial(1, "block", GroundTruthOrder.identity(1))
        assert (result.queries, result.steps, result.correct) == (0, 0, True)

    def test_block_identity_n3(self):
        result = run_trial(3, "block", GroundTruthOrder.identity(3))
        assert result.queries == 3
        assert result.correct

    def test_binary_identity_n3(self):
        result = run_trial(3, "binary", GroundTruthOrder.identity(3))
        assert result.queries == 2  # 0 + 1 + 1 per insertion
        assert result.correct

    def test_steps_follow_cost_model(self):
        gt = GroundTruthOrder.identity(4)
        plain = run_trial(4, "block", gt)
        placed = run_trial(4, "block", gt, model=PLACEMENT)
        assert placed.steps - plain.steps == 3
        assert placed.queries == plain.queries

    def test_rejects_size_mismatch(self):
        with pytest.raises(InvalidPermutationError):
            run_trial(4, "block", GroundTruthOrder.identity(3))
        with pytest.raises(InvalidPermutationError, match="expected an int of 16610 bits$"):
            run_trial(10**5000, "block", GroundTruthOrder.identity(3))

    @pytest.mark.parametrize("n, size", [(0, 0), (True, 1), (2.0, 2), ("2", 2), (None, 0)])
    def test_rejects_what_is_not_a_positive_size(self, n, size):
        # True once ran as n = 1 and 2.0 leaked a bare TypeError.
        with pytest.raises(ValueError) as error:
            run_trial(n, "block", GroundTruthOrder.identity(size))
        assert str(error.value) == f"n must be a positive integer, got {n!r}"

    def test_rejects_bad_presentation(self):
        with pytest.raises(InvalidPermutationError):
            run_trial(3, "block", GroundTruthOrder.identity(3), [0, 1, 1])

    def test_rejects_float_presentation(self):
        # [0.0, 1] sorts equal to [0, 1]; the permutation check tests types too.
        with pytest.raises(InvalidPermutationError):
            run_trial(2, "block", GroundTruthOrder.identity(2), [0.0, 1])

    def test_explicit_presentation_order(self):
        gt = GroundTruthOrder((2, 1, 0))
        result = run_trial(3, "binary", gt, [2, 0, 1])
        assert result.correct

    def test_result_is_a_named_tuple(self):
        result = run_trial(3, "block", GroundTruthOrder.identity(3))
        strategy, n, queries, steps, correct, cost_model, source = result
        assert result == ("block", 3, 3, 3, True, "comparisons", "explicit")
        assert (strategy, n, queries, steps, correct, cost_model, source) == tuple(result)
        assert list(result._asdict().values()) == list(result)
        with pytest.raises(AttributeError):
            result.queries = 0


class TestLearnedInRankOrder:
    RANKS = (2, 0, 3, 1)  # rules by rank: 1, 3, 0, 2

    def test_accepts_the_true_sequence(self):
        assert harness._learned_in_rank_order([1, 3, 0, 2], self.RANKS)
        assert harness._learned_in_rank_order([], ())

    @pytest.mark.parametrize(
        "learned",
        [
            [3, 1, 0, 2],  # first pair swapped
            [1, 3, 2, 0],  # last pair swapped
            [1, 3, 0],  # short
            [],
            [1, 3, 0, 2, 2],  # long, by a repeat
            [1, 1, 0, 2],  # a repeat in place of a rule
            [1, 3, 3, 2],
        ],
    )
    def test_rejects_anything_else(self, learned):
        assert not harness._learned_in_rank_order(learned, self.RANKS)

    def test_agrees_with_the_sort_on_every_arrangement(self):
        for n in range(5):
            ranks = tuple(range(n - 1, -1, -1))
            truth = true_sequence_by_sort(GroundTruthOrder(ranks))
            for learned in itertools.permutations(range(n)):
                assert harness._learned_in_rank_order(list(learned), ranks) is (
                    list(learned) == truth
                )


class TestExhaustiveWorstCase:
    @pytest.mark.parametrize("strategy", ["block", "binary"])
    @pytest.mark.parametrize("n", range(1, 7))
    def test_one_learn_order_call_per_ground_truth(self, n, strategy, monkeypatch):
        # One learn per ground truth: a call of the core on each permutation,
        # against the identity ranks; or, while learn_order is wrapped, one
        # call of the wrapper, with the same report.
        core_calls, calls = [], []

        def counting_core(*args):
            core_calls.append(args)
            return _learn_ranks(*args)

        def counting(*args):
            calls.append(args)
            return learn_order(*args)

        monkeypatch.setattr(harness, "_learn_ranks", counting_core)
        report = exhaustive_worst_case(n, strategy)
        identity = tuple(range(n))
        assert [rules for rules, _, _ in core_calls] == list(itertools.permutations(identity))
        assert {(ranks, block) for _, ranks, block in core_calls} == {
            (identity, strategy == "block")
        }
        monkeypatch.setattr(harness, "learn_order", counting)
        assert exhaustive_worst_case(n, strategy) == report
        assert len(calls) == math.factorial(n)
        assert len(core_calls) == math.factorial(n)

    @pytest.mark.parametrize(
        "strategy, ground_truth",
        [("block", (0, 1, 2, 3, 4, 5, 6, 7)), ("binary", (0, 3, 2, 6, 1, 4, 5, 7))],
    )
    def test_n8_first_maxima_are_the_ci_rows(self, strategy, ground_truth):
        # The rows CI's exhaustive n = 8 smoke run requires, field for field.
        report = exhaustive_worst_case(8, strategy)
        assert report.max_steps == {"block": 28, "binary": 17}[strategy]
        assert report.ground_truth_ranks == ground_truth
        assert report.presentation == tuple(range(8))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_block_comparisons_max(self, n):
        report = exhaustive_worst_case(n, "block")
        assert report.max_steps == n * (n - 1) // 2

    @pytest.mark.parametrize("n", range(1, 7))
    def test_block_placement_max_matches_closed_form(self, n):
        report = exhaustive_worst_case(n, "block", PLACEMENT)
        assert report.max_steps == block_steps_exact(n)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_binary_max_matches_summed_formula(self, n):
        report = exhaustive_worst_case(n, "binary")
        assert report.max_steps == binary_steps(n)

    def test_achieving_instance_reproduces_the_maximum(self):
        report = exhaustive_worst_case(5, "binary")
        rerun = run_trial(
            5, "binary", GroundTruthOrder(report.ground_truth_ranks),
            list(report.presentation),
        )
        assert rerun.queries == report.max_steps

    @pytest.mark.parametrize("n", range(1, 6))
    def test_varying_presentation_changes_nothing(self, n):
        # Every presentation against every ground truth: n!^2 runs.
        for strategy in ("binary", "block"):
            worst = max(
                run_trial(n, strategy, GroundTruthOrder(r), p).steps
                for p in itertools.permutations(range(n))
                for r in itertools.permutations(range(n))
            )
            assert worst == exhaustive_worst_case(n, strategy).max_steps

    def test_caps_enforced(self):
        with pytest.raises(SizeLimitError):
            exhaustive_worst_case(9, "block")
        with pytest.raises(SizeLimitError, match="got n = an int of 16610 bits$"):
            exhaustive_worst_case(10**5000, "block")

    def test_rejects_zero(self):
        for n in (0, 2.5):
            with pytest.raises(ValueError):
                exhaustive_worst_case(n, "block")

    def test_deterministic_report(self):
        assert exhaustive_worst_case(4, "binary") == exhaustive_worst_case(4, "binary")


class TestAdversarialGroundTruth:
    def test_binary_n2_single_query(self):
        gt, presentation = adversarial_ground_truth(2, "binary")
        assert run_trial(2, "binary", gt, presentation).queries == 1

    @pytest.mark.parametrize("n", [1, 2, 3, 6, 27, 100])
    def test_binary_attains_formula(self, n):
        gt, presentation = adversarial_ground_truth(n, "binary")
        result = run_trial(n, "binary", gt, presentation)
        assert result.correct
        assert result.queries == binary_steps(n)

    @pytest.mark.parametrize("n", [1, 2, 3, 6, 27, 100])
    def test_block_attains_formula_with_placement(self, n):
        gt, presentation = adversarial_ground_truth(n, "block")
        result = run_trial(n, "block", gt, presentation, PLACEMENT)
        assert result.correct
        assert result.steps == block_steps_exact(n)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_exhaustive_maximum_at_small_n(self, n):
        for strategy in ("block", "binary"):
            adversarial = adversarial_worst_case(n, strategy)
            exhaustive = exhaustive_worst_case(n, strategy)
            assert adversarial.max_steps == exhaustive.max_steps

    def test_rejects_unknown_strategy(self):
        with pytest.raises(ValueError):
            adversarial_ground_truth(5, "bogus")

    def test_unknown_strategy_message_matches_learn_order(self):
        with pytest.raises(ValueError) as harness_error:
            adversarial_ground_truth(5, "bogus")
        with pytest.raises(ValueError) as ordering_error:
            learn_order([0], CountingOracle(GroundTruthOrder.identity(1)), "bogus")
        assert str(harness_error.value) == str(ordering_error.value) == (
            "unknown strategy 'bogus' (choose from: block, binary)"
        )

    @pytest.mark.parametrize("strategy", ["bogus", "Block", "", None, "x" * 10**6])
    def test_drivers_reject_an_unknown_strategy_before_any_run(self, strategy, monkeypatch):
        # The drivers pass the core a flag, not the name, so the name must be
        # checked up front: "bogus" must not run as binary.
        def no_run(*args):
            raise AssertionError("learned with an unknown strategy")

        monkeypatch.setattr(harness, "_learn_ranks", no_run)
        monkeypatch.setattr(harness, "learn_order", no_run)
        monkeypatch.setattr(harness.GroundTruthOrder, "shuffled", no_run)
        with pytest.raises(ValueError) as ordering_error:
            learn_order([0], CountingOracle(GroundTruthOrder.identity(1)), strategy)
        for driver in (
            lambda: exhaustive_worst_case(8, strategy),
            lambda: random_trials(27, strategy, 100, seed=1),
            lambda: random_trials(27, strategy, 100, seed=1, shuffle_presentation=True),
        ):
            with pytest.raises(ValueError) as driver_error:
                driver()
            assert str(driver_error.value) == str(ordering_error.value)

    @pytest.mark.parametrize("strategy", ["block", "binary"])
    def test_wrong_learned_order_raises(self, monkeypatch, strategy):
        # The learned order with its first two rules swapped, its last rule
        # dropped, or its last rule replaced by its first is wrong.
        wrongs = (
            lambda seq: [seq[1], seq[0], *seq[2:]],
            lambda seq: seq[:-1],
            lambda seq: [*seq[:-1], seq[0]],
        )
        # random_trials learns through the core, run_trial and
        # adversarial_worst_case through learn_order; a wrong learner on
        # either path is caught.
        for wrong in wrongs:
            def wrong_core(rules, ranks, block, wrong=wrong):
                learned, queries = _learn_ranks(rules, ranks, block)
                return wrong(learned), queries

            def wrong_learner(rules, oracle, strategy, wrong=wrong):
                return wrong(learn_order(rules, oracle, strategy))

            with monkeypatch.context() as patch:
                patch.setattr(harness, "_learn_ranks", wrong_core)
                assert random_trials(4, strategy, 3, seed=1).all_correct is False
            with monkeypatch.context() as patch:
                patch.setattr(harness, "learn_order", wrong_learner)
                with pytest.raises(IncorrectOrderError):
                    adversarial_worst_case(4, strategy)
                assert run_trial(4, strategy, GroundTruthOrder((2, 0, 3, 1))).correct is False
                # A replaced learn_order also takes random_trials off the core.
                assert random_trials(4, strategy, 3, seed=1).all_correct is False

    def test_rejects_zero(self):
        for n in (0, 2.5):
            with pytest.raises(ValueError):
                adversarial_ground_truth(n, "binary")

    @pytest.mark.parametrize("strategy", ["block", "binary"])
    def test_a_size_too_large_to_build_is_a_short_error(self, strategy):
        # Each once leaked a bare OverflowError from range(n).
        message = f"n must be at most {sys.maxsize}, got an int of 67 bits"
        for call in (adversarial_ground_truth, adversarial_worst_case,
                     lambda n, s: random_trials(n, s, 1, seed=1)):
            with pytest.raises(ValueError) as error:
                call(10**20, strategy)
            assert str(error.value) == message

    @pytest.mark.parametrize("m", range(0, 200))
    def test_front_position_has_maximal_search_depth(self, m):
        # premise of the construction: the front slot always sits on the
        # deepest branch, so forcing every insertion there is adversarial
        costs = [binary_search_cost(m, p) for p in range(m + 1)]
        assert binary_search_cost(m, 0) == max(costs) == m.bit_length()


class TestRandomTrials:
    def test_summary_is_seed_deterministic(self):
        a = random_trials(30, "binary", 50, seed=123)
        b = random_trials(30, "binary", 50, seed=123)
        assert a == b
        assert json.dumps(a._asdict()) == json.dumps(b._asdict())

    def test_summary_is_a_named_tuple(self):
        summary = random_trials(5, "binary", 3, seed=4)
        assert summary == tuple(summary._asdict().values())
        strategy, n, trials, seed, *_, all_correct = summary
        assert (strategy, n, trials, seed, all_correct) == ("binary", 5, 3, 4, True)
        assert summary._replace(seed=5).seed == 5

    def test_different_seeds_differ(self):
        a = random_trials(30, "binary", 50, seed=1)
        b = random_trials(30, "binary", 50, seed=2)
        assert a != b

    def test_all_correct_and_under_ceiling(self):
        summary = random_trials(50, "binary", 200, seed=9)
        assert summary.all_correct
        assert summary.max_queries <= binary_steps(50) == 237
        block = random_trials(50, "block", 200, seed=9)
        assert block.all_correct
        assert block.max_queries <= 50 * 49 // 2 == 1225

    def test_single_rule_all_zero(self):
        summary = random_trials(1, "block", 10, seed=0)
        assert (summary.min_queries, summary.max_queries, summary.mean_queries) == (0, 0, 0.0)

    def test_shuffled_presentation_still_correct(self):
        summary = random_trials(40, "block", 100, seed=5, shuffle_presentation=True)
        assert summary.all_correct

    def test_large_universe_correct_and_bounded(self):
        binary = random_trials(500, "binary", 500, seed=17)
        assert binary.all_correct
        assert binary.max_queries <= binary_steps(500)
        block = random_trials(500, "block", 100, seed=17)
        assert block.all_correct
        assert block.max_queries <= 500 * 499 // 2

    def test_metadata_recorded(self):
        summary = random_trials(5, "block", 3, seed=11)
        assert summary.rng_algorithm == harness.RNG_ALGORITHM
        assert summary.seed == 11
        assert summary.trials == 3

    def test_rejects_zero_trials(self):
        for trials in (0, 2.5, "3", True, -10**5000):
            with pytest.raises(ValueError, match="trials must be a positive integer"):
                random_trials(5, "block", trials, seed=1)

    def test_rejects_zero_rules(self):
        with pytest.raises(ValueError):
            random_trials(0, "block", 5, seed=1)

    @pytest.mark.parametrize(
        "strategy, pinned",
        [("binary", (89, 100, 95.01)), ("block", (136, 265, 196.85))],
    )
    def test_seeded_stream_is_pinned(self, strategy, pinned):
        # Both shuffles of every trial draw from one seeded stream, so these
        # counts change if either shuffle draws differently.
        summary = random_trials(27, strategy, 100, 5, shuffle_presentation=True)
        assert (summary.min_queries, summary.max_queries, summary.mean_queries) == pinned
        assert summary.all_correct

    def test_has_no_cost_model_knob(self):
        # The summary counts oracle queries, which no cost model changes.
        with pytest.raises(TypeError):
            random_trials(27, "block", 5, 1, CostModel.COMPARISONS_PLUS_PLACEMENT)
        summary = random_trials(27, "block", 5, 1)
        assert not hasattr(summary, "cost_model")


class TestWorstCaseAggregate:
    def test_binary_never_above_block_and_equal_only_at_tiny_n(self):
        # comparing pure comparison counts; they coincide up to n = 3
        for n in range(1, 300):
            block_wc = n * (n - 1) // 2
            binary_wc = binary_steps(n)
            assert binary_wc <= block_wc
            assert (binary_wc == block_wc) == (n <= 3)


class TestComparisonTable:
    def test_harness_reexports_the_table(self):
        assert harness.comparison_table is complexity.comparison_table
        assert harness.TABLE_SIZES == complexity.TABLE_SIZES == (27, 1000)

    def test_row_sizes(self):
        rows = comparison_table()
        assert [row.n for row in rows] == [27, 1000]
        assert rows == [complexity.report(27), complexity.report(1000)]

    def test_row_27(self):
        row = comparison_table()[0]
        assert (row.s_n, row.b_n) == (377, 104)
        assert row.speedup == pytest.approx(3.625)
        assert row.naive == 10888869450418352160768000000

    def test_row_1000(self):
        row = comparison_table()[1]
        assert (row.s_n, row.b_n) == (500499, 8977)
        assert row.speedup > 55
        assert row.block_years == pytest.approx(685.15, abs=0.01)
        assert row.binary_years == pytest.approx(12.29, abs=0.01)

    def test_exhaustive_cross_check_of_every_instance_n4(self):
        # every permutation, both presentations fixed: measured counts never
        # beat the formulas, and some instance attains each of them
        n = 4
        block_counts, binary_counts = [], []
        for ranks in itertools.permutations(range(n)):
            gt = GroundTruthOrder(ranks)
            block_counts.append(run_trial(n, "block", gt).queries)
            binary_counts.append(run_trial(n, "binary", gt).queries)
        assert max(block_counts) == n * (n - 1) // 2
        assert max(binary_counts) == binary_steps(n)
