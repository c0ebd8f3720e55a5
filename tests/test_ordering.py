import bisect
import copy
import itertools
import pickle
import random
import sys
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import true_sequence_by_sort

from ruleorder import (
    CostModel,
    CountingOracle,
    DuplicateRuleError,
    EmptyUniverseError,
    GroundTruthOrder,
    InvalidPermutationError,
    InvalidQueryError,
    InvalidRuleError,
    InvariantError,
    learn_order,
    ordering,
    run_trial,
    worstcase,
)


def oracle_for(ranks, record=False):
    return CountingOracle(GroundTruthOrder(tuple(ranks)), record=record)


class TestGroundTruthOrder:
    def test_identity(self):
        order = GroundTruthOrder.identity(4)
        assert order.ranks == (0, 1, 2, 3)
        assert order.true_sequence() == [0, 1, 2, 3]

    def test_reversed_identity(self):
        order = GroundTruthOrder.reversed_identity(4)
        assert order.ranks == (3, 2, 1, 0)
        assert order.true_sequence() == [3, 2, 1, 0]

    def test_true_sequence_inverts_ranks(self):
        order = GroundTruthOrder((2, 0, 1))
        assert order.true_sequence() == [1, 2, 0]
        assert order.ranks[1] == 0

    @pytest.mark.parametrize(
        "ranks", [(0, 0), (1, 2), (0, 2), (-1, 0), ("a", 1), (0.0, 1.0), (True, False)]
    )
    def test_rejects_non_permutations(self, ranks):
        with pytest.raises(InvalidPermutationError):
            GroundTruthOrder(ranks)

    def test_factories_equal_checked_orders(self, monkeypatch):
        # The factories build permutations from range and skip the rule
        # check; what they build equals and hashes like a checked order.
        for n in (0, 1, 5, 300):
            shuffled = list(range(n))
            random.Random(n).shuffle(shuffled)
            for order, ranks in (
                (GroundTruthOrder.identity(n), range(n)),
                (GroundTruthOrder.reversed_identity(n), range(n - 1, -1, -1)),
                (GroundTruthOrder.shuffled(n, random.Random(n)), shuffled),
            ):
                checked = GroundTruthOrder(tuple(ranks))
                assert order == checked
                assert hash(order) == hash(checked)
        monkeypatch.setattr(ordering, "_require_rules", None)
        assert GroundTruthOrder.identity(3).ranks == (0, 1, 2)
        assert GroundTruthOrder.reversed_identity(3).ranks == (2, 1, 0)
        assert sorted(GroundTruthOrder.shuffled(3, random.Random(1)).ranks) == [0, 1, 2]

    @pytest.mark.parametrize(
        "n, shown",
        [(-3, "-3"), (-1, "-1"), (True, "True"), (2.5, "2.5"), ("4", "'4'"), (None, "None"),
         (-10**5000, "an int of 16610 bits"), ("x" * 10**6, "'xxxxxxxxxxxxxxxx...")],
        ids=["-3", "-1", "True", "2.5", "str", "None", "huge", "long-str"],
    )
    def test_factories_reject_what_is_not_a_size(self, n, shown):
        # Each once built an empty or 1-rule order, or leaked a bare TypeError.
        for factory in (
            GroundTruthOrder.identity,
            GroundTruthOrder.reversed_identity,
            lambda n: GroundTruthOrder.shuffled(n, random.Random(1)),
        ):
            with pytest.raises(ValueError) as error:
                factory(n)
            assert type(error.value) is ValueError
            assert str(error.value) == f"n must be a non-negative integer, got {shown}"

    @pytest.mark.parametrize(
        "n, shown",
        [(sys.maxsize + 1, str(sys.maxsize + 1)), (10**20, "an int of 67 bits"),
         (10**5000, "an int of 16610 bits")],
        ids=["maxsize+1", "10**20", "huge"],
    )
    def test_factories_reject_a_size_too_large_to_build(self, n, shown):
        # Each once leaked a bare OverflowError from range(n); a shuffle
        # rejected this way draws nothing.
        rng = random.Random(1)
        state = rng.getstate()
        for factory in (
            GroundTruthOrder.identity,
            GroundTruthOrder.reversed_identity,
            lambda n: GroundTruthOrder.shuffled(n, rng),
        ):
            with pytest.raises(ValueError) as error:
                factory(n)
            assert type(error.value) is ValueError
            assert str(error.value) == f"n must be at most {sys.maxsize}, got {shown}"
        assert rng.getstate() == state

    def test_factories_take_zero_rules(self):
        empty = GroundTruthOrder(())
        rng = random.Random(1)
        state = rng.getstate()
        assert GroundTruthOrder.identity(0) == empty
        assert GroundTruthOrder.reversed_identity(0) == empty
        assert GroundTruthOrder.shuffled(0, rng) == empty
        assert rng.getstate() == state

    def test_shuffled_is_deterministic_per_seed(self):
        a = GroundTruthOrder.shuffled(20, random.Random(7))
        b = GroundTruthOrder.shuffled(20, random.Random(7))
        assert a == b

    def test_ranks_are_read_only(self):
        order = GroundTruthOrder((2, 0, 1))
        with pytest.raises(AttributeError, match="cannot assign to field 'ranks'"):
            order.ranks = (0, 1, 2)
        with pytest.raises(AttributeError):
            del order.ranks
        with pytest.raises(AttributeError):
            order.extra = 1
        assert order.ranks == (2, 0, 1)

    def test_equal_orders_hash_equal(self):
        order, twin = GroundTruthOrder((2, 0, 1)), GroundTruthOrder._built((2, 0, 1))
        assert order == twin and hash(order) == hash(twin)
        assert len({order, twin, GroundTruthOrder((0, 1, 2))}) == 2
        assert order != GroundTruthOrder((0, 1, 2))
        assert order != (2, 0, 1)
        assert repr(order) == "GroundTruthOrder(ranks=(2, 0, 1))"

    def test_list_built_order_equals_tuple_built(self):
        order, twin = GroundTruthOrder([2, 0, 1]), GroundTruthOrder((2, 0, 1))
        assert order.ranks == (2, 0, 1) and type(order.ranks) is tuple
        assert order == twin and hash(order) == hash(twin)
        assert repr(order) == "GroundTruthOrder(ranks=(2, 0, 1))"

    def test_editing_the_source_list_leaves_the_order_unchanged(self):
        source = [2, 0, 1]
        order = GroundTruthOrder(source)
        source[:] = [0, 0, 1]  # duplicate ranks, had the order kept the list
        assert order.ranks == (2, 0, 1)
        for strategy in ("block", "binary"):
            seq = learn_order(range(3), CountingOracle(order), strategy)
            assert seq == [1, 2, 0]

    def test_ranks_are_copied_before_the_check(self):
        # A one-shot iterable is read once, so the check sees what is kept.
        assert GroundTruthOrder(iter([1, 2, 0])).ranks == (1, 2, 0)
        with pytest.raises(DuplicateRuleError):
            GroundTruthOrder(iter([1, 1, 0]))

    def test_copies_and_pickles_equal(self):
        order = GroundTruthOrder.shuffled(5, random.Random(3))
        for twin in (copy.copy(order), copy.deepcopy(order), pickle.loads(pickle.dumps(order))):
            assert twin == order and hash(twin) == hash(order)


class _KeepsGetrandbits(random.Random):
    """A subclass whose draws still come from ``getrandbits``."""


class _OwnGetrandbits(random.Random):
    """A subclass with a getrandbits of its own, which shuffle then uses."""

    def getrandbits(self, k):
        return super().getrandbits(k) ^ 1


class _OwnRandom(random.Random):
    """A subclass that overrides random() only: its shuffle draws through
    random(), not getrandbits."""

    def random(self):
        return super().random()


class _OwnShuffle(random.Random):
    def shuffle(self, x):
        x.reverse()


class _ShuffleOnly:
    """Not a random.Random: all it offers is shuffle."""

    def shuffle(self, x):
        x.sort(reverse=True)


class TestShuffle:
    SIZES = (0, 1, 2, 3, 5, 8, 9, 27, 64, 65, 1000)

    @pytest.mark.parametrize("rng_class", [random.Random, _KeepsGetrandbits, _OwnGetrandbits])
    def test_same_permutation_and_state_as_random_shuffle(self, rng_class):
        for seed in range(200):
            for n in self.SIZES:
                stock, ours = rng_class(seed), rng_class(seed)
                expected, got = list(range(n)), list(range(n))
                stock.shuffle(expected)
                ordering._shuffle(got, ours)
                assert got == expected, (seed, n)
                assert ours.getstate() == stock.getstate(), (seed, n)

    def test_draws_without_a_call_per_draw(self):
        rng = random.Random(3)
        calls = _calls_to(random.Random._randbelow, lambda: ordering._shuffle(list(range(27)), rng))
        assert calls == 0

    @pytest.mark.parametrize(
        "make_rng",
        [lambda: _OwnRandom(5), lambda: _OwnShuffle(5), _ShuffleOnly],
        ids=["own-random", "own-shuffle", "shuffle-only"],
    )
    def test_other_rngs_shuffle_themselves(self, make_rng):
        for n in (0, 1, 27):
            stock, ours = make_rng(), make_rng()
            expected, got = list(range(n)), list(range(n))
            stock.shuffle(expected)
            ordering._shuffle(got, ours)
            assert got == expected


class TestPrecedes:
    def test_identity_pair_counts(self):
        oracle = oracle_for([0, 1, 2])
        assert oracle.query_count == 0
        assert oracle.precedes(0, 1) is True
        assert oracle.query_count == 1

    def test_equality_repr_and_no_hash(self):
        a, b = oracle_for([1, 0], record=True), oracle_for([1, 0], record=True)
        assert a == b
        a.precedes(0, 1)
        assert a != b
        assert a != oracle_for([1, 0])
        assert repr(a) == (
            "CountingOracle(order=GroundTruthOrder(ranks=(1, 0)), record=True,"
            " query_count=1, transcript=[(0, 1, False)])"
        )
        with pytest.raises(TypeError):
            hash(a)

    def test_identity_reverse_pair(self):
        oracle = oracle_for([0, 1, 2])
        assert oracle.precedes(2, 1) is False

    def test_reversed_order(self):
        oracle = oracle_for([2, 1, 0])
        assert oracle.precedes(0, 2) is False
        assert oracle.precedes(2, 0) is True

    def test_reflexive_query_rejected_and_uncounted(self):
        oracle = oracle_for([0, 1, 2])
        with pytest.raises(InvalidQueryError):
            oracle.precedes(1, 1)
        assert oracle.query_count == 0

    # A rule that is not an int is rejected as well, before it is counted.
    @pytest.mark.parametrize(
        "pair",
        [(3, 0), (0, 3), (-1, 0), (0, -1), (0.5, 1), (0, 1.0), ("a", 1), (None, 1),
         (True, 0), (0, False)],
    )
    def test_out_of_universe_rejected(self, pair):
        oracle = oracle_for([0, 1, 2], record=True)
        with pytest.raises(InvalidQueryError):
            oracle.precedes(*pair)
        assert oracle.query_count == 0 and oracle.transcript == []

    def test_reset(self):
        oracle = oracle_for([0, 1], record=True)
        oracle.precedes(0, 1)
        oracle.reset()
        assert oracle.query_count == 0
        assert oracle.transcript == []

    def test_transcript_records_queries(self):
        oracle = oracle_for([0, 1, 2], record=True)
        oracle.precedes(2, 0)
        oracle.precedes(0, 2)
        assert oracle.transcript == [(2, 0, False), (0, 2, True)]


class TestPerInsertionCosts:
    # What a strategy's flat search asks to land a rule at p among m placed
    # rules, read off the landing table its finder builds.
    @pytest.mark.parametrize("m", range(1, 40))
    def test_block_scans_to_the_landing_and_stops(self, m):
        # One query per position up to and including the first accepting
        # one; landing at the end asks every placed rule once.
        row = worstcase._landing_costs(40, "block")[m]
        assert list(row) == [min(p + 1, m) for p in range(m + 1)]

    @pytest.mark.parametrize("m", range(1, 40))
    def test_binary_cost_bounds_per_window_size(self, m):
        # Landing among m rules: between floor(log2(m+1)) and ceil(log2(m+1)).
        row = worstcase._landing_costs(40, "binary")[m]
        assert len(row) == m + 1
        assert all((m + 1).bit_length() - 1 <= cost <= m.bit_length() for cost in row)

    def test_binary_hand_trace(self):
        # Rule 1 among [0, 2] probes 2 (mid = 1), then 0 (mid = 0): 2 queries,
        # ceil(log2 3), after rule 2's one probe of 0.
        oracle = oracle_for([0, 1, 2], record=True)
        assert learn_order([0, 2, 1], oracle, "binary") == [0, 1, 2]
        assert oracle.transcript == [(2, 0, False), (1, 2, True), (1, 0, False)]
        assert oracle.query_count == 3


class TestLearnOrder:
    def test_single_rule_zero_steps_both_models(self):
        for model in CostModel:
            oracle = oracle_for([0])
            assert learn_order([0], oracle, "block") == [0]
            assert model.steps(oracle.query_count, 1) == 0

    def test_block_identity_worst_case_n3(self):
        oracle = oracle_for([0, 1, 2])
        seq = learn_order([0, 1, 2], oracle, "block")
        assert seq == [0, 1, 2]
        assert oracle.query_count == 3

    def test_binary_identity_n3(self):
        oracle = oracle_for([0, 1, 2])
        seq = learn_order([0, 1, 2], oracle, "binary")
        assert seq == [0, 1, 2]
        assert oracle.query_count == 2

    def test_placement_model_adds_n_minus_one(self):
        oracle = oracle_for([0, 1, 2])
        learn_order([0, 1, 2], oracle, "block")
        assert CostModel.COMPARISONS_PLUS_PLACEMENT.steps(oracle.query_count, 3) == 3 + 2
        assert CostModel.COMPARISONS_ONLY.steps(oracle.query_count, 3) == 3

    def test_empty_universe_rejected(self):
        oracle = oracle_for([0, 1])
        with pytest.raises(EmptyUniverseError):
            learn_order([], oracle, "block")

    def test_duplicate_universe_rejected(self):
        oracle = oracle_for([0, 1])
        with pytest.raises(DuplicateRuleError):
            learn_order([0, 0], oracle, "block")

    def test_unknown_strategy_rejected(self):
        oracle = oracle_for([0, 1])
        with pytest.raises(ValueError):
            learn_order([0, 1], oracle, "bogus")

    def test_unhashable_strategy_rejected_as_unknown(self):
        oracle = oracle_for([0, 1])
        with pytest.raises(ValueError) as error:
            learn_order([0, 1], oracle, ["block"])
        assert str(error.value) == "unknown strategy ['block'] (choose from: block, binary)"

    def test_unknown_strategy_message_is_short(self):
        oracle = oracle_for([0, 1])
        with pytest.raises(ValueError) as error:
            learn_order([0, 1], oracle, "x" * 10**6)
        assert str(error.value) == (
            "unknown strategy 'xxxxxxxxxxxxxxxx... (choose from: block, binary)"
        )

    @pytest.mark.parametrize("strategy", ["block", "binary"])
    def test_steps_count_only_this_calls_queries(self, strategy):
        # On either route a call adds its own queries to the oracle's count
        # and keeps the queries it answered before.  A recording oracle
        # takes the per-query route, a plain one the batched route.
        fresh = oracle_for([3, 1, 4, 0, 2])
        learn_order([4, 3, 2, 1, 0], fresh, strategy)
        assert fresh.query_count > 0
        for record in (True, False):
            oracle = oracle_for([3, 1, 4, 0, 2], record=record)
            learn_order([0, 1, 2, 3, 4], oracle, strategy)
            before = oracle.query_count
            assert before > 0
            seq = learn_order([4, 3, 2, 1, 0], oracle, strategy)
            assert seq == oracle.order.true_sequence()
            assert oracle.query_count - before == fresh.query_count
            assert len(oracle.transcript) == (oracle.query_count if record else 0)

    def test_out_of_universe_rule_rejected(self):
        oracle = oracle_for([0, 1])
        with pytest.raises(InvalidQueryError):
            learn_order([0, 3], oracle, "block")

    @pytest.mark.parametrize("strategy", ["block", "binary"])
    @pytest.mark.parametrize("record", [False, True])
    def test_leaves_the_universe_unchanged(self, strategy, record):
        universe = [2, 0, 1]
        assert learn_order(universe, oracle_for([0, 1, 2], record), strategy) == [0, 1, 2]
        assert universe == [2, 0, 1]


class TestExhaustiveCorrectness:
    @pytest.mark.parametrize("strategy", ["block", "binary"])
    def test_every_instance_up_to_n5_on_both_axes(self, strategy):
        for n in range(1, 6):
            for ranks in itertools.permutations(range(n)):
                order = GroundTruthOrder(ranks)
                expected = order.true_sequence()
                for presentation in itertools.permutations(range(n)):
                    oracle = CountingOracle(order)
                    seq = learn_order(presentation, oracle, strategy)
                    assert seq == expected

    @pytest.mark.parametrize("strategy", ["block", "binary"])
    def test_n6_every_ground_truth_and_every_presentation(self, strategy):
        # axes swept separately at n = 6; the full cross product is n!^2
        n = 6
        for ranks in itertools.permutations(range(n)):
            order = GroundTruthOrder(ranks)
            seq = learn_order(range(n), CountingOracle(order), strategy)
            assert seq == order.true_sequence()
        pinned = GroundTruthOrder((3, 0, 5, 1, 4, 2))
        expected = pinned.true_sequence()
        for presentation in itertools.permutations(range(n)):
            seq = learn_order(presentation, CountingOracle(pinned), strategy)
            assert seq == expected


def permutation_pairs(max_n):
    return st.integers(min_value=1, max_value=max_n).flatmap(
        lambda n: st.tuples(
            st.permutations(list(range(n))), st.permutations(list(range(n)))
        )
    )


class TestLearnerProperties:
    @settings(max_examples=200)
    @given(permutation_pairs(12), st.sampled_from(["block", "binary"]))
    def test_learned_sequence_matches_ground_truth(self, pair, strategy):
        ranks, presentation = pair
        order = GroundTruthOrder(tuple(ranks))
        oracle = CountingOracle(order)
        seq = learn_order(presentation, oracle, strategy)
        assert seq == order.true_sequence()

    @settings(max_examples=150)
    @given(permutation_pairs(12))
    def test_strategies_agree_on_final_sequence(self, pair):
        ranks, presentation = pair
        seqs = []
        for strategy in ("block", "binary"):
            oracle = oracle_for(ranks)
            seq = learn_order(presentation, oracle, strategy)
            seqs.append(seq)
        assert seqs[0] == seqs[1]

    @settings(max_examples=150)
    @given(permutation_pairs(12), st.sampled_from(["block", "binary"]))
    def test_cost_models_differ_by_n_minus_one(self, pair, strategy):
        ranks, presentation = pair
        n = len(ranks)
        order = GroundTruthOrder(tuple(ranks))
        comparisons = run_trial(n, strategy, order, presentation).steps
        with_placement = run_trial(
            n, strategy, order, presentation, CostModel.COMPARISONS_PLUS_PLACEMENT
        ).steps
        assert with_placement - comparisons == n - 1

    @settings(max_examples=150)
    @given(permutation_pairs(12))
    def test_block_queries_at_most_i_per_insertion(self, pair):
        ranks, presentation = pair
        n = len(ranks)
        oracle = oracle_for(ranks, record=True)
        learn_order(presentation, oracle, "block")
        per_rule = _queries_by_inserted_rule(oracle.transcript, presentation)
        for m, rule in enumerate(presentation):
            assert len(per_rule[rule]) <= m
        assert oracle.query_count <= n * (n - 1) // 2

    @settings(max_examples=150)
    @given(permutation_pairs(12))
    def test_binary_queries_within_log_bounds_per_insertion(self, pair):
        ranks, presentation = pair
        oracle = oracle_for(ranks, record=True)
        learn_order(presentation, oracle, "binary")
        per_rule = _queries_by_inserted_rule(oracle.transcript, presentation)
        for m, rule in enumerate(presentation):
            spent = len(per_rule[rule])
            assert spent <= m.bit_length()  # ceil(log2(m+1))
            if m >= 1:
                assert spent >= (m + 1).bit_length() - 1  # floor(log2(m+1))

    @settings(max_examples=150)
    @given(permutation_pairs(12))
    def test_block_never_queries_past_first_accepting_position(self, pair):
        ranks, presentation = pair
        oracle = oracle_for(ranks, record=True)
        learn_order(presentation, oracle, "block")
        per_rule = _queries_by_inserted_rule(oracle.transcript, presentation)
        for rule in presentation:
            answers = [answer for _, _, answer in per_rule[rule]]
            # a scan is all rejections, closed by at most one acceptance
            assert all(a is False for a in answers[:-1])


def _queries_by_inserted_rule(transcript, presentation):
    """Group transcript entries by the rule being inserted (query subject)."""
    grouped = {rule: [] for rule in presentation}
    for entry in transcript:
        grouped[entry[0]].append(entry)
    return grouped


# ----------------------------------------------------------------------
# Bucketed learned sequence.  On a plain oracle learn_order keeps the placed
# ranks in buckets of _CHUNK consecutive ranks; the flat-list loop below is
# the reference both routes must match query for query.
# ----------------------------------------------------------------------

def flat_block_position(seq, x, oracle):
    for j, y in enumerate(seq):
        if oracle.precedes(x, y):
            return j
    return len(seq)


def flat_binary_position(seq, x, oracle):
    lo, hi = 0, len(seq)
    while lo < hi:
        mid = (lo + hi) // 2
        if oracle.precedes(x, seq[mid]):
            hi = mid
        else:
            lo = mid + 1
    return lo


FLAT_FINDERS = {"block": flat_block_position, "binary": flat_binary_position}


def reference_learn(rules, oracle, strategy):
    finder = FLAT_FINDERS[strategy]
    seq = []
    for x in rules:
        seq.insert(finder(seq, x, oracle), x)
    return seq


def assert_matches_reference(order, presentation, strategy):
    # A recording oracle is asked every query through precedes; a plain one
    # takes the batched route.  Both must match the flat reference.
    recording = CountingOracle(order, record=True)
    batched = CountingOracle(order)
    flat = CountingOracle(order, record=True)
    seq = learn_order(presentation, recording, strategy)
    universe = set(presentation)
    expected = [rule for rule in order.true_sequence() if rule in universe]
    assert seq == reference_learn(presentation, flat, strategy) == expected
    assert recording.query_count == flat.query_count
    assert repr(recording.transcript) == repr(flat.transcript)
    assert learn_order(presentation, batched, strategy) == seq
    assert batched.query_count == flat.query_count


class TestChunkedSequence:
    def test_binary_across_many_chunks(self):
        # six full buckets and part of a seventh, filled from either end and
        # in random order
        n = 3 * 2 * ordering._CHUNK + 101
        order = GroundTruthOrder.shuffled(n, random.Random(2))
        truth = order.true_sequence()
        presentations = {
            "reversed": truth[::-1],
            "identity": truth,
            "shuffled": random.Random(3).sample(range(n), n),
        }
        for presentation in presentations.values():
            assert_matches_reference(order, presentation, "binary")

    def test_block_across_one_split(self):
        # 2 * _CHUNK + 1 rules presented in reverse true order cost one query
        # each and spread over all three buckets; the rest land all over
        # the sequence, so their scans cross bucket boundaries.
        size = 2 * ordering._CHUNK + 1
        n = size + 100
        order = GroundTruthOrder.shuffled(n, random.Random(4))
        rng = random.Random(5)
        first = set(rng.sample(range(n), size))
        presentation = [r for r in order.true_sequence()[::-1] if r in first]
        rest = [r for r in range(n) if r not in first]
        rng.shuffle(rest)
        assert_matches_reference(order, presentation + rest, "block")

    @settings(max_examples=150, deadline=None)
    @given(
        permutation_pairs(60),
        st.sampled_from(["block", "binary"]),
        st.integers(min_value=1, max_value=7),
    )
    @example((list(range(60)), list(range(60))), "binary", 1)
    @example((list(range(60)), list(range(59, -1, -1))), "binary", 1)
    @example((list(range(60)), list(range(60))), "block", 2)
    @example((list(range(60)), list(range(59, -1, -1))), "block", 3)
    @example((list(range(60)), random.Random(12).sample(range(60), 60)), "binary", 7)
    @example((list(range(59, -1, -1)), random.Random(13).sample(range(60), 60)), "block", 60)
    def test_small_chunks_match_flat_list(self, pair, strategy, chunk):
        # The first four examples append every rule at the back and place
        # every rule at the front; the last two use a bucket width that does
        # not divide 60 (a short last bucket) and one bucket for all ranks.
        ranks, presentation = pair
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ordering, "_CHUNK", chunk)
            assert_matches_reference(GroundTruthOrder(tuple(ranks)), presentation, strategy)


    @pytest.mark.parametrize("strategy", ["block", "binary"])
    @pytest.mark.parametrize("chunk", [1, 7, ordering._CHUNK])
    def test_universe_is_a_strict_subset_of_the_domain(self, strategy, chunk, monkeypatch):
        # Ranks of the universe are not 0..len - 1 until learn_order ranks
        # the universe among itself, so positions and domain ranks differ.
        monkeypatch.setattr(ordering, "_CHUNK", chunk)
        order = GroundTruthOrder.shuffled(50, random.Random(8))
        for size in (1, 2, 7, 30):
            presentation = random.Random(size).sample(range(50), size)
            assert_matches_reference(order, presentation, strategy)


# ----------------------------------------------------------------------
# The unchecked core.  _learn_ranks is learn_order's batched loop, which the
# harness drivers call directly; it must give what learn_order gives on
# either route, learned list and count alike.
# ----------------------------------------------------------------------

def assert_core_matches_routes(order, universe, strategy):
    ranks = order.ranks
    if len(universe) < order.n:
        ranks = {x: i for i, x in enumerate(sorted(universe, key=ranks.__getitem__))}
    learned, queries = ordering._learn_ranks(tuple(universe), ranks, strategy)
    for record in (False, True):  # the batched route, then the per-query one
        oracle = CountingOracle(order, record=record)
        assert learn_order(universe, oracle, strategy) == learned
        assert oracle.query_count == queries
        assert len(oracle.transcript) == (queries if record else 0)


class TestLearnRanksCore:
    @pytest.mark.parametrize("strategy", ["block", "binary"])
    @pytest.mark.parametrize("n", range(1, 7))
    def test_every_presentation_matches_both_routes(self, n, strategy):
        truths = (GroundTruthOrder.identity(n), GroundTruthOrder.shuffled(n, random.Random(n)))
        for order in truths:
            for presentation in itertools.permutations(range(n)):
                assert_core_matches_routes(order, list(presentation), strategy)

    @pytest.mark.parametrize("strategy", ["block", "binary"])
    def test_random_strict_subsets_match_both_routes(self, strategy):
        rng = random.Random(21)
        for _ in range(300):
            n = rng.randint(2, 80)
            order = GroundTruthOrder.shuffled(n, rng)
            universe = rng.sample(range(n), rng.randint(1, n - 1))
            assert_core_matches_routes(order, universe, strategy)

    def test_takes_the_callers_rules_as_given(self):
        # No copy and no check: the core reads the tuple it is given and
        # leaves it, and it does not look at what the rules are.
        rules = (2, 0, 1)
        oracle = oracle_for((2, 0, 1))
        expected = learn_order(rules, oracle, "binary")
        assert ordering._learn_ranks(rules, (2, 0, 1), "binary") == (expected, oracle.query_count)
        assert rules == (2, 0, 1)
        names = {"c": 1, "a": 2, "b": 0}
        assert ordering._learn_ranks(("c", "a", "b"), names, "block") == (["b", "c", "a"], 2)


# ----------------------------------------------------------------------
# Slot placement.  true_sequence() and the batched learn_order put each rule
# in the slot its rank names instead of sorting by rank; the comparison sort
# in tests/oracles.py is the independent reference for both.
# ----------------------------------------------------------------------

def ground_truths(max_n):
    """Identity, reversed and shuffled orders of 0 to ``max_n`` rules."""
    return st.integers(min_value=0, max_value=max_n).flatmap(
        lambda n: st.one_of(
            st.just(GroundTruthOrder.identity(n)),
            st.just(GroundTruthOrder.reversed_identity(n)),
            st.permutations(range(n)).map(GroundTruthOrder),
        )
    )


def learned_by_sort(order, universe):
    chosen = set(universe)
    return [rule for rule in true_sequence_by_sort(order) if rule in chosen]


class TestSlotPlacement:
    @settings(max_examples=150)
    @given(ground_truths(300))
    @example(GroundTruthOrder.identity(300))
    @example(GroundTruthOrder.reversed_identity(300))
    @example(GroundTruthOrder.shuffled(300, random.Random(1)))
    def test_true_sequence_matches_the_sort(self, order):
        assert order.true_sequence() == true_sequence_by_sort(order)

    @settings(max_examples=150, deadline=None)
    @given(ground_truths(300).filter(lambda order: order.n > 1), st.booleans(),
           st.sampled_from(["block", "binary"]), st.data())
    def test_batched_learn_order_matches_the_sort(self, order, whole, strategy, data):
        # whole: every rule of the domain; otherwise a random strict subset,
        # whose ranks leave gaps wherever the missing rules rank.
        n = order.n
        size = n if whole else data.draw(st.integers(min_value=1, max_value=n - 1))
        universe = data.draw(st.permutations(range(n)))[:size]
        oracle = CountingOracle(order)
        assert oracle._batched()
        seq = learn_order(universe, oracle, strategy)
        assert seq == learned_by_sort(order, universe)

    @pytest.mark.parametrize("strategy", ["block", "binary"])
    @pytest.mark.parametrize("chunk", [1, 7, ordering._CHUNK])
    @pytest.mark.parametrize(
        "keep",
        [
            lambda rank, n: rank % 2 == 0,  # a gap after every rank
            lambda rank, n: n // 3 <= rank < 2 * n // 3,  # gaps at both ends
            lambda rank, n: rank in (0, n - 1),  # one wide gap
        ],
        ids=["even-ranks", "middle-third", "both-ends"],
    )
    def test_subsets_with_gaps_match_the_sort(self, keep, chunk, strategy, monkeypatch):
        monkeypatch.setattr(ordering, "_CHUNK", chunk)
        n = 300
        order = GroundTruthOrder.shuffled(n, random.Random(9))
        universe = [rule for rule in range(n) if keep(order.ranks[rule], n)]
        random.Random(10).shuffle(universe)
        seq = learn_order(universe, CountingOracle(order), strategy)
        assert seq == learned_by_sort(order, universe)

    @pytest.mark.parametrize("strategy", ["block", "binary"])
    def test_the_whole_domain_is_placed_without_a_sort(self, strategy, monkeypatch):
        def no_sort(*args, **kwargs):
            raise AssertionError("sorted() called")

        order = GroundTruthOrder.shuffled(200, random.Random(11))
        presentation = random.Random(12).sample(range(200), 200)
        expected = true_sequence_by_sort(order)
        monkeypatch.setattr(ordering, "sorted", no_sort, raising=False)
        assert learn_order(presentation, CountingOracle(order), strategy) == expected
        with pytest.raises(AssertionError, match="sorted"):
            learn_order(presentation[:100], CountingOracle(order), strategy)

    @pytest.mark.parametrize("strategy", ["block", "binary"])
    def test_a_few_rules_of_a_huge_domain_allocate_no_slot_per_rank(self, strategy):
        # A list of 10**6 slots would take 8 MB.  An index sized by the
        # domain's 10**6 ranks took 977 buckets: about 68 KB when their
        # lists were made up front, and 16 KB as two lists of 977 slots.
        # Ranked among themselves, the 10 rules need one bucket and a
        # learned list of 10 slots, under 1 KB.  The order is built before
        # tracing starts.
        n = 10**6
        order = GroundTruthOrder.reversed_identity(n)
        universe = random.Random(13).sample(range(n), 10)
        oracle = CountingOracle(order)
        tracemalloc.start()
        try:
            seq = learn_order(universe, oracle, strategy)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert seq == sorted(universe, reverse=True)
        assert peak < 4 << 10


# ----------------------------------------------------------------------
# End paths.  On a plain oracle a rule ranked above every placed rank lands
# at p = m and one ranked below them all at p = 0; learn_order prices both
# by formula, without a search, and keeps them out of the rank buckets.
# Presentations are given as lists of ranks.
# ----------------------------------------------------------------------

def _zigzag(n):
    # 0, n - 1, 1, n - 2, ...: every rule lands just inside one end
    return [i // 2 if i % 2 == 0 else n - 1 - i // 2 for i in range(n)]


def _descending_runs(n, run=4):
    # ascending runs of `run` ranks, the highest run first: each run starts
    # at the front and then climbs through the middle
    starts = range((n - 1) // run * run, -1, -run)
    return [rank for start in starts for rank in range(start, min(start + run, n))]


END_SHAPES = {
    "sorted": lambda n: list(range(n)),
    "reversed": lambda n: list(range(n - 1, -1, -1)),
    "zigzag": _zigzag,
    "descending-runs": _descending_runs,
    "shuffled": lambda n: random.Random(n).sample(range(n), n),
}
END_CHUNKS = (1, 2, 3, 7, ordering._CHUNK)


def assert_batched_matches_recording(order, presentation, strategy, chunks, monkeypatch):
    recording = CountingOracle(order, record=True)
    seq = learn_order(presentation, recording, strategy)
    queries = recording.query_count
    n = len(presentation)
    for chunk in chunks:
        monkeypatch.setattr(ordering, "_CHUNK", chunk)
        for model in CostModel:
            batched = CountingOracle(order)
            assert learn_order(presentation, batched, strategy) == seq
            assert model.steps(batched.query_count, n) == model.steps(queries, n)
            assert batched.query_count == queries


class TestEndPaths:
    @pytest.mark.parametrize("strategy", ["block", "binary"])
    @pytest.mark.parametrize("shape", sorted(END_SHAPES))
    @pytest.mark.parametrize("n", [2, 3, 10, 64, 200, *(2 * c + 1 for c in END_CHUNKS)])
    def test_matches_recording_oracle(self, n, shape, strategy, monkeypatch):
        # every bucket width for n <= 200; above that, only the width whose
        # three buckets (two full, one of a single rank) n fills
        order = GroundTruthOrder.shuffled(n, random.Random(n))
        truth = order.true_sequence()
        presentation = [truth[rank] for rank in END_SHAPES[shape](n)]
        chunks = END_CHUNKS if n <= 200 else [c for c in END_CHUNKS if 2 * c + 1 == n]
        assert_batched_matches_recording(order, presentation, strategy, chunks, monkeypatch)

    @pytest.mark.parametrize("strategy", ["block", "binary"])
    def test_one_rule_and_a_subset_that_starts_mid_rank(self, strategy, monkeypatch):
        # The subset's first rule has rank 20, so the lowest placed rank is
        # not 0; later rules land below it, above the highest and between.
        order = GroundTruthOrder.shuffled(50, random.Random(9))
        truth = order.true_sequence()
        for ranks in ([0], [49], [20], [20, 30, 10, 25, 5, 40, 15, 45, 0, 22]):
            presentation = [truth[rank] for rank in ranks]
            assert_batched_matches_recording(
                order, presentation, strategy, END_CHUNKS, monkeypatch
            )

    @pytest.mark.parametrize("strategy", ["block", "binary"])
    @pytest.mark.parametrize(
        "ranks", [[50, 40, 30, 35], [50, 60, 70, 65]], ids=["fronts", "backs"]
    )
    def test_middle_rule_between_two_end_landers(self, ranks, strategy, monkeypatch):
        # The last rule lands between the two rules before it, which both
        # landed at the same end, so its position counts only some of them.
        order = GroundTruthOrder.shuffled(80, random.Random(12))
        truth = order.true_sequence()
        presentation = [truth[rank] for rank in ranks]
        assert_batched_matches_recording(
            order, presentation, strategy, END_CHUNKS, monkeypatch
        )

    @pytest.mark.parametrize("strategy", ["block", "binary"])
    @pytest.mark.parametrize("chunk", [2, ordering._CHUNK])
    def test_landing_past_the_placed_ranks_raises(self, strategy, chunk, monkeypatch):
        # A bisection that counts one rank too many moves some rule that
        # lands between the ends onto an end; the run must fail, not charge
        # a different count.
        monkeypatch.setattr(ordering, "_CHUNK", chunk)
        monkeypatch.setattr(
            ordering, "bisect_right", lambda a, x: bisect.bisect_right(a, x) + 1
        )
        order = GroundTruthOrder.shuffled(40, random.Random(10))
        oracle = CountingOracle(order)
        with pytest.raises(InvariantError, match="landed at"):
            learn_order(random.Random(11).sample(range(40), 40), oracle, strategy)
        assert oracle.query_count == 0

    @pytest.mark.parametrize("strategy", ["block", "binary"])
    @pytest.mark.parametrize("chunk", [2, ordering._CHUNK])
    def test_middle_rule_landing_at_the_front_raises(self, strategy, chunk, monkeypatch):
        # A bisection that counts one rank too few moves the last of ranks
        # 0, 2, 1, which lands between the ends, onto the front (p = 0).
        monkeypatch.setattr(ordering, "_CHUNK", chunk)
        monkeypatch.setattr(
            ordering, "bisect_right", lambda a, x: max(bisect.bisect_right(a, x) - 1, 0)
        )
        oracle = CountingOracle(GroundTruthOrder.identity(3))
        with pytest.raises(InvariantError, match="landed at 0 of 2"):
            learn_order([0, 2, 1], oracle, strategy)
        assert oracle.query_count == 0


# ----------------------------------------------------------------------
# The batched route.  An oracle whose precedes is replaced anywhere must be
# asked every query through the replacement; results never change.
# ----------------------------------------------------------------------

class TestQueryCosts:
    @pytest.mark.parametrize("strategy", ["block", "binary"])
    def test_cost_equals_flat_finder_queries(self, strategy):
        # learn_order on a plain oracle charges landing at p among m placed
        # rules what the flat search asks, for every m < 65 and every p.
        for m in range(65):
            placed = [2 * i + 1 for i in range(m)]
            order = GroundTruthOrder.identity(2 * m + 1)
            before = CountingOracle(order)
            if m:
                learn_order(placed, before, strategy)
            for p in range(m + 1):
                flat = CountingOracle(order)
                assert FLAT_FINDERS[strategy](placed, 2 * p, flat) == p
                oracle = CountingOracle(order)
                learn_order([*placed, 2 * p], oracle, strategy)
                assert oracle.query_count - before.query_count == flat.query_count


def _calls_to(function, run):
    """Python-level calls of ``function`` while ``run()`` runs, via sys.setprofile."""
    code = function.__code__
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code is code:
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(previous)
    return calls


class TestRouteChoice:
    # _CHUNK = 2 spreads the 40 ranks over twenty buckets; the module's own
    # width keeps them in one.
    order = GroundTruthOrder.shuffled(40, random.Random(10))
    presentation = random.Random(11).sample(range(40), 40)

    @pytest.mark.parametrize("strategy", ["block", "binary"])
    @pytest.mark.parametrize("chunk", [2, ordering._CHUNK])
    def test_only_a_recording_oracle_calls_precedes(self, strategy, chunk, monkeypatch):
        monkeypatch.setattr(ordering, "_CHUNK", chunk)
        for record in (False, True):
            oracle = CountingOracle(self.order, record=record)
            calls = _calls_to(
                CountingOracle.precedes,
                lambda: learn_order(self.presentation, oracle, strategy),
            )
            assert oracle.query_count > 0
            assert calls == (oracle.query_count if record else 0)

    @pytest.mark.parametrize("record", [False, True])
    def test_route_is_chosen_once_per_call(self, record, monkeypatch):
        monkeypatch.setattr(ordering, "_CHUNK", 2)
        oracle = CountingOracle(self.order, record=record)
        for strategy in ("block", "binary"):
            run = lambda: learn_order(self.presentation, oracle, strategy)
            assert _calls_to(CountingOracle._batched, run) == 1


class _Tally:
    """Counts calls to the precedes it wraps."""

    def __init__(self, precedes):
        self.precedes = precedes
        self.calls = 0

    def __call__(self, *args):
        self.calls += 1
        return self.precedes(*args)


def _learn_both_strategies(order, presentation, oracle):
    results = []
    for strategy in ("block", "binary"):
        oracle.reset()
        results.append((learn_order(presentation, oracle, strategy), oracle.query_count))
    return results


class TestReplacedPrecedes:
    # A replaced precedes takes the per-query route, which searches one flat
    # list; _CHUNK = 2 shapes only the batched run that gives ``want``, so
    # that run spreads its ranks over twenty buckets.
    order = GroundTruthOrder.shuffled(40, random.Random(6))
    presentation = random.Random(7).sample(range(40), 40)

    @pytest.fixture(autouse=True)
    def small_chunks(self, monkeypatch):
        monkeypatch.setattr(ordering, "_CHUNK", 2)
        # Taken before any test replaces precedes.
        self.want = _learn_both_strategies(
            self.order, self.presentation, CountingOracle(self.order)
        )

    def assert_every_query_seen(self, oracle, tally):
        got = _learn_both_strategies(self.order, self.presentation, oracle)
        assert got == self.want
        assert tally.calls == sum(count for _, count in got) > 0

    def test_subclass_override(self):
        tally = _Tally(CountingOracle.precedes)

        class Overriding(CountingOracle):
            def precedes(self, a, b):
                return tally(self, a, b)

        self.assert_every_query_seen(Overriding(self.order), tally)

    def test_class_level_wrapper(self, monkeypatch):
        # Installed on the class, as perfbench's tracer installs its wrapper.
        tally = _Tally(CountingOracle.precedes)
        monkeypatch.setattr(CountingOracle, "precedes", lambda self, a, b: tally(self, a, b))
        self.assert_every_query_seen(CountingOracle(self.order), tally)

    def test_instance_attribute(self):
        oracle = CountingOracle(self.order)
        tally = _Tally(oracle.precedes)
        oracle.precedes = tally
        self.assert_every_query_seen(oracle, tally)


class TestNonIntegerRules:
    # Each once passed the range check and failed inside a learner with a
    # bare TypeError.
    @pytest.mark.parametrize("record", [False, True])
    @pytest.mark.parametrize(
        "run",
        [
            lambda oracle: learn_order([0.5], oracle, "block"),
            lambda oracle: learn_order([0, 1.0], oracle, "binary"),
        ],
        ids=["learn-0.5", "learn-1.0"],
    )
    def test_rejected_before_any_query(self, run, record):
        oracle = oracle_for([0, 1, 2], record=record)
        with pytest.raises(InvalidQueryError):
            run(oracle)
        assert oracle.query_count == 0 and oracle.transcript == []


class TestOneRuleContract:
    """``precedes`` and ``learn_order`` accept exactly the same rules, ints
    in [0, n), and charge nothing when they reject one."""

    order = GroundTruthOrder((2, 0, 1))
    candidates = [0, 2, -1, 3, True, False, 0.0, 1.0, "a", None]

    def outcomes(self, rule):
        # A valid partner the candidate does not compare equal to, so that
        # no call is rejected as reflexive.
        other = 1 if rule == 0 else 0
        calls = {
            "precedes": lambda o: (o.precedes(rule, other), o.precedes(other, rule)),
            "learn_order": lambda o: [
                learn_order([other, rule], o, strategy) for strategy in ("block", "binary")
            ],
        }
        accepted = {}
        for name, call in calls.items():
            for record in (False, True):
                oracle = CountingOracle(self.order, record=record)
                try:
                    call(oracle)
                except InvalidQueryError:
                    assert oracle.query_count == 0 and oracle.transcript == [], name
                    accepted[name, record] = False
                else:
                    accepted[name, record] = True
        return accepted

    @pytest.mark.parametrize("rule", candidates, ids=repr)
    def test_every_entry_point_accepts_the_same_rules(self, rule):
        valid = type(rule) is int and 0 <= rule < self.order.n
        assert self.outcomes(rule) == {
            (name, record): valid
            for name in ("precedes", "learn_order")
            for record in (False, True)
        }

    def test_each_error_class_carries_both_meanings(self):
        assert issubclass(InvalidRuleError, InvalidQueryError)
        assert issubclass(InvalidRuleError, InvalidPermutationError)
        assert issubclass(DuplicateRuleError, InvalidPermutationError)

    def test_a_permutation_is_checked_in_one_flag_per_rule(self):
        # A set of 10**5 ints took about 50 bytes a rule; the whole-domain
        # check holds n flags of 8 bytes.  The rules are built before
        # tracing starts.
        n = 10**5
        rules = random.Random(7).sample(range(n), n)
        tracemalloc.start()
        try:
            ordering._require_rules(rules, n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10 * n

    @pytest.mark.parametrize("n", [3, 100_000])
    @pytest.mark.parametrize("domain", ["whole", "subset"])
    def test_an_invalid_rule_after_a_repeat_is_reported_first(self, n, domain):
        # [1, 1, -5] and the same shape at 10**5: every rule is checked for
        # its type and range before any repeat is reported, whether the
        # rules fill the domain (flags) or not (a set).
        values = [1, 1, *range(2, n - 1), -5]
        size = n if domain == "whole" else n + 1
        calls = [
            lambda: ordering._require_rules(values, size),
            lambda: learn_order(values, CountingOracle(GroundTruthOrder.identity(size)), "block"),
        ]
        if domain == "whole":
            calls.append(lambda: GroundTruthOrder(values))
        for call in calls:
            with pytest.raises(InvalidRuleError) as raised:
                call()
            assert type(raised.value) is InvalidRuleError
            assert str(raised.value) == f"rules and ranks are ints in [0, {size}), not -5"

    @pytest.mark.parametrize(
        "rules, n, repeat",
        [
            ([0, 1, 1, 0], 4, 1),  # 0 repeats too, but later
            ([3, 2, 0, 2, 3, 0, 1, 4], 8, 2),
            ([0, 1, 1, 0], 9, 1),
            ([5, 7, 7, 5], 10, 7),
        ],
    )
    def test_a_repeat_is_named_by_its_first_repeated_occurrence(self, rules, n, repeat):
        with pytest.raises(DuplicateRuleError) as raised:
            ordering._require_rules(rules, n)
        assert str(raised.value) == f"{repeat} repeats; a permutation of 0..{n - 1} has it once"

    @staticmethod
    def faulty(case, n):
        """0..n-1 with one fault at the end, where a check that stopped early
        or printed its whole input would show, and the class it raises."""
        *head, last = range(n)
        return {
            "float": (head + [float(last)], InvalidRuleError),
            "bool": (head + [True], InvalidRuleError),
            "str": (head + ["a"], InvalidRuleError),
            "negative": (head + [-1], InvalidRuleError),
            "n": (head + [n], InvalidRuleError),
            "huge": (head + [10**5000], InvalidRuleError),
            "repeat": (head + [0], DuplicateRuleError),
            "short": (head, InvalidPermutationError),
        }[case]

    @pytest.mark.parametrize("n", [5, 100_000])
    @pytest.mark.parametrize(
        "case", ["float", "bool", "str", "negative", "n", "huge", "repeat", "short"]
    )
    def test_ranks_presentations_and_universes_share_one_check(self, case, n):
        values, error = self.faulty(case, n)
        identity = GroundTruthOrder.identity(n)
        calls = {"run_trial": lambda oracle: run_trial(n, "binary", identity, values)}
        if case != "short":  # fewer than n distinct rules are valid ranks and universes
            calls.update({
                "GroundTruthOrder": lambda oracle: GroundTruthOrder(tuple(values)),
                "learn_order": lambda oracle: learn_order(values, oracle, "block"),
            })
        messages = set()
        for name, call in calls.items():
            for record in (False, True):
                oracle = CountingOracle(identity, record=record)
                with pytest.raises(error) as raised:
                    call(oracle)
                assert type(raised.value) is error, name
                assert oracle.query_count == 0 and oracle.transcript == [], name
                messages.add(str(raised.value))
        # One check, so one message, naming the fault and not the input.
        (message,) = messages
        assert len(message) < 200
