"""Experiment harness: generate instances, run learners, check counts.

Instances come in three flavours: exhaustive (every permutation, small n),
adversarial (constructions that attain the worst-case formulas), and random
(seeded unbiased shuffles).  ``run_trial``, and with it
``adversarial_worst_case``, learns through ``learn_order`` and a counting
oracle of its own, so its rules get ``learn_order``'s full check.
``exhaustive_worst_case`` and ``random_trials`` build every presentation
and ground truth themselves as permutations, so they call the unchecked
core ``ordering._learn_ranks`` directly: no oracle, no copy and no rule
check per run, only one strategy check per call.  While a wrapper replaces
``learn_order`` here or ``CountingOracle.precedes``, they learn through
``learn_order`` instead, so it sees every run (``_learner``).  Calls share
nothing and can be executed in any order.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import namedtuple
from dataclasses import dataclass

from .complexity import TABLE_SIZES, comparison_table  # noqa: F401  re-exported
from .ordering import (
    STRATEGY_BINARY,
    STRATEGY_BLOCK,
    CostModel,
    CountingOracle,
    GroundTruthOrder,
    IncorrectOrderError,
    InvalidPermutationError,
    RuleId,
    SizeLimitError,
    _block_position,
    _learn_ranks,
    _position_finder,
    _require_int,
    _show,
    _shuffle,
    _STOCK_PRECEDES,
    learn_order,
)

# Full enumeration costs n! runs; this cap keeps it desk-scale.
EXHAUSTIVE_CAP_FIXED = 8

# Generator recorded in summaries so identical seeds are comparable across
# runs: Mersenne Twister driving a Fisher-Yates shuffle.  ordering._shuffle
# makes the draws random.Random.shuffle makes, so the stream is the same.
RNG_ALGORITHM = "mt19937-fisher-yates"

MODE_EXHAUSTIVE = "exhaustive"
MODE_ADVERSARIAL = "adversarial"


class TrialResult(
    namedtuple("TrialResult", "strategy n queries steps correct cost_model source")
):
    """One learning run: counts, correctness, and instance provenance."""

    __slots__ = ()


# A frozen dataclass, unlike the named-tuple records: the benchmark's
# self-test changes a report with dataclasses.replace.
@dataclass(frozen=True)
class WorstCaseReport:
    """Maximum step count found for one size, with an achieving instance."""

    strategy: str
    n: int
    mode: str
    cost_model: str
    max_steps: int
    ground_truth_ranks: tuple[int, ...]
    presentation: tuple[int, ...]


class TrialSummary(
    namedtuple(
        "TrialSummary",
        "strategy n trials seed shuffle_presentation rng_algorithm"
        " min_queries max_queries mean_queries all_correct",
    )
):
    """Aggregate of a seeded batch of random trials."""

    __slots__ = ()


# The learn_order this module imported.  The drivers compare the name with
# it on each call: a replacement, such as a wrapper, means runs are watched.
_LEARN_ORDER = learn_order


def _learned_in_rank_order(
    learned: list[RuleId], ranks: tuple[int, ...], in_order: list[int] | None = None
) -> bool:
    """True iff ``learned`` lists every rule once, by rank: ``learned[i]``
    has rank i.  One O(n) pass, not a second sort by rank.  ``in_order`` is
    ``list(range(len(ranks)))``, made here unless a caller that checks many
    runs passes its own.  ``learned`` comes from ``learn_order`` or
    ``_learn_ranks``, whose rules are checked or built by the caller, so
    each one indexes ``ranks`` as itself."""
    if in_order is None:
        in_order = list(range(len(ranks)))
    return [ranks[x] for x in learned] == in_order


def _learner():
    """``_learn_ranks``, unless a run could be watched: when ``learn_order``
    here or ``CountingOracle.precedes`` has been replaced (a wrapper that
    counts runs or queries), ``_learn_watched`` instead, so the replacement
    sees every run and every query as it did before the drivers called the
    core."""
    if learn_order is _LEARN_ORDER and CountingOracle.precedes is _STOCK_PRECEDES:
        return _learn_ranks
    return _learn_watched


def _learn_watched(
    rules, ranks: tuple[int, ...], block: bool
) -> tuple[list[RuleId], int]:
    """``_learn_ranks(rules, ranks, block)`` through ``learn_order`` and a
    counting oracle of its own."""
    oracle = CountingOracle(GroundTruthOrder._built(ranks))
    learned = learn_order(rules, oracle, STRATEGY_BLOCK if block else STRATEGY_BINARY)
    return learned, oracle.query_count


def run_trial(
    n: int,
    strategy: str,
    ground_truth: GroundTruthOrder,
    presentation_order: list[RuleId] | None = None,
    model: CostModel = CostModel.COMPARISONS_ONLY,
    source: str = "explicit",
) -> TrialResult:
    """Run one learner against a fresh oracle and report its counts."""
    _require_int(n, 1)
    if ground_truth.n != n:
        raise InvalidPermutationError(
            f"ground truth has {ground_truth.n} rules, expected {_show(n)}"
        )
    # learn_order checks the rules, and n distinct rules are a permutation.
    presentation = tuple(range(n) if presentation_order is None else presentation_order)
    if len(presentation) != n:
        raise InvalidPermutationError(f"presentation has {len(presentation)} rules, not {n}")

    oracle = CountingOracle(ground_truth)
    learned = learn_order(presentation, oracle, strategy)
    return TrialResult(
        strategy=strategy,
        n=n,
        queries=oracle.query_count,
        steps=model.steps(oracle.query_count, n),
        correct=_learned_in_rank_order(learned, ground_truth.ranks),
        cost_model=model.value,
        source=source,
    )


def exhaustive_worst_case(
    n: int,
    strategy: str,
    model: CostModel = CostModel.COMPARISONS_ONLY,
) -> WorstCaseReport:
    """Enumerate every ground truth under the presentation order 0..n-1 and
    return the maximum step count with the first ground truth attaining it.
    ``model`` prices the largest query count once: it is monotone, so that
    count's instance is also the first to attain the largest step count.

    Other presentation orders give the same maximum: over all ground truths,
    each rule's landing position among the rules already placed is uniform
    whatever the presentation (the inversion table, TAOCP vol. 3, 5.1.1).

    The search runs every instance against the identity order, with no
    oracle: ``_learn_ranks(ranks, identity, block)`` on each permutation,
    which is a permutation by construction, so it is not copied or checked;
    the strategy is checked once, up front.  Relabelling each rule i as its
    rank turns ground truth ``ranks`` under presentation 0..n-1 into the
    identity order under presentation ``ranks``: every query (i, j) becomes
    (ranks[i], ranks[j]) with the same answer, so each run asks as many
    queries as the original instance.
    """
    _require_int(n, 1)
    if n > EXHAUSTIVE_CAP_FIXED:
        raise SizeLimitError(
            f"exhaustive search is capped at n = {EXHAUSTIVE_CAP_FIXED}, got n = {_show(n)}"
        )

    block = _position_finder(strategy) is _block_position  # ValueError if unknown
    learn = _learner()
    identity = tuple(range(n))
    best = -1
    best_ranks: tuple[int, ...] = ()
    for ranks in itertools.permutations(identity):
        queries = learn(ranks, identity, block)[1]
        if queries > best:
            best = queries
            best_ranks = ranks
    return WorstCaseReport(
        strategy=strategy,
        n=n,
        mode=MODE_EXHAUSTIVE,
        cost_model=model.value,
        max_steps=model.steps(best, n),
        ground_truth_ranks=best_ranks,
        presentation=identity,
    )


def adversarial_ground_truth(
    n: int, strategy: str
) -> tuple[GroundTruthOrder, list[RuleId]]:
    """Instance on which the strategy spends its worst-case step count.

    block: ground truth equal to the presentation order, so every insertion
    scans the whole learned sequence and appends.

    binary: ground truth reversed against the presentation order, so every
    insertion lands at the front.  The front position sits at maximal depth
    of the search tree for every window size (each halving keeps the larger,
    left half), so each insertion into m rules costs ceil(log2(m + 1)).
    """
    _require_int(n, 1)
    _position_finder(strategy)  # raises ValueError for an unknown strategy
    # The order is built first: its factory rejects an n too large to build.
    if strategy == STRATEGY_BLOCK:
        return GroundTruthOrder.identity(n), list(range(n))
    return GroundTruthOrder.reversed_identity(n), list(range(n))


def adversarial_worst_case(
    n: int, strategy: str, model: CostModel = CostModel.COMPARISONS_ONLY
) -> WorstCaseReport:
    """Measure the adversarial instance instead of enumerating."""
    ground_truth, presentation = adversarial_ground_truth(n, strategy)
    result = run_trial(n, strategy, ground_truth, presentation, model, source=MODE_ADVERSARIAL)
    if not result.correct:
        raise IncorrectOrderError(
            f"{strategy} learned a wrong order on the adversarial instance at n = {n}"
        )
    return WorstCaseReport(
        strategy=strategy,
        n=n,
        mode=MODE_ADVERSARIAL,
        cost_model=model.value,
        max_steps=result.steps,
        ground_truth_ranks=ground_truth.ranks,
        presentation=tuple(presentation),
    )


def random_trials(
    n: int,
    strategy: str,
    trials: int,
    seed: int,
    *,
    shuffle_presentation: bool = False,
) -> TrialSummary:
    """Run seeded random instances and summarise their query counts.

    The same seed always yields the same summary; ground truths (and, when
    requested, presentation orders) are drawn from one deterministic stream.
    The summary counts the queries, which no cost model changes.
    ``shuffle_presentation`` is keyword-only: a stray fifth positional
    argument fails instead of turning shuffling on.

    Each trial is learned by ``_learn_ranks(presentation, ranks, block)``,
    with no oracle: both are permutations built here, so neither is copied
    or checked, and the strategy is checked once, up front.
    """
    _require_int(n, 1)
    _require_int(trials, 1, "trials")
    block = _position_finder(strategy) is _block_position  # ValueError if unknown
    learn = _learner()

    # 0..n - 1, built by the factory, which rejects an n too large to build.
    in_order = list(GroundTruthOrder.identity(n).ranks)
    rng = random.Random(seed)
    counts: list[int] = []
    all_correct = True
    for _ in range(trials):
        ranks = GroundTruthOrder.shuffled(n, rng).ranks
        presentation = in_order
        if shuffle_presentation:
            presentation = in_order.copy()
            _shuffle(presentation, rng)
        learned, queries = learn(presentation, ranks, block)
        counts.append(queries)
        all_correct = all_correct and _learned_in_rank_order(learned, ranks, in_order)
    return TrialSummary(
        strategy=strategy,
        n=n,
        trials=trials,
        seed=seed,
        shuffle_presentation=shuffle_presentation,
        rng_algorithm=RNG_ALGORITHM,
        min_queries=min(counts),
        max_queries=max(counts),
        mean_queries=math.fsum(counts) / len(counts),
        all_correct=all_correct,
    )
