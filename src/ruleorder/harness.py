"""Experiment harness: generate instances, run learners, check counts.

Instances come in three flavours: exhaustive (every permutation, small n),
adversarial (constructions that attain the worst-case formulas), and random
(seeded unbiased shuffles).  Every presentation and ground truth that the
drivers build themselves is a permutation by construction, so the drivers
call the unchecked core ``ordering._learn_ranks`` directly: no oracle, no
copy and no rule check per run, only one strategy check per call.  That
holds for ``random_trials``, ``adversarial_worst_case`` and ``run_trial``
with no presentation (it presents 0..n-1).  ``run_trial`` copies a
presentation from the caller once and checks its rules once
(``_require_rules``), then learns it through the same core.
``exhaustive_worst_case`` runs no learner: relabelling each rule as its
rank makes every ground truth under presentation 0..n-1 the identity
order under a permuted presentation, and ``worstcase._walk`` finds the
first of those that lands every rule where it costs most in one table of
what the flat per-query searches ask (``worstcase._landing_costs``),
without pricing all n! of them.
While a wrapper replaces ``learn_order`` here or
``CountingOracle.precedes``, the drivers learn through ``learn_order``
instead, so it sees every run (``_learner``), and the exhaustive search
makes one run per ground truth.  Every driver but the exhaustive search
checks the learned list against the ground truth.  Calls share nothing
but the exhaustive search's tables and can be executed in any order.

The two worst-case drivers import ``worstcase`` on their first call
(``_load_worstcase``) and ``comparison_table`` imports ``complexity`` when
called, so ``learn`` loads neither ``worstcase``, with its dataclass, nor
``complexity``.
"""

from __future__ import annotations

import importlib
import itertools
import math
from collections import namedtuple

from .common import (
    MODE_ADVERSARIAL,
    MODE_EXHAUSTIVE,
    STRATEGY_BLOCK,
    CostModel,
    IncorrectOrderError,
    InvalidPermutationError,
    SizeLimitError,
    _require_int,
    _show,
)
from .ordering import (
    CountingOracle,
    GroundTruthOrder,
    RuleId,
    _learn_ranks,
    _position_finder,
    _require_rules,
    _shuffle,
    _STOCK_PRECEDES,
    learn_order,
)

# Generator recorded in summaries so identical seeds are comparable across
# runs: Mersenne Twister driving a Fisher-Yates shuffle.  ordering._shuffle
# makes the draws random.Random.shuffle makes, so the stream is the same.
RNG_ALGORITHM = "mt19937-fisher-yates"


# The worstcase module, once the first worst-case driver call has imported
# it.  The drivers read it here: a relative import statement in a driver's
# body runs importlib's Python code on every call, which made each
# adversarial_worst_case(500, "block") of block-adversarial, about 90 us
# after the benchmark's cache-evicting reference run, some 10 us slower
# (CPython 3.11, shared 2-vCPU x86-64).
_worstcase = None


def _load_worstcase():
    global _worstcase
    _worstcase = importlib.import_module(f"{__package__}.worstcase")
    return _worstcase


class TrialResult(
    namedtuple("TrialResult", "strategy n queries steps correct cost_model source")
):
    """One learning run: counts, correctness, and instance provenance."""

    __slots__ = ()


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
    learned: list[RuleId], ranks: tuple[int, ...], in_order: list[int]
) -> bool:
    """True iff ``learned`` lists every rule once, by rank: ``learned[i]``
    has rank i.  One O(n) pass, not a second sort by rank.  ``in_order`` is
    a list equal to ``list(range(len(ranks)))`` that the caller holds: read
    off the ranks (``run_trial``, ``adversarial_worst_case``), or shared by
    many runs (``random_trials``).  ``learned`` comes from ``_learner()``,
    whose rules the caller checked or built, so each one indexes ``ranks``
    as itself."""
    return [ranks[x] for x in learned] == in_order


def _ranks_in_order(ranks: tuple[int, ...]) -> list[int]:
    """0..n - 1 made of the ranks' own int objects, not n new ones: each rank
    is stored in the slot it names, one O(n) pass, where sorted(ranks) is
    n log n on a shuffled order."""
    in_order = [0] * len(ranks)
    for rank in ranks:
        in_order[rank] = rank
    return in_order


def _require_model(model) -> None:
    """Raise ``TypeError`` unless ``model`` is a ``CostModel``: the drivers
    price a count only after their runs, so they check it before any."""
    if not isinstance(model, CostModel):
        raise TypeError(f"model must be a CostModel, got {_show(model)}")


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
    rules, ranks: tuple[int, ...], strategy: str
) -> tuple[list[RuleId], int]:
    """``_learn_ranks(rules, ranks, strategy)`` through ``learn_order`` and a
    counting oracle of its own."""
    oracle = CountingOracle(GroundTruthOrder._built(ranks))
    learned = learn_order(rules, oracle, strategy)
    return learned, oracle.query_count


def run_trial(
    n: int,
    strategy: str,
    ground_truth: GroundTruthOrder,
    presentation_order: list[RuleId] | None = None,
    model: CostModel = CostModel.COMPARISONS_ONLY,
    source: str = "explicit",
) -> TrialResult:
    """Run one learner on ``ground_truth`` and report its counts.

    With no ``presentation_order`` the rules are presented as 0..n-1, a
    permutation built here.  A caller's presentation is copied once, its
    length checked, and its rules checked by ``_require_rules``, so a bad
    rule is rejected and charged nothing.  The strategy is checked up front
    with ``learn_order``'s message.  Either way the rules are learned by
    the core (``_learner``) with no oracle, and the learned list is checked
    against the ground truth (``correct``) through 0..n-1 read off
    ``ground_truth.ranks`` in one pass, each rank into the slot it names,
    so it holds the ranks' own int objects and no new int per rule.
    """
    _require_int(n, 1)
    if ground_truth.n != n:
        raise InvalidPermutationError(
            f"ground truth has {ground_truth.n} rules, expected {_show(n)}"
        )
    if presentation_order is not None:
        presentation = tuple(presentation_order)
        if len(presentation) != n:
            raise InvalidPermutationError(f"presentation has {len(presentation)} rules, not {n}")
    _position_finder(strategy)  # ValueError if unknown
    ranks = ground_truth.ranks
    if presentation_order is None:
        presentation = _ranks_in_order(ranks)
    else:
        _require_rules(presentation, n)  # n distinct rules are a permutation
    _require_model(model)
    learned, queries = _learner()(presentation, ranks, strategy)
    # 0..n - 1 is what the learned rules' ranks must read.  With a caller's
    # presentation it is read off the ranks after the core, whose pass over
    # them leaves their ints in cache: read before the core, run_trial on
    # 20,000 rules took 3% longer (CPython 3.11, shared 2-vCPU x86-64).
    in_order = presentation if presentation_order is None else _ranks_in_order(ranks)
    return TrialResult(
        strategy=strategy,
        n=n,
        queries=queries,
        steps=model.steps(queries, n),
        correct=_learned_in_rank_order(learned, ranks, in_order),
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

    Relabelling each rule i as its rank turns ground truth ``ranks`` under
    presentation 0..n-1 into the identity order under presentation
    ``ranks``: every query (i, j) becomes (ranks[i], ranks[j]) with the
    same answer, so it asks as many queries as the original instance.  The
    ground truths in ``itertools.permutations`` order are thus the
    presentations in that order.  Every landing sequence belongs to
    exactly one presentation, so the maximum is the sum of each row's
    largest cost in a table the strategy's flat search builds once per size
    and strategy (``worstcase._landing_costs``), and ``worstcase._walk``
    searches only such landings, in that order, for the first presentation
    that attains it, the instance one run per ground truth reported; it
    runs no learner.  While a run could be
    watched (``_learner``), each ground truth is instead learned by
    ``learn_order`` against the identity, so a wrapper sees n! runs in the
    same order.  The strategy is checked once, up front.
    """
    worstcase = _worstcase or _load_worstcase()
    _require_int(n, 1)
    cap = worstcase.EXHAUSTIVE_CAP_FIXED
    if n > cap:
        raise SizeLimitError(f"exhaustive search is capped at n = {cap}, got n = {_show(n)}")

    _position_finder(strategy)  # ValueError if unknown
    _require_model(model)
    identity = tuple(range(n))
    learn = _learner()
    if learn is _learn_watched:  # one run per ground truth, for the wrapper
        best, first = -1, ()
        for ranks in itertools.permutations(identity):
            queries = learn(ranks, identity, strategy)[1]
            if queries > best:
                best, first = queries, ranks
    else:
        best, first = worstcase._walk(worstcase._landing_costs(n, strategy))
    return worstcase.WorstCaseReport(
        strategy=strategy,
        n=n,
        mode=MODE_EXHAUSTIVE,
        cost_model=model.value,
        max_steps=model.steps(best, n),
        ground_truth_ranks=first,
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
    ground_truth = _adversarial_order(n, strategy)
    # The presentation 0..n-1 is read off the order's ranks, so it shares
    # their int objects instead of making n new ones.
    ranks = ground_truth.ranks
    return ground_truth, list(ranks if strategy == STRATEGY_BLOCK else reversed(ranks))


def _adversarial_order(n: int, strategy: str) -> GroundTruthOrder:
    """``adversarial_ground_truth``'s order alone, for a caller that
    presents 0..n-1 itself: no presentation list is made."""
    _require_int(n, 1)
    _position_finder(strategy)  # raises ValueError for an unknown strategy
    # The factories reject an n too large to build.
    if strategy == STRATEGY_BLOCK:
        return GroundTruthOrder.identity(n)
    return GroundTruthOrder.reversed_identity(n)


def adversarial_worst_case(
    n: int, strategy: str, model: CostModel = CostModel.COMPARISONS_ONLY
) -> WorstCaseReport:
    """Measure the adversarial instance instead of enumerating.

    ``adversarial_ground_truth`` builds the instance, a permutation by
    construction, and checks the strategy, so it is learned by the core
    (``_learner``) with no oracle, no copy and no rule check.  The learned
    list is still checked against the ground truth: a wrong one raises
    ``IncorrectOrderError``.
    """
    worstcase = _worstcase or _load_worstcase()
    ground_truth, presentation = adversarial_ground_truth(n, strategy)
    _require_model(model)
    ranks = ground_truth.ranks
    learned, queries = _learner()(presentation, ranks, strategy)
    # Both presentations are 0..n - 1 in order, what the learned rules'
    # ranks must read.
    if not _learned_in_rank_order(learned, ranks, presentation):
        raise IncorrectOrderError(
            f"{strategy} learned a wrong order on the adversarial instance at n = {n}"
        )
    return worstcase.WorstCaseReport(
        strategy=strategy,
        n=n,
        mode=MODE_ADVERSARIAL,
        cost_model=model.value,
        max_steps=model.steps(queries, n),
        ground_truth_ranks=ranks,
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
    ``seed`` must be an int >= 0, the one seed that reproduces the counts:
    ``None`` would draw from the OS, and -3 gives 3's stream.
    The summary counts the queries, which no cost model changes.
    ``shuffle_presentation`` is keyword-only: a stray fifth positional
    argument fails instead of turning shuffling on.

    Each trial is learned by ``_learn_ranks(presentation, ranks, strategy)``,
    with no oracle: both are permutations built here, so neither is copied
    or checked, and the strategy is checked once, up front.
    """
    import random  # here, so that learn --adversarial does not load it

    _require_int(n, 1)
    _require_int(trials, 1, "trials")
    _require_int(seed, 0, "seed")
    _position_finder(strategy)  # ValueError if unknown
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
        learned, queries = learn(presentation, ranks, strategy)
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


def comparison_table():
    """``complexity.comparison_table()``: the predictor reports for the
    paper's showcase sizes.  ``complexity`` defines it; the benchmark in
    ``perfbench/`` reads it from here."""
    from . import complexity

    return complexity.comparison_table()
