"""Worst-case reports and the exhaustive search.

The exhaustive maximum is the sum of each insertion's worst landing cost,
read off one table of landing costs (``_landing_costs``); ``_walk`` adds
the first presentation that attains it, searching only worst landings.

``harness.exhaustive_worst_case`` and ``harness.adversarial_worst_case``
import this module when they run, so only ``worst-case`` loads it and, with
its frozen dataclass, ``dataclasses``; ``learn`` loads ``harness`` alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .common import InvariantError
from .ordering import CountingOracle, GroundTruthOrder, _position_finder

# The search visits at most 29 nodes at n = 8, but a run watched by a
# wrapper (``harness._learner``) learns each of the n! ground truths, and so
# does the tests' cross-check of the search; this cap keeps those desk-scale.
EXHAUSTIVE_CAP_FIXED = 8


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


# One table per size and strategy the exhaustive search takes: at most
# 2 * EXHAUSTIVE_CAP_FIXED tables of at most 36 ints.  Building one takes
# 2-7 times as long as the search over it.
@lru_cache(maxsize=2 * EXHAUSTIVE_CAP_FIXED)
def _landing_costs(n: int, strategy: str) -> tuple[tuple[int, ...], ...]:
    """``rows[m][p]`` for m < n: the queries the strategy's flat per-query
    search (``_block_position``, ``_binary_position``) asks to land a rule
    at p among m placed rules.  Each is counted on a ``CountingOracle``
    over the identity order, searching for rule p among the other rules of
    0..m, so the finders stay the one definition of what a landing costs.
    The table is built once per (n, strategy) and shared, so it is made of
    tuples."""
    finder = _position_finder(strategy)
    oracle = CountingOracle(GroundTruthOrder.identity(n))
    rows = []
    for m in range(n):
        row = []
        for p in range(m + 1):
            oracle.reset()
            if finder([*range(p), *range(p + 1, m + 1)], p, oracle) != p:
                raise InvariantError(f"rule {p} did not land at {p} of {m} placed rules")
            row.append(oracle.query_count)
        rows.append(tuple(row))
    return tuple(rows)


def _walk(rows) -> tuple[int, tuple[int, ...]]:
    """The largest query count of a presentation of 0..n - 1 against the
    identity order, n = ``len(rows)``, priced by ``rows``
    (``_landing_costs``), and the first presentation in
    ``itertools.permutations`` order that asks it.

    Each landing sequence, p_m in 0..m for every m, is the landing sequence
    of exactly one presentation (the inversion table, TAOCP vol. 3, 5.1.1),
    so the largest count is ``sum(map(max, rows))``, attained by exactly
    the presentations that land every rule where its row is largest.  A
    depth-first search finds the first of them: at depth m the rule with
    the k-th smallest value v of those left (k from 0) lands at p = v - k
    among the m placed rules, since of the v values below it the k smaller
    ones left are all that is not placed, and the search follows it only if
    ``rows[m][p]`` is its row's maximum.  Values are taken in ascending
    order, as ``itertools.permutations`` takes them, so the first complete
    path is the first presentation.  It visits a few dozen nodes at n = 8,
    not all n! presentations.
    """
    worst = [max(row) for row in rows]

    def first(m: int, rest: tuple[int, ...]) -> tuple[int, ...] | None:
        if not rest:
            return ()
        row, most = rows[m], worst[m]
        for k, v in enumerate(rest):
            if row[v - k] == most:
                tail = first(m + 1, rest[:k] + rest[k + 1:])
                if tail is not None:
                    return (v, *tail)
        return None

    return sum(worst), first(0, tuple(range(len(rows))))
