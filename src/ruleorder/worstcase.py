"""Worst-case reports and the exhaustive search's pricing.

``harness.exhaustive_worst_case`` and ``harness.adversarial_worst_case``
import this module when they run, and ``harness`` resolves its public names
on first lookup (PEP 562), so only ``worst-case`` loads it and, with its
frozen dataclass, ``dataclasses``; ``learn`` loads ``harness`` alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .common import InvariantError
from .ordering import CountingOracle, GroundTruthOrder

# Full enumeration costs n! runs; this cap keeps it desk-scale.
EXHAUSTIVE_CAP_FIXED = 8

MODE_EXHAUSTIVE = "exhaustive"
MODE_ADVERSARIAL = "adversarial"


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
# 2 * EXHAUSTIVE_CAP_FIXED tables of at most 36 ints.  Building one took
# 11-22% of a search at n = 6 when every call built its own.
@lru_cache(maxsize=2 * EXHAUSTIVE_CAP_FIXED)
def _landing_costs(n: int, finder) -> tuple[tuple[int, ...], ...]:
    """``rows[m][p]`` for m < n: the queries ``finder``, a strategy's flat
    per-query search (``_block_position``, ``_binary_position``), asks to
    land a rule at p among m placed rules.  Each is counted on a
    ``CountingOracle`` over the identity order, searching for rule p among
    the other rules of 0..m, so the finders stay the one definition of what
    a landing costs.  The table is built once per (n, finder) and shared,
    so it is made of tuples."""
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

    A depth-first walk of the tree of presentation prefixes: at depth m the
    rule with the k-th smallest value v of those left (k from 0) lands at
    p = v - k among the m placed rules, since of the v values below it the
    k smaller ones left are all that is not placed, and the walk adds
    ``rows[m][p]`` to the prefix's count.  Values are taken in ascending
    order, as ``itertools.permutations`` takes them, so each prefix is
    priced once, about e * n! additions in place of n * n! landings, and
    the presentations are reached in that order: keeping the first strict
    maximum keeps the first presentation that attains it.  The last two
    rules, a < b, are priced inline: a then b lands at a then b, and b then
    a at b - 1 then a.
    """
    n = len(rows)
    if n == 1:
        return rows[0][0], (0,)
    best, first = -1, ()
    path = [0] * n  # path[:m] is the prefix at depth m
    last = rows[-1]
    penultimate = n - 2

    def walk(m: int, rest: tuple[int, ...], total: int) -> None:
        nonlocal best, first
        row = rows[m]
        if m == penultimate:
            a, b = rest
            count = total + row[a] + last[b]
            if count > best:
                best, first = count, (*path[:m], a, b)
            count = total + row[b - 1] + last[a]
            if count > best:
                best, first = count, (*path[:m], b, a)
        else:
            for k, v in enumerate(rest):
                path[m] = v
                walk(m + 1, rest[:k] + rest[k + 1:], total + row[v - k])

    walk(0, tuple(range(n)), 0)
    return best, first
