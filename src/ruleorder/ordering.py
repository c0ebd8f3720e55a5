"""Online learners for a hidden strict total order over integer rule ids.

A counting oracle answers "does rule a apply before rule b?" against a
hidden permutation of ranks, charging one query per answer.  Two insertion
strategies rebuild the full order one rule at a time:

- ``block``: scan the known sequence from the front and stop at the first
  rule the newcomer precedes (transitivity makes further queries redundant).
- ``binary``: binary-search the insertion point among the known rules.

Both strategies always recover the hidden order; they differ only in how
many queries they spend.
"""

from __future__ import annotations

import sys
from bisect import bisect_right
from collections.abc import Callable, Iterable, Sequence

# Defined in common, which every command loads; importable from here too.
from .common import (  # noqa: F401  re-exported
    STRATEGIES,
    STRATEGY_BINARY,
    STRATEGY_BLOCK,
    CostModel,
    DuplicateRuleError,
    EmptyUniverseError,
    IncorrectOrderError,
    InvalidPermutationError,
    InvalidQueryError,
    InvalidRuleError,
    InvariantError,
    OrderingError,
    SizeLimitError,
    UnsortedSequenceError,
    _require_int,
    _show,
)

# A rule is identified by an integer index in [0, n).
RuleId = int

# On a plain oracle, learn_order keeps the ranks placed between the ends in
# buckets of _CHUNK consecutive ranks, so placing a rule moves at most
# _CHUNK entries instead of the whole sequence.  Of 512 to 4096, 1024 and
# 2048 were the fastest, within noise of each other, for binary n = 20,000
# presented in reverse order, binary n = 10**6 shuffled and block
# n = 300,000 adversarial, when every rule still entered the buckets
# (CPython 3.11, shared 2-vCPU x86-64).
_CHUNK = 1024


def _shuffle(x: list, rng) -> None:
    """Shuffle ``x`` in place exactly as ``rng.shuffle(x)`` would.

    ``random.Random.shuffle`` is Fisher-Yates (Durstenfeld's Algorithm
    235; TAOCP vol. 2, 3.4.2, Algorithm P): for i from len(x) - 1 down to
    1 it swaps x[i] with x[j], j drawn by ``_randbelow(i + 1)``, which
    draws ``getrandbits(k)`` with k = (i + 1).bit_length() until a value
    <= i comes up.  This loop makes the same draws from a local
    ``rng.getrandbits``, without a Python call per draw, so it gives the
    same permutation and leaves the generator in the same state.  Only an
    exact ``random.Random``, which every caller passes, takes this loop;
    any other rng, a subclass included, is asked to ``shuffle`` itself.
    """
    stock = sys.modules.get("random")  # loaded wherever a Random exists
    if stock is None or type(rng) is not stock.Random:
        rng.shuffle(x)
        return
    getrandbits = rng.getrandbits
    for i in range(len(x) - 1, 0, -1):
        k = (i + 1).bit_length()
        j = getrandbits(k)
        while j > i:
            j = getrandbits(k)
        x[i], x[j] = x[j], x[i]


def _require_rules(rules: Sequence[RuleId], n: int) -> None:
    """Raise unless ``rules`` are distinct ints in [0, n), which n of them
    make a permutation of [0, n): the one check of universes, presentations
    and ranks.  0.0 and True equal 0 and 1, and only their type tells.

    Every rule is checked for its type and range before any repeat is
    reported, and a repeat is named by its first repeated occurrence.  When
    the rules fill the domain (n of them, a permutation if valid), the type
    and range loop also marks each rule in a list of n flags, 8 bytes a
    rule, and n valid rules repeat none iff every flag is set.  A strict
    subset keeps a ``set``, sized by its rules, not by the domain."""
    if len(rules) == n:
        flags = [False] * n
        for rule in rules:
            if type(rule) is not int or not 0 <= rule < n:
                raise InvalidRuleError(f"rules and ranks are ints in [0, {n}), not {_show(rule)}")
            flags[rule] = True
        if all(flags):
            return
    else:
        for rule in rules:
            if type(rule) is not int or not 0 <= rule < n:
                raise InvalidRuleError(f"rules and ranks are ints in [0, {n}), not {_show(rule)}")
        if len(set(rules)) == len(rules):
            return
    seen: set[int] = set()
    repeat = next(rule for rule in rules if rule in seen or seen.add(rule))
    raise DuplicateRuleError(f"{repeat} repeats; a permutation of 0..{n - 1} has it once")


class GroundTruthOrder:
    """The hidden strict total order: ``ranks[rule]`` is the rule's rank.

    ``ranks`` must be a permutation of [0, n); lower rank applies earlier.
    It is kept as a tuple copied before the check, so an order built from a
    list equals and hashes like one built from the same tuple, and later
    edits to that list do not reach it.  The check is ``_require_rules``'
    whole-domain branch: its n flags are all it holds besides the tuple, 16
    bytes a rank in all.  Orders are immutable: ``ranks`` cannot be
    reassigned, and equal orders hash equal.
    """

    __slots__ = ("ranks",)

    def __init__(self, ranks: Iterable[int]) -> None:
        ranks = tuple(ranks)
        _require_rules(ranks, len(ranks))
        object.__setattr__(self, "ranks", ranks)

    @classmethod
    def _built(cls, ranks: tuple[int, ...]) -> "GroundTruthOrder":
        """An order over ``ranks`` that are a permutation by construction,
        made without the check ``__init__`` runs."""
        order = object.__new__(cls)
        object.__setattr__(order, "ranks", ranks)
        return order

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):  # copy and pickle rebuild through __init__, not setattr
        return type(self), (self.ranks,)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.ranks == other.ranks

    def __hash__(self) -> int:
        return hash((self.ranks,))

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(ranks={self.ranks!r})"

    # The factories take any exact int 0 <= n <= sys.maxsize, the largest
    # length a Python sequence can have, and raise ValueError for anything
    # else; what they build from range is a permutation unchecked.

    @classmethod
    def identity(cls, n: int) -> "GroundTruthOrder":
        _require_int(n, most=sys.maxsize)
        return cls._built(tuple(range(n)))

    @classmethod
    def reversed_identity(cls, n: int) -> "GroundTruthOrder":
        _require_int(n, most=sys.maxsize)
        return cls._built(tuple(range(n - 1, -1, -1)))

    @classmethod
    def shuffled(cls, n: int, rng) -> "GroundTruthOrder":
        """Uniformly random order drawn from ``rng`` (a ``random.Random``):
        the ranks 0..n-1 shuffled by ``_shuffle``, so the same seed gives
        the order ``rng.shuffle`` would and leaves ``rng`` in the same state."""
        _require_int(n, most=sys.maxsize)
        ranks = list(range(n))
        _shuffle(ranks, rng)
        return cls._built(tuple(ranks))

    @property
    def n(self) -> int:
        return len(self.ranks)

    def true_sequence(self) -> list[RuleId]:
        """The sequence a correct learner ends with: slot = rank, so each
        rule is put straight into the slot its rank names, in O(n)."""
        seq = [0] * self.n
        for rule, rank in enumerate(self.ranks):
            seq[rank] = rule
        return seq


class CountingOracle:
    """Answers precedence queries against a hidden order and counts them.

    With ``record=True`` every query is appended to ``transcript`` as
    ``(a, b, answer)``; recording is off by default to keep long runs lean.

    Only ``learn_order`` asks ``_batched()``, once per call.  When nothing
    could tell the difference (the oracle is not recording and its
    ``precedes`` is this class's own, not replaced on a subclass, on the
    class or on the instance), ``learn_order`` calls no ``precedes`` and
    adds to ``query_count`` the queries the strategy's search would have
    asked.  Otherwise, and always in ``block_insert`` and ``binary_insert``,
    every query goes through ``self.precedes``, so transcripts and wrapped
    or overridden ``precedes`` see each one.
    """

    # No __slots__: an instance may replace its own ``precedes``.
    __hash__ = None

    def __init__(self, order: GroundTruthOrder, record: bool = False) -> None:
        self.order = order
        self.record = record
        self.query_count = 0
        self.transcript: list[tuple[RuleId, RuleId, bool]] = []

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.order, self.record, self.query_count, self.transcript) == (
            other.order, other.record, other.query_count, other.transcript
        )

    def __repr__(self) -> str:
        return (
            f"{type(self).__qualname__}(order={self.order!r}, record={self.record!r},"
            f" query_count={self.query_count!r}, transcript={self.transcript!r})"
        )

    def precedes(self, a: RuleId, b: RuleId) -> bool:
        """True iff rule ``a`` applies before rule ``b``. Costs one query."""
        ranks = self.order.ranks
        n = len(ranks)
        # The rules _require_rules accepts: exact ints in [0, n), so True,
        # 0.5 and "a" are rejected, and nothing is charged for them.
        if type(a) is not int or type(b) is not int or not 0 <= a < n or not 0 <= b < n:
            raise InvalidRuleError(f"query ({_show(a)}, {_show(b)}) names no rule in [0, {n})")
        if a == b:
            raise InvalidQueryError(f"reflexive query for rule {a}")
        answer = ranks[a] < ranks[b]
        self.query_count += 1
        if self.record:
            self.transcript.append((a, b, answer))
        return answer

    def reset(self) -> None:
        self.query_count = 0
        self.transcript.clear()

    def _batched(self) -> bool:
        """True when per-query ``precedes`` calls would be unobservable."""
        return (
            not self.record
            and type(self).precedes is _STOCK_PRECEDES
            and "precedes" not in self.__dict__
        )


_STOCK_PRECEDES = CountingOracle.precedes


# The per-query route: each finder asks ``oracle.precedes`` once per query,
# in the order of its search over one flat list of rules, and returns the
# position where the newcomer belongs.


def _block_position(seq: list[RuleId], x: RuleId, oracle: CountingOracle) -> int:
    """First position whose rule the newcomer precedes; the end if none."""
    precedes = oracle.precedes
    for j, y in enumerate(seq):
        if precedes(x, y):
            return j
    return len(seq)


def _binary_position(seq: list[RuleId], x: RuleId, oracle: CountingOracle) -> int:
    """Insertion point by halving the candidate window [lo, hi)."""
    precedes = oracle.precedes
    lo, hi = 0, len(seq)
    while lo < hi:
        mid = (lo + hi) // 2
        if precedes(x, seq[mid]):
            hi = mid
        else:
            lo = mid + 1
    return lo


_POSITION_FINDERS: dict[str, Callable[..., int]] = {
    STRATEGY_BLOCK: _block_position,
    STRATEGY_BINARY: _binary_position,
}


def _position_finder(strategy: str):
    try:
        return _POSITION_FINDERS[strategy]
    except KeyError:
        raise ValueError(
            f"unknown strategy {_show(strategy)} (choose from: {', '.join(STRATEGIES)})"
        ) from None


def _is_sorted_by_rank(seq: Sequence[RuleId], order: GroundTruthOrder) -> bool:
    ranks = order.ranks
    return all(ranks[seq[i]] < ranks[seq[i + 1]] for i in range(len(seq) - 1))


def _checked_insert(seq, x, oracle, strategy):
    out = list(seq)
    # _is_sorted_by_rank reads every rank unchecked, and a block scan that
    # stops early never queries a rule further on, so every rule is checked
    # here, as precedes would check it.
    _require_rules((x, *out), oracle.order.n)
    if not _is_sorted_by_rank(out, oracle.order):
        raise UnsortedSequenceError("input sequence not sorted by rank")
    out.insert(_POSITION_FINDERS[strategy](out, x, oracle), x)
    return out


def block_insert(
    seq: Sequence[RuleId], x: RuleId, oracle: CountingOracle
) -> list[RuleId]:
    """Insert ``x`` into a rank-sorted sequence by linear scan from the front.

    Queries the oracle once per scanned position and stops at the first
    accepting one, so inserting into i rules costs between 1 and i queries
    (0 for an empty sequence).  Returns a new list; ``seq`` is unchanged.
    """
    return _checked_insert(seq, x, oracle, STRATEGY_BLOCK)


def binary_insert(
    seq: Sequence[RuleId], x: RuleId, oracle: CountingOracle
) -> list[RuleId]:
    """Insert ``x`` into a rank-sorted sequence by binary search.

    Inserting into m rules costs at most ceil(log2(m + 1)) queries and,
    for m >= 1, at least floor(log2(m + 1)).  Returns a new list.
    """
    return _checked_insert(seq, x, oracle, STRATEGY_BINARY)


def learn_order(
    universe: Iterable[RuleId], oracle: CountingOracle, strategy: str
) -> list[RuleId]:
    """Learn the hidden order of ``universe`` by inserting rules one at a time.

    Rules are inserted in the order given (the presentation order).  Returns
    the learned sequence, in which each rule sits at its hidden rank among
    the universe's ranks.  The run's queries are added to
    ``oracle.query_count``, its only count; a ``CostModel`` prices that
    count where a result row is built.

    This is the entry point for rules from outside: it checks the strategy,
    copies ``universe`` into a list and checks that its rules are distinct
    ints in [0, n) before it asks anything, so a bad rule is rejected and
    charged nothing.

    When ``oracle._batched()`` is false (``CountingOracle`` says when), each
    rule is placed by the strategy's search over one flat list of the rules
    placed so far, a scan from the front for block and a halving search for
    binary, asking every query.  Placement then moves O(n^2) list entries
    in all.

    Otherwise the oracle is asked nothing.  A universe of k rules is run
    over the ranks 0..k - 1 by ``_learn_ranks``: a strict subset of the
    domain is first sorted by rank once and each rule ranked among the k,
    O(k log k) however large the domain.  The queries depend only on the
    order of the ranks, which this keeps.  ``_learn_ranks`` returns the
    learned sequence and the count, which is added to ``query_count``.

    Either way the learned sequence, the query count and any transcript
    are those of the flat search.
    """
    finder = _position_finder(strategy)
    rules = list(universe)
    if not rules:
        raise EmptyUniverseError("cannot learn an order over zero rules")
    _require_rules(rules, oracle.order.n)
    if not oracle._batched():
        seq: list[RuleId] = []
        for x in rules:
            seq.insert(finder(seq, x, oracle), x)
        return seq

    ranks = oracle.order.ranks
    if len(rules) < len(ranks):
        # Rank a strict subset among itself, so the core runs over ranks
        # 0..len(rules) - 1.
        ranks = {x: i for i, x in enumerate(sorted(rules, key=ranks.__getitem__))}
    learned, queries = _learn_ranks(rules, ranks, strategy == STRATEGY_BLOCK)
    oracle.query_count += queries
    return learned


def _learn_ranks(
    rules: Sequence[RuleId], ranks, block: bool
) -> tuple[list[RuleId], int]:
    """The batched learner: ``(learned, queries)`` for ``rules`` presented in
    this order, block's scan if ``block`` is true and binary's halving
    search if not, asking no oracle.

    The caller guarantees the contract, which is not checked: ``rules`` is
    not empty, and ``ranks[x]`` (a sequence or a mapping) maps the rules
    one to one onto 0..len(rules) - 1.  ``learn_order`` checks rules from
    outside before it calls this; the harness drivers call it directly on
    permutations they built themselves, with no copy and no rule check.

    Each rule is charged what the strategy's flat search would have asked
    to land where the rule belongs among the m rules placed so far.  A rule
    ranked above every placed rank lands at p = m: it is appended to
    ``backs`` and charged m for block (a full scan) and floor(log2(m + 1))
    for binary (the rightmost leaf of the halving search, its shallowest).
    A rule ranked below them all lands at p = 0: its negated rank is
    appended to ``fronts`` and it is charged 1 for block and
    ceil(log2(m + 1)) for binary (the leftmost leaf, its deepest; TAOCP
    vol. 3, 5.3.1).  Both lists stay ascending, and the first rule, the
    first back, costs 0.  Only a rule that lands strictly between the ends
    is searched for and indexed: ``buckets[b]`` holds the middle ranks in
    [b * ``_CHUNK``, (b + 1) * ``_CHUNK``), sorted, so a bucket never grows
    past ``_CHUNK`` ranks, and ``below`` is a Fenwick tree over bucket
    lengths.  A bucket's list is made when its first middle rank lands,
    which keeps the fixed cost of a small run down.  p is a C-level
    bisection of the rule's own bucket, plus the middle ranks in lower
    buckets (one O(log(k / ``_CHUNK``)) walk of ``below``), plus the end
    ranks below it, which one bisection counts: every front is below the
    first rule's rank and every back at or above it.  p must lie in
    (0, m) or ``InvariantError`` is raised, and the run is charged p + 1
    queries for block and the probe count of the halving search for
    binary.  An end landing costs one append; placing a middle rule moves
    at most ``_CHUNK`` ranks and updates O(log(k / ``_CHUNK``)) tree
    entries, so a run costs O(k * (``_CHUNK`` + log k)) time whatever its
    query count.  The learned sequence is built by slot = rank: as each
    rule lands it is stored in the slot of a list of k that its rank
    names, with no closing sort.
    """
    width = _CHUNK
    size = (len(rules) - 1) // width + 1
    # A bucket's list is made when its first middle rank lands.  Making
    # them all up front, as one list comprehension, is a fixed cost of every
    # small run: one call on a shuffled n = 6 took 17% longer (both
    # strategies) and random_trials(27, ., 100) about 1% (block 12, binary
    # 13 of 20 rounds slower) (CPython 3.11, shared 2-vCPU x86-64).
    buckets: list[list[int] | None] = [None] * size
    # Fenwick tree over the lengths of every bucket but the last, which is
    # never below another: below[i] sums buckets[i - (i & -i):i].
    below = [0] * size
    queries = 0
    # The end landers, each list ascending: ``backs`` holds the ranks that
    # landed above every placed rank, from the first rule's on, and
    # ``fronts`` the negated ranks that landed below every placed rank.
    # ``lowest`` and ``highest`` start at the first rule's rank, so that
    # rule takes the back branch (``>=``) at m = 0 and is charged nothing;
    # ranks are distinct, so later rules never tie.
    first = lowest = highest = ranks[rules[0]]
    backs: list[int] = []
    fronts: list[int] = []
    # The ranks are 0..len(rules) - 1, so each rule is stored in the slot
    # its rank names as it lands.  This repeats true_sequence(), but keeps
    # the rule objects the loop already holds: calling true_sequence()
    # after the loop makes n new ints and lost the whole gain on
    # learn-binary-large.
    learned = [0] * len(rules)
    for m, x in enumerate(rules):
        rx = ranks[x]
        learned[rx] = x
        if rx >= highest:  # lands at p = m: a full scan, the rightmost leaf
            queries += m if block else (m + 1).bit_length() - 1
            backs.append(rx)
            highest = rx
        elif rx < lowest:  # lands at p = 0: one query, the leftmost leaf
            queries += 1 if block else m.bit_length()
            fronts.append(-rx)
            lowest = rx
        else:
            b = rx // width
            bucket = buckets[b]
            if bucket is None:
                bucket = buckets[b] = []
            p = j = bisect_right(bucket, rx)
            i = b
            while i:  # p += middle ranks in buckets[:b]
                p += below[i]
                i &= i - 1
            # p += end ranks below rx: every front is below the first rank and
            # every back at or above it.
            if rx > first:
                p += len(fronts) + bisect_right(backs, rx)
            else:
                p += len(fronts) - bisect_right(fronts, -rx)
            # lowest < rx < highest, both placed, so neither end is possible.
            if not 0 < p < m:
                raise InvariantError(f"rule {x} landed at {p} of {m} placed rules")
            # Charge what the flat search asks to land at p: a scan stops
            # after p + 1 queries, a halving search counts its probes.
            if block:
                queries += p + 1
            else:
                lo, hi = 0, m
                while lo < hi:
                    mid = (lo + hi) >> 1
                    if p <= mid:
                        hi = mid
                    else:
                        lo = mid + 1
                    queries += 1
            bucket.insert(j, rx)
            i = b + 1
            while i < size:  # buckets[b] grew by one
                below[i] += 1
                i += i & -i
    return learned, queries
