"""What every command needs: strategy and worst-case mode names, errors,
cost models, checks.

``cli`` and ``complexity`` import these from here, so ``predict`` and
``table`` never compile or run the learner in ``ordering``.
"""

from __future__ import annotations

import enum

STRATEGY_BLOCK = "block"
STRATEGY_BINARY = "binary"
STRATEGIES = (STRATEGY_BLOCK, STRATEGY_BINARY)

MODE_EXHAUSTIVE = "exhaustive"
MODE_ADVERSARIAL = "adversarial"
MODES = (MODE_EXHAUSTIVE, MODE_ADVERSARIAL)


class OrderingError(Exception):
    """Base class for contract violations raised by this package."""


class InvalidQueryError(OrderingError):
    """Reflexive or out-of-universe precedence query."""


class EmptyUniverseError(OrderingError):
    """Asked to learn an order over no rules at all."""


class InvalidPermutationError(OrderingError):
    """A rank or presentation sequence is not a permutation of [0, n)."""


class InvalidRuleError(InvalidQueryError, InvalidPermutationError):
    """A rule or rank that is not an int in [0, n): a bad query and a bad permutation."""


class DuplicateRuleError(InvalidPermutationError):
    """A rule or rank was given more than once."""


class SizeLimitError(OrderingError):
    """An exhaustive search was requested above its factorial-cost cap."""


class InvariantError(OrderingError):
    """An internal invariant failed: a defect in this package, not bad input."""


class IncorrectOrderError(InvariantError):
    """A learner returned an order that differs from the hidden one."""


class CostModel(enum.Enum):
    """How a finished run is priced, applied to its query count where a
    result row is built (``harness.run_trial``, the worst-case reports).

    ``COMPARISONS_ONLY`` counts oracle queries alone.
    ``COMPARISONS_PLUS_PLACEMENT`` additionally charges one placement step
    per inserted rule after the first, i.e. n - 1 extra steps for a full run.
    """

    COMPARISONS_ONLY = "comparisons"
    COMPARISONS_PLUS_PLACEMENT = "comparisons-plus-placement"

    def steps(self, queries: int, n: int) -> int:
        """Step count for a full run of ``n`` rules that spent ``queries``."""
        if self is CostModel.COMPARISONS_PLUS_PLACEMENT:
            return queries + max(n - 1, 0)
        return queries


def _show(value) -> str:
    """``value`` for an error message: a repr cut to 20 characters."""
    if isinstance(value, int) and value.bit_length() > 64:  # repr refuses huge ints
        return f"an int of {value.bit_length()} bits"
    text = repr(value)
    return text if len(text) <= 20 else text[:17] + "..."


def _require_int(value, least: int = 0, name: str = "n", most: int | None = None) -> None:
    """Raise ``ValueError`` unless ``value`` is an exact int >= ``least``
    (0 or 1) and, if ``most`` is given, <= ``most``: the one check of every
    size and count.  True and 2.0 equal 1 and 2, and only their type tells."""
    if type(value) is not int or value < least:
        kind = "positive" if least else "non-negative"
        raise ValueError(f"{name} must be a {kind} integer, got {_show(value)}")
    if most is not None and value > most:
        raise ValueError(f"{name} must be at most {most}, got {_show(value)}")
