"""Closed-form worst-case step counts for the two order-learning strategies.

All integer-valued predictors are exact (arbitrary precision); the only
floating-point quantity is the log-factorial sum, which is accumulated with
compensated summation.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple

from .common import InvariantError, _require_int, _show

DAYS_PER_YEAR = 365.25

# The paper's rate for its comparison table: two steps a day.
STEPS_PER_DAY = 2.0

# The universe sizes of the paper's comparison table.
TABLE_SIZES = (27, 1000)

# Slack granted to the strict log2(n!) < B(n) bound, which floating
# accumulation (and the exact tie at n = 2) would otherwise break.
BOUND_RELATIVE_TOLERANCE = 1e-9

# Decimal digits kept beyond the requested ones when ``scientific`` cuts a
# long integer short; the estimate of its length from bit_length() is off
# by at most one, so at least digits + _GUARD digits always remain.
_GUARD = 12
_LOG10_2 = math.log10(2)


def ceil_log2(k: int) -> int:
    """Smallest integer >= log2(k), exact for arbitrarily large integers."""
    _require_int(k, 1, "k")
    return (k - 1).bit_length()


def block_steps_exact(n: int) -> int:
    """Worst-case steps of linear-scan insertion, 2 + 3 + ... + n, in closed form.

    The first rule is placed without any test, so the i = 1 term drops out.
    """
    _require_int(n, 1)
    return (n * n - n) // 2 + n - 1


def binary_steps(n: int) -> int:
    """Worst-case queries of binary insertion: sum of ceil(log2 k), k = 1..n.

    Evaluated in O(1) with Knuth's closed form n*L - 2**L + 1, where
    L = ceil(log2 n) (TAOCP vol. 3, section 5.3.1).
    """
    _require_int(n, 1)
    levels = ceil_log2(n)
    return n * levels - (1 << levels) + 1


def log_factorial(n: int) -> float:
    """log2(n!) as the compensated sum of log2(k) for k = 1..n.

    Never materialises n! itself, so it stays cheap for large n.  The sum
    takes n terms, so n is at most ``sys.maxsize``, as for ``naive_steps``:
    above it the sum would never end, and ``ValueError`` is raised at once.
    """
    _require_int(n, 1, most=sys.maxsize)
    return math.fsum(map(math.log2, range(1, n + 1)))


def naive_steps(n: int) -> int:
    """Steps of brute-force enumeration over all orderings: n!, exact, for n
    at most ``sys.maxsize``."""
    _require_int(n, 1, most=sys.maxsize)
    return math.factorial(n)


def speedup(n: int) -> float:
    """How many times fewer steps binary insertion needs than linear scan."""
    _require_int(n, 1)
    if n < 2:
        raise ValueError(f"speedup needs n >= 2 (binary_steps({n}) is 0)")
    return block_steps_exact(n) / binary_steps(n)


def learning_duration(steps: int, steps_per_day: float) -> float:
    """Years needed to spend ``steps`` at a rate of ``steps_per_day``: a
    finite float, or ``ValueError`` where a float cannot hold it."""
    _require_int(steps, 0, "steps")
    rate = steps_per_day
    if type(rate) is bool or not isinstance(rate, (int, float)) or not rate > 0:
        raise ValueError(f"steps_per_day must be a positive number, got {_show(rate)}")
    try:
        years = steps / rate / DAYS_PER_YEAR
    except OverflowError:  # an int quotient or an int operand past the float range
        years = math.inf
    if not math.isfinite(years):
        raise ValueError(f"steps must give a finite number of years, got {_show(steps)}")
    return years


def scientific(value: int, digits: int = 6) -> str:
    """Render a (possibly huge) integer in e-notation with significant digits.

    Rounds half to even, like ``Decimal`` under ``Context(prec=digits)``.
    An integer of more than about digits + 12 decimal digits is not converted
    whole: one divmod keeps its leading digits, a nonzero remainder becomes
    a sticky last digit (so ties and near-ties round as on the full value),
    and only that short integer is rounded.  The cost is one power of ten
    and one division instead of a conversion quadratic in the digit count.
    """
    # Imported here: commands that print no e-notation never load decimal.
    from decimal import Context, Decimal

    _require_int(digits, 1, "digits")
    if type(value) is not int:
        raise ValueError(f"value must be an integer, got {_show(value)}")
    context = Context(prec=digits)
    drop = int(abs(value).bit_length() * _LOG10_2) - digits - _GUARD
    if drop <= 0:
        return format(context.create_decimal(value), "e")
    head, rest = divmod(abs(value), 10**drop)
    _, coefficient, exponent = context.create_decimal(head * 10 + (rest != 0)).as_tuple()
    return format(Decimal((int(value < 0), coefficient, exponent + drop - 1)), "e")


class ComplexityReport(
    namedtuple("ComplexityReport", "n s_n b_n b_f_n log_factorial speedup naive")
):
    """All predictor outputs for one universe size, as a named tuple.

    ``speedup`` is None at n = 1, where binary insertion needs zero queries.
    ``block_years`` and ``binary_years`` are properties, not fields, so
    ``_asdict()`` gives the predictors alone.  Every way of building a
    report (the constructor, ``_make`` and ``_replace``) checks the
    predictors against each other and their proven bounds, and raises
    ``InvariantError`` if they disagree.
    """

    __slots__ = ()

    def __new__(cls, n, s_n, b_n, b_f_n, log_factorial, speedup, naive):
        lf = log_factorial
        slack = BOUND_RELATIVE_TOLERANCE * max(1.0, lf)
        bits = naive.bit_length()  # 2**(bits - 1) <= n! < 2**bits
        checks = [
            ("s_n = (n^2 - n)/2 + n - 1", s_n == (n * n - n) // 2 + n - 1),
            ("bit_length(naive) - 1 <= log2(n!) < bit_length(naive)",
             bits - 1 - slack <= lf < bits + slack),
            ("b_f_n = ceil(log2(n!))", b_f_n == math.ceil(lf)),
            ("speedup = s_n / b_n", speedup == (s_n / b_n if n >= 2 else None)),
        ]
        if n >= 2:
            checks += [
                ("log2(n!) <= b_n", lf <= b_n + slack),
                ("b_n < log2(n!) + n", b_n < lf + n),
                ("b_n < n log2(n)", b_n < n * math.log2(n)),
            ]
        broken = [label for label, holds in checks if not holds]
        if broken:
            raise InvariantError(
                f"predictors at n = {n} break {'; '.join(broken)}"
                f" (s_n = {s_n}, b_n = {b_n}, log2(n!) = {lf!r})"
            )
        return tuple.__new__(cls, (n, s_n, b_n, b_f_n, lf, speedup, naive))

    @classmethod
    def _make(cls, iterable):
        # namedtuple's own _make, which _replace calls, skips __new__.
        return cls(*iterable)

    @property
    def block_years(self) -> float:
        """Years that linear scan's s_n steps take at ``STEPS_PER_DAY``."""
        return learning_duration(self.s_n, STEPS_PER_DAY)

    @property
    def binary_years(self) -> float:
        """Years that binary insertion's b_n steps take at ``STEPS_PER_DAY``."""
        return learning_duration(self.b_n, STEPS_PER_DAY)


def report(n: int) -> ComplexityReport:
    """Evaluate every predictor at ``n``."""
    log2_factorial = log_factorial(n)
    s_n, b_n = block_steps_exact(n), binary_steps(n)
    return ComplexityReport(
        n=n,
        s_n=s_n,
        b_n=b_n,
        b_f_n=math.ceil(log2_factorial),
        log_factorial=log2_factorial,
        speedup=s_n / b_n if n >= 2 else None,
        naive=naive_steps(n),
    )


def comparison_table() -> list[ComplexityReport]:
    """Predictor reports for the paper's showcase sizes, ``TABLE_SIZES``."""
    return [report(n) for n in TABLE_SIZES]
