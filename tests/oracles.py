"""Independent routes to the library's results, kept only as test oracles.

The library evaluates each formula one way; these are the literal sums the
closed forms were derived from, the Decimal conversions ``scientific`` and
the csv/json renderers used to make, and the sort by rank that slot
placement replaced, so tests can check one route against the other.
"""

from decimal import Context, Decimal


def _require_positive(n):
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")


def block_steps_sum(n):
    """Worst-case steps of linear-scan insertion, as the literal sum 2+3+...+n."""
    _require_positive(n)
    return sum(range(2, n + 1))


def binary_steps_sum(n):
    """Worst-case queries of binary insertion, as the literal sum of ceil(log2 k)."""
    _require_positive(n)
    return sum((k - 1).bit_length() for k in range(1, n + 1))


def binary_steps_by_level(n):
    """The same sum grouped by term: ceil(log2 k) = j for the k in (2**(j-1), 2**j].

    O(log n), so it reaches n near 2**60 where the literal sum cannot.
    """
    _require_positive(n)
    total, level = 0, 1
    while 2 ** (level - 1) < n:
        total += level * (min(n, 2**level) - 2 ** (level - 1))
        level += 1
    return total


def scientific_by_decimal(value, digits=6):
    """e-notation through a Decimal conversion of the whole integer."""
    return format(Context(prec=digits).create_decimal(value), "e")


def exact_digits_by_decimal(value):
    """Exact decimal digits through one (quadratic) Decimal conversion."""
    return format(Decimal(value), "f")


def true_sequence_by_sort(order):
    """Every rule of ``order`` sorted by its rank, by a comparison sort."""
    ranks = order.ranks
    return sorted(range(len(ranks)), key=ranks.__getitem__)
