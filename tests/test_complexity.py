import math
import re
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ruleorder import InvariantError, complexity
from ruleorder.complexity import (
    ComplexityReport,
    binary_steps,
    block_steps_exact,
    ceil_log2,
    learning_duration,
    log_factorial,
    naive_steps,
    report,
    scientific,
    speedup,
)

from oracles import (
    binary_steps_by_level,
    binary_steps_sum,
    block_steps_sum,
    scientific_by_decimal,
)


def ceil_log2_by_doubling(k):
    """Independent route: smallest d with 2**d >= k."""
    d = 0
    while 2**d < k:
        d += 1
    return d


class TestCeilLog2:
    @pytest.mark.parametrize("k", list(range(1, 600)) + [2**40 - 1, 2**40, 2**40 + 1])
    def test_matches_doubling_oracle(self, k):
        assert ceil_log2(k) == ceil_log2_by_doubling(k)

    def test_rejects_non_positive(self):
        for k in (0, 2.5, True):
            with pytest.raises(ValueError):
                ceil_log2(k)


class TestBlockSteps:
    @pytest.mark.parametrize(
        "n,expected", [(1, 0), (2, 2), (3, 5), (5, 14), (27, 377), (1000, 500499)]
    )
    def test_known_values(self, n, expected):
        assert block_steps_sum(n) == expected
        assert block_steps_exact(n) == expected

    def test_sum_equals_closed_form_over_range(self):
        assert all(block_steps_sum(n) == block_steps_exact(n) for n in range(1, 600))

    @settings(max_examples=60)
    @given(st.integers(min_value=1, max_value=20000))
    def test_sum_equals_closed_form_random_n(self, n):
        assert block_steps_sum(n) == block_steps_exact(n)

    @pytest.mark.parametrize("func", [block_steps_sum, block_steps_exact])
    def test_rejects_zero(self, func):
        with pytest.raises(ValueError):
            func(0)
        if func is block_steps_exact:  # only the library also rejects a non-int
            with pytest.raises(ValueError):
                func(2.5)


class TestBinarySteps:
    @pytest.mark.parametrize(
        "n,expected",
        [(1, 0), (2, 1), (3, 3), (4, 5), (5, 8), (27, 104), (50, 237),
         (100, 573), (1000, 8977)],
    )
    def test_known_values(self, n, expected):
        assert binary_steps(n) == expected

    def test_matches_term_by_term_oracle(self):
        running = 0
        for n in range(1, 400):
            running += ceil_log2_by_doubling(n)
            assert binary_steps(n) == running

    def test_rejects_zero(self):
        for n in (0, 2.5, True):
            with pytest.raises(ValueError):
                binary_steps(n)

    def test_closed_form_equals_sum_to_20000(self):
        running = 0
        for n in range(1, 20001):
            running += (n - 1).bit_length()
            assert binary_steps(n) == running
        for n in (1, 2, 3, 27, 1000, 4097, 20000):
            assert binary_steps_sum(n) == binary_steps_by_level(n) == binary_steps(n)

    @pytest.mark.parametrize("k", range(1, 61))
    def test_closed_form_at_powers_of_two(self, k):
        for n in (2**k - 1, 2**k, 2**k + 1):
            assert binary_steps(n) == binary_steps_by_level(n)


class TestLogFactorial:
    def test_small_values(self):
        assert log_factorial(1) == 0.0
        assert log_factorial(2) == 1.0

    def test_value_at_27(self):
        assert log_factorial(27) == pytest.approx(93.14, abs=0.01)

    @pytest.mark.parametrize("n", [3, 10, 27, 100, 1000, 5000])
    def test_against_lgamma(self, n):
        assert log_factorial(n) == pytest.approx(
            math.lgamma(n + 1) / math.log(2), rel=1e-12
        )

    @pytest.mark.parametrize("n", [2, 5, 12, 20, 40, 170, 500])
    def test_sandwiched_by_exact_factorial_bit_length(self, n):
        fact = naive_steps(n)
        assert fact.bit_length() - 1 <= log_factorial(n) <= fact.bit_length()

    def test_rejects_zero(self):
        for n in (0, 2.5, True):
            with pytest.raises(ValueError):
                log_factorial(n)


class TestFactorialLowerBound:
    # report(n).b_f_n is ceil(log2(n!)), the factorial-based shortcut for
    # binary_steps: an underestimate of the exact sum (per-term ceilings are
    # dropped), but never off by more than n.
    @pytest.mark.parametrize("n,expected", [(1, 0), (2, 1), (27, 94), (1000, 8530)])
    def test_known_values(self, n, expected):
        assert report(n).b_f_n == expected

    @pytest.mark.parametrize("n", range(1, 13))
    def test_matches_exact_big_integer_ceiling(self, n):
        assert report(n).b_f_n == ceil_log2(naive_steps(n))

    def test_bounds_against_exact_sum_at_1000(self):
        b = binary_steps(1000)
        lf = log_factorial(1000)
        assert report(1000).b_f_n == math.ceil(lf)
        assert lf < b < lf + 1000


class TestNaiveSteps:
    @pytest.mark.parametrize("n,expected", [(1, 1), (2, 2), (5, 120)])
    def test_small_values(self, n, expected):
        assert naive_steps(n) == expected

    def test_value_at_27(self):
        value = naive_steps(27)
        assert value == 10888869450418352160768000000
        assert str(value).startswith("108888694504")

    def test_product_oracle(self):
        product = 1
        for n in range(1, 30):
            product *= n
            assert naive_steps(n) == product

    def test_exceeds_64_bit_range_at_27(self):
        assert naive_steps(27) > 2**63

    @pytest.mark.parametrize("predictor", [naive_steps, log_factorial])
    def test_rejects_more_terms_than_a_sequence_holds(self, predictor):
        # Both take n terms; above sys.maxsize, log_factorial's sum never ended.
        message = f"^n must be at most {sys.maxsize}, got {sys.maxsize + 1}$"
        with pytest.raises(ValueError, match=message):
            predictor(sys.maxsize + 1)

    def test_rejects_zero(self):
        for n in (0, 2.5, True):
            with pytest.raises(ValueError):
                naive_steps(n)


class TestScientific:
    def test_27_factorial(self):
        assert scientific(naive_steps(27)) == "1.08889e+28"

    def test_1000_factorial(self):
        assert scientific(naive_steps(1000)) == "4.02387e+2567"

    def test_small_integer(self):
        assert scientific(120) == "1.20e+2"
        assert scientific(1) == "1e+0"

    def test_digit_control(self):
        assert scientific(naive_steps(27), digits=3) == "1.09e+28"

    def test_rejects_non_positive_digits(self):
        for digits in (0, 2.5, True):
            with pytest.raises(ValueError, match="digits must be a positive integer"):
                scientific(10, digits)

    @pytest.mark.parametrize("value", [2.5, "a", True])
    def test_rejects_values_that_are_not_ints(self, value):
        with pytest.raises(ValueError, match="value must be an integer"):
            scientific(value)

    @settings(max_examples=300)
    @given(
        st.integers(min_value=-(2**3000), max_value=2**3000),
        st.integers(min_value=1, max_value=12),
    )
    @example(10**60 - 1, 6)
    def test_matches_decimal_route(self, value, digits):
        assert scientific(value, digits) == scientific_by_decimal(value, digits)

    @pytest.mark.parametrize("digits", [1, 3, 6, 12])
    @pytest.mark.parametrize("scale", [0, 1, 13, 40, 400])
    @pytest.mark.parametrize("last", [4, 5])
    def test_half_even_ties_and_near_ties(self, digits, scale, last):
        # A head ending in an even (4) or odd (5) digit, then exactly half a
        # unit in the last kept place, then the same minus or plus one.
        head = int("1" * (digits - 1) + str(last))
        tie = (head * 10 + 5) * 10**scale
        for value in (tie - 1, tie, tie + 1, -tie):
            assert scientific(value, digits) == scientific_by_decimal(value, digits)
        kept = head + (last % 2)
        assert scientific(tie, digits) == scientific_by_decimal(kept * 10 ** (scale + 1), digits)

    @pytest.mark.parametrize("scale", [0, 5, 30, 300])
    def test_carry_to_next_power(self, scale):
        assert scientific(9999995 * 10**scale) == f"1.00000e+{scale + 7}"
        assert scientific(9999995 * 10**scale - 1) == f"9.99999e+{scale + 6}"

    @pytest.mark.parametrize(
        "value,expected",
        [(0, "0e+0"), (1, "1e+0"), (120, "1.20e+2"), (-120, "-1.20e+2"),
         (-(10**50) - 1, "-1.00000e+50")],
    )
    def test_short_and_signed_values(self, value, expected):
        assert scientific(value) == expected == scientific_by_decimal(value)

    @pytest.mark.parametrize("n", [27, 1000, 1558, 1559, 2000, 20000])
    def test_factorials_match_decimal_route(self, n):
        value = naive_steps(n)
        for digits in (1, 6, 12):
            assert scientific(value, digits) == scientific_by_decimal(value, digits)


class TestSpeedup:
    def test_value_at_27(self):
        assert speedup(27) == pytest.approx(3.625)

    def test_value_at_1000(self):
        assert speedup(1000) > 55

    def test_value_at_2(self):
        assert speedup(2) == 2.0

    def test_rejects_n_below_2(self):
        for n in (1, 0, "a", 2.5):
            with pytest.raises(ValueError):
                speedup(n)


class TestLearningDuration:
    def test_block_thousand_rules(self):
        assert learning_duration(500499, 2) == pytest.approx(685.2, abs=1)

    def test_binary_thousand_rules(self):
        assert learning_duration(8977, 2) == pytest.approx(12.3, abs=0.5)

    def test_zero_steps(self):
        assert learning_duration(0, 2) == 0.0

    def test_rejects_non_positive_rate(self):
        with pytest.raises(ValueError):
            learning_duration(10, 0)

    def test_rejects_negative_steps(self):
        with pytest.raises(ValueError):
            learning_duration(-1, 2)

    @pytest.mark.parametrize("steps", [2.5, "a", True])
    def test_rejects_steps_that_are_not_ints(self, steps):
        with pytest.raises(ValueError, match="steps must be a non-negative integer"):
            learning_duration(steps, 2)

    @pytest.mark.parametrize("rate", ["a", True, None, float("nan")])
    def test_rejects_rates_that_are_not_positive_numbers(self, rate):
        with pytest.raises(ValueError, match="steps_per_day must be a positive number"):
            learning_duration(10, rate)


class TestHugeValuesInErrors:
    # -10**5000 has more digits than the interpreter converts to str (4300).
    @pytest.mark.parametrize(
        "call,message",
        [
            (lambda: speedup(-10**5000), "n must be a positive integer"),
            (lambda: learning_duration(-10**5000, 2.0), "steps must be a non-negative integer"),
            (lambda: learning_duration(10, -10**5000), "steps_per_day must be a positive number"),
            (lambda: scientific(1, -10**5000), "digits must be a positive integer"),
        ],
        ids=["speedup", "steps", "steps_per_day", "digits"],
    )
    def test_error_names_the_parameter(self, call, message):
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == f"{message}, got an int of 16610 bits"

    def test_long_value_is_cut_to_20_characters(self):
        with pytest.raises(ValueError) as info:
            scientific("9" * 5000)
        assert str(info.value) == "value must be an integer, got '9999999999999999..."


class TestReport:
    def test_values_at_27(self):
        rep = report(27)
        assert (rep.s_n, rep.b_n, rep.b_f_n) == (377, 104, 94)
        assert rep.speedup == pytest.approx(3.625)
        assert rep.naive == naive_steps(27)

    def test_degenerate_n1(self):
        rep = report(1)
        assert (rep.s_n, rep.b_n, rep.b_f_n, rep.naive) == (0, 0, 0, 1)
        assert rep.speedup is None

    def test_values_at_1000(self):
        rep = report(1000)
        assert (rep.s_n, rep.b_n) == (500499, 8977)

    def test_rejects_zero(self):
        for n in (0, 2.5, True):
            with pytest.raises(ValueError):
                report(n)

    def test_each_predictor_runs_once(self, monkeypatch):
        # speedup comes from the s_n and b_n the report already holds.
        calls = []
        for name in ("block_steps_exact", "binary_steps", "speedup"):
            function = getattr(complexity, name)
            monkeypatch.setattr(
                complexity, name,
                lambda n, name=name, function=function: calls.append(name) or function(n),
            )
        assert report(27).speedup == pytest.approx(3.625)
        assert sorted(calls) == ["binary_steps", "block_steps_exact"]

    def test_broken_predictor_raises_invariant_error(self, monkeypatch):
        monkeypatch.setattr(complexity, "binary_steps", lambda n: n * n)
        with pytest.raises(InvariantError, match="b_n < n log2"):
            report(27)

    @pytest.mark.parametrize(
        "n,field,value,label",
        [
            (27, "naive", 7, "bit_length(naive)"),
            (27, "naive", 2 * math.factorial(27), "bit_length(naive)"),
            (27, "b_f_n", 93, "b_f_n = ceil"),
            (27, "speedup", 3.5, "speedup = s_n / b_n"),
            (27, "speedup", None, "speedup = s_n / b_n"),
            (1, "speedup", 0.0, "speedup = s_n / b_n"),
        ],
    )
    def test_broken_field_raises_invariant_error(self, n, field, value, label):
        with pytest.raises(InvariantError, match=re.escape(label)):
            report(n)._replace(**{field: value})

    def test_every_way_of_building_checks(self):
        # namedtuple's own _make, which _replace calls, would skip __new__.
        fields = report(27)._asdict()
        fields["naive"] = 7
        for build in (
            lambda: ComplexityReport(**fields),
            lambda: ComplexityReport(*fields.values()),
            lambda: ComplexityReport._make(fields.values()),
            lambda: report(27)._replace(naive=7),
        ):
            with pytest.raises(InvariantError, match=re.escape("bit_length(naive)")):
                build()

    def test_is_a_named_tuple(self):
        rep = report(27)
        n, s_n, b_n, b_f_n, lf, ratio, naive = rep
        assert (n, s_n, b_n, b_f_n, naive) == (27, 377, 104, 94, math.factorial(27))
        assert rep == (n, s_n, b_n, b_f_n, lf, ratio, naive) == tuple(rep)
        assert ComplexityReport._make(tuple(rep)) == rep
        assert list(rep._asdict()) == [
            "n", "s_n", "b_n", "b_f_n", "log_factorial", "speedup", "naive"
        ]
        with pytest.raises(AttributeError):
            rep.n = 3
        with pytest.raises(AttributeError):
            rep.block_years = 0.0


class TestFormulaInvariants:
    def test_eq6_bounds_and_nlogn_over_small_range(self):
        for n in range(2, 500):
            b = binary_steps(n)
            lf = log_factorial(n)
            assert lf <= b + 1e-9 * max(1.0, lf)
            assert b < lf + n
            assert b < n * math.log2(n)

    def test_lower_bound_is_equality_only_at_2(self):
        # 2! is the only factorial beyond 1! that is a power of two, so the
        # log(n!) < B(n) bound is tight exactly there.
        assert log_factorial(2) == binary_steps(2) == 1

    def test_strictly_increasing(self):
        blocks = [block_steps_exact(n) for n in range(1, 400)]
        binaries = [binary_steps(n) for n in range(1, 400)]
        assert all(b < a for b, a in zip(blocks, blocks[1:]))
        assert all(b < a for b, a in zip(binaries, binaries[1:]))

    def test_report_validates_its_own_invariants(self):
        for n in [1, 2, 3, 17, 64, 65, 1024]:
            report(n)

    def test_bound_tolerance_constant_is_tiny(self):
        assert complexity.BOUND_RELATIVE_TOLERANCE <= 1e-9
