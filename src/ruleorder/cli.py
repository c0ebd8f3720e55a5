"""Command-line front end: predictors, single runs, worst-case search, table.

Every command writes its rows through ``_emit`` in one of three formats
(``human``, ``csv``, ``json``); csv and json share field names and ordering,
so the two are interchangeable for scripting.  Exit codes: 0 success, 1 usage
or input error (or a run that ran out of memory), 2 internal invariant
violation (a run that learned a wrong order, which ``learn`` reports after
its row, or predictors that break their proven bounds); ``main`` alone maps
errors to codes.

Each command imports only what it runs.  Every command loads ``common``;
``predict`` and ``table`` add ``complexity``; ``learn`` adds ``ordering``
and ``harness``; ``worst-case`` adds those two and ``worstcase`` (and with
it ``dataclasses``).  ``json``, ``csv``, ``Decimal`` and ``random`` load
only with the format or option that needs them.
"""

from __future__ import annotations

import argparse
import os
import sys

from .common import (
    MODE_EXHAUSTIVE,
    MODES,
    STRATEGIES,
    CostModel,
    IncorrectOrderError,
    InvariantError,
    OrderingError,
    _require_int,
    _show,
)

FORMATS = ("human", "csv", "json")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVARIANT = 2


def _scientific(value: int) -> str:
    """``complexity.scientific(value)``, importing ``complexity`` only once a
    command prints e-notation, so ``learn`` and ``worst-case`` never do."""
    from . import complexity

    return complexity.scientific(value)


# The table's columns in order, each with how the human format prints it;
# csv and json print the values themselves.
TABLE_COLUMNS = (
    ("n", str),
    ("naive", _scientific),
    ("s_n", str),
    ("b_n", str),
    ("speedup", "{:.3f}".format),
    ("block_years", "{:.2f}".format),
    ("binary_years", "{:.2f}".format),
)

# Decimal(int) is quadratic in the digit count, so _decimal_digits converts
# pieces of at most this many bits and joins them with Decimal products.  Of
# 512 to 8192, 4096 was fastest for 20000! and 100000! (CPython 3.11).
_DIRECT_BITS = 4096

# worst-case renders each n-tuple of its report by joining slices of this
# many values and then the slices: str.join first makes a list of every
# string it is given, so one join of the whole tuple held n strings at once.
# At n = 10**6 the slices held 14 MB at the peak instead of 70 MB.
_DASH_SLICE = 4096


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; route through _UsageError
    # so all usage and input errors share exit code 1.
    def error(self, message):
        raise _UsageError(message)


# --------------------------------------------------------------------------
# rendering
# --------------------------------------------------------------------------

def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _decimal_digits(value: int) -> str:
    """The exact decimal digits of ``value``, in time near-linear in their count.

    Splits the integer at half its bit width, converts both halves the same
    way and joins them as hi * 2**half + lo in exact Decimal arithmetic, so
    the work is Decimal multiplications instead of one quadratic conversion.
    """
    from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal, Inexact

    magnitude = abs(value)
    if magnitude.bit_length() <= _DIRECT_BITS:
        return format(Decimal(value), "f")
    # Inexact is trapped, so a rounded product would raise, not print.
    context = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN, traps=[Inexact])
    powers: dict[int, Decimal] = {}

    def convert(v: int, width: int) -> Decimal:
        if width <= _DIRECT_BITS:
            return Decimal(v)
        half = width // 2
        if half not in powers:
            powers[half] = context.power(Decimal(2), half)
        hi = v >> half
        return context.add(
            context.multiply(convert(hi, width - half), powers[half]),
            convert(v - (hi << half), half),
        )

    digits = format(convert(magnitude, magnitude.bit_length()), "f")
    return "-" + digits if value < 0 else digits


def _emit(rows: list[dict], fmt: str, table: bool = False) -> None:
    """Write ``rows`` to stdout in ``fmt``, the one renderer of every command.

    ``naive`` (n!) prints in e-notation in ``human`` and as its exact decimal
    digits in a string in csv and json: past the range of JSON numbers, and
    through ``_decimal_digits``, so past the interpreter's int-to-str digit
    limit (4300 digits by default, which n! passes at n = 1559).  A ``table``
    prints as aligned ``TABLE_COLUMNS`` in ``human`` and as a list in json;
    any other output is one row.
    """
    if fmt == "human":
        if table:
            lines = [[key for key, _ in TABLE_COLUMNS]]
            lines += [[show(row[key]) for key, show in TABLE_COLUMNS] for row in rows]
            widths = [max(map(len, column)) for column in zip(*lines)]
            for line in lines:
                sys.stdout.write("  ".join(c.rjust(w) for c, w in zip(line, widths)) + "\n")
            return
        for row in rows:
            for key, value in row.items():
                shown = _scientific(value) if key == "naive" else _cell(value)
                sys.stdout.write(f"{key}: {shown}\n")
        return
    rows = [
        {key: _decimal_digits(value) if key == "naive" else value for key, value in row.items()}
        for row in rows
    ]
    if fmt == "csv":
        import csv

        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(rows[0])
        writer.writerows(map(_cell, row.values()) for row in rows)
    else:
        import json

        sys.stdout.write(json.dumps(rows if table else rows[0], indent=2) + "\n")


# --------------------------------------------------------------------------
# argument helpers
# --------------------------------------------------------------------------

def _int(text: str) -> int:
    """argparse's ``int`` type, but an error quotes at most 20 characters."""
    try:
        return int(text)
    except ValueError:  # also raised above the interpreter's digit limit (4300)
        raise argparse.ArgumentTypeError(f"invalid int value: {_show(text)}") from None


def _positive_n(args) -> int:
    _require_int(args.n, 1, "--n")
    return args.n


def _parse_ranks(text: str, where: str) -> list[int]:
    ranks = []
    for token in text.split(","):
        token = token.strip()
        try:
            ranks.append(int(token))
        except ValueError:  # also raised above the interpreter's digit limit (4300)
            digits = token[1:] if token[:1] in "+-" else token
            what = "too long to be a rank" if digits.isdecimal() else "not an integer"
            raise ValueError(f"{where}: {_show(token)} is {what}") from None
    return ranks


def _load_permutation(value: str, n: int) -> list[int]:
    """Ranks by rule id, either inline ("2,0,1") or from a one-line file."""
    # Unlike Path.is_file, isfile is False, not an OSError, for an inline
    # permutation too long to be a file name.
    if os.path.isfile(value):
        with open(value) as file:
            lines = file.read().splitlines()
        significant = [(i, line) for i, line in enumerate(lines, 1) if line.strip()]
        if not significant:
            raise ValueError(f"{value}: no permutation line found")
        if len(significant) > 1:
            lineno = significant[1][0]
            raise ValueError(f"{value}: line {lineno}: expected a single line of ranks")
        lineno, text = significant[0]
        ranks = _parse_ranks(text, f"{value}: line {lineno}")
    elif "," in value or value.strip().lstrip("-").isdigit():
        ranks = _parse_ranks(value, "--permutation")
    else:
        raise ValueError(f"permutation file not found: {_show(value)}")
    if len(ranks) != n:
        raise ValueError(f"permutation has {len(ranks)} ranks, expected {_show(n)}")
    return ranks


# --------------------------------------------------------------------------
# commands
# --------------------------------------------------------------------------

def _cmd_predict(args) -> int:
    from . import complexity

    _emit([complexity.report(_positive_n(args))._asdict()], args.format)
    return EXIT_OK


def _cmd_learn(args) -> int:
    from . import harness
    from .ordering import GroundTruthOrder

    n = _positive_n(args)
    model = CostModel(args.cost_model)
    # Every instance is presented as 0..n-1 (so are both adversarial ones):
    # None has run_trial build it after the ground truth, whose factory
    # rejects an n too large to build with a short error, and learn it
    # through the core with no rule check.
    if args.adversarial:
        ground_truth = harness._adversarial_order(n, args.strategy)
        source = "adversarial"
    elif args.seed is not None:
        import random

        # random.Random seeds with abs(seed), so -3 would learn 3's instance.
        _require_int(args.seed, 0, "--seed")
        ground_truth = GroundTruthOrder.shuffled(n, random.Random(args.seed))
        source = f"seed={args.seed}"
    else:
        ground_truth = GroundTruthOrder(_load_permutation(args.permutation, n))
        source = "permutation"

    result = harness.run_trial(n, args.strategy, ground_truth, None, model, source)
    _emit([result._asdict()], args.format)
    if not result.correct:
        raise IncorrectOrderError("learned order does not match the ground truth")
    return EXIT_OK


def _cmd_worst_case(args) -> int:
    from . import harness

    n = _positive_n(args)
    model = CostModel(args.cost_model)
    if args.mode == MODE_EXHAUSTIVE:
        report = harness.exhaustive_worst_case(n, args.strategy, model)
    else:
        report = harness.adversarial_worst_case(n, args.strategy, model)
    # The report's fields in order, with ground_truth_ranks and presentation
    # as dashed strings under the names ground_truth and presentation.
    # vars() reads the fields as they are; dataclasses.asdict would deep-copy
    # both n-tuples, element by element.
    row = {
        key.removesuffix("_ranks"): "-".join([
            "-".join(map(str, value[i:i + _DASH_SLICE]))
            for i in range(0, len(value), _DASH_SLICE)
        ]) if type(value) is tuple else value
        for key, value in vars(report).items()
    }
    _emit([row], args.format)
    return EXIT_OK


def _cmd_table(args) -> int:
    from . import complexity

    reports = complexity.comparison_table()
    rows = [{key: getattr(r, key) for key, _ in TABLE_COLUMNS} for r in reports]
    _emit(rows, args.format, table=True)
    return EXIT_OK


# --------------------------------------------------------------------------
# parser
# --------------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(
        prog="ruleorder",
        description="Learn a hidden total order over rules by counted pairwise queries.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # The options that several commands share, each declared once.
    shared = {
        "--n": dict(type=_int, required=True),
        "--strategy": dict(choices=STRATEGIES, required=True),
        "--cost-model": dict(
            choices=[m.value for m in CostModel], default=CostModel.COMPARISONS_ONLY.value
        ),
        "--format": dict(choices=FORMATS, default="human"),
    }

    def add(p, *options):
        for option in options:
            p.add_argument(option, **shared[option])
        return p

    p_predict = sub.add_parser("predict", help="closed-form step predictors for one n")
    add(p_predict, "--n", "--format").set_defaults(func=_cmd_predict)

    p_learn = sub.add_parser("learn", help="run one learning trial")
    add(p_learn, "--n", "--strategy")
    instance = p_learn.add_mutually_exclusive_group(required=True)
    instance.add_argument("--seed", type=_int, help="random ground truth from this seed")
    instance.add_argument(
        "--permutation",
        help="ranks by rule id, inline (e.g. 2,0,1) or a path to a one-line file",
    )
    instance.add_argument(
        "--adversarial", action="store_true",
        help="use the instance attaining the strategy's worst case",
    )
    add(p_learn, "--cost-model", "--format").set_defaults(func=_cmd_learn)

    p_worst = sub.add_parser("worst-case", help="maximum step count for one n")
    add(p_worst, "--n", "--strategy")
    p_worst.add_argument("--mode", choices=MODES, required=True)
    add(p_worst, "--cost-model", "--format").set_defaults(func=_cmd_worst_case)

    p_table = sub.add_parser("table", help="predictor comparison for n = 27 and 1000")
    add(p_table, "--format").set_defaults(func=_cmd_table)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except InvariantError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except (OrderingError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError:  # a backstop: the run needs more memory than the process may have
        print("error: out of memory; try a smaller --n", file=sys.stderr)
        return EXIT_USAGE


def run() -> None:
    sys.exit(main())
