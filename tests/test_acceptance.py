"""Acceptance suite: every numbered criterion in one place.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or on
failure) and asserts the same condition, so the suite doubles as a
human-readable checklist.
"""

import itertools
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

from ruleorder import (
    CostModel,
    GroundTruthOrder,
    adversarial_ground_truth,
    binary_steps,
    block_steps_exact,
    learning_duration,
    log_factorial,
    naive_steps,
    random_trials,
    run_trial,
    scientific,
    speedup,
)

from oracles import block_steps_sum

GOLDEN = Path(__file__).parent / "golden" / "table.csv"
PLACEMENT = CostModel.COMPARISONS_PLUS_PLACEMENT


def verdict(label, ok):
    print(f"{'PASS' if ok else 'FAIL'}  {label}")
    assert ok, label


def test_criterion_01_block_steps_at_27():
    ok = block_steps_exact(27) == 377 and block_steps_sum(27) == 377
    verdict("1. block steps at n=27 equal 377 (both routes)", ok)


def test_criterion_02_block_steps_at_1000():
    verdict("2. block steps at n=1000 equal 500499", block_steps_exact(1000) == 500499)


def test_criterion_03_binary_steps_at_27():
    verdict("3. binary steps at n=27 equal 104", binary_steps(27) == 104)


def test_criterion_04_binary_steps_at_1000():
    verdict("4. binary steps at n=1000 equal 8977", binary_steps(1000) == 8977)


def test_criterion_05_naive_steps_at_27():
    value = naive_steps(27)
    ok = (
        value == 10888869450418352160768000000
        and str(value).startswith("108888694504")
        and scientific(value) == "1.08889e+28"
    )
    verdict("5. naive count at n=27 is 27! rendered as 1.08889e+28", ok)


def test_criterion_06_speedups():
    ok = 3.6 <= speedup(27) <= 3.7 and speedup(1000) > 55
    verdict("6. speedup(27) in [3.6, 3.7] and speedup(1000) > 55", ok)


def test_criterion_07_durations_at_two_steps_per_day():
    block_years = learning_duration(500499, 2)
    binary_years = learning_duration(8977, 2)
    ok = abs(block_years - 685) <= 1 and abs(binary_years - 12.3) <= 0.5
    verdict("7. durations: 685±1 years (block) vs 12.3±0.5 years (binary)", ok)


def test_criterion_08_formula_identities_and_bounds_to_5000():
    limit = 5000
    ok = all(block_steps_sum(n) == block_steps_exact(n) for n in range(1, limit + 1))

    # independent one-pass routes for B(n) and log2(n!)
    ceil_terms = np.fromiter(
        (k.bit_length() for k in range(limit)), dtype=np.int64, count=limit
    )
    b = np.cumsum(ceil_terms)
    lf = np.cumsum(np.log2(np.arange(1, limit + 1, dtype=np.float64)))

    # bind the arrays to the library functions at a dense sample
    sample = sorted(
        set(range(1, 65))
        | set(range(64, limit + 1, 97))
        | {27, 1000, 2048, 4999, limit}
    )
    ok = ok and all(int(b[n - 1]) == binary_steps(n) for n in sample)
    ok = ok and all(
        abs(float(lf[n - 1]) - log_factorial(n)) <= 1e-9 * max(1.0, log_factorial(n))
        for n in sample
    )

    ns = np.arange(2, limit + 1, dtype=np.float64)
    b_tail, lf_tail = b[1:].astype(np.float64), lf[1:]
    ok = ok and bool(np.all(lf_tail <= b_tail + 1e-9 * np.maximum(1.0, lf_tail)))
    ok = ok and bool(np.all(b_tail < lf_tail + ns))
    ok = ok and bool(np.all(b_tail < ns * np.log2(ns)))
    ok = ok and bool(np.all(np.diff(b) > 0))
    verdict("8. sum=closed-form to 5000; log(n!) bounds and n*log2(n) hold", ok)


def test_criterion_09_exhaustive_oracle_equivalence_to_n8():
    ok = True
    for n in range(2, 9):
        max_block = max_binary = -1
        for ranks in itertools.permutations(range(n)):
            gt = GroundTruthOrder(ranks)
            block = run_trial(n, "block", gt)
            binary = run_trial(n, "binary", gt)
            ok = ok and block.correct and binary.correct
            max_block = max(max_block, block.queries)
            max_binary = max(max_binary, binary.queries)
        ok = ok and max_binary == binary_steps(n)
        ok = ok and max_block == n * (n - 1) // 2
        ok = ok and max_block + n - 1 == block_steps_exact(n)
    verdict("9. exhaustive n=2..8: always correct, maxima equal the formulas", ok)


def test_criterion_10_adversarial_instances_hit_formulas():
    ok = True
    for n, expected in [(27, 104), (1000, 8977)]:
        gt, presentation = adversarial_ground_truth(n, "binary")
        result = run_trial(n, "binary", gt, presentation)
        ok = ok and result.correct and result.queries == expected
    for n, expected in [(27, 377), (1000, 500499)]:
        gt, presentation = adversarial_ground_truth(n, "block")
        result = run_trial(n, "block", gt, presentation, PLACEMENT)
        ok = ok and result.correct and result.steps == expected
    verdict("10. adversarial runs measure 104/8977 (binary), 377/500499 (block)", ok)


def test_criterion_11_seeded_random_suite_at_n50():
    ok = True
    for strategy, ceiling in [("block", 50 * 49 // 2), ("binary", binary_steps(50))]:
        first = random_trials(50, strategy, 1000, seed=20120613)
        second = random_trials(50, strategy, 1000, seed=20120613)
        ok = ok and first.all_correct
        ok = ok and first.max_queries <= ceiling
        serialized = [
            json.dumps(summary._asdict()).encode()
            for summary in (first, second)
        ]
        ok = ok and serialized[0] == serialized[1]
    verdict("11. 1000 seeded trials per strategy at n=50: correct, bounded, reproducible", ok)


def test_criterion_12_cli_table_matches_golden_csv():
    result = subprocess.run(
        [sys.executable, "-m", "ruleorder", "table", "--format", "csv"],
        capture_output=True,
    )
    golden = GOLDEN.read_bytes()
    ok = result.returncode == 0 and result.stdout == golden

    lines = golden.decode().splitlines()
    header = lines[0].split(",")
    row27 = dict(zip(header, lines[1].split(",")))
    row1000 = dict(zip(header, lines[2].split(",")))
    ok = ok and (row27["s_n"], row27["b_n"]) == ("377", "104")
    ok = ok and row27["naive"].startswith("108888694504")
    ok = ok and float(row27["speedup"]) == 3.625
    ok = ok and (row1000["s_n"], row1000["b_n"]) == ("500499", "8977")
    ok = ok and float(row1000["speedup"]) > 55
    ok = ok and abs(float(row1000["block_years"]) - 685) <= 1
    ok = ok and abs(float(row1000["binary_years"]) - 12.3) <= 0.5
    verdict("12. CLI table --format csv byte-matches the golden file", ok)
