"""Tests of the benchmark itself: failure accounting, checks and tracing.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from ruleorder import harness  # noqa: E402
from ruleorder.ordering import GroundTruthOrder  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import CLI_MIX, KNOWN_DEFECT, CliPredict, Invocation  # noqa: E402


def _invocation(argv, code, stdout, seconds=0.1):
    return Invocation(tuple(argv), code, stdout, "", seconds, 0)


def test_known_cli_defect_stays_in_the_mix_and_is_counted():
    assert list(KNOWN_DEFECT) in [list(a) for a in CLI_MIX]
    cli = CliPredict()
    state = cli.prepare(0)
    inv = workloads.invoke_cli(KNOWN_DEFECT)
    outcome = cli.check(state, 0, [inv])
    assert outcome.attempted == 1
    if inv.code != 0:
        # A CLI error is a failed operation, not a wrong answer.
        assert outcome.failed == 1
        assert outcome.failures == {KNOWN_DEFECT: 1}
        assert outcome.wrong == []
    else:
        # Once the CLI handles this n, its answer must be right.
        assert outcome.failed == 0 and outcome.wrong == []


def test_wrong_cli_answer_fails_the_operation_and_the_run():
    cli = CliPredict()
    state = cli.prepare(0)
    good = _invocation(["learn", "--adversarial", "--n", "27", "--strategy", "binary"], 0,
                       "strategy: binary\nn: 27\nqueries: 104\nsteps: 104\ncorrect: true\n"
                       "cost_model: comparisons\nsource: adversarial\n")
    bad = _invocation(good.argv, 0, good.stdout.replace("104", "105"))
    assert cli.check(state, 0, [good]).wrong == []
    outcome = cli.check(state, 0, [bad])
    assert outcome.failed == 1 and outcome.wrong


def test_failed_invocation_ranks_last_in_latency():
    ok = [_invocation(["table"], 0, "", seconds=0.1)] * 8
    failed = [_invocation(["table"], 1, "", seconds=0.01)] * 2
    p50, p90, samples = run.cli_latency(ok + failed)
    assert samples == 10
    assert p50 == 100.0
    assert p90 == math.inf


def test_wall_time_sums_the_mean_time_of_each_operation():
    passes = [
        (1.0, [workloads.Timed("a", 0.3, None), workloads.Timed("b", 0.5, None)]),
        (2.0, [workloads.Timed("a", 0.2, None), workloads.Timed("b", 0.9, None)]),
    ]
    assert math.isclose(run.pass_seconds(passes), 0.25 + 0.7)
    cli_passes = [(0.2, [_invocation(["table"], 0, "", 0.1), _invocation(["table", "--format", "csv"], 1, "", 0.05)]),
                  (0.3, [_invocation(["table"], 0, "", 0.08), _invocation(["table", "--format", "csv"], 1, "", 0.07)])]
    assert math.isclose(run.pass_seconds(cli_passes), 0.09 + 0.06)


def test_reference_runs_once_before_every_operation():
    small = workloads.HarnessSmallN()
    state = small.prepare(0)
    calls = []
    ops = small.run_pass(state, 0, lambda: calls.append(small.reference()))
    assert len(calls) == len(ops) == 4 and all(t > 0 for t in calls)


def test_pass_checker_drops_checked_results_and_catches_a_changed_pass():
    block = workloads.BlockAdversarial()
    state = block.prepare(0)
    tally = run.Tally()
    checker = run.PassChecker(block, state, tally)
    first = block.run_pass(state, 0)
    kept = checker(0, first)
    assert kept[0].value is None and kept[0].seconds == first[0].seconds
    changed = [workloads.Timed(first[0].key, 0.0, dataclasses.replace(first[0].value, presentation=()))]
    checker(1, changed)
    assert tally.attempted == 2 and any("differs from pass 0" in w for w in tally.wrong)


def test_small_n_gate_checks_the_n8_maxima():
    small = workloads.HarnessSmallN()
    state = small.prepare(0)
    outcome = small.gate(state)
    assert (outcome.attempted, outcome.failed, outcome.wrong) == (2, 0, [])
    assert state["maxima"][8] == {"binary": 17, "block": 28}
    wrong = harness.exhaustive_worst_case(7, "binary")
    outcome = workloads.Outcome()
    small._judge_exhaustive(outcome, {"maxima": {7: {"binary": 15}}}, wrong)
    assert outcome.failed == 1 and outcome.wrong


def test_inputs_come_from_the_seed():
    cli = CliPredict()
    a, b, c = cli.prepare(7), cli.prepare(7), cli.prepare(8)
    assert [cli.order(a, i) for i in range(3)] == [cli.order(b, i) for i in range(3)]
    assert [cli.order(a, i) for i in range(3)] != [cli.order(c, i) for i in range(3)]
    small = workloads.HarnessSmallN()
    assert small.prepare(7) == small.prepare(7)
    assert small.prepare(7) != small.prepare(8)


def test_traced_run_counts_every_query_and_changes_no_result():
    import random

    truth = GroundTruthOrder.shuffled(300, random.Random(3))
    plain = harness.run_trial(300, "binary", truth)
    with Tracer() as tracer:
        tracer.begin_pass()
        op = tracer.begin_op()
        traced = harness.run_trial(300, "binary", truth)
    assert traced == plain
    assert harness.learn_order.__module__ == "ruleorder.ordering"  # wrappers removed
    calls, self_ns = tracer.pass_totals(0)
    assert calls["ordering.precedes"] == plain.queries
    assert tracer.passes[0]["op_queries"][op] == plain.queries
    assert calls["ordering.learn_order"] == 1
    assert calls["harness.run_trial"] == 1
    assert tracer.passes[0]["rules"] == 300
    assert all(t >= 0 for t in self_ns.values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-predict", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
