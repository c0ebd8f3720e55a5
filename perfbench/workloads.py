"""The benchmark's four workloads: inputs from a seed, timed passes, checks.

A workload is run as a closed loop of *passes*: one client, one process, the
next operation starting only when the previous one has finished.  A pass is
the workload's fixed unit of work: a list of operations, each timed on its
own and returned with its ``key`` and ``seconds``.  ``check`` runs after the
timer has stopped and judges every operation of the pass against values the
benchmark derives on its own (closed forms, independent sums) or against the
in-process result of the same public API.

An operation is one learning run, one harness driver call or one CLI
invocation.  An operation that errors is *failed*; one that answers wrongly
is failed too and also makes the whole run incorrect.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import random
import selectors
import subprocess
import sys
import time
from dataclasses import dataclass, field
from decimal import Decimal
from pathlib import Path

from ruleorder import cli, complexity, harness
from ruleorder.ordering import CostModel, GroundTruthOrder

PLACEMENT = CostModel.COMPARISONS_PLUS_PLACEMENT
ROOT = Path(__file__).resolve().parent.parent


# ----------------------------------------------------------------------
# independent reference values (no ruleorder code involved)
# ----------------------------------------------------------------------

def binary_worst(n: int) -> int:
    """Sum of ceil(log2 k) for k = 1..n: binary insertion's worst case."""
    return sum((k - 1).bit_length() for k in range(1, n + 1))


def binary_best(n: int) -> int:
    """Sum of floor(log2 k) for k = 1..n: binary insertion's best case."""
    return sum(k.bit_length() - 1 for k in range(1, n + 1))


def block_worst(n: int) -> int:
    """0 + 1 + ... + (n - 1): linear scan's worst-case query count."""
    return n * (n - 1) // 2


def worst_queries(strategy: str, n: int) -> int:
    return binary_worst(n) if strategy == "binary" else block_worst(n)


def naive_matches(text, n: int) -> bool:
    """True if ``text`` renders n! exactly, or in e-notation to 6 digits."""
    exact = Decimal(math.factorial(n))
    try:
        value = Decimal(str(text))
    except ArithmeticError:
        return False
    if str(text).isdigit():
        return value == exact
    return abs(value - exact) <= exact * Decimal("5e-6")


@dataclass
class Outcome:
    """What ``check`` makes of one pass."""

    attempted: int = 0
    failed: int = 0
    wrong: list[str] = field(default_factory=list)
    runs: int = 0
    queries: int = 0
    # Reported queries per operation (None where the API reports no total),
    # compared with the traced count of oracle queries.
    op_queries: list = field(default_factory=list)
    # Everything the public API returned, compared between traced and
    # untraced passes over the same inputs.
    summary: tuple = ()
    failures: dict = field(default_factory=dict)

    def judge(self, label: str, problems: list[str], queries=None) -> None:
        self.attempted += 1
        self.op_queries.append(queries)
        if problems:
            self.failed += 1
            self.wrong.extend(f"{label}: {p}" for p in problems)


def _no_op() -> None:
    return None


@dataclass(frozen=True)
class Timed:
    """One in-process operation: its key, its duration and what it returned."""

    key: str
    seconds: float
    value: object


def timed(key: str, call, *args, **kwargs) -> Timed:
    start = time.perf_counter()
    value = call(*args, **kwargs)
    return Timed(key, time.perf_counter() - start, value)


# ----------------------------------------------------------------------
# reference tasks: fixed work, independent of ruleorder.  One runs before
# every timed operation, so the two see the same host speed and
# wall_ref = wall_s / reference_s cancels it.  Each mirrors its workload's
# resource mix and lasts a fair share of one of its operations.
# ----------------------------------------------------------------------

_REFERENCE_KEYS = random.Random(0).sample(range(512), 512)


def reference_insertion(prefill: int = 0, repeats: int = 1) -> float:
    """Time to binary-insert 512 keys into a plain list, in plain Python,
    ``repeats`` times over.

    With ``prefill`` > 0 the list first holds that many larger keys, so
    every key goes to the front and each insert moves the whole list, as
    in ``learn-binary-large``.
    """
    return sum(_insertion_once(prefill) for _ in range(repeats))


def _insertion_once(prefill: int) -> float:
    rank = {key: i for i, key in enumerate(_REFERENCE_KEYS)}
    for i in range(prefill):
        rank[-1 - i] = 512 + i
    placed = list(range(-1, -1 - prefill, -1))

    def before(a, b) -> bool:
        return rank[a] < rank[b]

    start = time.perf_counter()
    for key in _REFERENCE_KEYS:
        lo, hi = 0, len(placed)
        while lo < hi:
            mid = (lo + hi) // 2
            if before(placed[mid], key):
                lo = mid + 1
            else:
                hi = mid
        placed.insert(lo, key)
    return time.perf_counter() - start


def reference_spawn() -> float:
    """Spawn-to-exit time of a bare interpreter (``python -c pass``)."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT, stdin=subprocess.DEVNULL,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, check=True)
    return time.perf_counter() - start


# ----------------------------------------------------------------------
# learn-binary-large
# ----------------------------------------------------------------------

class LearnBinaryLarge:
    name = "learn-binary-large"
    # Rules arrive in reverse true order, so every rule is placed at the
    # front and each list.insert moves the whole learned list: placement is
    # about half of a run already at n = 20,000, in calls of ~0.15 s.
    n = 20_000
    ground_truths = 3
    in_process = True

    def reference(self) -> float:
        # The learned list holds n / 2 rules on average over a run.
        return reference_insertion(self.n // 2, repeats=12)

    def prepare(self, seed: int):
        rng = random.Random(seed)
        truths = [GroundTruthOrder.shuffled(self.n, rng) for _ in range(self.ground_truths)]
        return {
            "truths": truths,
            "presentations": [truth.true_sequence()[::-1] for truth in truths],
            "best": binary_best(self.n),
            "worst": binary_worst(self.n),
        }

    def cycle(self) -> int:
        return self.ground_truths

    def run_pass(self, state, index: int, begin_op=_no_op):
        begin_op()
        k = index % self.ground_truths
        return [timed("run_trial", harness.run_trial, self.n, "binary",
                      state["truths"][k], state["presentations"][k])]

    def check(self, state, index: int, ops) -> Outcome:
        result = ops[0].value
        out = Outcome(runs=1, queries=result.queries, summary=(result,))
        problems = []
        if result.correct is not True:
            problems.append("learned order differs from true_sequence()")
        if not state["best"] <= result.queries <= state["worst"]:
            problems.append(
                f"{result.queries} queries outside [{state['best']}, {state['worst']}]"
            )
        if result.steps != result.queries or result.n != self.n:
            problems.append(f"inconsistent result {result}")
        out.judge(f"run_trial #{index}", problems, result.queries)
        return out


# ----------------------------------------------------------------------
# block-adversarial
# ----------------------------------------------------------------------

class BlockAdversarial:
    name = "block-adversarial"
    def reference(self) -> float:
        return reference_insertion(repeats=10)

    # Timed calls at n = 500 (124,750 queries, tens of milliseconds each);
    # the n = 3000 call (4,498,500 queries) is the gate, run once per run.
    n = 500
    n_gate = 3000
    in_process = True

    def prepare(self, seed: int):
        # The adversarial instance is fixed by construction; the seed cannot
        # change it.
        return {n: block_worst(n) + n - 1 for n in (self.n, self.n_gate)}

    def cycle(self) -> int:
        return 1

    def run_pass(self, state, index: int, begin_op=_no_op):
        begin_op()
        return [timed("adversarial_worst_case", harness.adversarial_worst_case, self.n, "block", PLACEMENT)]

    def gate(self, state) -> Outcome:
        out = Outcome()
        self._judge(out, state, harness.adversarial_worst_case(self.n_gate, "block", PLACEMENT))
        return out

    def _judge(self, out: Outcome, state, report) -> int:
        n = report.n
        queries = report.max_steps - (n - 1)
        problems = []
        expected = state[n]
        if report.max_steps != expected or expected != complexity.block_steps_exact(n):
            problems.append(f"max_steps {report.max_steps}, expected {expected}")
        if report.ground_truth_ranks != tuple(range(n)):
            problems.append("ground truth is not the identity order")
        out.judge(f"adversarial_worst_case({n})", problems, queries)
        return queries

    def check(self, state, index: int, ops) -> Outcome:
        report = ops[0].value
        out = Outcome(runs=1, summary=(report,))
        out.queries = self._judge(out, state, report)
        return out


# ----------------------------------------------------------------------
# harness-small-n
# ----------------------------------------------------------------------

class HarnessSmallN:
    name = "harness-small-n"
    def reference(self) -> float:
        return reference_insertion(repeats=3)

    # Timed operations last a few milliseconds each (exhaustive search at
    # n = 6 is 720 runs), so the run holds thousands of them.  The n = 8
    # search (40,320 runs per strategy) is the gate, run once per run.
    n_exhaustive = 6
    n_gate = 8
    n_random = 27
    trials = 100
    # Seeds per strategy for random_trials; a cycle of passes uses each once,
    # so ``queries`` sums 2 x 20 x 100 trials.
    random_seeds = 20
    in_process = True
    strategies = ("binary", "block")

    def prepare(self, seed: int):
        rng = random.Random(seed)
        return {
            "seeds": {
                s: [rng.getrandbits(32) for _ in range(self.random_seeds)] for s in self.strategies
            },
            # 10 (binary) and 15 (block) at n = 6; 17 and 28 at n = 8.
            "maxima": {
                n: {s: worst_queries(s, n) for s in self.strategies}
                for n in (self.n_exhaustive, self.n_gate)
            },
            "worst": {s: worst_queries(s, self.n_random) for s in self.strategies},
            "best": {"binary": binary_best(self.n_random), "block": self.n_random - 1},
        }

    def cycle(self) -> int:
        return self.random_seeds

    def runs_per_pass(self) -> int:
        return len(self.strategies) * (math.factorial(self.n_exhaustive) + self.trials)

    def run_pass(self, state, index: int, begin_op=_no_op):
        ops = []
        for strategy in self.strategies:
            begin_op()
            ops.append(timed(f"exhaustive_worst_case({strategy})",
                             harness.exhaustive_worst_case, self.n_exhaustive, strategy))
        for strategy in self.strategies:
            begin_op()
            ops.append(timed(
                f"random_trials({strategy})", harness.random_trials,
                self.n_random, strategy, self.trials,
                state["seeds"][strategy][index % self.random_seeds],
                shuffle_presentation=True,
            ))
        return ops

    def gate(self, state) -> Outcome:
        """Exhaustive search at n = 8 once: maxima 17 (binary) and 28 (block)."""
        out = Outcome()
        for strategy in self.strategies:
            self._judge_exhaustive(
                out, state, harness.exhaustive_worst_case(self.n_gate, strategy)
            )
        return out

    def _judge_exhaustive(self, out: Outcome, state, report) -> None:
        expected = state["maxima"][report.n][report.strategy]
        problems = []
        if report.max_steps != expected:
            problems.append(f"maximum {report.max_steps}, expected {expected}")
        out.judge(f"exhaustive_worst_case({report.n}, {report.strategy})", problems)

    def check(self, state, index: int, ops) -> Outcome:
        results = [op.value for op in ops]
        out = Outcome(runs=self.runs_per_pass(), summary=tuple(results))
        for report in results[: len(self.strategies)]:
            self._judge_exhaustive(out, state, report)
        for summary in results[len(self.strategies):]:
            strategy = summary.strategy
            total = round(summary.mean_queries * summary.trials)
            problems = []
            if summary.all_correct is not True:
                problems.append("a trial learned a wrong order")
            if summary.max_queries > state["worst"][strategy]:
                problems.append(f"max_queries {summary.max_queries} above the worst case")
            if summary.min_queries < state["best"][strategy] or summary.trials != self.trials:
                problems.append(f"inconsistent summary {summary}")
            out.queries += total
            out.judge(f"random_trials({strategy})", problems, total)
        return out


# ----------------------------------------------------------------------
# cli-predict
# ----------------------------------------------------------------------

# ``predict --n 2000 --format json`` stays in the mix on purpose: n! has more
# than 4300 digits there, and the CLI fails on it until the renderer handles
# any n.  Each failure counts; it must not be dropped or resized away.
KNOWN_DEFECT = ("predict", "--n", "2000", "--format", "json")

# The fixed mix of argument lists.
CLI_MIX = tuple(
    [["predict", "--n", str(n), "--format", fmt] for n in (27, 1000) for fmt in ("human", "csv", "json")]
    + [["predict", "--n", "20000", "--format", "human"]]
    + [list(KNOWN_DEFECT)]
    + [["table", "--format", fmt] for fmt in ("human", "csv", "json")]
    + [
        ["learn", "--adversarial", "--n", str(n), "--strategy", s]
        for n in (27, 1000)
        for s in ("block", "binary")
    ]
    + [["worst-case", "--mode", "exhaustive", "--n", "5", "--strategy", s] for s in ("block", "binary")]
)
MIN_CLI_SAMPLES = 100

# Paper values the table must show: (s_n, b_n) at n = 27 and n = 1000.
TABLE_PAPER = {27: (377, 104), 1000: (500499, 8977)}


@dataclass(frozen=True)
class Invocation:
    argv: tuple[str, ...]
    code: int
    stdout: str
    stderr: str
    seconds: float
    maxrss_kb: int

    @property
    def key(self) -> tuple[str, ...]:
        return self.argv


def _read_both(proc) -> tuple[bytes, bytes]:
    """Drain stdout and stderr together so neither pipe can fill and block."""
    chunks = {proc.stdout.fileno(): [], proc.stderr.fileno(): []}
    with selectors.DefaultSelector() as sel:
        for fd in chunks:
            sel.register(fd, selectors.EVENT_READ)
        while sel.get_map():
            for key, _ in sel.select():
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fd].append(data)
                else:
                    sel.unregister(key.fd)
    return b"".join(chunks[proc.stdout.fileno()]), b"".join(chunks[proc.stderr.fileno()])


def invoke_cli(argv) -> Invocation:
    """Run ``python -m ruleorder *argv`` and time it from spawn to exit."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "ruleorder", *argv],
        cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    try:
        out, err = _read_both(proc)
        # wait4 instead of Popen.wait: it also returns the child's own rusage.
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        proc.stdout.close()
        proc.stderr.close()
    seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Invocation(
        tuple(argv), proc.returncode, out.decode(), err.decode(), seconds, usage.ru_maxrss
    )


def invoke_in_process(argv) -> Invocation:
    """Run ``cli.main(argv)`` in this process with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    seconds = time.perf_counter() - start
    return Invocation(tuple(argv), code, out.getvalue(), err.getvalue(), seconds, 0)


def _option(argv, name: str) -> str:
    return argv[argv.index(name) + 1]


def _parse(text: str, fmt: str):
    """Rows of a CLI output as dicts of strings (json keeps its own types)."""
    if fmt == "json":
        data = json.loads(text)
        return data if isinstance(data, list) else [data]
    if fmt == "csv":
        return list(csv.DictReader(io.StringIO(text)))
    return [dict(line.split(": ", 1) for line in text.splitlines())]


def _parse_table_human(text: str):
    lines = [line.split() for line in text.splitlines()]
    header, rows = lines[0], lines[1:]
    return [dict(zip(header, row)) for row in rows]


def _close(value, reference: float, decimals: int | None) -> bool:
    """Exact float match, or match to the printed number of decimals."""
    if decimals is None:
        return float(value) == reference
    return abs(float(value) - reference) <= 0.5 * 10.0 ** -decimals + 1e-12


class CliPredict:
    name = "cli-predict"
    reference = staticmethod(reference_spawn)
    in_process = False

    def prepare(self, seed: int):
        sizes = sorted({int(_option(a, "--n")) for a in CLI_MIX if a[0] == "predict"})
        return {
            "rng": random.Random(seed),
            "orders": [],
            "reports": {n: complexity.report(n) for n in sizes},
            "table": {row.n: row for row in harness.comparison_table()},
        }

    def cycle(self) -> int:
        return 1

    def order(self, state, index: int) -> list[tuple[str, ...]]:
        """The seeded order of the mix for cycle ``index``."""
        while len(state["orders"]) <= index:
            state["orders"].append(state["rng"].sample(range(len(CLI_MIX)), len(CLI_MIX)))
        return [tuple(CLI_MIX[i]) for i in state["orders"][index]]

    def run_pass(self, state, index: int, begin_op=_no_op):
        invocations = []
        for argv in self.order(state, index):
            begin_op()
            invocations.append(invoke_cli(argv))
        return invocations

    def run_in_process_pass(self, state, index: int, begin_op=_no_op):
        results = []
        for argv in CLI_MIX:
            begin_op()
            results.append(invoke_in_process(argv))
        return results

    # -- checks --------------------------------------------------------

    def check(self, state, index: int, invocations) -> Outcome:
        out = Outcome(summary=tuple(sorted((i.argv, i.code, i.stdout) for i in invocations)))
        for inv in invocations:
            label = " ".join(inv.argv)
            if inv.code != 0:
                out.failures[inv.argv] = out.failures.get(inv.argv, 0) + 1
                out.attempted += 1
                out.failed += 1
                out.op_queries.append(None)
                continue
            try:
                problems, runs, queries = self._verify(state, inv)
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                problems, runs, queries = [f"unparsable output ({exc!r})"], 0, None
            out.runs += runs
            out.queries += queries or 0
            out.judge(label, problems, queries)
        return out

    def _verify(self, state, inv: Invocation):
        argv = inv.argv
        command = argv[0]
        fmt = _option(argv, "--format") if "--format" in argv else "human"
        if command == "predict":
            n = int(_option(argv, "--n"))
            (row,) = _parse(inv.stdout, fmt)
            return self._verify_predict(state["reports"][n], row), 0, None
        if command == "table":
            rows = _parse_table_human(inv.stdout) if fmt == "human" else _parse(inv.stdout, fmt)
            return self._verify_table(state["table"], rows, fmt), 0, None
        n = int(_option(argv, "--n"))
        strategy = _option(argv, "--strategy")
        (row,) = _parse(inv.stdout, fmt)
        worst = worst_queries(strategy, n)
        if command == "learn":
            queries = int(row["queries"])
            problems = []
            if queries != worst or int(row["steps"]) != worst or row["correct"] != "true":
                problems.append(f"expected {worst} queries and a correct order, got {row}")
            return problems, 1, queries
        problems = []
        if int(row["max_steps"]) != worst:
            problems.append(f"max_steps {row['max_steps']}, expected {worst}")
        return problems, math.factorial(n), None

    @staticmethod
    def _verify_predict(report, row) -> list[str]:
        problems = []
        n = report.n
        if (report.s_n, report.b_n) != (block_worst(n) + n - 1, binary_worst(n)):
            problems.append(f"report({n}) gives s_n, b_n = {report.s_n}, {report.b_n}")
        for key in ("n", "s_n", "b_n", "b_f_n"):
            if int(row[key]) != getattr(report, key):
                problems.append(f"{key} = {row[key]}, expected {getattr(report, key)}")
        for key in ("log_factorial", "speedup"):
            if not _close(row[key], getattr(report, key), None):
                problems.append(f"{key} = {row[key]}, expected {getattr(report, key)!r}")
        if not naive_matches(row["naive"], report.n):
            problems.append(f"naive = {str(row['naive'])[:40]}... is not {report.n}!")
        return problems

    @staticmethod
    def _verify_table(table, rows, fmt: str) -> list[str]:
        problems = []
        if sorted(int(r["n"]) for r in rows) != sorted(TABLE_PAPER):
            return [f"table rows for n = {[r['n'] for r in rows]}"]
        human = fmt == "human"
        for row in rows:
            n = int(row["n"])
            ref = table[n]
            if (int(row["s_n"]), int(row["b_n"])) != TABLE_PAPER[n] or (ref.s_n, ref.b_n) != TABLE_PAPER[n]:
                problems.append(f"n = {n}: s_n, b_n = {row['s_n']}, {row['b_n']}")
            if not naive_matches(row["naive"], n):
                problems.append(f"n = {n}: naive is not {n}!")
            for key, decimals in (("speedup", 3), ("block_years", 2), ("binary_years", 2)):
                if not _close(row[key], getattr(ref, key), decimals if human else None):
                    problems.append(f"n = {n}: {key} = {row[key]}")
        return problems


WORKLOADS = {
    w.name: w for w in (LearnBinaryLarge(), BlockAdversarial(), HarnessSmallN(), CliPredict())
}
