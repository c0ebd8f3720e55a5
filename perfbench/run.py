"""Run one ruleorder benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere inside a checkout; it imports ``ruleorder`` from the
checkout's ``src/`` and nowhere else.  With ``--trace 0`` the last line of
stdout is a JSON object with the end-to-end metrics; with ``--trace 1`` it
holds the per-layer metrics of a traced run.  Lines before it are a readable
report: provenance, every metric with its unit and sample count, and any
failure.  The exit status is 0 only if every answer was correct.

See perfbench/README.md for the workloads, the metrics and which per-layer
metric should move which end-to-end metric.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPANS_DIR = ROOT / ".perfbench"

# Fresh interpreters started to time set-up; setup_s is their median.
SETUP_PROBES = 7
# A measuring phase starts no new pass after this long, so a run ends well
# inside three minutes even on a slow machine.
PHASE_CAP_S = 110.0
TRACED_PHASE_CAP_S = 45.0
# Passes each measuring phase makes at least, whatever --seconds says.
MIN_PASSES = 3


# Printed after the end-to-end metrics of an untraced run, not gated.
REPORT_UNITS = {
    "wall_s": "s",
    "runs_per_s": "1/s",
    "queries_per_s": "1/s",
    "reference_s": "s",
}


def metric_units() -> tuple[dict[str, str], dict[str, str]]:
    """Names and units of the end-to-end and per-layer metrics, from BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as spec_file:
        spec = json.load(spec_file)
    return tuple({m["name"]: m["unit"] for m in spec[key]} for key in ("end_to_end", "per_layer"))


def load_program():
    """Put the checkout's src/ first on the path and import ruleorder from it."""
    init = SRC / "ruleorder" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"perfbench: {init.relative_to(ROOT)} not found; run inside a full checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import ruleorder

    if Path(ruleorder.__file__).resolve() != init.resolve():
        raise SystemExit(f"perfbench: imported ruleorder from {ruleorder.__file__}, not {init}")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only", action="store_true",
        help="import ruleorder, build the workload's inputs and exit (times setup_s)",
    )
    return parser.parse_args(argv)


# ----------------------------------------------------------------------
# measuring
# ----------------------------------------------------------------------

def timed_passes(run, seconds: float, min_passes: int, cap: float, before=None, after=None):
    """Closed loop of passes for at least ``seconds`` and ``min_passes``.

    Returns [(seconds, raw result)].  Garbage from the previous pass is
    collected before the clock starts.  Outside the clock, ``after(index,
    raw)`` may check a pass and return what to keep of it.
    """
    passes = []
    start = time.perf_counter()
    while len(passes) < min_passes or time.perf_counter() - start < seconds:
        if passes and time.perf_counter() - start > cap:
            break
        gc.collect()
        if before is not None:
            before()
        t0 = time.perf_counter()
        raw = run(len(passes))
        elapsed = time.perf_counter() - t0
        if after is not None:
            raw = after(len(passes), raw)
        passes.append((elapsed, raw))
    return passes


def pass_seconds(passes) -> float:
    """Time of one pass: the sum over its operations of the mean of each
    operation's times in the run.

    A pass holds each operation key once, and every operation is timed on
    its own, so the time spent between operations is left out.
    """
    times: dict = {}
    for _, ops in passes:
        for op in ops:
            times.setdefault(op.key, []).append(op.seconds)
    return sum(statistics.fmean(seconds) for seconds in times.values())


def setup_probe_seconds(workload: str, seed: int) -> float:
    """Spawn-to-exit time of a fresh interpreter that only sets up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--seconds", "0", "--setup-only"]
    start = time.perf_counter()
    done = subprocess.run(cmd, cwd=ROOT, stdin=subprocess.DEVNULL,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    seconds = time.perf_counter() - start
    if done.returncode != 0:
        raise SystemExit(f"perfbench: set-up probe failed: {done.stderr.decode().strip()}")
    return seconds


def percentile(values, fraction: float) -> float:
    """Nearest-rank percentile (``inf`` entries rank last)."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(fraction * len(ordered)) - 1)]


def cli_latency(invocations):
    """(p50 ms, p90 ms, samples); a failed invocation ranks last."""
    latencies = [inv.seconds * 1e3 if inv.code == 0 else math.inf for inv in invocations]
    return percentile(latencies, 0.5), percentile(latencies, 0.9), len(latencies)


class Tally:
    """Operation counts and problems over every checked pass of a run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []
        self.failures: dict = {}

    def add(self, outcome) -> None:
        self.attempted += outcome.attempted
        self.failed += outcome.failed
        self.wrong.extend(outcome.wrong)
        for argv, count in outcome.failures.items():
            self.failures[argv] = self.failures.get(argv, 0) + count


class PassChecker:
    """Checks each pass as soon as it is timed and keeps only what is needed.

    In-process results are dropped once checked (their timings stay), so
    the number of passes does not move ``peak_rss_mb``; a pass is compared
    with the pass of the first cycle that had the same inputs.
    """

    def __init__(self, workload, state, tally: Tally) -> None:
        self.workload, self.state, self.tally = workload, state, tally
        self.outcomes: list = []

    def __call__(self, index: int, raw):
        outcome = self.workload.check(self.state, index, raw)
        self.tally.add(outcome)
        cycle = self.workload.cycle()
        if index >= cycle:
            if outcome.summary != self.outcomes[index % cycle].summary:
                self.tally.wrong.append(
                    f"pass {index} differs from pass {index % cycle} on the same inputs"
                )
            outcome.summary = ()
        self.outcomes.append(outcome)
        if self.workload.in_process:
            return [dataclasses.replace(op, value=None) for op in raw]
        return raw


def check_passes(workload, state, passes, tally: Tally):
    checker = PassChecker(workload, state, tally)
    for i, (_, raw) in enumerate(passes):
        checker(i, raw)
    return checker.outcomes


def cycle_queries(workload, outcomes) -> tuple[int, int]:
    """Reported queries over one cycle of the seeded inputs, and its length."""
    cycle = min(workload.cycle(), len(outcomes))
    return sum(o.queries for o in outcomes[:cycle]), cycle


# ----------------------------------------------------------------------
# the two kinds of run
# ----------------------------------------------------------------------

def untraced_run(workload, state, args, tally: Tally):
    from workloads import MIN_CLI_SAMPLES, CLI_MIX

    min_passes = max(MIN_PASSES, workload.cycle())
    if not workload.in_process:
        min_passes = max(min_passes, math.ceil(MIN_CLI_SAMPLES / len(CLI_MIX)))
    checker = PassChecker(workload, state, tally)
    references: list[float] = []

    def run_reference() -> None:
        references.append(workload.reference())

    passes = timed_passes(
        lambda i: workload.run_pass(state, i, run_reference), args.seconds, min_passes,
        PHASE_CAP_S, after=checker,
    )
    outcomes = checker.outcomes
    if hasattr(workload, "gate"):
        tally.add(workload.gate(state))
    queries, cycle = cycle_queries(workload, outcomes)
    wall = pass_seconds(passes)
    # The reference ran once before every operation of every pass.
    reference = math.fsum(references) / len(passes)
    runs = statistics.fmean(o.runs for o in outcomes)
    metrics = {
        "wall_ref": (wall / reference, len(passes)),
        "queries": (queries, cycle),
    }
    extra = {
        "wall_s": (wall, len(passes)),
        "runs_per_s": (runs / wall, len(passes)),
        "queries_per_s": (queries / cycle / wall, len(passes)),
        "reference_s": (reference, len(references)),
    }
    if workload.in_process:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics["peak_rss_mb"] = (rss_kb / 1024, 1)
    else:
        invocations = [inv for _, raw in passes for inv in raw]
        metrics["peak_rss_mb"] = (max(inv.maxrss_kb for inv in invocations) / 1024, len(invocations))
        p50, p90, samples = cli_latency(invocations)
        extra["cli_p50_ms"] = (p50, samples)
        extra["cli_p90_ms"] = (p90, samples)
    return metrics, extra


def traced_run(workload, state, args, tally: Tally, layer_units: dict[str, str]):
    from tracing import Tracer
    from workloads import CLI_MIX, MIN_CLI_SAMPLES

    layer = {}
    half = args.seconds / 2
    if workload.in_process:
        run_plain = run_traced = workload.run_pass
        plain_seconds = traced_seconds = half
    else:
        # Subprocess cycles give the latency the user sees; in-process
        # cycles of cli.main, untraced then traced, give the layer split.
        sub = timed_passes(
            lambda i: workload.run_pass(state, i), half,
            math.ceil(MIN_CLI_SAMPLES / len(CLI_MIX)), TRACED_PHASE_CAP_S,
        )
        sub_out = check_passes(workload, state, sub, tally)
        invocations = [inv for _, raw in sub for inv in raw]
        p50, p90, samples = cli_latency(invocations)
        layer["cli_p50_ms"] = (p50, samples)
        layer["cli_p90_ms"] = (p90, samples)
        run_plain = run_traced = workload.run_in_process_pass
        plain_seconds = traced_seconds = half / 2

    plain = timed_passes(lambda i: run_plain(state, i), plain_seconds, 1, TRACED_PHASE_CAP_S)
    with Tracer() as tracer:
        traced = timed_passes(
            lambda i: run_traced(state, i, tracer.begin_op), traced_seconds, 1,
            TRACED_PHASE_CAP_S, before=tracer.begin_pass,
        )
    plain_out = check_passes(workload, state, plain, tally)
    traced_out = check_passes(workload, state, traced, tally)

    for i, (a, b) in enumerate(zip(plain_out, traced_out)):
        if a.summary != b.summary:
            tally.wrong.append(f"traced pass {i} returned other results than the untraced one")
    for j, outcome in enumerate(traced_out):
        agg = tracer.passes[j]
        if agg["calls"].get(tracer.names.index("ordering.learn_order"), 0) != outcome.runs:
            tally.wrong.append(f"traced pass {j}: learn_order calls differ from {outcome.runs} runs")
        for k, reported in enumerate(outcome.op_queries):
            counted = agg["op_queries"].get(agg["first_op"] + k, 0)
            if reported is not None and reported != counted:
                tally.wrong.append(
                    f"traced pass {j} op {k}: {counted} oracle queries, {reported} reported"
                )

    if not workload.in_process:
        by_argv = {}
        for _, raw in sub:
            for inv in raw:
                by_argv.setdefault(inv.argv, []).append(inv)
        startup = []
        for argv in map(tuple, CLI_MIX):
            in_proc = [inv for _, raw in plain for inv in raw if inv.argv == argv]
            ref = by_argv[argv][0]
            if (in_proc[0].code, in_proc[0].stdout) != (ref.code, ref.stdout):
                tally.wrong.append(f"{' '.join(argv)}: in-process output differs from the CLI's")
            startup.append(
                statistics.median(inv.seconds for inv in by_argv[argv])
                - statistics.median(inv.seconds for inv in in_proc)
            )
        layer["cli.startup_ms"] = (statistics.median(startup) * 1e3, len(startup))

    med = statistics.median
    n_traced = len(traced)
    per_pass = [tracer.pass_totals(j) for j in range(n_traced)]
    # Counts stay whole numbers: median_low picks one pass's count.
    calls = {name: statistics.median_low(c[name] for c, _ in per_pass) for name in tracer.names}
    self_s = {name: med(t[name] for _, t in per_pass) / 1e9 for name in tracer.names}
    rules = statistics.median_low(tracer.passes[j]["rules"] for j in range(n_traced))
    layer["ordering.precedes.calls"] = (calls["ordering.precedes"], n_traced)
    layer["ordering.precedes.ns_per_call"] = (
        self_s["ordering.precedes"] * 1e9 / calls["ordering.precedes"]
        if calls["ordering.precedes"] else 0.0,
        n_traced,
    )
    layer["ordering.learn_order.calls"] = (calls["ordering.learn_order"], n_traced)
    layer["ordering.learn_order.self_ns_per_rule"] = (
        self_s["ordering.learn_order"] * 1e9 / rules if rules else 0.0, n_traced
    )
    layer["ordering.GroundTruthOrder.calls"] = (calls["ordering.GroundTruthOrder"], n_traced)
    layer["ordering.CountingOracle.calls"] = (calls["ordering.CountingOracle"], n_traced)
    for name in tracer.names:
        key = f"{name}.self_s"
        if key in layer_units:
            layer[key] = (self_s[name], n_traced)
    layer["trace.overhead_frac"] = (
        med(t for t, _ in traced) / med(t for t, _ in plain) - 1, min(len(traced), len(plain))
    )
    layer.setdefault("cli.startup_ms", (0.0, 0))
    layer.setdefault("cli_p50_ms", (0.0, 0))
    layer.setdefault("cli_p90_ms", (0.0, 0))

    # The same count as --trace 0 reports for this seed, for comparison.
    queries, cycle = cycle_queries(workload, plain_out if workload.in_process else sub_out)
    SPANS_DIR.mkdir(exist_ok=True)
    written = tracer.write_spans(SPANS_DIR / f"spans-{workload.name}.jsonl")
    return layer, {
        "untraced_queries": queries,
        "untraced_queries_passes": cycle,
        "untraced_passes": len(plain),
        "traced_passes": n_traced,
        "spans_written": written,
    }


# ----------------------------------------------------------------------
# report
# ----------------------------------------------------------------------

def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _show(value) -> str:
    return str(value) if isinstance(value, int) else f"{value:.6g}"


def main(argv=None) -> int:
    args = parse_args(argv)
    load_program()
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r} (choose from: {', '.join(WORKLOADS)})")
    if args.setup_only:
        workload.prepare(args.seed)
        return 0

    e2e_units, layer_units = metric_units()
    tally = Tally()
    provenance = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
    }
    if args.trace:
        state = workload.prepare(args.seed)
        metrics, extra = traced_run(workload, state, args, tally, layer_units)
        units = layer_units
    else:
        setup = [setup_probe_seconds(workload.name, args.seed) for _ in range(SETUP_PROBES)]
        state = workload.prepare(args.seed)
        metrics, extra = untraced_run(workload, state, args, tally)
        metrics["setup_s"] = (statistics.median(setup), len(setup))
        units = e2e_units

    failed_frac = tally.failed / tally.attempted if tally.attempted else 1.0
    provenance["samples"] = {name: metrics[name][1] for name in units}
    print(f"# perfbench {workload.name} seed={args.seed} trace={args.trace}")
    print("provenance " + json.dumps(provenance))
    for name in units:
        value, samples = metrics[name]
        print(f"{name:40s} {_show(value):>16s} {units[name]:6s} samples={samples}")
    if not args.trace:
        for name, unit in REPORT_UNITS.items():
            value, samples = extra[name]
            print(f"{name:40s} {_show(value):>16s} {unit:6s} samples={samples}")
        for name in ("cli_p50_ms", "cli_p90_ms"):
            if name in extra:
                value, samples = extra[name]
                print(f"{name:40s} {_show(value):>16s} ms     samples={samples}")
            else:
                print(f"{name:40s} {'n/a':>16s} ms     (no CLI invocations in this workload)")
    else:
        print("trace " + json.dumps(extra))
    print(f"{'failed_frac':40s} {_show(failed_frac):>16s} ratio  attempted={tally.attempted} failed={tally.failed}")
    for argv, count in sorted(tally.failures.items()):
        print(f"failed: {count} x ruleorder {' '.join(argv)}")
    for problem in tally.wrong:
        print(f"WRONG: {problem}")

    correct = not tally.wrong
    result = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name][0], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
