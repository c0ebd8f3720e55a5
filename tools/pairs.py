"""Alternating parent/change pairs of one perfbench workload.

Each pair runs ``python3 perfbench/run.py`` once on the parent revision and
once on the change revision, one after the other, and the side that goes
first alternates from pair to pair, so a slow spell on a shared host lands
on both sides.  Each side runs in a temporary ``git worktree`` of its own
revision with ``PYTHONDONTWRITEBYTECODE=1`` and no ``__pycache__``, so both
compile from source the same way; the worktrees are removed at the end.

Run it from anywhere in a checkout (standard library only):

    python tools/pairs.py --workload learn-binary-large [--seed 1]
        [--parent HEAD~1] [--change HEAD]

It always runs ``PAIRS`` pairs, each run as long as ``run_seconds`` in the
change revision's ``BENCHMARK.json``, so both sides run as the benchmark
sets them.

It prints one table row per end-to-end metric of ``BENCHMARK.json``: the
median [lower quartile, upper quartile] of each side's runs, the change of
the medians, and the pairs the change won (strictly better, so equal counts
win nothing), then the failed / attempted operations of each side.  A gain
is resolved when the change wins at least nine pairs in ten and its median
is better than the parent's by more than the parent's interquartile range.

After the pairs it times ``SETUP_SPAWNS`` alternating spawns of
``perfbench/run.py --setup-only`` per side, each from start to exit, and
prints their medians and wins under the table.  Each run's ``setup_s`` is
the median of only a few such spawns, so a ``setup_s`` reading past its
bound can be checked against these many spawns of the same two trees, made
on the same host in the same minutes.

Everything, with every run's metrics and every spawn's time, goes to
``BENCH_<workload>.json`` at the top of the checkout (``--out`` to change
it).  The record names each side's commit and the git tree of its ``src``
directory; the tree hash depends only on the files, so it still ties the
record to the code when the change was run as a commit that is not in the
history.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SIDES = ("parent", "change")
PAIRS = 10  # the fewest pairs a gain is judged on
WIN_SHARE = 0.9  # a resolved gain wins at least this share of the pairs
SETUP_SPAWNS = 20  # --setup-only spawns per side, timed after the pairs
SETUP = {"name": "setup_s", "better": "lower"}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(lower quartile, median, upper quartile), inclusive method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(parent: list[dict], change: list[dict], metrics: list[dict]) -> list[dict]:
    """One row per metric of pairwise runs.

    ``parent[i]`` and ``change[i]`` are the i-th pair's perfbench results
    (``{"metrics": {name: {"value": ...}}, ...}``); ``metrics`` are
    BENCHMARK.json ``end_to_end`` entries, each with ``name`` and
    ``better`` ("lower" or "higher").
    """
    if len(parent) != len(change) or not parent:
        raise ValueError(f"need equal, nonzero run counts, got {len(parent)} and {len(change)}")
    rows = []
    for metric in metrics:
        name, sign = metric["name"], 1 if metric["better"] == "lower" else -1
        a = [run["metrics"][name]["value"] for run in parent]
        b = [run["metrics"][name]["value"] for run in change]
        qa, qb = quartiles(a), quartiles(b)
        gap = qa[1] - qb[1]  # > 0: the change's median is lower
        wins = sum(sign * (x - y) > 0 for x, y in zip(a, b))
        spread = qa[2] - qa[0]
        rows.append({
            "metric": name,
            "better": metric["better"],
            "parent": dict(zip(("q1", "median", "q3"), qa)),
            "change": dict(zip(("q1", "median", "q3"), qb)),
            "change_frac": (qb[1] - qa[1]) / qa[1] if qa[1] else math.nan,
            "wins": wins,
            "pairs": len(a),
            "parent_iqr": spread,
            "gain": wins >= WIN_SHARE * len(a) and sign * gap > spread,
        })
    return rows


def _cell(q: dict) -> str:
    return f"{q['median']:.4g} [{q['q1']:.4g}, {q['q3']:.4g}]"


def table(workload: str, rows: list[dict], parent: list[dict], change: list[dict]) -> str:
    """The rows as the markdown table CHANGES.md quotes, with a header."""
    lines = ["| workload | metric | parent | change | change | wins |",
             "|---|---|---|---|---|---|"]
    for row in rows:
        lines.append(f"| {workload} | {row['metric']} | {_cell(row['parent'])}"
                     f" | {_cell(row['change'])} | {row['change_frac']:+.1%}"
                     f" | {row['wins']}/{row['pairs']} |")
    tallies = [f"{sum(r['failed'] for r in runs)} / {sum(r['attempted'] for r in runs)}"
               for runs in (parent, change)]
    lines.append(f"| {workload} | failed / attempted | {tallies[0]} | {tallies[1]} | | |")
    return "\n".join(lines)


def setup_summary(parent: list[float], change: list[float]) -> dict:
    """``summarize``'s row for the spawn-to-exit seconds of pairwise
    ``--setup-only`` spawns, ``parent[i]`` against ``change[i]``."""
    runs = [[{"metrics": {SETUP["name"]: {"value": t}}} for t in side]
            for side in (parent, change)]
    (row,) = summarize(*runs, [SETUP])
    return row


def setup_line(row: dict) -> str:
    """The spawns' summary as printed under the table."""
    return (f"--setup-only spawns ({row['pairs']} a side): parent {_cell(row['parent'])} s,"
            f" change {_cell(row['change'])} s, {row['change_frac']:+.1%},"
            f" change faster in {row['wins']}/{row['pairs']}")


def _git(*args: str, cwd: Path) -> str:
    return subprocess.run(["git", *args], cwd=cwd, check=True,
                          capture_output=True, text=True).stdout.strip()


def _perfbench(tree: Path, workload: str, seed: int, seconds: float, *extra: str):
    """One ``perfbench/run.py`` run in ``tree``, compiled from source, and
    its start-to-exit seconds."""
    for cache in tree.rglob("__pycache__"):
        shutil.rmtree(cache)
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPATH", None)
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), *extra],
        cwd=tree, env=env, stdin=subprocess.DEVNULL, capture_output=True, text=True,
    )
    return done, time.perf_counter() - start


def time_setup(tree: Path, workload: str, seed: int) -> float:
    """Start-to-exit seconds of one ``--setup-only`` spawn in ``tree``."""
    done, seconds = _perfbench(tree, workload, seed, 0, "--setup-only")
    if done.returncode != 0:
        raise SystemExit(f"--setup-only in {tree} failed: {done.stderr[-500:]}")
    return seconds


def run_side(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """perfbench's last stdout line, a JSON object, from one run in ``tree``."""
    done, _ = _perfbench(tree, workload, seed, seconds)
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"perfbench in {tree} printed nothing (exit {done.returncode}):"
                         f" {done.stderr[-500:]}")
    result = json.loads(lines[-1])
    result["exit"] = done.returncode
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--parent", default="HEAD~1", help="git revision (default HEAD~1)")
    parser.add_argument("--change", default="HEAD", help="git revision (default HEAD)")
    parser.add_argument("--out", type=Path, help="default: BENCH_<workload>.json at the top")
    args = parser.parse_args(argv)

    top = Path(_git("rev-parse", "--show-toplevel", cwd=Path(__file__).resolve().parent))
    revs = {side: _git("rev-parse", "--verify", getattr(args, side) + "^{commit}", cwd=top)
            for side in SIDES}
    src_trees = {side: _git("rev-parse", f"{revs[side]}:src", cwd=top) for side in SIDES}
    spec = json.loads(_git("show", f"{revs['change']}:BENCHMARK.json", cwd=top))
    seconds = spec["run_seconds"]
    runs: dict[str, list[dict]] = {side: [] for side in SIDES}
    with tempfile.TemporaryDirectory(prefix="pairs-") as scratch:
        trees = {side: Path(scratch) / side for side in SIDES}
        try:
            for side in SIDES:
                _git("worktree", "add", "--detach", str(trees[side]), revs[side], cwd=top)
            for i in range(PAIRS):
                for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
                    runs[side].append(run_side(trees[side], args.workload,
                                               args.seed, seconds))
                print(f"pair {i + 1}/{PAIRS} done", file=sys.stderr)
            spawns: dict[str, list[float]] = {side: [] for side in SIDES}
            for i in range(SETUP_SPAWNS):
                for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
                    spawns[side].append(time_setup(trees[side], args.workload, args.seed))
        finally:
            for side in SIDES:
                if trees[side].exists():
                    _git("worktree", "remove", "--force", str(trees[side]), cwd=top)
            _git("worktree", "prune", cwd=top)

    rows = summarize(runs["parent"], runs["change"], spec["end_to_end"])
    setup = setup_summary(spawns["parent"], spawns["change"])
    print(table(args.workload, rows, runs["parent"], runs["change"]))
    print(setup_line(setup))
    for row in rows:
        if row["gain"]:
            print(f"resolved gain: {row['metric']} ({row['wins']}/{row['pairs']} wins,"
                  f" median gap beyond the parent's quartile spread)")
    out = args.out or top / f"BENCH_{args.workload}.json"
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": seconds,
        "pairs": PAIRS,
        "revisions": revs,
        "src_trees": src_trees,
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "summary": rows,
        "runs": runs,
        "setup_spawns": {"summary": setup, "seconds": spawns},
    }
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    return 0 if all(run["exit"] == 0 for side in SIDES for run in runs[side]) else 1


if __name__ == "__main__":
    sys.exit(main())
