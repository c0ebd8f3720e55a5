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
Everything, with every run's metrics, goes to ``BENCH_<workload>.json`` at
the top of the checkout (``--out`` to change it).  The record names each
side's commit and the git tree of its ``src`` directory; the tree hash
depends only on the files, so it still ties the record to the code when
the change was run as a commit that is not in the history.
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
from pathlib import Path

SIDES = ("parent", "change")
PAIRS = 10  # the fewest pairs a gain is judged on
WIN_SHARE = 0.9  # a resolved gain wins at least this share of the pairs


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


def _git(*args: str, cwd: Path) -> str:
    return subprocess.run(["git", *args], cwd=cwd, check=True,
                          capture_output=True, text=True).stdout.strip()


def run_side(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """perfbench's last stdout line, a JSON object, from one run in ``tree``."""
    for cache in tree.rglob("__pycache__"):
        shutil.rmtree(cache)
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPATH", None)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=tree, env=env, stdin=subprocess.DEVNULL, capture_output=True, text=True,
    )
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
        finally:
            for side in SIDES:
                if trees[side].exists():
                    _git("worktree", "remove", "--force", str(trees[side]), cwd=top)
            _git("worktree", "prune", cwd=top)

    rows = summarize(runs["parent"], runs["change"], spec["end_to_end"])
    print(table(args.workload, rows, runs["parent"], runs["change"]))
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
    }
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    return 0 if all(run["exit"] == 0 for side in SIDES for run in runs[side]) else 1


if __name__ == "__main__":
    sys.exit(main())
