"""Start-up cost of the ruleorder CLI, per command group.

For each command group it runs ``python -m ruleorder ...`` and a bare
``python -c pass`` in alternating order, times each from spawn to exit, and
prints the median over rounds of the command's time minus the bare
interpreter's.  Then, from the fastest of five runs of
``python -S -X importtime -c "import ruleorder.cli"``, it lists the modules
that spend the most time of their own.

Run it from anywhere in a checkout (standard library only):

    python tools/startup.py [--rounds 15]

Children import ruleorder from this checkout's ``src/`` and write no
bytecode, so the tree is left as it was.  Without a ``__pycache__`` under
``src/ruleorder`` every spawn compiles ruleorder from source, as a fresh
checkout run with PYTHONDONTWRITEBYTECODE=1 does; the first line printed
says which case was measured.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# One command per group: the groups load different modules.
GROUPS = {
    "predict": ["predict", "--n", "27"],
    "table": ["table"],
    "learn": ["learn", "--adversarial", "--n", "27", "--strategy", "binary"],
    "worst-case": ["worst-case", "--mode", "adversarial", "--n", "27", "--strategy", "block"],
}
BARE = "python -c pass"
TOP = 12  # modules listed from the import-time run


def _env() -> dict[str, str]:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn_seconds(argv: list[str], env: dict[str, str]) -> float:
    """Seconds from spawn to exit of ``python *argv``, which must exit 0."""
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, *argv], env=env, stdin=subprocess.DEVNULL, capture_output=True
    )
    seconds = time.perf_counter() - start
    if done.returncode != 0:
        raise SystemExit(f"python {' '.join(argv)} exited {done.returncode}: {done.stderr!r}")
    return seconds


def startup_ms(rounds: int) -> dict[str, list[float]]:
    """Per group, each round's command time minus that round's bare start, in ms.

    Every round runs the bare interpreter and each group once, in an order
    that reverses from one round to the next.
    """
    env = _env()
    argvs = {BARE: ["-c", "pass"], **{g: ["-m", "ruleorder", *a] for g, a in GROUPS.items()}}
    excess: dict[str, list[float]] = {group: [] for group in GROUPS}
    for r in range(rounds):
        names = list(argvs) if r % 2 == 0 else list(argvs)[::-1]
        seconds = {name: spawn_seconds(argvs[name], env) for name in names}
        for group in GROUPS:
            excess[group].append((seconds[group] - seconds[BARE]) * 1e3)
    return excess


def import_times(module: str = "ruleorder.cli") -> list[tuple[int, int, str]]:
    """(self us, cumulative us, name) of every module ``import module`` loads
    under ``python -S -X importtime``, in import order."""
    done = subprocess.run(
        [sys.executable, "-S", "-X", "importtime", "-c", f"import {module}"],
        env=_env(), capture_output=True, text=True, check=True,
    )
    rows = []
    for line in done.stderr.splitlines():
        fields = line.removeprefix("import time:").split("|")
        if len(fields) == 3 and fields[0].strip().isdigit():
            rows.append((int(fields[0]), int(fields[1]), fields[2].strip()))
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=15, help="alternating rounds (default 15)")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")

    cached = (SRC / "ruleorder" / "__pycache__").is_dir()
    print(f"ruleorder bytecode: {'cached' if cached else 'none, compiled on every spawn'}")
    print(f"start-up above {BARE}, ms over {args.rounds} rounds: median (min, max)")
    for group, values in startup_ms(args.rounds).items():
        print(f"  {group:<10} {statistics.median(values):7.1f}"
              f"  ({min(values):.1f}, {max(values):.1f})")

    runs = [import_times() for _ in range(5)]
    total, rows = min(
        (next(cumulative for _, cumulative, name in rows if name == "ruleorder.cli"), rows)
        for rows in runs
    )
    print(f"import ruleorder.cli under -S, fastest of {len(runs)}: {total / 1e3:.1f} ms"
          f" cumulative; the {TOP} slowest modules by self time, ms:")
    for own, cumulative, name in sorted(rows, reverse=True)[:TOP]:
        print(f"  {own / 1e3:7.2f} self {cumulative / 1e3:7.2f} cumulative  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
