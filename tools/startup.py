"""Start-up cost of the ruleorder CLI, per command group.

For each command group it runs ``python -m ruleorder ...`` and a bare
``python -c pass`` in alternating order, times each from spawn to exit, and
prints the median over rounds of the command's time minus the bare
interpreter's.  Then, for each group, it lists the ruleorder modules that
one run of the command loads, each with its own import time: the self
time of its line under ``python -S -X importtime -c "import <module>"``,
the fastest of five fresh runs per module.  Each module is timed on its
own because ``-X importtime`` does not time a module loaded by ``from .
import x`` or by the package's PEP 562 hook, so a run of the command alone
would charge those modules to the one that loaded them.

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
import ast
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
IMPORT_RUNS = 5  # fresh -X importtime runs per module, of which the fastest counts

# Run in a fresh ``python -S`` by ``loaded_modules``: prints the modules one
# command loads, sends the command's own output to os.devnull and exits
# with its code.
_LOADS = """
import sys
before = set(sys.modules)
from ruleorder import cli
out, sys.stdout = sys.stdout, open("{devnull}", "w")
code = cli.main({argv!r})
sys.stdout = out
print(sorted(set(sys.modules) - before))
sys.exit(code)
"""


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


def loaded_modules(argv: list[str]) -> list[str]:
    """The modules that ``ruleorder *argv`` loads, in a fresh ``python -S``,
    beyond those the bare interpreter holds."""
    script = _LOADS.format(devnull=os.devnull, argv=argv)
    done = subprocess.run(
        [sys.executable, "-S", "-c", script], env=_env(), capture_output=True, text=True, check=True
    )
    return ast.literal_eval(done.stdout.splitlines()[-1])


def import_ms(module: str) -> float:
    """The self time, in ms, of ``module``'s line under ``python -S -X
    importtime -c "import module"``, the fastest of ``IMPORT_RUNS`` runs."""
    times = []
    for _ in range(IMPORT_RUNS):
        done = subprocess.run(
            [sys.executable, "-S", "-X", "importtime", "-c", f"import {module}"],
            env=_env(), capture_output=True, text=True, check=True,
        )
        for line in done.stderr.splitlines():
            fields = line.removeprefix("import time:").split("|")
            if len(fields) == 3 and fields[2].strip() == module:
                times.append(int(fields[0]) / 1e3)
    return min(times)


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

    loads = {group: loaded_modules(argv) for group, argv in GROUPS.items()}
    ours = sorted({m for modules in loads.values() for m in modules if m.split(".")[0] == "ruleorder"})
    own = {module: import_ms(module) for module in ours}
    print(f"ruleorder modules each group loads, own import time in ms (fastest of"
          f" {IMPORT_RUNS} fresh imports under -S -X importtime): the sum, then each")
    for group, modules in loads.items():
        mine = [m for m in modules if m in own]
        listed = ", ".join(f"{m.removeprefix('ruleorder.')} {own[m]:.2f}" for m in mine)
        print(f"  {group:<10} {sum(own[m] for m in mine):5.1f}  {listed}"
              f"  ({len(modules)} modules in all)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
