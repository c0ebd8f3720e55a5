"""Bytes per rule of each layer at one n, and the peak RSS of the CLI.

For each layer it prints two figures, in bytes per rule, from ``tracemalloc``:

- ``peak``: the most memory the call held at once above what existed
  before it (its inputs are built first, so they are not counted);
- ``kept``: what the call's result still holds after it returns.

The layers are the ``GroundTruthOrder`` factories, ``adversarial_ground_truth``
and, for each strategy on its adversarial instance (the identity order for
block, the reversed one for binary), ``learn_order`` on a plain counting
oracle, the unchecked core ``_learn_ranks``, ``run_trial`` with no
presentation and with the caller's presentation 0..n-1, and
``adversarial_worst_case``.  Before them it runs ``python -m ruleorder``
children, ``learn --adversarial`` and ``worst-case --mode adversarial`` at
the same n for both strategies and ``predict --n 27`` for scale, and prints
each child's peak resident set size in MB.  A child's figure cannot read
below this process's own peak RSS, printed as the floor.

Run it from anywhere in a checkout (standard library only; the child
figures need ``os.wait4`` and ``resource``, so Unix):

    python tools/memory.py [--n 1000000] [--src DIR]

``--src`` measures the ``ruleorder`` package under another ``src``
directory, such as that of a parent revision; a layer that tree does not
have prints as ``absent``.  tracemalloc slows every allocation, so the
in-process rows take several seconds at the default n.
"""

from __future__ import annotations

import argparse
import os
import random
import resource
import subprocess
import sys
import tracemalloc
from functools import partial
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
STRATEGIES = ("block", "binary")
SEED = 1


def traced_bytes(call) -> tuple[int, int]:
    """(peak, kept) bytes of ``call()`` above what was traced before it."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = call()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del result
    return peak - base, kept - base


def rows(ruleorder, n: int):
    """(label, setup or None) for every in-process row, in print order.
    ``setup()`` builds the layer's inputs and returns the call that runs
    the layer on them, so the inputs are made before tracing starts."""
    ordering, harness = ruleorder.ordering, ruleorder.harness
    order = ordering.GroundTruthOrder
    core = getattr(ordering, "_learn_ranks", None)
    out = [
        ("GroundTruthOrder.identity", lambda: partial(order.identity, n)),
        ("GroundTruthOrder.reversed_identity", lambda: partial(order.reversed_identity, n)),
        ("GroundTruthOrder.shuffled",
         lambda: partial(order.shuffled, n, random.Random(SEED))),
    ]
    for s in STRATEGIES:
        # The strategy's adversarial ground truth.
        truth = order.identity if s == "block" else order.reversed_identity
        out += [
            (f"adversarial_ground_truth {s}",
             lambda s=s: partial(harness.adversarial_ground_truth, n, s)),
            (f"learn_order {s}", lambda s=s, t=truth: partial(
                ordering.learn_order, list(range(n)), ordering.CountingOracle(t(n)), s)),
            (f"_learn_ranks {s}", core and (lambda s=s, t=truth: partial(
                core, list(range(n)), t(n).ranks, s == "block"))),
            (f"run_trial {s}", lambda s=s, t=truth: partial(harness.run_trial, n, s, t(n))),
            (f"run_trial {s}, caller's 0..n-1", lambda s=s, t=truth: partial(
                harness.run_trial, n, s, t(n), list(range(n)))),
            (f"adversarial_worst_case {s}",
             lambda s=s: partial(harness.adversarial_worst_case, n, s)),
        ]
    return out


def child_rss_mb(src: Path, argv: list[str]) -> float:
    """Peak RSS in MB of ``python -m ruleorder *argv`` importing from ``src``,
    which must exit 0."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    child = subprocess.Popen([sys.executable, "-m", "ruleorder", *argv], env=env,
                             stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(child.pid, 0)
    child.returncode = os.waitstatus_to_exitcode(status)
    if child.returncode != 0:
        raise SystemExit(f"ruleorder {' '.join(argv)} exited {child.returncode}")
    return usage.ru_maxrss / 1024  # KB on Linux


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=10**6, help="rules per run (default 10**6)")
    parser.add_argument("--src", type=Path, default=SRC,
                        help="the src directory whose ruleorder is measured"
                             " (default: this checkout's)")
    args = parser.parse_args(argv)
    if args.n < 2:
        parser.error("--n must be at least 2")
    src = args.src.resolve()

    n = args.n
    # The children run first, while this process is small: on Linux a
    # child's peak RSS starts at the peak RSS of the process that spawns
    # it, so this process's own peak is a floor under every child figure.
    floor = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"peak RSS of python -m ruleorder from {src}, MB (floor {floor:.1f})")
    commands = [["predict", "--n", "27"]]
    for s in STRATEGIES:
        commands.append(["learn", "--adversarial", "--n", str(n), "--strategy", s])
        commands.append(["worst-case", "--mode", "adversarial", "--n", str(n), "--strategy", s])
    for command in commands:
        print(f"  {' '.join(command):<60} {child_rss_mb(src, command):8.1f}")

    sys.path.insert(0, str(src))
    import ruleorder
    from ruleorder import harness, ordering  # noqa: F401  bound as ruleorder's attributes

    print(f"bytes per rule at n = {n}: peak above the inputs, kept by the result")
    for label, setup in rows(ruleorder, n):
        if setup is None:
            print(f"  {label:<38} {'absent':>8}")
            continue
        peak, kept = traced_bytes(setup())
        print(f"  {label:<38} peak {peak / n:7.1f}  kept {kept / n:7.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
