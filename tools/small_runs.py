"""Per-layer timing of harness runs: each layer of a driver call on its own.

The ``harness-small-n`` benchmark workload makes thousands of tiny runs, so
fixed costs per run decide its time.  This prints the best-of-rounds time
per call, in microseconds, of each layer such a run goes through, at
n = 6 (the exhaustive search) and n = 27 (the random trials), for both
strategies:

- ``learn_order`` on a plain counting oracle, with its full rule check;
- ``_learn_ranks``, the unchecked core the harness drivers call;
- ``_require_rules``, the rule check ``learn_order`` runs;
- ``_learned_in_rank_order``, the harness's check of a learned list;

then each driver call the workload times: ``exhaustive_worst_case(6, s)``
and ``random_trials(27, s, 100, seed, shuffle_presentation=True)``.  The
presentation and the ground truth of the layer rows are fixed shuffles.

Last come the ``block-adversarial`` workload's call,
``adversarial_worst_case(500, "block")``, and its layers on the block
adversarial instance: ``adversarial_ground_truth``, ``_require_rules`` (the
check ``learn_order`` runs on a caller's rules, and the driver does not),
``_learn_ranks`` and ``_learned_in_rank_order``.  A traced benchmark run
sends every driver through ``learn_order``, so these untraced rows are the
per-layer view of that workload.

Run it from anywhere in a checkout (standard library only):

    python tools/small_runs.py [--rounds 7] [--round-ms 20] [--src DIR]

``--src`` times the ``ruleorder`` package under another ``src`` directory,
such as that of a parent revision; a layer that tree does not have prints
as ``absent``.  Each row's call count per round is set once so that a round
lasts about ``--round-ms``; the best round is printed, with the median of
the rounds after it.
"""

from __future__ import annotations

import argparse
import random
import statistics
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
STRATEGIES = ("block", "binary")
SEED = 1  # fixed inputs: the same shuffles on every run and every tree
ADVERSARIAL_N = 500  # the size block-adversarial times


def per_call_us(call, rounds: int, round_s: float) -> tuple[float, float]:
    """(best, median) microseconds per call of ``call()`` over ``rounds``
    rounds, each of as many calls as fill about ``round_s`` seconds."""
    number = 1
    while True:
        start = time.perf_counter()
        for _ in range(number):
            call()
        elapsed = time.perf_counter() - start
        if elapsed >= round_s / 4 or number >= 1 << 20:
            break
        number *= 2
    number = max(1, round(number * round_s / max(elapsed, 1e-9)))
    times = []
    for _ in range(rounds):
        start = time.perf_counter()
        for _ in range(number):
            call()
        times.append((time.perf_counter() - start) / number * 1e6)
    return min(times), statistics.median(times)


def rows(ruleorder):
    """(label, call or None) for every row, in print order."""
    ordering, harness = ruleorder.ordering, ruleorder.harness
    core = getattr(ordering, "_learn_ranks", None)
    out = []
    for n in (6, 27):
        rng = random.Random(SEED)
        truth = ordering.GroundTruthOrder.shuffled(n, rng)
        presentation = list(range(n))
        rng.shuffle(presentation)
        learned = truth.true_sequence()
        for strategy in STRATEGIES:
            oracle = ordering.CountingOracle(truth)
            out.append((f"{'learn_order':<22} n={n:<3} {strategy}",
                        lambda p=presentation, o=oracle, s=strategy: ordering.learn_order(p, o, s)))
            out.append((f"{'_learn_ranks':<22} n={n:<3} {strategy}",
                        core and (lambda p=presentation, r=truth.ranks, b=strategy == "block":
                                  core(p, r, b))))
        out.append((f"{'_require_rules':<22} n={n}",
                    lambda p=presentation, n=n: ordering._require_rules(p, n)))
        out.append((f"{'_learned_in_rank_order':<22} n={n}",
                    lambda l=learned, r=truth.ranks: harness._learned_in_rank_order(l, r)))
    for strategy in STRATEGIES:
        out.append((f"exhaustive_worst_case(6, {strategy})",
                    lambda s=strategy: harness.exhaustive_worst_case(6, s)))
    for strategy in STRATEGIES:
        out.append((f"random_trials(27, {strategy}, 100)",
                    lambda s=strategy: harness.random_trials(27, s, 100, SEED,
                                                             shuffle_presentation=True)))
    # The block-adversarial workload's call and the layers it is made of.
    n = ADVERSARIAL_N
    truth, presentation = harness.adversarial_ground_truth(n, "block")
    learned = truth.true_sequence()
    out += [
        (f"{'adversarial_ground_truth':<24} n={n} block",
         lambda: harness.adversarial_ground_truth(n, "block")),
        (f"{'_require_rules':<24} n={n}", lambda: ordering._require_rules(presentation, n)),
        (f"{'_learn_ranks':<24} n={n} block",
         core and (lambda: core(presentation, truth.ranks, True))),
        (f"{'_learned_in_rank_order':<24} n={n}",
         lambda: harness._learned_in_rank_order(learned, truth.ranks)),
        (f"adversarial_worst_case({n}, block)",
         lambda: harness.adversarial_worst_case(n, "block")),
    ]
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=7, help="timed rounds per row (default 7)")
    parser.add_argument("--round-ms", type=float, default=20.0,
                        help="length of one round in ms (default 20)")
    parser.add_argument("--src", type=Path, default=SRC,
                        help="the src directory whose ruleorder is timed (default: this checkout's)")
    args = parser.parse_args(argv)
    if args.rounds < 1 or args.round_ms <= 0:
        parser.error("--rounds must be at least 1 and --round-ms positive")

    sys.path.insert(0, str(args.src.resolve()))
    import ruleorder
    from ruleorder import harness, ordering  # noqa: F401  bound as ruleorder's attributes

    print(f"ruleorder from {Path(ruleorder.__file__).resolve().parent}")
    print(f"us per call: best (median) of {args.rounds} rounds of about {args.round_ms:g} ms")
    for label, call in rows(ruleorder):
        if call is None:
            print(f"  {label:<38} {'absent':>10}")
            continue
        best, median = per_call_us(call, args.rounds, args.round_ms / 1e3)
        print(f"  {label:<38} {best:10.3f} ({median:.3f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
