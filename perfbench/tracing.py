"""In-memory span tracer that wraps ruleorder's public functions from outside.

Each wrapped call opens a span with a name, start, end, parent span and
operation id.  A span's self time is its duration minus the time covered by
its children.  ``CountingOracle.precedes`` runs once per oracle query (4.5 M
times in one adversarial call at n = 3000), so it opens no span: each query
adds one to a count and its duration to a summed time on the enclosing span,
normally ``learn_order``.

Wrappers are installed where the callers look the functions up (module
attributes such as ``harness.learn_order``, class attributes for the two
dataclasses and their methods) and removed again on exit, so ``src/`` is
never edited and an untraced run executes the original code.
"""

from __future__ import annotations

import json
from array import array
from collections import defaultdict
from time import perf_counter_ns

# Frame slots.  A frame is a list so the wrappers can update it in place.
_NAME, _ID, _CHILD_NS, _Q_CALLS, _Q_NS = range(5)

PRECEDES = "ordering.precedes"
LEARN = "ordering.learn_order"


def _targets():
    """(owner, attribute, span name) for every wrapped entry point."""
    from ruleorder import cli, complexity, harness, ordering

    return [
        (harness, "learn_order", "ordering.learn_order"),
        (ordering.GroundTruthOrder, "__init__", "ordering.GroundTruthOrder"),
        (ordering.GroundTruthOrder, "true_sequence", "ordering.true_sequence"),
        (ordering.CountingOracle, "__init__", "ordering.CountingOracle"),
        (harness, "run_trial", "harness.run_trial"),
        (harness, "exhaustive_worst_case", "harness.exhaustive_worst_case"),
        (harness, "random_trials", "harness.random_trials"),
        (harness, "adversarial_worst_case", "harness.adversarial_worst_case"),
        (complexity, "report", "complexity.report"),
        (complexity, "binary_steps", "complexity.binary_steps"),
        (complexity, "log_factorial", "complexity.log_factorial"),
        (complexity, "naive_steps", "complexity.naive_steps"),
        (complexity, "scientific", "complexity.scientific"),
        (cli, "main", "cli.main"),
    ]


SPAN_NAMES = tuple(name for _, _, name in _targets())


class Tracer:
    """Records spans while installed; aggregates self time per span name.

    Aggregates are kept per pass (``begin_pass`` starts a new one).  Spans are
    stored in flat integer columns for the first traced pass only, which
    bounds memory on workloads that open ~3e5 spans per pass.
    """

    def __init__(self) -> None:
        self.names: list[str] = [PRECEDES, *SPAN_NAMES]
        self._index = {name: i for i, name in enumerate(self.names)}
        self._stack: list[list[int]] = []
        self._saved: list[tuple[object, str, object]] = []
        self._next_id = 1
        self.op = 0
        self.passes: list[dict] = []
        self._recording = True
        self.columns = {
            key: array("q")
            for key in ("id", "parent", "op", "name", "start", "end", "q_calls", "q_ns")
        }

    # ------------------------------------------------------------------
    # passes and operations
    # ------------------------------------------------------------------

    def begin_pass(self) -> None:
        """Start aggregating a new pass; stop storing spans after the first."""
        if self.passes:
            self._recording = False
        self.passes.append(
            {
                "calls": defaultdict(int),
                "self_ns": defaultdict(int),
                "op_queries": defaultdict(int),
                "rules": 0,
                "first_op": self.op + 1,
            }
        )
        self._stack[:] = [[-1, 0, 0, 0, 0]]

    def begin_op(self) -> int:
        """Give the next top-level operation its own id."""
        self.op += 1
        return self.op

    # ------------------------------------------------------------------
    # install / remove
    # ------------------------------------------------------------------

    def __enter__(self) -> "Tracer":
        from ruleorder import ordering

        for owner, attr, name in _targets():
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, self._index[name], name == LEARN))
        oracle = ordering.CountingOracle
        original = oracle.__dict__["precedes"]
        self._saved.append((oracle, "precedes", original))
        oracle.precedes = self._wrap_precedes(original)
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, name_index: int, counts_rules: bool = False):
        stack = self._stack
        close = self._close

        def traced(*args, **kwargs):
            if counts_rules:
                # learn_order(universe, ...): rules inserted by this run.
                self.passes[-1]["rules"] += len(args[0])
            frame = [name_index, self._next_id, 0, 0, 0]
            self._next_id += 1
            stack.append(frame)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                close(frame, start, end)

        traced.__wrapped__ = fn
        return traced

    def _wrap_precedes(self, fn):
        # Runs once per query: everything it needs is bound as a local.
        def precedes(oracle, a, b, fn=fn, stack=self._stack, clock=perf_counter_ns):
            start = clock()
            answer = fn(oracle, a, b)
            elapsed = clock() - start
            frame = stack[-1]
            frame[_Q_CALLS] += 1
            frame[_Q_NS] += elapsed
            return answer

        precedes.__wrapped__ = fn
        return precedes

    def _close(self, frame: list[int], start: int, end: int) -> None:
        duration = end - start
        parent = self._stack[-1]
        parent[_CHILD_NS] += duration
        agg = self.passes[-1]
        name = frame[_NAME]
        agg["calls"][name] += 1
        agg["self_ns"][name] += duration - frame[_CHILD_NS] - frame[_Q_NS]
        if frame[_Q_CALLS]:
            agg["calls"][0] += frame[_Q_CALLS]
            agg["self_ns"][0] += frame[_Q_NS]
            agg["op_queries"][self.op] += frame[_Q_CALLS]
        if self._recording:
            cols = self.columns
            cols["id"].append(frame[_ID])
            cols["parent"].append(parent[_ID])
            cols["op"].append(self.op)
            cols["name"].append(name)
            cols["start"].append(start)
            cols["end"].append(end)
            cols["q_calls"].append(frame[_Q_CALLS])
            cols["q_ns"].append(frame[_Q_NS])

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------

    def pass_totals(self, index: int) -> tuple[dict[str, int], dict[str, int]]:
        """(calls, self_ns) by span name for one traced pass; 0 if never called."""
        agg = self.passes[index]
        calls = {name: agg["calls"].get(i, 0) for i, name in enumerate(self.names)}
        self_ns = {name: agg["self_ns"].get(i, 0) for i, name in enumerate(self.names)}
        return calls, self_ns

    def write_spans(self, path) -> int:
        """Write the stored spans as JSON lines; return how many were written."""
        cols = self.columns
        keys = list(cols)
        with open(path, "w", encoding="utf-8") as out:
            out.write(json.dumps({"names": self.names, "columns": keys}) + "\n")
            for row in zip(*(cols[k] for k in keys)):
                out.write(json.dumps(row) + "\n")
        return len(cols["id"])
