"""tools/memory.py's tracemalloc figures, on calls of known size."""

import importlib.util
from pathlib import Path

import ruleorder
from ruleorder import harness, ordering  # noqa: F401  bound as ruleorder's attributes

_PATH = Path(__file__).resolve().parent.parent / "tools" / "memory.py"
_SPEC = importlib.util.spec_from_file_location("memory", _PATH)
memory = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(memory)

SIZE = 10**6


def test_kept_is_the_result_and_peak_covers_it():
    peak, kept = memory.traced_bytes(lambda: bytearray(SIZE))
    assert SIZE <= kept <= peak < SIZE + 10**4


def test_a_temporary_counts_in_the_peak_only():
    peak, kept = memory.traced_bytes(lambda: len(bytearray(SIZE)))
    assert kept < 10**3
    assert SIZE <= peak < SIZE + 10**4


def test_inputs_built_by_the_setup_are_not_counted():
    # A run of the core on a presentation built before tracing keeps its
    # learned list of n pointers, not the presentation's.
    n = 10**4
    rows = dict(memory.rows(ruleorder, n))
    peak, kept = memory.traced_bytes(rows["_learn_ranks block"]())
    assert 8 * n <= kept < 9 * n
    for label, setup in rows.items():
        peak, kept = memory.traced_bytes(setup())
        assert 0 <= kept <= peak, label
