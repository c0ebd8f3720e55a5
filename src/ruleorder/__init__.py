"""Learning a hidden strict total order over rules with counted queries.

Submodules load on first use (PEP 562): ``import ruleorder`` costs almost
nothing, and ``ruleorder.binary_steps`` imports ``ruleorder.complexity``
the first time it is looked up.
"""

import importlib

__version__ = "0.1.0"

# Public names by the submodule that defines them.
_EXPORTS = {
    "common": (
        "STRATEGIES",
        "STRATEGY_BINARY",
        "STRATEGY_BLOCK",
        "CostModel",
        "DuplicateRuleError",
        "EmptyUniverseError",
        "IncorrectOrderError",
        "InvalidPermutationError",
        "InvalidQueryError",
        "InvalidRuleError",
        "InvariantError",
        "OrderingError",
        "SizeLimitError",
        "UnsortedSequenceError",
    ),
    "complexity": (
        "ComplexityReport",
        "binary_steps",
        "block_steps_exact",
        "ceil_log2",
        "comparison_table",
        "learning_duration",
        "log_factorial",
        "naive_steps",
        "report",
        "scientific",
        "speedup",
    ),
    "harness": (
        "TrialResult",
        "TrialSummary",
        "adversarial_ground_truth",
        "adversarial_worst_case",
        "exhaustive_worst_case",
        "random_trials",
        "run_trial",
    ),
    "ordering": (
        "CountingOracle",
        "GroundTruthOrder",
        "RuleId",
        "binary_insert",
        "block_insert",
        "learn_order",
    ),
    "worstcase": ("WorstCaseReport",),
}
_SUBMODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_SUBMODULE_OF)


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    try:
        module = _SUBMODULE_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS, *__all__})
