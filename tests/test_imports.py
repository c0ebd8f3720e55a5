"""What importing the package and running a command loads.

Each check runs in a fresh interpreter started with ``-S``, so neither the
modules this test process has imported nor those a site hook preloads can
hide a regression.
"""

import ast
import copy
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import ruleorder

SRC = str(Path(ruleorder.__file__).resolve().parent.parent)


def run_fresh(code, result):
    """Run ``code`` in a new interpreter that imports from ``SRC``; return the
    value of the expression ``result`` evaluated at its end."""
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        f"sys.path.insert(0, {SRC!r})\n"
        f"{code}\n"
        f"print(repr({result}))\n"
    )
    completed = subprocess.run(
        [sys.executable, "-S", "-c", script], capture_output=True, text=True, check=True
    )
    return ast.literal_eval(completed.stdout.splitlines()[-1])


LOADED = "sorted(set(sys.modules) - before)"


def test_bare_import_loads_no_submodule():
    loaded = set(run_fresh("import ruleorder", LOADED))
    assert "ruleorder" in loaded
    assert not loaded & {f"ruleorder.{module}" for module in ruleorder._EXPORTS}


# What each command group loads: predict and table never the learner
# (ordering) or the harness; learn neither complexity nor the worst-case
# reports, and so no dataclasses; worst-case no complexity.
LEARNER = {"ruleorder.ordering", "ruleorder.harness", "ruleorder.worstcase"}
DATACLASSES = {"dataclasses", "inspect", "typing"}


@pytest.mark.parametrize(
    "argv,needed,unneeded",
    [
        (
            ["predict", "--n", "27"],
            {"ruleorder.common", "ruleorder.complexity", "decimal"},
            {*LEARNER, *DATACLASSES, "statistics", "json", "csv", "random", "pathlib"},
        ),
        (
            ["predict", "--n", "27", "--format", "json"],
            {"ruleorder.complexity", "decimal", "json"},
            {*LEARNER, *DATACLASSES},
        ),
        (
            ["table", "--format", "csv"],
            {"ruleorder.complexity", "csv"},
            {*LEARNER, *DATACLASSES, "random"},
        ),
        (
            ["table"],
            {"ruleorder.complexity", "decimal"},
            {*LEARNER, *DATACLASSES, "random"},
        ),
        (
            ["learn", "--adversarial", "--n", "27", "--strategy", "binary"],
            {"ruleorder.harness", "ruleorder.ordering"},
            {"ruleorder.complexity", "ruleorder.worstcase", *DATACLASSES,
             "decimal", "statistics", "json", "csv", "pathlib", "random"},
        ),
        (
            ["learn", "--seed", "1", "--n", "27", "--strategy", "block"],
            {"ruleorder.harness", "random"},
            {"ruleorder.complexity", "ruleorder.worstcase", *DATACLASSES, "decimal"},
        ),
        (
            ["learn", "--permutation", "2,0,1", "--n", "3", "--strategy", "block"],
            {"ruleorder.harness"},
            {"ruleorder.complexity", "ruleorder.worstcase", *DATACLASSES, "random"},
        ),
        (
            # WorstCaseReport is a frozen dataclass, so worst-case still loads
            # dataclasses; this pin goes when the report stops being one.
            ["worst-case", "--mode", "adversarial", "--n", "27", "--strategy", "block"],
            {"ruleorder.harness", "ruleorder.worstcase", "dataclasses"},
            {"ruleorder.complexity", "decimal", "json", "random"},
        ),
        (
            ["worst-case", "--mode", "exhaustive", "--n", "5", "--strategy", "binary"],
            {"ruleorder.worstcase", "dataclasses"},
            {"ruleorder.complexity", "decimal", "random"},
        ),
    ],
)
def test_command_loads_only_what_it_runs(argv, needed, unneeded):
    code, loaded = run_fresh(
        f"from ruleorder import cli\ncode = cli.main({argv!r})", f"(code, {LOADED})"
    )
    assert code == 0
    assert needed <= set(loaded)
    assert not unneeded & set(loaded)


def test_a_failed_command_loads_only_what_it_ran():
    # predict at an n too large to sum log2(n!) over stops at the check,
    # before any learner module loads.
    code, loaded = run_fresh(
        "from ruleorder import cli\ncode = cli.main(['predict', '--n', str(10**20)])",
        f"(code, {LOADED})",
    )
    assert code == 1
    assert not LEARNER & set(loaded)


def test_harness_loads_neither_worstcase_nor_complexity():
    loaded = set(run_fresh("from ruleorder import harness", LOADED))
    assert not loaded & {"ruleorder.worstcase", "ruleorder.complexity", *DATACLASSES}
    loaded = set(run_fresh("from ruleorder import harness\nharness.comparison_table()", LOADED))
    assert "ruleorder.complexity" in loaded
    assert not loaded & {"ruleorder.worstcase", *DATACLASSES}


def test_ordering_loads_neither_dataclasses_nor_typing():
    loaded = set(run_fresh("import ruleorder.ordering", LOADED))
    assert "ruleorder.ordering" in loaded
    assert not loaded & {"dataclasses", "inspect", "typing"}


def test_every_public_name_resolves():
    unresolved = run_fresh(
        "import ruleorder\n"
        "unresolved = [name for name in ruleorder.__all__\n"
        "              if name not in dir(ruleorder) or not hasattr(ruleorder, name)]",
        "unresolved",
    )
    assert unresolved == []


def test_star_import_binds_every_public_name():
    unbound = run_fresh(
        "from ruleorder import *\n"
        "import ruleorder\n"
        "unbound = [name for name in ruleorder.__all__\n"
        "           if globals().get(name) is not getattr(ruleorder, name)]",
        "unbound",
    )
    assert unbound == []


def test_submodules_are_attributes():
    from ruleorder import cli, common, complexity, harness, ordering, worstcase

    assert ruleorder.common is common
    assert ruleorder.complexity is complexity
    assert ruleorder.harness is harness
    assert ruleorder.ordering is ordering
    assert ruleorder.worstcase is worstcase
    # cli imports complexity only where it prints from it.
    assert "complexity" not in vars(cli)


def test_each_name_has_one_home():
    from ruleorder import common, complexity, harness, ordering, worstcase

    for name in ruleorder._EXPORTS["common"]:
        assert getattr(common, name) is getattr(ruleorder, name)
    assert common.MODES == (common.MODE_EXHAUSTIVE, common.MODE_ADVERSARIAL)
    assert ruleorder.WorstCaseReport is worstcase.WorstCaseReport
    assert ruleorder.comparison_table is complexity.comparison_table
    removed = {
        harness: ("WorstCaseReport", "EXHAUSTIVE_CAP_FIXED", "TABLE_SIZES"),
        worstcase: ("MODE_EXHAUSTIVE", "MODE_ADVERSARIAL"),
        ordering: ("IncorrectOrderError", "InvalidPermutationError", "OrderingError",
                   "SizeLimitError"),
    }
    for module, names in removed.items():
        for name in names:
            with pytest.raises(AttributeError, match=name):
                getattr(module, name)
    assert not {"__getattr__", "__dir__"} & vars(harness).keys()
    # The two aliases left, which the benchmark in perfbench/ reads.
    assert ordering.CostModel is common.CostModel
    assert harness.comparison_table() == complexity.comparison_table()
    # The tracer of the benchmark wraps the drivers by reading harness's
    # __dict__, so they are defined there.
    for name in ("exhaustive_worst_case", "adversarial_worst_case"):
        assert vars(harness)[name] is getattr(ruleorder, name)
        assert vars(harness)[name].__module__ == "ruleorder.harness"
    with pytest.raises(AttributeError, match="no_such_name"):
        harness.no_such_name


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _perfbench_reads():
    """(module, name) for every name perfbench/*.py reads from ruleorder: each
    ``from ruleorder... import X``, and each ``M.X`` where the same file binds
    ``M`` by ``from ruleorder import M`` and by nothing else, so a local
    ``cli = CliPredict()`` in a file that imports no ``cli`` is not read as
    ``ruleorder.cli``."""
    reads = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        nodes = list(ast.walk(ast.parse(path.read_text(), str(path))))
        imported = {}
        for node in nodes:
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "ruleorder":
                for alias in node.names:
                    reads.add((node.module, alias.name))
                    if node.module == "ruleorder":
                        imported[alias.asname or alias.name] = alias.name
        stored = {n.id for n in nodes if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
        for node in nodes:
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in imported.keys() - stored
            ):
                reads.add((f"ruleorder.{imported[node.value.id]}", node.attr))
    return reads


def test_the_frozen_benchmark_finds_every_name_it_reads():
    reads = _perfbench_reads()
    assert {("ruleorder.ordering", "CostModel"), ("ruleorder.harness", "comparison_table")} <= reads
    missing = run_fresh(
        f"reads = {sorted(reads)!r}\n"
        "missing = []\n"
        "for module, name in reads:\n"
        "    try:\n"
        "        exec(f'from {module} import {name}', {})\n"
        "    except ImportError:\n"
        "        missing.append((module, name))",
        "missing",
    )
    assert missing == []
    # The tracer wraps each target it reads out of its owner's __dict__.
    untraceable = run_fresh(
        f"sys.path.insert(0, {str(PERFBENCH)!r})\n"
        "import tracing\n"
        "from ruleorder import ordering\n"
        "targets = [(o, a) for o, a, _ in tracing._targets()]\n"
        "targets.append((ordering.CountingOracle, 'precedes'))\n"
        "untraceable = [(o.__name__, a) for o, a in targets if a not in vars(o)]",
        "untraceable",
    )
    assert untraceable == []
    # The benchmark's self-test changes a report with dataclasses.replace.
    import dataclasses

    report = ruleorder.adversarial_worst_case(5, "block")
    assert dataclasses.is_dataclass(report) and not isinstance(report, type)


@pytest.mark.parametrize("copier", [copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))])
def test_errors_and_reports_survive_copy_and_pickle(copier):
    from ruleorder import common, harness

    error = common.InvalidRuleError("rules and ranks are ints in [0, 3), not 7")
    copied = copier(error)
    assert type(copied) is common.InvalidRuleError and copied.args == error.args
    assert isinstance(copied, (common.InvalidQueryError, common.InvalidPermutationError))
    for report in (
        harness.exhaustive_worst_case(4, "binary", common.CostModel.COMPARISONS_PLUS_PLACEMENT),
        harness.adversarial_worst_case(5, "block"),
        harness.run_trial(3, "block", ruleorder.GroundTruthOrder((2, 0, 1))),
        ruleorder.report(27),
    ):
        copied = copier(report)
        assert type(copied) is type(report) and copied == report
    assert copier(common.CostModel.COMPARISONS_ONLY) is common.CostModel.COMPARISONS_ONLY


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        ruleorder.no_such_name
    assert not hasattr(ruleorder, "block_steps_sum")
    assert not hasattr(ruleorder, "TableRow")
    for name in ("block_insert", "binary_insert", "UnsortedSequenceError"):
        assert not hasattr(ruleorder, name)
