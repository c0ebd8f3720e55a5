"""What importing the package and running a command loads.

Each check runs in a fresh interpreter started with ``-S``, so neither the
modules this test process has imported nor those a site hook preloads can
hide a regression.
"""

import ast
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
    assert not loaded & {"ruleorder.complexity", "ruleorder.harness", "ruleorder.ordering"}


@pytest.mark.parametrize(
    "argv,needed,unneeded",
    [
        (
            ["predict", "--n", "27"],
            {"ruleorder.complexity", "decimal"},
            {"ruleorder.harness", "statistics", "json", "csv", "random", "pathlib",
             "dataclasses", "inspect", "typing"},
        ),
        (
            ["learn", "--adversarial", "--n", "27", "--strategy", "binary"],
            {"ruleorder.harness"},
            {"decimal", "statistics", "json", "csv", "pathlib"},
        ),
        (
            ["predict", "--n", "27", "--format", "json"],
            {"ruleorder.complexity", "decimal", "json"},
            {"ruleorder.harness", "dataclasses", "inspect", "typing"},
        ),
        (
            ["table", "--format", "csv"],
            {"ruleorder.complexity", "csv"},
            {"ruleorder.harness", "dataclasses", "inspect", "typing", "random"},
        ),
        (
            ["table"],
            {"ruleorder.complexity", "decimal"},
            {"ruleorder.harness", "dataclasses", "inspect", "typing", "random"},
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
    from ruleorder import cli, complexity, harness, ordering

    assert ruleorder.complexity is complexity
    assert ruleorder.harness is harness
    assert ruleorder.ordering is ordering
    assert cli.complexity is complexity


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        ruleorder.no_such_name
    assert not hasattr(ruleorder, "block_steps_sum")
    assert not hasattr(ruleorder, "TableRow")
