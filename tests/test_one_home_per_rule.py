"""Each rule on a run's inputs has one home: a stdlib ``ast`` check that
``evolve.py``, ``sense.py`` and ``config.py`` compare no ``np.diff`` of a grid
(the grid rule is ``sequence.checked_times``), that ``config.py`` holds no
``--threads`` text (the flag's rule is in ``cli``, which reads it), that
``cli.py`` compares no experiment kind (a subcommand's experiment is refused
by ``config.validate``, before a spec is built), and that no message in
``src/spindd`` states the work budget's value (it is ``evolve.WORK_BUDGET``,
which a refusal reads)."""

import ast
import pathlib
import re

from spindd.config import _EXPERIMENTS

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "spindd"


def _is_diff(node):
    """A call of ``diff`` or ``<module>.diff``."""
    return isinstance(node, ast.Call) and (
        isinstance(node.func, ast.Attribute) and node.func.attr == "diff"
        or isinstance(node.func, ast.Name) and node.func.id == "diff")


def _diff_compares(tree):
    """Line numbers of the comparisons in ``tree`` with a ``diff(...)`` operand."""
    return sorted(node.lineno for node in ast.walk(tree) if isinstance(node, ast.Compare)
                  and any(map(_is_diff, [node.left, *node.comparators])))


def _threads_text(tree):
    """Line numbers of the string constants in ``tree`` that hold ``--threads``."""
    return sorted(node.lineno for node in ast.walk(tree) if isinstance(node, ast.Constant)
                  and isinstance(node.value, str) and "--threads" in node.value)


def _check(trees):
    """What breaks the rule, as {module: line numbers}."""
    found = {m: _diff_compares(trees[m]) for m in ("evolve", "sense", "config")}
    found["config"] = sorted(found["config"] + _threads_text(trees["config"]))
    return {m: lines for m, lines in found.items() if lines}


def test_each_input_rule_has_one_home():
    trees = {m: ast.parse((SRC / f"{m}.py").read_text()) for m in ("evolve", "sense", "config")}
    assert _check(trees) == {}


def test_the_check_sees_a_grid_re_check_and_a_thread_rule_in_config():
    evolve = """
import numpy as np
def _grid(t):
    if not np.all(np.diff(t) > 0):
        raise ValueError("total_times must be strictly increasing")
    return np.diff(t, prepend=0.0) / 2
"""
    sense = "from numpy import diff\nok = all(diff(t) != 0)"
    config = """
def _workers(n):
    if n < 1:
        raise ConfigError(f"--threads must be at least 1, got {n}")
    return n
def parse_times(spec):
    grid = np.linspace(spec["start"], spec["stop"], spec["count"])
    if np.any(np.diff(grid) <= 0):
        raise ConfigError("times: start and stop too close")
"""
    trees = {"evolve": ast.parse(evolve), "sense": ast.parse(sense),
             "config": ast.parse(config)}
    assert _check(trees) == {"evolve": [4], "sense": [2], "config": [4, 8]}
    trees = {"evolve": ast.parse("steps = np.diff(grid)\nh = np.ceil(np.diff(t) / 2)"),
             "sense": ast.parse("ok = t.size >= 4"),
             "config": ast.parse("def curve(self, n_workers=1):\n    return n_workers")}
    assert _check(trees) == {}


# 2^30 float64 values, 8 GiB, as a message would state them
_BUDGET_VALUE = re.compile(r"2 ?(\^|\*\*) ?30\b|\b8 ?GiB|\b1073741824\b|\b1\.07e\+?0?9")


def _budget_text(tree):
    """Line numbers of the string constants in ``tree`` outside docstrings,
    f-strings' parts included, that state the budget's value."""
    docs = {id(node.body[0].value) for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            and node.body and isinstance(node.body[0], ast.Expr)}
    return sorted(node.lineno for node in ast.walk(tree) if isinstance(node, ast.Constant)
                  and isinstance(node.value, str) and id(node) not in docs
                  and _BUDGET_VALUE.search(node.value))


def test_no_message_states_the_budget_value():
    found = {path.name: _budget_text(ast.parse(path.read_text())) for path in SRC.glob("*.py")}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_the_check_sees_a_message_that_states_the_budget():
    stated = """
def _within_budget(total):
    \"\"\"Refuses past 2^30 values (8 GiB).\"\"\"
    if total > evolve.WORK_BUDGET:
        raise ConfigError(f"{total:.3g} values, above the budget of 2^30 (8 GiB)")
TOO_BIG = "above 1073741824 values"
"""
    assert _budget_text(ast.parse(stated)) == [5, 6]
    read = """
def _within_budget(total):
    \"\"\"Refuses past 2^30 values (8 GiB).\"\"\"
    if total > evolve.WORK_BUDGET:
        raise ConfigError(f"above the budget of 2^{math.log2(evolve.WORK_BUDGET):.3g}")
"""
    assert _budget_text(ast.parse(read)) == []


def _kind_compares(tree):
    """Line numbers of the comparisons in ``tree`` with an operand that names
    an experiment kind: a name or attribute ``kind`` or ``*experiment*``, or
    an experiment's name or ``"experiment"`` as a string, at any depth."""
    def names_a_kind(node):
        name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
        if isinstance(name, str):
            return name == "kind" or "experiment" in name
        return isinstance(node, ast.Constant) and node.value in {*_EXPERIMENTS, "experiment"}

    return sorted(node.lineno for node in ast.walk(tree) if isinstance(node, ast.Compare)
                  and any(names_a_kind(n) for operand in [node.left, *node.comparators]
                          for n in ast.walk(operand)))


def test_cli_compares_no_experiment_kind():
    assert _kind_compares(ast.parse((SRC / "cli.py").read_text())) == []


def test_the_check_sees_an_experiment_compared_in_cli():
    compared = """
def run(path, expected_experiment=None):
    report = cfgmod.validate(cfgmod.load_config(path))
    kind = report["experiment"]
    if expected_experiment and kind != expected_experiment:
        raise ConfigError(f"config is a {kind!r} experiment")
    if report["experiment"] == "fit":
        pass
    if args.command == "validate" or threads < 1:
        pass
"""
    assert _kind_compares(ast.parse(compared)) == [5, 7]
    refused = """
def run(path, expected_experiment=None):
    report = cfgmod.validate(cfgmod.load_config(path), [expected_experiment])
    if args.command == "validate" or threads < 1:
        pass
"""
    assert _kind_compares(ast.parse(refused)) == []
