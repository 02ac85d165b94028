"""The Monte Carlo driver alone decides how many chunks a run holds at once: a
stdlib ``ast`` check that ``config.py`` names neither the chunk size nor the
core count, and that one module assigns the work budget.  No reader of a
config value charges the budget: ``config.py`` calls ``_within_budget`` only
in a spec's ``__post_init__``, which charges its run before it builds it, and
in ``read_bounded``, which charges an input file before it reads it."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "spindd"


def _names(tree):
    """Every name, attribute and imported name in ``tree``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def _assigners(trees, name):
    """The modules of ``trees`` (module -> tree) that assign ``name``."""
    modules = set()
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                targets = [node.target]
            else:
                continue
            if any(isinstance(t, ast.Name) and t.id == name for t in targets):
                modules.add(module)
    return sorted(modules)


def _check(trees):
    """What breaks the rule: the chunk and core names ``config`` uses, and
    the modules that assign WORK_BUDGET when they are not exactly one."""
    config = sorted({"CHUNK", "cpu_count"} & _names(trees["config"]))
    budget = _assigners(trees, "WORK_BUDGET")
    return config, None if len(budget) == 1 else budget


def test_config_leaves_the_chunks_and_threads_to_the_driver():
    trees = {p.stem: ast.parse(p.read_text()) for p in SRC.glob("*.py")}
    assert _check(trees) == ([], None)
    assert _assigners(trees, "WORK_BUDGET") == ["evolve"]


def test_the_check_sees_chunks_in_config_and_a_second_budget():
    config = """
import os
from .field import CHUNK
WORK_BUDGET = 2**30
def _run_terms(shots, times):
    return 2 * times.size * -(-shots // CHUNK) * min(os.cpu_count(), 4)
"""
    evolve = "WORK_BUDGET: int = 2**30"
    trees = {"config": ast.parse(config), "evolve": ast.parse(evolve)}
    assert _check(trees) == (["CHUNK", "cpu_count"], ["config", "evolve"])
    trees["config"] = ast.parse("from . import evolve\nLIMIT = evolve.WORK_BUDGET + 1")
    assert _check(trees) == ([], None)


def _charges(tree):
    """Line numbers of the ``_within_budget`` calls in ``tree`` outside a
    class's ``__post_init__`` and a module function ``read_bounded``."""
    homes = [f for c in ast.walk(tree) if isinstance(c, ast.ClassDef) for f in c.body
             if isinstance(f, ast.FunctionDef) and f.name == "__post_init__"]
    homes += [f for f in tree.body if isinstance(f, ast.FunctionDef) and f.name == "read_bounded"]
    inside = {id(node) for home in homes for node in ast.walk(home)}
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and id(node) not in inside
                  and "_within_budget" in _names(node.func))


def test_no_reader_charges_the_budget():
    assert _charges(ast.parse((SRC / "config.py").read_text())) == []


def test_the_check_sees_a_reader_that_charges():
    config = """
def parse_times(spec, where="times"):
    t = _read(_TIMES_KEYS, spec, where)
    _within_budget({f"{where}.count": 2.125 * t["count"]})
    return np.linspace(t["start"], t["stop"], t["count"])
class DecaySpec(_GridSpec):
    def __post_init__(self):
        _within_budget(self._terms())
    def _terms(self):
        return config._within_budget({})
def read_bounded(path, key, words_per_byte):
    _within_budget({key: words_per_byte * os.path.getsize(path)})
"""
    assert _charges(ast.parse(config)) == [4, 10]
