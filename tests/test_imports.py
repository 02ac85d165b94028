"""Every name a package module imports is used, and every definition is
referenced: stdlib ``ast`` stand-ins for a linter's unused-import and
dead-code rules."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "spindd"


def _unused_imports(path):
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_no_unused_imports_in_package_modules():
    # __init__.py imports in order to re-export
    unused = {
        path.name: names
        for path in sorted(SRC.glob("*.py"))
        if path.name != "__init__.py" and (names := _unused_imports(path))
    }
    assert unused == {}


def _referenced(paths, strings=False):
    """Names used as a name or an attribute, and with ``strings`` the dotted
    parts of string constants."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.update(node.value.split("."))
    return names


def _definitions(path):
    """(name, qualified name) of each top-level function and class of a
    module, and of each method of its classes other than a dunder."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not (
                        item.name.startswith("__") and item.name.endswith("__")):
                    yield item.name, f"{node.name}.{item.name}"


def _unreferenced(private, referenced):
    dead = {}
    for path in sorted(SRC.glob("*.py")):
        orphans = sorted(qual for name, qual in _definitions(path)
                         if name.startswith("_") == private and name not in referenced)
        if orphans:
            dead[path.name] = orphans
    return dead


def test_no_unreferenced_private_definitions():
    assert _unreferenced(True, _referenced(SRC.glob("*.py"))) == {}


def test_no_unreferenced_public_definitions():
    # public API is kept while the package, its tests or the benchmark use
    # it; the benchmark's tracer names its targets by string
    users = [*SRC.glob("*.py"), *(ROOT / "tests").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    assert _unreferenced(False, _referenced(users, strings=True)) == {}
