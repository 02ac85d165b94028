"""``cli.py`` opens one file for writing, in its artifact writer: a stdlib
``ast`` check that no second write path, such as a truncate-in-place
``open(path, "w")``, comes back beside it."""

import ast
import pathlib

CLI = pathlib.Path(__file__).resolve().parents[1] / "src" / "spindd" / "cli.py"

# calls that create or replace a file whatever their arguments
_FILE_WRITERS = {"write_text", "write_bytes", "savetxt", "save", "savez", "tofile",
                 "mkstemp", "NamedTemporaryFile", "copyfile"}


def _name(call):
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def _mode(call):
    """An ``open`` call's mode: a string, None for the default "r", or the
    node of a mode that is not a constant."""
    mode = call.args[1] if len(call.args) > 1 else next(
        (k.value for k in call.keywords if k.arg == "mode"), None)
    return mode.value if isinstance(mode, ast.Constant) else mode


def _opens_for_writing(call):
    name = _name(call)
    if name in _FILE_WRITERS:
        return True
    if name != "open":
        return False
    if isinstance(call.func, ast.Attribute) and getattr(call.func.value, "id", None) == "os":
        return True  # os.open: its flags may create or truncate
    mode = _mode(call)
    return mode is not None and (not isinstance(mode, str) or bool(set(mode) & set("wax+")))


def _write_opens(tree):
    """(enclosing function, mode) of each call that opens a file for writing."""
    owner = {}
    for fn in ast.walk(tree):  # breadth first: an inner function is seen last
        if isinstance(fn, ast.FunctionDef):
            owner.update((node, fn.name) for node in ast.walk(fn))
    return [(owner.get(node), _mode(node)) for node in ast.walk(tree)
            if isinstance(node, ast.Call) and _opens_for_writing(node)]


def test_cli_opens_one_file_for_writing_and_only_a_new_one():
    # "x" creates the file and fails on one that exists: the writer unlinks
    # what was there instead of truncating it in place
    assert _write_opens(ast.parse(CLI.read_text())) == [("_write_artifact", "xb")]


def test_the_check_sees_each_kind_of_write():
    src = """
def a(p):
    open(p, "w")
    open(p, mode="a")
    open(p, "r+b")
    open(p, m)
    os.open(p, os.O_RDONLY)
    pathlib.Path(p).write_text("")
    np.savetxt(p, x)
def b(p):
    open(p)
    open(p, "rb")
    open(p, newline="")
"""
    assert [fn for fn, _ in _write_opens(ast.parse(src))] == ["a"] * 7
