"""``field.py`` samples the OU field by one forward recurrence: a stdlib
``ast`` check that no block map, nor a second method that builds the
sampler's coefficients, comes back beside it."""

import ast
import pathlib

FIELD = pathlib.Path(__file__).resolve().parents[1] / "src" / "spindd" / "field.py"


def _names(tree):
    """Every name, attribute and definition name in ``tree``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
    return names


def _coefficient_users(tree):
    """(enclosing class or "", enclosing function) of each call of
    ``_coefficients``, the innermost function for a nested one."""
    owner = {}
    for cls in ast.walk(tree):  # breadth first: an inner definition is seen last
        if isinstance(cls, ast.ClassDef):
            owner.update((node, (cls.name, None)) for node in ast.walk(cls))
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef):
            owner.update((node, (owner.get(fn, ("",))[0], fn.name)) for node in ast.walk(fn))
    return sorted(owner.get(node, ("", "")) for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "_coefficients")


def _check(tree):
    """What breaks the rule: block-map names, and the callers of
    ``_coefficients`` when they are not phase_weights and exactly one other
    OrnsteinUhlenbeck method."""
    users = _coefficient_users(tree)
    others = [u for u in users if u != ("OrnsteinUhlenbeck", "phase_weights")]
    ok = len(others) == 1 and others[0][0] == "OrnsteinUhlenbeck"
    return sorted({"_block_map", "OU_BLOCK"} & _names(tree)), None if ok else users


def test_field_has_one_ou_forward_sampler_and_no_block_map():
    assert _check(ast.parse(FIELD.read_text())) == ([], None)


def test_the_check_sees_a_second_sampler_and_a_block_map():
    src = """
OU_BLOCK = 64
class OrnsteinUhlenbeck:
    def _coefficients(self, a, b):
        pass
    def segment_stream(self, a, b):
        e = self._coefficients(a, b)
    def phase_weights(self, a, b):
        e = self._coefficients(a, b)
    def _block_map(self, a, b):
        return [self._coefficients(x, y) for x, y in zip(a, b)]
def sample(ou, a, b):
    return ou._coefficients(a, b)
"""
    names, users = _check(ast.parse(src))
    assert names == ["OU_BLOCK", "_block_map"]
    assert users == [("", "sample"), ("OrnsteinUhlenbeck", "_block_map"),
                     ("OrnsteinUhlenbeck", "phase_weights"),
                     ("OrnsteinUhlenbeck", "segment_stream")]
    one = src.split("    def _block_map")[0]
    assert _check(ast.parse(one)) == (["OU_BLOCK"], None)
