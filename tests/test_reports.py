"""Bound checks: verdicts derived from their relation, and who builds them."""

import ast
from fractions import Fraction
from pathlib import Path

import pytest

import misrecon
from misrecon.reports import BoundCheck


@pytest.mark.parametrize(
    "measured, relation, bound, passed",
    [
        (1, "<=", 2, True),
        (2, "<=", 2, True),
        (3, "<=", 2, False),
        (0.5, "<=", Fraction(1, 2), True),
        (1, ">=", 2, False),
        (2, ">=", 2, True),
        (3, ">=", 2, True),
        (4, "==", 4, True),
        (4, "==", 5, False),
        (True, "=>", True, True),
        (True, "=>", False, False),
        (False, "=>", True, True),
        (False, "=>", False, True),
    ],
)
def test_of_decides_each_relation(measured, relation, bound, passed):
    check = BoundCheck.of("c", measured, relation, bound)
    assert check == BoundCheck("c", measured, relation, bound, passed)
    assert type(check.passed) is bool


def test_of_refuses_an_unknown_relation():
    with pytest.raises(KeyError):
        BoundCheck.of("c", 1, "<", 2)


def test_only_the_family_count_chain_builds_a_check_directly():
    # every other check states its relation once, as text, and BoundCheck.of
    # decides it; the chain decides on values it does not display
    direct = []

    class Visitor(ast.NodeVisitor):
        def __init__(self, path):
            self.path, self.scope = path, ["<module>"]

        def visit_FunctionDef(self, node):
            self.scope.append(node.name)
            self.generic_visit(node)
            self.scope.pop()

        def visit_Call(self, node):
            if getattr(node.func, "id", None) == "BoundCheck":
                direct.append((self.path.name, self.scope[-1]))
            self.generic_visit(node)

    for path in sorted(Path(misrecon.__file__).parent.glob("*.py")):
        Visitor(path).visit(ast.parse(path.read_text()))
    assert direct == [("lowerbounds.py", "_chain_checks")]


def test_chain_verdict_can_differ_from_its_display():
    # both display floats underflow to 0.0, yet the exact chain is strict
    from misrecon.lowerbounds import _chain_checks

    (check,) = _chain_checks([("a", 0.0, Fraction(1, 10**400)), ("b", 0.0, Fraction(2, 10**400))])
    assert (check.measured, check.bound, check.passed) == (0.0, 0.0, False)
    assert BoundCheck.of(check.name, 0.0, ">=", 0.0).passed
