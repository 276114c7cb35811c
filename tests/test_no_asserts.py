"""No self-check of the library may be an `assert`, which `python -O` strips.

The only asserts left are size bounds of constructions whose result the
tests check independently; they are listed by file and enclosing function,
so that a new self-check written as an assert fails here.
"""

import ast
from pathlib import Path

import explora

ALLOWED = {
    ("constructions.py", "to_13"),
    ("constructions.py", "union_condition_automaton_02"),
    ("generators.py", "atm_reduce"),
    ("omega.py", "parity_to_buchi_omega"),
}


def asserts_by_function(tree):
    """(enclosing function name or None, line) of every assert statement."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Assert):
                found.append((function, child.lineno))
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if inner else function)

    visit(tree, None)
    return found


def test_no_asserts_outside_the_allow_list():
    src = Path(explora.__file__).parent
    stray = []
    for path in sorted(src.glob("*.py")):
        for function, line in asserts_by_function(ast.parse(path.read_text())):
            if (path.name, function) not in ALLOWED:
                stray.append(f"{path.name}:{line} in {function}")
    assert not stray, "asserts outside the allow-list: " + ", ".join(stray)


def test_allow_list_has_no_stale_entries():
    src = Path(explora.__file__).parent
    present = {(path.name, function)
               for path in src.glob("*.py")
               for function, _ in asserts_by_function(ast.parse(path.read_text()))}
    assert ALLOWED <= present, ALLOWED - present
