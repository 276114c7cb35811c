"""No self-check of the library may be an `assert`, which `python -O` strips.

The library holds no assert.  An exception would be listed here by file and
enclosing function, so that a new self-check written as an assert fails.
"""

import ast
from pathlib import Path

import explora

ALLOWED: set[tuple[str, str]] = set()


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
