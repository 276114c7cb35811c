"""No function of the library may recurse as deep as its input.

A function that calls its own name, or a method of its own name, is listed
here with the reason its depth is bounded; any other fails the test, so that
a new recursion is either rewritten on an explicit stack or argued for.
Calls through ``super()`` reach another class's method and are not counted.
"""

import ast
from pathlib import Path

import explora

ALLOWED: dict[tuple[str, str], str] = {
    ("games.py", "Not.holds"): "follows the objective's nesting, which "
                               "parsing caps at OBJECTIVE_DEPTH",
    ("games.py", "And.holds"): "follows the objective's nesting",
    ("games.py", "Or.holds"): "follows the objective's nesting",
    ("games.py", "max_channel"): "follows the objective's nesting",
    ("games.py", "_EdgeRankGame.zielonka"): "yields its subgames to _trampoline, "
                                            "which keeps their frames on a list",
    ("textio.py", "format_objective"): "follows the objective's nesting",
    ("textio.py", "parse_objective.expr"): "stops at OBJECTIVE_DEPTH operators",
}


def _calls_itself(function) -> bool:
    """True iff the body calls the function's own name, bare or as an
    attribute, other than through ``super()``."""
    for node in ast.walk(function):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        if isinstance(f, ast.Name) and f.id == function.name:
            return True
        if (isinstance(f, ast.Attribute) and f.attr == function.name
                and not (isinstance(f.value, ast.Call)
                         and isinstance(f.value.func, ast.Name)
                         and f.value.func.id == "super")):
            return True
    return False


def recursive_functions(tree):
    """Dotted names (enclosing classes and functions first) of every
    function that calls itself."""
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = prefix + child.name
                if not isinstance(child, ast.ClassDef) and _calls_itself(child):
                    found.append(name)
                visit(child, name + ".")
            else:
                visit(child, prefix)

    visit(tree, "")
    return found


def _found():
    src = Path(explora.__file__).parent
    return {(path.name, name)
            for path in sorted(src.glob("*.py"))
            for name in recursive_functions(ast.parse(path.read_text()))}


def test_no_recursion_outside_the_allow_list():
    stray = sorted(_found() - ALLOWED.keys())
    assert not stray, "recursive functions outside the allow-list: " + ", ".join(
        f"{file} {name}" for file, name in stray)


def test_allow_list_has_no_stale_entries():
    assert ALLOWED.keys() <= _found(), ALLOWED.keys() - _found()
