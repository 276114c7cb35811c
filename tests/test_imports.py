"""Every import of the library is at module level, public and used.

An import inside a function hides a dependency from the module's header and
can hide an import cycle; an import of a ``_``-prefixed name from another
explora module reaches into that module's private helpers.  Each such import
fails the test with its file and line, as does a name that a module other
than `__init__.py` (which imports names to export them) imports and never
reads.
"""

import ast
from pathlib import Path

import explora


def nested_imports(tree):
    """Line of every import inside a function or class body."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found += [inner.lineno for inner in ast.walk(node)
                      if isinstance(inner, (ast.Import, ast.ImportFrom))]
    return sorted(set(found))


def private_imports(tree):
    """(line, name) of every ``_``-prefixed name imported from an explora
    module, relatively or by its absolute name."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level > 0 or (node.module or "").split(".")[0] == "explora"):
            found += [(node.lineno, alias.name) for alias in node.names
                      if alias.name.startswith("_")]
    return found


def _modules():
    src = Path(explora.__file__).parent
    return [(path.name, ast.parse(path.read_text())) for path in sorted(src.glob("*.py"))]


def test_every_import_is_at_module_level():
    stray = [f"{name}:{line}" for name, tree in _modules() for line in nested_imports(tree)]
    assert not stray, "imports inside a function or class: " + ", ".join(stray)


def test_no_private_name_is_imported_from_another_module():
    stray = [f"{name}:{line} {imported}" for name, tree in _modules()
             for line, imported in private_imports(tree)]
    assert not stray, "private names imported: " + ", ".join(stray)


def unused_imports(tree):
    """(line, name) of every name an import binds that the module never
    reads; ``from __future__`` imports bind no name."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


def test_every_imported_name_is_used():
    # `__init__.py` imports names to export them
    stray = [f"{name}:{line} {imported}" for name, tree in _modules()
             if name != "__init__.py" for line, imported in unused_imports(tree)]
    assert not stray, "imported names never used: " + ", ".join(stray)
