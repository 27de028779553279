"""``src/`` holds only what the library, the CLI and the demos call.

A module-level function or class of ``src/probuchi`` counts as used when a
name or attribute reference to it appears in ``src/`` or ``demos/``
outside its own definition, or when its module lists it in ``__all__``.
Code that only the tests reach belongs in ``tests/`` as a ``ref_*`` oracle.
"""

import ast
import importlib
import pathlib

import probuchi

SRC = pathlib.Path(probuchi.__file__).parent
DEMOS = SRC.parent.parent / "demos"
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def references(tree: ast.Module) -> set[str]:
    """Every name and attribute read in ``tree``, except a top-level
    definition's references to itself."""
    out = set()
    for stmt in tree.body:
        names = {node.id if isinstance(node, ast.Name) else node.attr
                 for node in ast.walk(stmt) if isinstance(node, (ast.Name, ast.Attribute))}
        if isinstance(stmt, DEFINITIONS):
            names.discard(stmt.name)
        out |= names
    return out


def test_every_definition_in_src_is_used_outside_the_tests():
    assert sorted(DEMOS.glob("*.py")), DEMOS
    used, defined = set(), []
    for path in sorted([*SRC.glob("*.py"), *DEMOS.glob("*.py")]):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used |= references(tree)
        if path.parent == SRC:
            name = "probuchi" if path.stem == "__init__" else f"probuchi.{path.stem}"
            used.update(getattr(importlib.import_module(name), "__all__", ()))
            for stmt in tree.body:
                if isinstance(stmt, DEFINITIONS) and not stmt.name.startswith("__"):
                    defined.append((stmt.name, f"{path.name}:{stmt.lineno}"))
    unused = [(name, where) for name, where in defined if name not in used]
    assert not unused, f"defined in src/ but used only by the tests, or not at all: {unused}"
