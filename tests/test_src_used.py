"""``src/`` holds only what the library, the CLI and the demos call.

A module-level function or class of ``src/probuchi`` counts as used when a
name or attribute reference to it appears in ``src/`` or ``demos/``
outside its own definition, or when its module lists it in ``__all__``.
A method or property of a class in ``src/probuchi`` (any ``def`` in a class
body but a dunder) counts as used when an attribute read of its name
appears in ``src/`` or ``demos/``: an assignment such as ``self.x = ...``
does not use a member ``x``.  Dataclass fields are not checked.
Code that only the tests reach belongs in ``tests/`` as a ``ref_*`` oracle.
"""

import ast
import importlib
import pathlib

import probuchi

SRC = pathlib.Path(probuchi.__file__).parent
DEMOS = SRC.parent.parent / "demos"
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
DEFINITIONS = (*FUNCTIONS, ast.ClassDef)
# Members that code outside src/ and demos/ calls: argparse calls error().
CALLED_FROM_OUTSIDE = {"_Parser.error"}


def sources() -> list[pathlib.Path]:
    paths = sorted([*SRC.glob("*.py"), *DEMOS.glob("*.py")])
    assert any(path.parent == DEMOS for path in paths), DEMOS
    return paths


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
    used, defined = set(), []
    for path in sources():
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


def test_every_class_member_in_src_is_used_outside_the_tests():
    attributes, members = set(), []
    for path in sources():
        tree = ast.parse(path.read_text(encoding="utf-8"))
        attributes |= {node.attr for node in ast.walk(tree)
                       if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
        if path.parent != SRC:
            continue
        for cls in (node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)):
            for stmt in cls.body:
                if isinstance(stmt, FUNCTIONS) and not stmt.name.startswith("__"):
                    members.append((f"{cls.name}.{stmt.name}", f"{path.name}:{stmt.lineno}"))
    unused = [(member, where) for member, where in members
              if member.rpartition(".")[2] not in attributes and member not in CALLED_FROM_OUTSIDE]
    assert not unused, f"class members in src/ used only by the tests, or not at all: {unused}"
