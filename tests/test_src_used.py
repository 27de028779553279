"""``src/`` holds only what the library, the CLI and the demos call.

A module-level function or class of ``src/probuchi`` counts as used when a
name or attribute reference to it appears in ``src/`` or ``demos/``
outside its own definition, or when its module lists it in ``__all__``.
A method or property of a class in ``src/probuchi`` (any ``def`` in a class
body but a dunder) counts as used when an attribute read of its name
appears in ``src/`` or ``demos/``: an assignment such as ``self.x = ...``
does not use a member ``x``, and a read of ``self.x`` inside a class body
uses only that class's member ``x``.  Dataclass fields are not checked.
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


def attribute_reads(tree: ast.Module) -> set[tuple[str | None, str]]:
    """(class, name) for every attribute read in ``tree``.  A read of
    ``self.<name>`` inside a class body is tied to that class; any other
    read is tied to None, and counts for every class."""
    out = set()

    def visit(node: ast.AST, owner: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Attribute) and isinstance(child.ctx, ast.Load):
                on_self = isinstance(child.value, ast.Name) and child.value.id == "self"
                out.add((owner if on_self else None, child.attr))
            visit(child, owner)

    visit(tree, None)
    return out


def unused_members(src: list[ast.Module], others: list[ast.Module]) -> list[str]:
    """``Class.member`` for every method or property of a class in ``src``
    that no attribute read in ``src`` or ``others`` uses."""
    reads, members = set(), []
    for tree in src + others:
        reads |= attribute_reads(tree)
    for tree in src:
        for cls in (node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)):
            members += [(cls.name, stmt.name) for stmt in cls.body
                        if isinstance(stmt, FUNCTIONS) and not stmt.name.startswith("__")]
    return [f"{cls}.{name}" for cls, name in members
            if (None, name) not in reads and (cls, name) not in reads]


def test_every_class_member_in_src_is_used_outside_the_tests():
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in sources()}
    unused = unused_members([tree for path, tree in trees.items() if path.parent == SRC],
                            [tree for path, tree in trees.items() if path.parent != SRC])
    unused = [member for member in unused if member not in CALLED_FROM_OUTSIDE]
    assert not unused, f"class members in src/ used only by the tests, or not at all: {unused}"


def test_a_self_read_counts_only_for_its_own_class():
    # A._x is read only as self._x inside B, which has an _x of its own, so
    # A._x is unused; a read on any other expression counts for every class.
    source = """
class A:
    @property
    def _x(self):
        return 0

class B:
    def __init__(self):
        self._x = 1

    def get(self):
        return self._x

B().get()
"""
    assert unused_members([ast.parse(source)], []) == ["A._x"]
    assert unused_members([ast.parse(source)], [ast.parse("obj._x")]) == []
