"""The CLI and the demos use only the public names of the engine modules.

An underscore name of ``probuchi.<m>`` is that module's own business, so
``cli.py`` and ``demos/*.py`` may neither read ``<m>._name`` nor import
``from .m import _name`` / ``from probuchi.m import _name``; nor may a
``"module.function"`` string that the CLI resolves at run time name one.
Dunders are exempt, and so are a module's own helpers, which it reads as
plain names.
"""

import ast
import pkgutil
import re

import probuchi

from test_src_used import DEMOS, SRC

SUBMODULES = {info.name for info in pkgutil.iter_modules(probuchi.__path__)}


def private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def module_of(node: ast.expr) -> str | None:
    """The submodule that ``node`` names: ``m`` or ``probuchi.m``."""
    if isinstance(node, ast.Name) and node.id in SUBMODULES:
        return node.id
    if (isinstance(node, ast.Attribute) and node.attr in SUBMODULES
            and isinstance(node.value, ast.Name) and node.value.id == "probuchi"):
        return node.attr
    return None


def private_uses(tree: ast.Module) -> list[str]:
    """Each private engine name that ``tree`` reads, in line order."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and private(node.attr):
            m = module_of(node.value)
            if m is not None:
                found.append((node.lineno, f"{m}.{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and node.module:
            relative = node.level == 1
            m = node.module if relative else node.module.removeprefix("probuchi.")
            if m in SUBMODULES and (relative or m != node.module):
                found += [(node.lineno, f"{m}.{alias.name}")
                          for alias in node.names if private(alias.name)]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            hit = re.fullmatch(r"(\w+)\.(\w+)", node.value)
            if hit and hit[1] in SUBMODULES and private(hit[2]):
                found.append((node.lineno, repr(node.value)))
    return [f"{name} at line {line}" for line, name in sorted(found)]


def test_cli_and_demos_read_no_private_engine_name():
    paths = [SRC / "cli.py", *sorted(DEMOS.glob("*.py"))]
    assert len(paths) > 1, DEMOS
    found = {path.name: private_uses(ast.parse(path.read_text(encoding="utf-8")))
             for path in paths}
    assert not any(found.values()), {name: uses for name, uses in found.items() if uses}


def test_the_scan_sees_every_pattern():
    source = (
        "from . import decide\n"
        "import probuchi\n"
        "from .decide import _walk, public\n"
        "from probuchi.markov import _passage\n"
        "decide._bounded_witness(1)\n"
        "probuchi.decide._lower_bound\n"
        "decide.__name__, self._x, _emit()\n"
        "build = 'construct._empty_nba'\n"
    )
    assert private_uses(ast.parse(source)) == [
        "decide._walk at line 3", "markov._passage at line 4",
        "decide._bounded_witness at line 5", "decide._lower_bound at line 6",
        "'construct._empty_nba' at line 8",
    ]
