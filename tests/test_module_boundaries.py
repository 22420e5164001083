"""The package's modules use only each other's public names: no module under
src/vulnreach imports another module's _private name or reads one through
an imported module. A name shared between modules gets a public home."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "vulnreach"


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _dotted(node: ast.expr) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return f"{base}.{node.attr}" if base is not None else None
    return None


def private_crossings(source: str) -> list[str]:
    """'line: name' for each private name of another package module that
    source imports or reads through an imported module."""
    tree = ast.parse(source)
    modules: set[str] = set()  # local names bound by package imports: modules or members
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level > 0 or (node.module or "").split(".")[0] == "vulnreach"):
            for alias in node.names:
                if _private(alias.name):
                    found.append(f"{node.lineno}: {alias.name}")
                modules.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            modules.update(alias.asname or alias.name for alias in node.names
                           if alias.name.split(".")[0] == "vulnreach")
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _private(node.attr) \
                and _dotted(node.value) in modules:
            found.append(f"{node.lineno}: {_dotted(node)}")
    return found


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_no_private_name_crosses_a_module_boundary(module):
    assert private_crossings((SRC / module).read_text(encoding="utf-8")) == []


def test_guard_sees_imports_and_reads():
    source = ("from .code_model import _name_chain, parse_project\n"
              "from . import assets\n"
              "import vulnreach.ptg as p\n"
              "x = assets._HIDDEN + p._helper(self._own)\n")
    assert private_crossings(source) == ["1: _name_chain", "4: assets._HIDDEN", "4: p._helper"]
