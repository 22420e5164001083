"""The package's modules use only each other's public names: no module under
src/vulnreach imports another module's _private name or reads one through
an imported module. A name shared between modules gets a public home, and
each name has one import path: the package's modules and the tests import
a name only from the module that defines it. And one rule turns a type's
name into a class: only CodeModel.resolve_type reads the java.lang names
and a class's imports."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "vulnreach"
TESTS = Path(__file__).resolve().parent


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


def defined_names(module: str) -> set[str]:
    """The names the package module defines at top level: its classes,
    functions and assigned names, not the names it imports."""
    tree = ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))
    names: set[str] = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return names


def second_paths(source: str) -> list[str]:
    """'line: module.name' for each name that source imports from a package
    module, as 'from .module import name' or 'from vulnreach.module import
    name', when that module does not define it: a re-exported name. A
    package module imported as a name of the package is its own home."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 1:
            module = node.module or "__init__"
        elif (node.module or "").split(".")[0] == "vulnreach":
            module = node.module.partition(".")[2] or "__init__"
        else:
            continue
        defined = defined_names(module)
        for alias in node.names:
            submodule = module == "__init__" and (SRC / f"{alias.name}.py").exists()
            if alias.name not in defined and not submodule:
                found.append(f"{node.lineno}: {module}.{alias.name}")
    return found


@pytest.mark.parametrize("path", sorted(
    [f"src/vulnreach/{p.name}" for p in SRC.glob("*.py")]
    + [f"tests/{p.name}" for p in TESTS.glob("*.py")]))
def test_each_name_is_imported_from_the_module_that_defines_it(path):
    assert second_paths((TESTS.parent / path).read_text(encoding="utf-8")) == []


def test_second_path_guard_sees_reexported_names():
    source = ("from .code_model import Expr, parse_project\n"
              "from .java_body import Expr\n"
              "from . import java_body, __version__, VulnreachError\n"
              "from vulnreach.code_model import (ParseDiagnostic,\n    erase_generics)\n")
    assert second_paths(source) == ["1: code_model.Expr", "3: __init__.VulnreachError",
                                    "4: code_model.ParseDiagnostic",
                                    "4: code_model.erase_generics"]


_TYPE_NAME_INPUTS = ("_JAVA_LANG", "import_map", "wildcard_imports")


def type_name_reads(source: str) -> list[str]:
    """'line: name' for each read of _JAVA_LANG, import_map or
    wildcard_imports in source outside CodeModel.resolve_type, the one rule
    that turns a type's name into a class."""
    tree = ast.parse(source)
    inside = {id(node) for cls in tree.body
              if isinstance(cls, ast.ClassDef) and cls.name == "CodeModel"
              for f in cls.body if isinstance(f, ast.FunctionDef) and f.name == "resolve_type"
              for node in ast.walk(f)}
    found = []
    for node in ast.walk(tree):
        name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
        if name in _TYPE_NAME_INPUTS and isinstance(node.ctx, ast.Load) \
                and id(node) not in inside:
            found.append((node.lineno, node.col_offset, name))
    return [f"{line}: {name}" for line, _, name in sorted(found)]


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_only_resolve_type_reads_a_type_names_inputs(module):
    assert type_name_reads((SRC / module).read_text(encoding="utf-8")) == []


def test_type_name_guard_sees_reads_outside_resolve_type():
    source = ("_JAVA_LANG = {'String'}\n"
              "class CodeModel:\n"
              "    def resolve_type(self, name, context):\n"
              "        return name in _JAVA_LANG or context.import_map() or context.wildcard_imports\n"
              "    def other(self, cls):\n"
              "        return cls.import_map(), cls.wildcard_imports\n"
              "def resolve_type(name):\n"
              "    return name in _JAVA_LANG\n")
    assert type_name_reads(source) == ["6: import_map", "6: wildcard_imports", "8: _JAVA_LANG"]
