"""Every name a module under src/ imports is used in that module, so a
deletion cannot leave a stale import behind, and no module imports another
crowdpost module's underscore-prefixed names, so a helper two modules share
is public.  Every public function and class is used by code under src/, so
API that only tests call lives in the tests, and the package root binds
nothing but `__version__`."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "crowdpost"


def unused_imports(source: str) -> list[str]:
    """Names bound by an import and never read.  `from __future__` imports
    and names listed in `__all__` count as used."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return [name for name in imported if name not in used]


def test_unused_imports_detects():
    source = ("from __future__ import annotations\nimport os.path\nimport json as j\n"
              "from x import a, b, c\n__all__ = ['c']\nos.sep\nprint(a)\n")
    assert unused_imports(source) == ["j", "b"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def private_imports(source: str) -> list[str]:
    """Underscore-prefixed names imported from a crowdpost module, relative
    or absolute."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (
                node.level > 0 or (node.module or "").split(".")[0] == "crowdpost"):
            found += [a.name for a in node.names if a.name.startswith("_")]
    return found


def test_private_imports_detects():
    source = ("from __future__ import annotations\nfrom .geometry import BBox, _areas\n"
              "from crowdpost.cli import _build as b\nfrom numpy import _globals\n"
              "from . import _private\n")
    assert private_imports(source) == ["_areas", "_build", "_private"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_private_imports(path):
    assert private_imports(path.read_text(encoding="utf-8")) == []


def unreferenced_definitions(sources: list[str]) -> list[str]:
    """Public top-level functions and classes of the given modules that no
    code in them reads, as a name or an attribute.  Imports, strings and
    `__all__` entries do not count as a use."""
    trees = [ast.parse(source) for source in sources]
    used = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return [node.name for tree in trees for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not node.name.startswith("_") and node.name not in used]


def test_unreferenced_definitions_detects():
    sources = ["from .b import used, imported_only\n__all__ = ['exported']\n"
               "def used(): pass\ndef _private(): pass\nclass Unused: pass\n"
               "def exported(): 'used() in a string'\nused()\n",
               "import a\ndef imported_only(): pass\ndef by_attribute(): pass\n"
               "a.by_attribute\n"]
    assert unreferenced_definitions(sources) == ["Unused", "exported", "imported_only"]


def test_every_public_definition_is_used_in_src():
    sources = [path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))]
    assert unreferenced_definitions(sources) == []


def test_package_root_binds_only_version():
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            continue  # the docstring
        if isinstance(node, ast.Assign):
            bound += [ast.unparse(t) for t in node.targets]
        else:
            bound.append(ast.unparse(node).splitlines()[0])
    assert bound == ["__version__"]
