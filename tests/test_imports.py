"""Every name a module under src/ imports is used in that module, so a
deletion cannot leave a stale import behind, and no module imports another
crowdpost module's underscore-prefixed names, so a helper two modules share
is public.  `data_model` imports no crowdpost module but `fileio` and
`geometry`.  Every public function and class, and every public method and
property of a class, is used by code under src/, so API that only tests
call lives in the tests, and the package root binds nothing but
`__version__`."""

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


def crowdpost_imports(source: str) -> list[str]:
    """The crowdpost modules a module imports, relative or absolute, at
    module level or inside a function."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found |= {a.name.split(".")[1] for a in node.names
                      if a.name.startswith("crowdpost.")}
        elif isinstance(node, ast.ImportFrom) and (
                node.level > 0 or (node.module or "").split(".")[0] == "crowdpost"):
            # the module path below the package; empty for `from . import x`
            parts = (node.module or "").split(".")[0 if node.level else 1:]
            found |= {parts[0]} if parts and parts[0] else {a.name for a in node.names}
    return sorted(found)


def test_crowdpost_imports_detects():
    source = ("from __future__ import annotations\nimport numpy\nimport crowdpost.nms as n\n"
              "from .fileio import read_json\nfrom crowdpost.pipeline import gate\n"
              "from crowdpost import cli\nfrom json.decoder import scanstring\n"
              "def f():\n    from .records import Detection\n    from . import rdm, geometry\n")
    assert crowdpost_imports(source) == ["cli", "fileio", "geometry", "nms", "pipeline",
                                         "rdm", "records"]


def test_data_model_imports_only_fileio_and_geometry():
    # the file formats, their readers and their parser stand on these two,
    # so that reading a file never loads the record route or a model
    source = (SRC / "data_model.py").read_text(encoding="utf-8")
    assert set(crowdpost_imports(source)) <= {"fileio", "geometry"}


def unreferenced_definitions(sources: list[str]) -> list[str]:
    """Public top-level functions and classes of the given modules, and the
    public methods and properties (`Class.name`) of their top-level classes,
    that no code in them reads, as a name or an attribute.  Imports, strings
    and `__all__` entries do not count as a use; dunders are not checked."""
    trees = [ast.parse(source) for source in sources]
    used = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    found = []
    for node in (node for tree in trees for node in tree.body):
        if isinstance(node, (*functions, ast.ClassDef)) and not node.name.startswith("_") \
                and node.name not in used:
            found.append(node.name)
        if isinstance(node, ast.ClassDef):
            found += [f"{node.name}.{f.name}" for f in node.body if isinstance(f, functions)
                      and not f.name.startswith("_") and f.name not in used]
    return found


def test_unreferenced_definitions_detects():
    sources = ["from .b import used, imported_only\n__all__ = ['exported']\n"
               "def used(): pass\ndef _private(): pass\nclass Unused: pass\n"
               "def exported(): 'used() in a string'\nused()\n",
               "import a\ndef imported_only(): pass\ndef by_attribute(): pass\n"
               "a.by_attribute\n"]
    assert unreferenced_definitions(sources) == ["Unused", "exported", "imported_only"]


def test_unreferenced_methods_detects():
    sources = ["class _Pass:\n    def forward(self): pass\n    def spare(self): pass\n"
               "class Model:\n    def __len__(self): return 0\n    def _helper(self): pass\n"
               "    @property\n    def width(self): return 1\n"
               "    @property\n    def depth(self): return 2\n"
               "    @classmethod\n    def load(cls): 'score()'\n"
               "    def score(self): self.forward()\n",
               "from a import Model\nModel.load()\nModel().width\nlen(Model())\n"]
    assert unreferenced_definitions(sources) == ["_Pass.spare", "Model.depth", "Model.score"]


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


def needless_defaults(sources: list[str]) -> list[str]:
    """`name.parameter` for each parameter default of a function or method
    of the given modules that every call of that name passes.  A call of a
    class is a call of its `__init__`; a call through `*` or `**`, and a
    reference that is not a call (a method passed as a value, say), pass no
    defaulted parameter.  A definition that no call names is not checked."""
    trees = [ast.parse(source) for source in sources]
    methods = {id(f): c for tree in trees for c in ast.walk(tree)
               if isinstance(c, ast.ClassDef) for f in c.body}
    callees = {id(n.func) for tree in trees for n in ast.walk(tree) if isinstance(n, ast.Call)}
    definitions, calls = [], {}
    for node in (n for tree in trees for n in ast.walk(tree)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner, args = methods.get(id(node)), node.args
            params = [a.arg for a in args.posonlyargs + args.args]
            if owner is not None and not any(
                    isinstance(d, ast.Name) and d.id == "staticmethod"
                    for d in node.decorator_list):
                params = params[1:]  # self or cls
            defaulted = params[len(params) - len(args.defaults):] + [
                a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            name = owner.name if owner is not None and node.name == "__init__" else node.name
            definitions.append((name, params, defaulted))
        elif isinstance(node, ast.Call):
            unpacked = (any(isinstance(a, ast.Starred) for a in node.args)
                        or any(k.arg is None for k in node.keywords))
            calls.setdefault(_named(node.func), []).append(
                None if unpacked else (len(node.args), {k.arg for k in node.keywords}))
        elif (isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
              and id(node) not in callees):
            calls.setdefault(_named(node), []).append(None)  # passes nothing
    flagged = []
    for name, params, defaulted in definitions:
        uses = calls.get(name, [])
        for param in defaulted:
            position = params.index(param) if param in params else len(params)
            if uses and all(use is not None and (position < use[0] or param in use[1])
                            for use in uses):
                flagged.append(f"{name}.{param}")
    return sorted(flagged)


def _named(node: ast.AST):
    """The name a call or a reference goes by: a bare name or an attribute."""
    return getattr(node, "id", getattr(node, "attr", None))


def test_needless_defaults_detects():
    source = ("class Error(ValueError):\n"
              "    def __init__(self, message, path=None, field=None):\n"
              "        super().__init__(message)\n"
              "class Model:\n"
              "    @classmethod\n"
              "    def make(cls, width=4, *, seed=0): return cls()\n"
              "    @staticmethod\n"
              "    def fixed(a=1): pass\n"
              "    def score(self, pairs=()): pass\n"
              "def scene(cfg, index=0, scale=1.0): pass\n"
              "def unused(a=1): pass\n"
              "def spread(a=1, b=2): pass\n"
              "Error('m', 'p')\nError('m', path='p', field='f')\n"
              "Model.make(8, seed=1)\nModel().make(width=2, seed=2)\n"
              "Model.fixed(3)\nModel().score([])\nrun(Model().score)\n"
              "scene(c, 1)\nscene(c, index=2)\nscene(c, 3, scale=2.0)\n"
              "spread(1, 2)\nspread(*args)\n")
    assert needless_defaults([source]) == ["Error.path", "fixed.a", "make.seed", "make.width",
                                           "scene.index"]


# a default that a caller outside src/ needs, with the reason
NEEDED_DEFAULTS = {
    # tests/test_benchmark_hooks.py builds a model with `initialize(hidden_dim=4)`,
    # and that file changes only with the benchmark
    "initialize.seed",
}


def test_no_default_every_call_passes():
    sources = [path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))]
    assert [d for d in needless_defaults(sources) if d not in NEEDED_DEFAULTS] == []
