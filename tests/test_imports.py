"""Every imported name in src/ and tests/ is used, and every function and
class defined in src/ has a caller (no linter runs in tier-1).  The package
surface is lazy: ``import starsolve`` loads no submodule."""

import ast
import importlib
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import starsolve

ROOT = Path(__file__).resolve().parent.parent


def unused_imports(source: str) -> list:
    """Names a module imports but never reads; ``__all__`` counts as a read."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(e.value for e in node.value.elts)
    return sorted(set(imported) - used)


def test_scanner_sees_unused_and_honours_all():
    assert unused_imports("import os\nimport re\nre.compile('x')\n") == ["os"]
    assert unused_imports("from a import b as c, d\n__all__ = ['c']\n") == ["d"]
    assert unused_imports("from __future__ import annotations\n") == []


def test_no_unused_imports():
    found = {}
    for top in ("src", "tests"):
        for path in sorted((ROOT / top).rglob("*.py")):
            names = unused_imports(path.read_text())
            if names:
                found[str(path.relative_to(ROOT))] = names
    assert found == {}


_DOTTED = re.compile(r"^[A-Za-z_][\w.]*$")


def names_in(node) -> Counter:
    """Names a subtree reads: identifiers, attributes, imported names, and
    strings that are a dotted path (as patch targets are written)."""
    names = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            names[n.id] += 1
        elif isinstance(n, ast.Attribute):
            names[n.attr] += 1
        elif isinstance(n, ast.alias):
            names[n.name.split(".")[-1]] += 1
        elif isinstance(n, ast.Constant) and isinstance(n.value, str) and _DOTTED.match(n.value):
            names.update(n.value.split("."))
    return names


def unreferenced_definitions(defining: dict, others: dict) -> list:
    """(module, name) of each function or class defined in a ``defining``
    source that no source names outside the definition itself; dunder
    methods are called implicitly and are skipped."""
    trees = {key: ast.parse(text) for key, text in {**others, **defining}.items()}
    total = sum((names_in(tree) for tree in trees.values()), Counter())
    found = []
    for key in defining:
        for node in ast.walk(trees[key]):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not (node.name.startswith("__") and node.name.endswith("__"))
                    and total[node.name] <= names_in(node)[node.name]):
                found.append((key, node.name))
    return found


def test_scanner_sees_unreferenced_definitions():
    lib = ("def used(): pass\ndef dead(): return dead()\n"
           "class C:\n    def __eq__(self, o): pass\n    def patched(self): pass\n")
    callers = {"t": "from lib import used\nused()\nTARGET = 'C.patched'\n"}
    assert unreferenced_definitions({"lib": lib}, callers) == [("lib", "dead")]


def test_every_src_definition_has_a_caller():
    sources = {top: {str(path.relative_to(ROOT)): path.read_text()
                     for path in sorted((ROOT / top).rglob("*.py"))}
               for top in ("src", "tests", "perfbench")}
    others = {**sources["tests"], **sources["perfbench"]}
    assert unreferenced_definitions(sources["src"], others) == []


# -- the lazy package surface -----------------------------------------------------


def test_import_starsolve_loads_no_submodule():
    child = (f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import starsolve; "
             "print([m for m in sys.modules if m.startswith('starsolve.')])")
    r = subprocess.run([sys.executable, "-S", "-c", child], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "[]"


def test_every_public_name_resolves_to_its_defining_module():
    for name in starsolve.__all__:
        if name == "__version__":
            continue
        defining = importlib.import_module(f"starsolve.{starsolve._MODULE_OF[name]}")
        value = getattr(starsolve, name)
        assert value is getattr(defining, name), name
        # classes and functions: the table names the module that defines them
        assert getattr(value, "__module__", defining.__name__) == defining.__name__, name
    star = {}
    exec("from starsolve import *", star)
    assert set(starsolve.__all__) <= set(star)
    assert all(star[name] is getattr(starsolve, name) for name in starsolve.__all__)


def test_unknown_package_attribute_raises():
    with pytest.raises(AttributeError, match="no attribute 'EmbeddedTriple'"):
        starsolve.EmbeddedTriple
    assert not hasattr(starsolve, "no_such_name")
