"""Every imported name in src/ and tests/ is used, every function and class
defined in src/ has a caller, and every parameter in src/ is read (no
linter runs in tier-1).  The package surface is lazy: ``import starsolve``
loads no submodule."""

import ast
import importlib
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


def names_in(node) -> Counter:
    """Names a subtree's code references: identifiers read, attributes and
    imported names; a string (a patch target, a parameter default) is not
    a reference, nor is a name a statement binds (an assignment target, a
    class field)."""
    names = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            names[n.id] += 1
        elif isinstance(n, ast.Attribute):
            names[n.attr] += 1
        elif isinstance(n, ast.alias):
            names[n.name.split(".")[-1]] += 1
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
    lib = ("def used(): pass\ndef dead(): return dead()\ndef entry(what='entry'): pass\n"
           "class C:\n    def __eq__(self, o): pass\n    def patched(self): pass\n"
           "    def method(self): pass\ndef field(): pass\n")
    callers = {"t": "from lib import used as u\nu()\nTARGET = 'C.patched'\n",
               "s": "import lib\nlib.C().method()\nclass R:\n    field: int\n"}
    assert unreferenced_definitions({"lib": lib}, callers) == [
        ("lib", "dead"), ("lib", "entry"), ("lib", "field"), ("lib", "patched")]


# definitions only tests call, each a reference the tests compare against
CALLED_BY_TESTS_ONLY = {
    # the per-entry decoder that the grid codec is checked against
    ("src/starsolve/parse.py", "decode_scalar"),
    # the Penrose judgement the tests apply to every float MP-inverse
    ("src/starsolve/penrose.py", "is_mp_inverse"),
    # called by NamedTuple._replace, which copies a RectProblem
    ("src/starsolve/rect.py", "_make"),
    # the embedded MP-inverses the block embedding is checked against
    ("src/starsolve/rect.py", "embed_mp"),
    # the inverse of extract_solution, which the tests round-trip through
    ("src/starsolve/rect.py", "embed_solution"),
}

# definitions only the traced benchmark reaches, by module and name: a span
# target in perfbench/spans.py, which Tracer.install patches with getattr and
# no default, so deleting one breaks every --trace 1 run
PATCHED_BY_NAME = {
    ("src/starsolve/solvers.py", "particular"),
}


def test_every_src_definition_has_a_caller():
    # callers are src/ and perfbench/: a name only tests call is not needed
    sources = {top: {str(path.relative_to(ROOT)): path.read_text()
                     for path in sorted((ROOT / top).rglob("*.py"))}
               for top in ("src", "perfbench")}
    found = unreferenced_definitions(sources["src"], sources["perfbench"])
    assert set(found) == CALLED_BY_TESTS_ONLY | PATCHED_BY_NAME


# the ring of c, which perfbench/ still passes to these entry points
UNREAD_PARAMETERS_ALLOWED = {
    ("src/starsolve/solvers.py", "check_hypotheses", "ring"),
    ("src/starsolve/solvers.py", "solve_sym_right", "ring"),
    ("src/starsolve/solvers.py", "solve_sym_left", "ring"),
}


def unread_parameters(source: str) -> list:
    """(function, parameter) of each parameter its function's body never
    reads; dunder methods and a method's receiver (``self``, ``cls``) are
    skipped."""
    tree = ast.parse(source)
    methods = {id(f) for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
               for f in c.body if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))}
    found = []
    for node in ast.walk(tree):
        if (not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                or (node.name.startswith("__") and node.name.endswith("__"))):
            continue
        args = node.args
        params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
        params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
        if id(node) in methods and not any(
                isinstance(d, ast.Name) and d.id == "staticmethod" for d in node.decorator_list):
            params = params[1:]
        read = {n.id for stmt in node.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        found += [(node.name, p) for p in params if p not in read]
    return found


def test_scanner_sees_unread_parameters():
    source = ("def f(a, b, *rest, c=1, **kw):\n    return a + kw['x']\n"
              "def g(x):\n    def h():\n        return x\n    return h\n"
              "class C:\n    def __init__(self, unused): pass\n"
              "    @classmethod\n    def make(cls, n): return n\n"
              "    @staticmethod\n    def s(self): pass\n")
    assert unread_parameters(source) == [("f", "b"), ("f", "c"), ("f", "rest"),
                                         ("s", "self")]


def test_every_parameter_is_read():
    found = {(str(path.relative_to(ROOT)), *entry)
             for path in sorted((ROOT / "src").rglob("*.py"))
             for entry in unread_parameters(path.read_text())}
    assert found == UNREAD_PARAMETERS_ALLOWED


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


def test_matrix_still_resolves_the_two_names_the_benchmark_reaches_there():
    # perfbench/ reaches MatrixRing and random_matrix as starsolve.matrix.*
    from starsolve import draws, matrix, ring
    assert matrix.MatrixRing is ring.MatrixRing
    assert matrix.random_matrix is draws.random_matrix
    with pytest.raises(AttributeError, match="no attribute 'from_parts'"):
        matrix.from_parts
    for name in ("random_sixths", "penrose_defects", "is_mp_inverse", "tolerance", "RTOL"):
        assert not hasattr(matrix, name), name


def test_formats_still_resolves_the_one_name_the_benchmark_reaches_there():
    # perfbench/ reaches decode_matrix as starsolve.formats.decode_matrix
    from starsolve import formats, parse
    assert formats.decode_matrix is parse.decode_matrix
    with pytest.raises(AttributeError, match="no attribute 'instance_from_doc'"):
        formats.instance_from_doc
    for name in ("decode_scalar", "matrix_from_doc", "read_doc", "_parse_quadruple"):
        assert not hasattr(formats, name), name
