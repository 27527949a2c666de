"""The package surface the benchmark reaches must exist.

perfbench/run.py imports a fixed list of package modules, perfbench/spans.py
patches the names in its TARGETS and perfbench/workloads.py calls package
attributes through ``lib.<module>.<name>``; a deleted or renamed module or
name would only break a benchmark run.  These tests resolve all three lists
against the package instead, and run perfbench/selftest.py, the self-test of
the benchmark's correctness gate.
"""

import ast
import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

from starsolve.matrix import MatrixRing
from starsolve.solvers import PLUS, solve

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(module_name, dotted):
    obj = importlib.import_module(module_name)
    for part in dotted.split("."):
        obj = getattr(obj, part)
    return obj


def _lib_module(node):
    """'solvers' for ``lib.solvers`` or ``self.lib.solvers``, else None."""
    if not isinstance(node, ast.Attribute):
        return None
    owner = node.value
    if (isinstance(owner, ast.Name) and owner.id == "lib") or \
            (isinstance(owner, ast.Attribute) and owner.attr == "lib"):
        return node.attr
    return None


def _chain(node, aliases):
    """(module, "a.b") for an attribute chain rooted at a package module."""
    parts = []
    while isinstance(node, ast.Attribute):
        module = _lib_module(node)
        if module is None and isinstance(node.value, ast.Name) and node.value.id in aliases:
            module, parts = aliases[node.value.id], parts + [node.attr]
        if module is not None:
            return (module, ".".join(reversed(parts))) if parts else None
        parts.append(node.attr)
        node = node.value
    return None


def _workload_names():
    """Every (module, attribute path) workloads.py reaches, per function scope
    so that local aliases such as ``s, m = lib.solvers, lib.matrix`` count."""
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    found = set()
    for func in ast.walk(tree):
        if not isinstance(func, ast.FunctionDef):
            continue
        aliases = {}
        for node in ast.walk(func):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target, value = node.targets[0], node.value
                pairs = (zip(target.elts, value.elts)
                         if isinstance(target, ast.Tuple) and isinstance(value, ast.Tuple)
                         else [(target, value)])
                for t, v in pairs:
                    if isinstance(t, ast.Name) and _lib_module(v):
                        aliases[t.id] = _lib_module(v)
        for node in ast.walk(func):
            hit = _chain(node, aliases)
            if hit is not None:
                found.add(hit)
    return sorted(found)


def _imported_modules():
    """The starsolve modules perfbench/run.py's import_lib loads: the names in
    its string tuples, plus every literal "starsolve.<module>" it imports."""
    tree = ast.parse((PERFBENCH / "run.py").read_text())
    func = next(node for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef) and node.name == "import_lib")
    found = set()
    for node in ast.walk(func):
        if isinstance(node, ast.Tuple) and node.elts and all(
                isinstance(e, ast.Constant) and isinstance(e.value, str) for e in node.elts):
            found.update(e.value for e in node.elts)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.startswith("starsolve.")):
            found.add(node.value[len("starsolve."):])
    return sorted(found - {""})  # "" from the f"starsolve.{m}" template


def test_import_lib_list_is_read():
    assert {"ring", "solvers", "cli"} <= set(_imported_modules())


@pytest.mark.parametrize("module", _imported_modules())
def test_benchmark_module_imports(module):
    importlib.import_module(f"starsolve.{module}")


@pytest.mark.parametrize("module_name,attr", [t[:2] for t in _load_spans().TARGETS])
def test_span_target_resolves(module_name, attr):
    assert callable(_resolve(module_name, attr))


def test_workload_names_resolve():
    names = _workload_names()
    assert ("solvers", "solve") in names and ("rect", "solve_rect") in names
    missing = []
    for module, attr in names:
        try:
            _resolve(f"starsolve.{module}", attr)
        except (AttributeError, ImportError):
            missing.append(f"{module}.{attr}")
    assert not missing


def test_family_x0_is_assignable():
    # perfbench/selftest.py moves x0 off the solution set to test the gate
    ring = MatrixRing(1)
    fam = solve(ring, PLUS, ring.one(), ring.one(), ring.zero())
    fam.x0 = fam.x0.add(ring.one())
    assert not fam.judge(fam.x0).ok


def test_benchmark_gate_selftest_passes():
    # The gate also reads fam.x0, OracleResult and the CLI report fields,
    # which name resolution alone does not exercise.
    r = subprocess.run([sys.executable, str(PERFBENCH / "selftest.py")], cwd=PERFBENCH.parent,
                       capture_output=True, text=True, timeout=300)
    assert r.returncode == 0, r.stdout + r.stderr
