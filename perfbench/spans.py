"""In-memory span tracing for the traced benchmark run.

A span is (name, parent span index, instance id, start, end).  The harness
opens one root span per instance; while a Tracer is installed, the public
starsolve names listed in ``TARGETS`` are replaced by wrappers that open a
child span around each call, so calls made from nested library code are
counted too.  The untraced run installs nothing.
"""

from __future__ import annotations

import os
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

# (module holding the original, attribute, span name).  An attribute of the
# form "Class.method" is patched on the class; a plain function is replaced
# in every loaded starsolve module that bound the same object by import.
TARGETS = (
    ("starsolve.matrix", "Matrix.mul", "matrix.mul"),
    ("starsolve.matrix", "mp_inverse", "matrix.mp_inverse"),
    ("starsolve.matrix", "rank_factorization", "matrix.rank_factorization"),
    ("starsolve.matrix", "inverse", "matrix.inverse"),
    ("starsolve.solvers", "check_hypotheses", "solvers.check_hypotheses"),
    ("starsolve.solvers", "solvability_conditions", "solvers.solvability_conditions"),
    ("starsolve.solvers", "particular", "solvers.particular"),
    ("starsolve.solvers", "solve", "solvers.solve"),
    ("starsolve.solvers", "solve_sym_right", "solvers.solve_sym"),
    ("starsolve.solvers", "solve_sym_left", "solvers.solve_sym"),
    ("starsolve.solvers", "SolutionFamily.sample", "solvers.sample"),
    ("starsolve.solvers", "SolutionFamily.homogeneous", "solvers.homogeneous"),
    ("starsolve.solvers", "SolutionFamily.residual", "solvers.residual"),
    ("starsolve.rect", "solve_rect", "rect.solve_rect"),
    ("starsolve.rect", "check_rect_hypotheses", "rect.check_rect_hypotheses"),
    ("starsolve.rect", "solve_rect_via_embedding", "rect.solve_rect_via_embedding"),
    ("starsolve.oracle", "linearize", "oracle.linearize"),
    ("starsolve.oracle", "oracle_solve", "oracle.oracle_solve"),
    ("starsolve.oracle", "verify_family_against_oracle", "oracle.verify_family"),
    ("starsolve.formats", "load_instance", "formats.load_instance"),
    ("starsolve.formats", "load_matrix", "formats.load_matrix"),
    ("starsolve.formats", "write_doc", "formats.write_doc"),
    ("starsolve.formats", "encode_matrix", "formats.encode_matrix"),
    ("starsolve.cli", "main", "cli.main"),
)

ROOT = "bench.instance"


class Tracer:
    """Collects spans and counters; one per traced run."""

    def __init__(self):
        self.spans = []          # [name, parent, instance, start, end]
        self.counts = Counter()  # counters recorded at span boundaries
        self._stack = []
        self._instance = None
        self._undo = []

    @contextmanager
    def instance(self, instance_id):
        """Root span of one benchmark instance."""
        self._instance = instance_id
        rec = [ROOT, -1, instance_id, perf_counter(), 0.0]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[4] = perf_counter()
            self._stack.pop()
            self._instance = None

    def _wrap(self, fn, name):
        hook = _HOOKS.get(name)
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, self._instance, perf_counter(), 0.0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                if hook is not None:
                    hook(counts, args, None, exc)
                raise
            finally:
                rec[4] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(counts, args, out, None)
            return out

        return traced

    def install(self):
        """Patch every target; ``uninstall`` restores the originals."""
        for module_name, attr, name in TARGETS:
            module = sys.modules.get(module_name)
            if module is None:  # starsolve.cli is imported by the CLI workload only
                continue
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                self._patch(cls, meth, self._wrap(getattr(cls, meth), name))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(original, name)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "starsolve" or mod_name.startswith("starsolve."):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, wrapper)

    def _patch(self, owner, key, value):
        self._undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self):
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)

    def self_times(self):
        """Per span: duration minus the time its direct children cover."""
        child = [0.0] * len(self.spans)
        for name, parent, _, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - child[i]
                for i, (_, _, _, start, end) in enumerate(self.spans)]

    def aggregate(self, group_of=lambda instance: None):
        """{group: {span name: [calls, self_s, total_s]}} over all spans.

        No traced name calls itself, so inclusive times (total_s) of one name
        never overlap.
        """
        selfs = self.self_times()
        out = defaultdict(lambda: defaultdict(lambda: [0, 0.0, 0.0]))
        for i, (name, _, inst, start, end) in enumerate(self.spans):
            row = out[group_of(inst)][name]
            row[0] += 1
            row[1] += selfs[i]
            row[2] += end - start
        return out

    def instance_self_sums(self):
        """{instance id: sum of self times of its spans} (= root duration)."""
        sums = defaultdict(float)
        for rec, s in zip(self.spans, self.self_times()):
            sums[rec[2]] += s
        return sums


def _count_mul(counts, args, out, exc):
    if exc is None:
        left, right = args[0], args[1]
        counts["matrix.mul.madds"] += left.rows * left.cols * right.cols


def _count_cols(counts, args, out, exc):
    if exc is None:
        counts["oracle.system_cols"] += len(out.col_index)


def _count_read(counts, args, out, exc):
    if exc is None:
        counts["formats.bytes_read"] += os.path.getsize(args[0])


def _count_written(counts, args, out, exc):
    if exc is None:
        counts["formats.bytes_written"] += os.path.getsize(args[1])


_HOOKS = {
    "matrix.mul": _count_mul,
    "oracle.linearize": _count_cols,
    "formats.load_instance": _count_read,
    "formats.load_matrix": _count_read,
    "formats.write_doc": _count_written,
}
