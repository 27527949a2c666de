#!/usr/bin/env python3
"""starsolve benchmark: one closed-loop workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The library is imported from this
checkout's ``src/`` and nowhere else.  One client processes one instance at
a time: every step of it, then the correctness gate, then the next instance.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the loop
untraced and then traced for ``--seconds`` each, prints the per-layer
metrics (per instance of the traced pass) and writes every span to
``.bench_out/``.  Human-readable lines come first; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Workloads, metrics and what each should move are described in
``perfbench/INTERACTIONS.md``.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import types
from collections import Counter
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PACKAGE = SRC / "starsolve" / "__init__.py"
OUT = ROOT / ".bench_out"

sys.path.insert(0, str(HERE))
import workloads as wl  # noqa: E402
from spans import ROOT as ROOT_SPAN, Tracer  # noqa: E402

# setup_s is the median of repeated fresh imports + builds: at least
# SETUP_MIN_REPEATS, more while they total under SETUP_MIN_SECONDS, so that
# the short set-up of a CLI workload is sampled over several seconds.
SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 5.0
SETUP_MAX_REPEATS = 60
IMPORT_PROBES = 3      # child processes timing `import starsolve.cli` (trace run)
# latency_tail_ms is the highest step of this ladder with at least MIN_BEYOND
# samples above it (nearest rank).  A coarse ladder keeps the percentile the
# same from run to run: a 50 s run of a listed workload has 250-450 samples,
# so it reports p95.
TAIL_LADDER = (99, 95, 90, 80, 75, 50)
MIN_BEYOND = 10

# Spans whose calls and self time the traced run reports.
LAYER_SPANS = (
    "matrix.mul", "matrix.mp_inverse", "matrix.rank_factorization", "matrix.inverse",
    "solvers.check_hypotheses", "solvers.solvability_conditions", "solvers.particular",
    "solvers.solve", "solvers.solve_sym", "solvers.sample", "solvers.homogeneous",
    "solvers.residual",
    "rect.solve_rect", "rect.check_rect_hypotheses",
    "oracle.linearize", "oracle.oracle_solve", "oracle.verify_family",
    "formats.load_instance", "formats.load_matrix", "formats.write_doc",
    "formats.encode_matrix",
    "cli.main", ROOT_SPAN,
)
# Left out of the per-layer metrics because neither listed workload
# (cli_small, cli_float) reaches them: rect.solve_rect_via_embedding
# (exact_closed_form only; still in the report line's by_size_class), and the
# counters solvers.verdict.* (fixed by construction) and
# oracle.verdict_mismatch (exact_oracle only), kept in the report's "counts".
# Counters, per instance of the traced pass: (name, unit).
LAYER_COUNTS = (
    ("matrix.mul.madds", "madds/inst"),
    ("oracle.system_cols", "cols/inst"),
    ("formats.bytes_read", "bytes/inst"),
    ("formats.bytes_written", "bytes/inst"),
)
CLI_SUBCOMMANDS = ("gen", "check", "solve", "mp", "verify")
CLI_CHILD_METRICS = ("cli.import_s",) + tuple(f"cli.process_s.{s}" for s in CLI_SUBCOMMANDS)


class Refusal(Exception):
    """The benchmark cannot measure this checkout; nothing is printed as a result."""


def guard_source():
    """Make sure `import starsolve` resolves to this checkout's src/."""
    if not PACKAGE.is_file():
        raise Refusal(f"no starsolve package at {PACKAGE.relative_to(ROOT)}; run the "
                      "benchmark from the root of a starsolve checkout")
    if "starsolve" in sys.modules:
        raise Refusal("starsolve was imported before the source check")
    sys.path.insert(0, str(SRC))
    spec = importlib.util.find_spec("starsolve")
    origin = Path(spec.origin).resolve() if spec and spec.origin else None
    if origin != PACKAGE.resolve():
        raise Refusal(f"starsolve would be imported from {origin}, not from "
                      f"{PACKAGE.relative_to(ROOT)}; remove the stale install")


def guard_child_source(env):
    """The same check for the CLI's child processes."""
    out = subprocess.run([sys.executable, "-c", "import starsolve; print(starsolve.__file__)"],
                         cwd=ROOT, env=env, capture_output=True, text=True, timeout=60)
    origin = Path(out.stdout.strip()).resolve() if out.returncode == 0 else None
    if origin != PACKAGE.resolve():
        raise Refusal(f"a child process imports starsolve from {origin}, not from "
                      f"{PACKAGE.relative_to(ROOT)}")


def import_lib(with_cli):
    """Fresh import of the package (any earlier import is dropped first)."""
    for name in [n for n in sys.modules if n == "starsolve" or n.startswith("starsolve.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    starsolve = importlib.import_module("starsolve")
    if Path(starsolve.__file__).resolve() != PACKAGE.resolve():
        raise Refusal(f"starsolve was imported from {starsolve.__file__}")
    mods = {m: importlib.import_module(f"starsolve.{m}")
            for m in ("scalars", "matrix", "ring", "solvers", "rect", "oracle", "formats")}
    mods["cli"] = importlib.import_module("starsolve.cli") if with_cli else None
    return types.SimpleNamespace(**mods)


class Run:
    """One workload, set up and ready for closed-loop passes."""

    def __init__(self, name, seed, lib, pool, step=None, cli=None, setup_times=()):
        self.name = name
        self.seed = seed
        self.lib = lib
        self.pool = pool          # cases (CliCalls for a CLI workload), cycled in order
        self.step = step          # in-process workloads: step(lib, case, index, counters)
        self.cli = cli
        self.setup_times = list(setup_times)
        self.counters = Counter()

    def process(self, index, in_process):
        """One instance: its steps and its gate.  Returns the failures."""
        case = self.pool[index % len(self.pool)]
        if self.cli is None:
            return self.step(self.lib, case, index, self.counters)
        if in_process:
            return self.cli.run_in_process(case)
        return self.cli.run_child(case)

    def loop(self, seconds, in_process=False, tracer=None):
        """Closed loop for ``seconds``; each instance is gated, never retried."""
        latencies, failures = [], []
        start = perf_counter()
        deadline = start + seconds
        index = 0
        while perf_counter() < deadline:
            t0 = perf_counter()
            try:
                if tracer is None:
                    fails = self.process(index, in_process)
                else:
                    with tracer.instance(index):
                        fails = self.process(index, in_process)
            except Exception as exc:  # a crash is a failed instance, not a crashed run
                fails = [f"{type(exc).__name__}: {exc}"]
            latencies.append(perf_counter() - t0)
            if fails:
                failures.append((self.pool[index % len(self.pool)].label, fails))
            index += 1
        return Pass(latencies, failures, perf_counter() - start)


def set_up(name, seed, workdir):
    """Import the package and build the workload repeatedly; keep the last."""
    times = []
    while len(times) < SETUP_MIN_REPEATS or (sum(times) < SETUP_MIN_SECONDS
                                              and len(times) < SETUP_MAX_REPEATS):
        t0 = perf_counter()
        lib = import_lib(with_cli=name in wl.CLI_BACKEND)
        if name in wl.CLI_BACKEND:
            cli = wl.CliWorkload(lib, seed, str(workdir), str(ROOT), str(SRC),
                                 wl.CLI_BACKEND[name])
            pool, step = cli.calls, None
        else:
            cli = None
            build, step = wl.IN_PROCESS[name]
            pool = build(lib, seed)
        times.append(perf_counter() - t0)
    return Run(name, seed, lib, pool, step, cli, times)


class Pass:
    """Latencies and failures of one closed-loop pass."""

    def __init__(self, latencies, failures, elapsed):
        self.latencies = latencies
        self.failures = failures
        self.elapsed = elapsed
        self.attempted = len(latencies)
        self.failed = len(failures)
        self.instances_per_s = (self.attempted - self.failed) / elapsed
        self.p50_ms = statistics.median(latencies) * 1e3
        self.tail_pct, self.tail_ms, self.tail_beyond = tail(latencies)


def tail(latencies):
    """(percentile, value ms, samples beyond): the highest TAIL_LADDER step
    with at least MIN_BEYOND samples above it (nearest rank)."""
    ordered = sorted(latencies)
    n = len(ordered)
    for pct in TAIL_LADDER:
        rank = math.ceil(pct / 100 * n)
        if n - rank >= MIN_BEYOND:
            return pct, ordered[rank - 1] * 1e3, n - rank
    rank = math.ceil(n / 2)
    return 50, ordered[rank - 1] * 1e3, n - rank


def peak_rss_mb(run):
    """Of the benchmark process; for a CLI workload, of the largest CLI child."""
    if run.cli is not None:
        return run.cli.peak_rss_kib / 1024.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def commit_id():
    """HEAD of the checkout when it is a git work tree, else None."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(run, p):
    return {
        "instances_per_s": metric(p.instances_per_s, "1/s"),
        "latency_p50_ms": metric(p.p50_ms, "ms"),
        "latency_tail_ms": metric(p.tail_ms, "ms"),
        "setup_s": metric(statistics.median(run.setup_times), "s"),
        "peak_rss_mb": metric(peak_rss_mb(run), "MB"),
    }


def child_seconds(argv, env):
    t0 = perf_counter()
    subprocess.run([sys.executable, *argv], cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                   stderr=subprocess.DEVNULL, timeout=wl.CLI_TIMEOUT_S, check=False)
    return perf_counter() - t0


def cli_child_metrics(run):
    """cli.import_s and cli.process_s.<subcommand>, from child processes."""
    env = run.cli.env
    probe = "import time; t = time.perf_counter(); import starsolve.cli; " \
            "print(time.perf_counter() - t)"
    imports = []
    for _ in range(IMPORT_PROBES):
        out = subprocess.run([sys.executable, "-c", probe], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=60, check=True)
        imports.append(float(out.stdout))
    metrics = {"cli.import_s": metric(statistics.median(imports), "s")}
    for sub in CLI_SUBCOMMANDS:
        # The passes before this one left every file these calls read.
        # cli_float runs no `gen`; that one reads 0 there.
        calls = [c for c in run.pool if c.subcommand == sub][:2]
        seconds = [child_seconds(["-m", "starsolve.cli", *c.argv], env) for c in calls]
        metrics[f"cli.process_s.{sub}"] = metric(statistics.median(seconds or [0.0]), "s")
    return metrics


def layer_metrics(run, tracer, traced, untraced):
    instances = traced.attempted
    agg = tracer.aggregate()[None]
    out = {}
    for name in LAYER_SPANS:
        calls, self_s, _ = agg.get(name, (0, 0.0, 0.0))
        if name != ROOT_SPAN:  # one root span per instance, always
            out[f"{name}.calls"] = metric(calls / instances, "calls/inst")
        out[f"{name}.self_s"] = metric(self_s / instances, "s/inst")
    counts = tracer.counts + run.counters
    for name, unit in LAYER_COUNTS:
        out[name] = metric(counts[name] / instances, unit)
    sums = sorted(tracer.instance_self_sums().values())
    out.update({
        "trace.overhead_ratio": metric(untraced.instances_per_s / traced.instances_per_s,
                                       "ratio"),
        "trace.instances_per_s.untraced": metric(untraced.instances_per_s, "1/s"),
        "trace.instances_per_s.traced": metric(traced.instances_per_s, "1/s"),
        "trace.latency_p50_ms.untraced": metric(untraced.p50_ms, "ms"),
        "trace.self_sum_p50_ms": metric(statistics.median(sums) * 1e3, "ms"),
    })
    return out


def by_size_class(run, tracer, traced):
    """Per size class: instances, and per span calls, self and inclusive
    seconds per instance plus inclusive ms per call."""
    def group(index):
        return run.pool[index % len(run.pool)].size_class

    per_class = Counter(group(i) for i in range(traced.attempted))
    out = {}
    for cls, spans in sorted(tracer.aggregate(group).items()):
        n = per_class[cls]
        out[cls] = {"instances": n, "spans": {
            name: {"calls_per_inst": calls / n, "self_s_per_inst": self_s / n,
                   "total_s_per_inst": total / n, "ms_per_call": total / calls * 1e3}
            for name, (calls, self_s, total) in sorted(spans.items())}}
    return out


def write_spans(run, tracer):
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{run.name}-seed{run.seed}.json"
    size_class = {i: run.pool[i % len(run.pool)].size_class
                  for i in {rec[2] for rec in tracer.spans}}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": run.name, "seed": run.seed,
                   "fields": ["name", "parent", "instance", "start_s", "end_s"],
                   "spans": tracer.spans, "size_class": size_class,
                   "counts": dict(tracer.counts + run.counters)}, fh)
    return path


def print_failures(p):
    for label, fails in p.failures[:20]:
        print(f"FAILED {label}: {'; '.join(fails)}")
    if p.failed > 20:
        print(f"... and {p.failed - 20} more failed instances")


def measure_end_to_end(run, seconds, report):
    """Untraced run: the end-to-end metrics."""
    p = run.loop(seconds)
    metrics = end_to_end(run, p)
    report.update({
        "attempted": p.attempted, "failed": p.failed,
        "ops_failed_ratio": {"value": p.failed / p.attempted, "unit": "ratio",
                             "base": f"{p.failed}/{p.attempted} instances"},
        "latency_tail": {"percentile": p.tail_pct, "samples": p.attempted,
                         "samples_beyond": p.tail_beyond},
    })
    print(f"{run.name} seed={run.seed} seconds={seconds:g}")
    for name, m in metrics.items():
        print(f"  {name:18s} {m['value']:.6g} {m['unit']}")
    print(f"  {'ops_failed_ratio':18s} {p.failed / p.attempted:.6g} ratio "
          f"({p.failed} of {p.attempted} instances)")
    print(f"  latency_tail_ms is p{p.tail_pct} of {p.attempted} samples, "
          f"{p.tail_beyond} beyond it")
    return [p], metrics


def measure_layers(run, seconds, report):
    """Traced run: an untraced base pass, then a traced pass of the same
    length; the per-layer metrics.  A CLI workload calls cli.main in-process in
    both passes."""
    base = run.loop(seconds, in_process=True)
    tracer = Tracer()
    run.counters.clear()  # per-layer counts cover the traced pass only
    tracer.install()
    try:
        traced = run.loop(seconds, in_process=True, tracer=tracer)
    finally:
        tracer.uninstall()
    metrics = layer_metrics(run, tracer, traced, base)
    # Child-process CLI costs are measured on the CLI workloads only, 0 elsewhere.
    metrics.update(cli_child_metrics(run) if run.cli is not None else
                   {name: metric(0.0, "s") for name in CLI_CHILD_METRICS})
    # Self times of one instance sum to its traced wall time; that should
    # exceed the untraced median by no more than the tracing overhead.
    within = (metrics["trace.self_sum_p50_ms"]["value"] / base.p50_ms
              <= metrics["trace.overhead_ratio"]["value"] * 1.05)
    report.update({
        "attempted": traced.attempted, "failed": traced.failed,
        "untraced_base": {"attempted": base.attempted,
                          "instances_per_s": base.instances_per_s},
        "traced": {"attempted": traced.attempted, "instances_per_s": traced.instances_per_s},
        "self_sum_within_overhead_of_untraced_p50": within,
        "counts": dict(tracer.counts + run.counters),
        "by_size_class": by_size_class(run, tracer, traced),
        "spans_file": str(write_spans(run, tracer).relative_to(ROOT)),
    })
    print(f"{run.name} seed={run.seed} traced, {len(tracer.spans)} spans")
    return [base, traced], metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=wl.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    try:
        guard_source()
        if args.workload in wl.CLI_BACKEND:
            guard_child_source(dict(os.environ, PYTHONPATH=str(SRC)))
    except Refusal as exc:
        print(f"refusing to run: {exc}", file=sys.stderr)
        return 2

    report = {"workload": args.workload, "why": wl.WHY[args.workload], "seed": args.seed,
              "trace": args.trace, "commit": commit_id(), "python": platform.python_version(),
              "nproc": os.cpu_count(), "loadavg_1m_at_start": os.getloadavg()[0]}
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        run = set_up(args.workload, args.seed, workdir)
        report.update({"pool_instances": len(run.pool), "setup_s_runs": run.setup_times})
        measure = measure_layers if args.trace else measure_end_to_end
        passes, metrics = measure(run, args.seconds, report)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for p in passes:
        print_failures(p)
    print("report " + json.dumps(report, sort_keys=True))
    failed = sum(p.failed for p in passes)
    print(json.dumps({"correct": failed == 0, "attempted": sum(p.attempted for p in passes),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
