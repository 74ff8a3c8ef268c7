"""One benchmark process: set up a workload, time its items, check the outputs.

Started by `run.py`, never by hand. The worker prints `READY` on stdout the
moment set-up ends, so the parent can time set-up from process start, and
writes everything else to the JSON file named by `--result`. An untraced
run is split over `--parts` such processes, one after another; this one is
number `--part` and measures for its `--seconds` share.

Phases: `warmup` items are run and checked but not timed. An untraced run
then times items for `--seconds`. A traced run times the same item stream
twice, for half the time each: untraced first, then with spans, so the
difference in throughput is the tracing overhead.
"""

from __future__ import annotations

import argparse
import importlib
import itertools
import json
import os
import random
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from spec import KINDS, LAYER_UNITS
from tracing import SpanIndex, Tracer
from workloads import WORKLOADS, Context


@dataclass
class Record:
    phase: str
    index: int
    spec: dict
    outcome: object
    latency_s: float
    problems: list


def run_item(workload, spec, tr, index):
    """(outcome, problems) of one item; an item failure is data, not a harness crash."""
    try:
        return workload.run(spec, tr, index), []
    except Exception as exc:
        return None, [f"{type(exc).__name__}: {exc}"]


def timed_loop(workload, stream, seconds, tr, phase, records, counter):
    """Closed loop, one caller: run items until `seconds` of loop time pass.

    Returns the loop's wall time, less the time spent in traced-run probes
    between items. At least one item always runs.
    """
    start = time.perf_counter()
    excluded = 0.0
    while True:
        spec = next(stream)
        index = next(counter)
        with tr.span("item"):
            t0 = time.perf_counter()
            outcome, problems = run_item(workload, spec, tr, index)
            latency = time.perf_counter() - t0
        records.append(Record(phase, index, spec, outcome, latency, problems))
        if tr.enabled and outcome is not None:
            p0 = time.perf_counter()
            try:
                workload.probe(spec, outcome, tr)
            except Exception as exc:
                problems.append(f"probe: {type(exc).__name__}: {exc}")
            excluded += time.perf_counter() - p0
        if time.perf_counter() - start - excluded >= seconds:
            return time.perf_counter() - start - excluded


def run_checks(workload, records, seed, n_deep):
    """Per-item checks on every record, exhaustive-vs-exact on `n_deep` seeded items."""
    for r in records:
        if r.problems:
            continue
        try:
            r.problems += workload.check(r.spec, r.outcome, r.phase == "traced")
        except Exception as exc:
            r.problems.append(f"check raised {type(exc).__name__}: {exc}")
    passed = [r for r in records if not r.problems and r.phase != "warmup"]
    sample = random.Random(seed).sample(passed, min(n_deep, len(passed)))
    for r in sample:
        try:
            r.problems += workload.deep_check(r.spec, r.outcome)
        except Exception as exc:
            r.problems.append(f"exact check raised {type(exc).__name__}: {exc}")
    return len(sample)


def layer_metrics(tracer, n_items, ips_untraced, ips_traced):
    """Every per-layer metric of spec.LAYER_METRICS; 0 where the workload never reaches the layer."""
    idx = SpanIndex(tracer.spans)
    m = dict.fromkeys(LAYER_UNITS, 0.0)
    imports = idx.durations("floodxai.import")
    m["floodxai.import_s"] = imports[0] if imports else 0.0
    for stem in ("load_csv", "impute_missing", "split", "fit_scaler"):
        m[f"dataset.{stem}_ms"] = idx.median_ms(f"dataset.{stem}")
    for kind in KINDS:
        m[f"models.train_ms.{kind}"] = idx.median_ms(f"models.train.{kind}")
        calls = idx.named(f"models.predict_proba.{kind}")
        busy = sum(s[4] - s[3] for s in calls)
        rows = sum(s[5]["rows"] for s in calls)
        m[f"models.predict_proba.calls.{kind}"] = len(calls)
        m[f"models.predict_proba.rows.{kind}"] = rows
        m[f"models.predict_proba.busy_s.{kind}"] = busy
        m[f"models.predict_proba.rows_per_s.{kind}"] = rows / busy if busy else 0.0
    for api in ("kernel_shap", "global_importance"):
        m[f"explain.shapley.{api}.busy_s"] = idx.total_s(f"explain.shapley.{api}")
        m[f"explain.shapley.{api}.self_s"] = idx.self_s(f"explain.shapley.{api}")

    def model_calls_under(prefix):
        return [
            s for s in idx.spans
            if s[2].startswith("models.predict_proba.")
            and (idx.parent_name(s) or "").startswith(prefix)
        ]

    per_item = 1.0 / n_items if n_items else 0.0
    shap_calls = model_calls_under("explain.shapley.")
    m["explain.shapley.model_rows_per_item"] = sum(s[5]["rows"] for s in shap_calls) * per_item
    m["explain.shapley.model_calls_per_item"] = len(shap_calls) * per_item
    ratios = tracer.counters.get("explain.shapley.sampled_unique_ratio")
    m["explain.shapley.sampled_unique_ratio"] = statistics.mean(ratios) if ratios else 0.0
    for stem in ("fit_discretizer", "perturb", "fit_local_surrogate"):
        m[f"explain.lime.{stem}_ms"] = idx.median_ms(f"explain.lime.{stem}")
    surrogate_self = [idx.self_time[s[0]] for s in idx.named("explain.lime.fit_local_surrogate")]
    if surrogate_self:
        m["explain.lime.fit_local_surrogate.self_ms"] = 1000.0 * statistics.median(surrogate_self)
    lime_calls = model_calls_under("explain.lime.")
    m["explain.lime.model_rows_per_item"] = sum(s[5]["rows"] for s in lime_calls) * per_item
    m["explain.compare.compare_ms"] = idx.median_ms("explain.compare.compare_explanations")
    m["manifest.canonical_json_ms"] = idx.median_ms("manifest.canonical_json")
    m["manifest.write_report_ms"] = idx.median_ms("manifest.write_report")
    written = tracer.counters.get("manifest.bytes_written_per_item")
    m["manifest.bytes_written_per_item"] = statistics.mean(written) if written else 0.0
    m["models.io.save_model_ms"] = idx.median_ms("models.io.save_model")
    m["models.io.load_model_ms"] = idx.median_ms("models.io.load_model")
    m["metrics.evaluate_ms"] = idx.median_ms("metrics.evaluate")
    m["render.svg_ms"] = idx.median_ms("render.svg")
    for name in LAYER_UNITS:
        if name.startswith(("cli.command_ms.", "cli.main_ms.")):
            family, command = name.split("_ms.", 1)
            m[name] = idx.median_ms(f"{family}.{command}")

    items = idx.named("item")
    item_time = sum(s[4] - s[3] for s in items)
    item_ids = {s[0] for s in items}
    model_busy = sum(
        s[4] - s[3] for s in idx.spans
        if s[2].startswith("models.predict_proba.") and _has_ancestor(idx, s, item_ids)
    )
    children = sum(s[4] - s[3] for s in idx.spans if s[1] in item_ids)
    m["trace.items"] = n_items
    m["trace.items_per_s.untraced"] = ips_untraced
    m["trace.items_per_s.traced"] = ips_traced
    m["trace.overhead_frac"] = 1.0 - ips_traced / ips_untraced if ips_untraced else 0.0
    m["trace.model_share"] = model_busy / item_time if item_time else 0.0
    m["trace.item_accounted_share"] = children / item_time if item_time else 0.0
    return m


def _has_ancestor(idx, span, ids):
    parent = span[1]
    while parent is not None:
        if parent in ids:
            return True
        parent = idx.spans[parent][1]
    return False


def environment():
    """Machine and library facts for the run record."""
    info = {
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
    }
    try:
        import numpy

        info["numpy"] = numpy.__version__
        info.update(_blas_info(numpy))
    except ImportError:
        info["numpy"] = None
    return info


def _blas_info(numpy):
    """OpenBLAS version and thread count, read from numpy's bundled library."""
    import ctypes
    import glob

    info = {"openblas": None, "blas_threads": None}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["openblas"] = blas.get("version")
    except (KeyError, TypeError):
        pass
    libs_dir = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs_dir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["blas_threads"] = fn()
                return info
    return info


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--root", required=True)
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--part", type=int, default=0)
    parser.add_argument("--parts", type=int, default=1)
    parser.add_argument("--inject-fault", choices=("wrong-proba", "bad-exit"))
    args = parser.parse_args(argv)

    root = Path(args.root)
    sys.path.insert(0, str(root / "src"))
    tracer = Tracer(bool(args.trace))
    ctx = Context(root=root, tmp=Path(args.tmp), seed=args.seed, tracer=tracer,
                  part=args.part, parts=args.parts, inject=args.inject_fault)
    workload = WORKLOADS[args.workload](ctx)
    if workload.in_process or args.trace:
        with tracer.span("floodxai.import"):
            ctx.fx = importlib.import_module("floodxai")
        if not Path(ctx.fx.__file__).resolve().is_relative_to((root / "src").resolve()):
            raise SystemExit(f"imported floodxai from {ctx.fx.__file__}, not from {root / 'src'}")
    workload.setup()
    print("READY", flush=True)

    off = Tracer(False)
    records = []
    counter = itertools.count()

    def fresh_stream():
        stream = workload.items()
        for _ in range(workload.warmup):
            next(stream)
        return stream

    warm = workload.items()
    for _ in range(workload.warmup):
        spec, index = next(warm), next(counter)
        outcome, problems = run_item(workload, spec, off, index)
        records.append(Record("warmup", index, spec, outcome, 0.0, problems))

    walls = {}
    if args.trace:
        half = args.seconds / 2
        walls["untraced"] = timed_loop(workload, fresh_stream(), half, off, "untraced",
                                       records, counter)
        walls["traced"] = timed_loop(workload, fresh_stream(), half, tracer, "traced",
                                     records, counter)
    else:
        walls["timed"] = timed_loop(workload, fresh_stream(), args.seconds, off, "timed",
                                    records, counter)
    usage = resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN
    peak_rss_kb = resource.getrusage(usage).ru_maxrss

    # The run's exact checks are shared out over its measuring processes.
    n_deep = len(range(args.part, workload.deep_checks, args.parts))
    deep_checked = run_checks(workload, records, workload.check_seed + args.part, n_deep)

    def latencies(phase, failed=False):
        return [r.latency_s for r in records if r.phase == phase and bool(r.problems) == failed]

    result = {
        "attempted": len(records),
        "failed": sum(1 for r in records if r.problems),
        "problems": [
            {"item": r.index, "phase": r.phase, "problems": r.problems[:3]}
            for r in records if r.problems
        ][:20],
        "peak_rss_kb": peak_rss_kb,
        "phases": {
            phase: {
                "wall_s": wall,
                "items": sum(1 for r in records if r.phase == phase),
                "latencies_s": latencies(phase),
                "failed_latencies_s": latencies(phase, failed=True),
            }
            for phase, wall in walls.items()
        },
        "record": {
            "split_seed": workload.split_seed,
            "kind_order": workload.kind_order,
            "warmup_items": workload.warmup,
            "exact_checked_items": deep_checked,
            "items": {
                phase: [
                    [workload.describe(r.spec), None if r.problems else 1000.0 * r.latency_s]
                    for r in records if r.phase == phase
                ]
                for phase in ("warmup", *walls)
            },
            "environment": environment(),
        },
    }
    if args.trace:
        ips = {
            p: len(latencies(p)) / walls[p] for p in ("untraced", "traced")
        }
        n_traced = result["phases"]["traced"]["items"]
        result["layers"] = layer_metrics(tracer, n_traced, ips["untraced"], ips["traced"])
        trace_path = root / ".perfbench" / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.write(trace_path)
        result["record"]["trace_file"] = str(trace_path.relative_to(root))
    with open(args.result, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
