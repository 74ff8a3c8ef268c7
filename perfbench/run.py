"""floodxai benchmark: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload global-shap --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The package is imported from `src/` in
fresh worker processes; nothing is installed and nothing in `src/` is
patched. The last line of stdout is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`. The line before it is
the run record. Workloads, metrics and the layer map are in `spec.py`;
`README.md` defines each metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import selectors
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from spec import END_TO_END, LAYER_UNITS, RUN_SECONDS, WORKLOADS
from stats import error_rate_upper, tail

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REQUIRED = ("src/floodxai/__init__.py", "data/kerala.csv", "schemas/lime.v1.schema.json")
# An untraced run is split over this many fresh worker processes, run one
# after another. Each sets up (set-up is reported as the median of their
# times) and measures an equal share of --seconds; their items are pooled.
PARTS = {"cli-session": 3}
DEFAULT_PARTS = 4
DEADLINE_S = 170


class BenchError(RuntimeError):
    pass


def git_sha(root):
    """HEAD of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def sha256_file(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class Worker:
    """A worker process; `ready_s` is the time from spawn to its READY line."""

    def __init__(self, args, tmp, deadline, result, part, parts):
        cmd = [
            sys.executable, str(HERE / "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds / parts), "--trace", str(args.trace),
            "--root", str(ROOT), "--tmp", str(tmp), "--result", str(result),
            "--part", str(part), "--parts", str(parts),
        ]
        if args.inject_fault:
            cmd += ["--inject-fault", args.inject_fault]
        self.deadline = deadline
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        start = time.perf_counter()
        # Its own process group, so a kill also reaches the CLI processes it runs.
        self.proc = subprocess.Popen(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, start_new_session=True
        )
        self.ready_s = self._await_ready(start)

    def _await_ready(self, start):
        with selectors.DefaultSelector() as sel:
            sel.register(self.proc.stdout, selectors.EVENT_READ)
            if not sel.select(timeout=max(0.0, self.deadline - time.monotonic())):
                raise BenchError("worker set-up timed out")
        line = self.proc.stdout.readline()
        elapsed = time.perf_counter() - start
        if line.strip() != b"READY":
            self.finish()
            raise BenchError(f"worker set-up failed (exit {self.proc.returncode})")
        return elapsed

    def finish(self):
        try:
            self.proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            self.kill()
            raise BenchError("worker timed out") from None
        if self.proc.returncode != 0:
            raise BenchError(f"worker exited {self.proc.returncode}")

    def kill(self):
        if self.proc.poll() is None:
            os.killpg(self.proc.pid, signal.SIGKILL)
            self.proc.communicate()


def measure(args, scratch):
    """Run the workload's worker processes one after another; pool their results.

    A slow stretch of a shared host, or an unlucky process, then weighs on a
    share of the run rather than on all of it. A traced run uses one worker,
    so its untraced and traced halves run in the same process.
    """
    deadline = time.monotonic() + DEADLINE_S
    parts = 1 if args.trace else PARTS.get(args.workload, DEFAULT_PARTS)
    results, setup_samples = [], []
    for part in range(parts):
        tmp = scratch / f"part-{part}"
        tmp.mkdir()
        result_path = scratch / f"result-{part}.json"
        worker = Worker(args, tmp, deadline, result_path, part, parts)
        try:
            worker.finish()
        finally:
            worker.kill()
        setup_samples.append(worker.ready_s)
        results.append(json.loads(result_path.read_text()))
    return pool(results), setup_samples


def pool(results):
    """One result from the workers' results: counts, wall times and item lists
    are summed or joined in worker order, peak RSS is the largest."""
    phases = {}
    for phase in results[0]["phases"]:
        parts = [r["phases"][phase] for r in results]
        phases[phase] = {
            "wall_s": sum(p["wall_s"] for p in parts),
            "items": sum(p["items"] for p in parts),
            "latencies_s": [v for p in parts for v in p["latencies_s"]],
            "failed_latencies_s": [v for p in parts for v in p["failed_latencies_s"]],
        }
    record = dict(
        results[0]["record"],
        workers=len(results),
        exact_checked_items=sum(r["record"]["exact_checked_items"] for r in results),
        items={
            phase: [item for r in results for item in r["record"]["items"][phase]]
            for phase in results[0]["record"]["items"]
        },
    )
    return dict(
        results[0],
        attempted=sum(r["attempted"] for r in results),
        failed=sum(r["failed"] for r in results),
        problems=[dict(p, worker=i) for i, r in enumerate(results) for p in r["problems"]][:20],
        peak_rss_kb=max(r["peak_rss_kb"] for r in results),
        phases=phases,
        record=record,
    )


def end_to_end(result, setup_samples):
    """Latencies are those of completed items; a run where every item
    failed (and so is not correct) reports those of the failed items."""
    phase = result["phases"]["timed"]
    completed = len(phase["latencies_s"])
    latencies_ms = [1000.0 * v for v in phase["latencies_s"] or phase["failed_latencies_s"]]
    tail_ms, tail_pct = tail(latencies_ms)
    values = {
        "setup_s": statistics.median(setup_samples),
        "items_per_s": completed / phase["wall_s"],
        "item_p50_ms": statistics.median(latencies_ms),
        "item_tail_ms": tail_ms,
        "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
        "error_rate": error_rate_upper(result["failed"], result["attempted"]),
    }
    extra = {
        "item_tail_percentile": tail_pct,
        "timed_items_completed": completed,
        "observed_error_rate": result["failed"] / result["attempted"],
        "setup_samples_s": setup_samples,
    }
    return {k: {"value": v, "unit": END_TO_END[k][0]} for k, v in values.items()}, extra


def main(argv=None):
    parser = argparse.ArgumentParser(description="floodxai benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--inject-fault", choices=("wrong-proba", "bad-exit"),
        help="self-test only: make items fail on purpose",
    )
    args = parser.parse_args(argv)

    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: not a floodxai checkout, missing {missing}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2

    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=out_dir))
    try:
        result, setup_samples = measure(args, scratch)
    except (BenchError, OSError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    record = dict(
        result["record"],
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        git_sha=git_sha(ROOT),
        dataset_sha256=sha256_file(ROOT / "data" / "kerala.csv"),
        attempted=result["attempted"],
        failed=result["failed"],
        problems=result["problems"],
        item_counts={p: v["items"] for p, v in result["phases"].items()},
    )
    if args.trace:
        metrics = {k: {"value": v, "unit": LAYER_UNITS[k]} for k, v in result["layers"].items()}
    else:
        metrics, extra = end_to_end(result, setup_samples)
        record.update(extra)
    for p in result["problems"]:
        print(f"perfbench: item {p['item']} of worker {p['worker']} ({p['phase']}) failed: "
              f"{p['problems']}",
              file=sys.stderr)
    print("run record: " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
