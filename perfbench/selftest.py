"""Self-test of the benchmark harness at a tiny size (about two minutes).

    python3 perfbench/selftest.py

Checks that BENCHMARK.json stays within its format limits and agrees with
spec.py; that every workload, untraced and traced, prints every named
metric with its unit and no failure; that a model returning a wrong
probability, or a CLI command exiting non-zero, is counted as a failed item
and raises error_rate; and that the benchmark refuses to run without the
repository around it. Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from spec import END_TO_END, LAYER_METRICS, RUN_SECONDS, WORKLOADS
from stats import error_rate_upper, tail

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def check(condition, message):
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def check_benchmark_json():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    check(set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"},
          f"BENCHMARK.json keys {sorted(doc)}")
    check(doc["paths"] == ["perfbench"] and doc["command"] == ["python3", "perfbench/run.py"],
          "command/paths")
    check(doc["run_seconds"] == RUN_SECONDS and 1 <= RUN_SECONDS <= 60, "run_seconds")
    check([w["name"] for w in doc["workloads"]] == list(WORKLOADS), "workload names")
    check(all(w["why"] == WORKLOADS[w["name"]] and len(w["why"]) <= 200 and "\n" not in w["why"]
              for w in doc["workloads"]), "workload why")
    e2e = {m["name"]: (m["unit"], m["better"], m["bound"]) for m in doc["end_to_end"]}
    check(e2e == END_TO_END, "end_to_end differs from spec.END_TO_END")
    check(all(0 < b <= 0.25 for _, _, b in e2e.values()), "bounds within (0, 0.25]")
    check(e2e["setup_s"][2] == max(b for _, _, b in e2e.values()), "setup_s has the largest bound")
    layers = [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]]
    check(layers == [(n, u, b) for n, u, b, *_ in LAYER_METRICS], "per_layer differs from spec")
    names = list(e2e) + [n for n, _, _ in layers] + [w["name"] for w in doc["workloads"]]
    check(all(NAME.match(n) for n in names), "a name breaks the naming rule")
    check(len(set(names)) == len(names), "a name is used twice")
    units = [u for u, _, _ in e2e.values()] + [u for _, u, _ in layers]
    check(all(UNIT.match(u) for u in units), "a unit breaks the unit rule")
    check(len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024, "BENCHMARK.json size")


def check_stats():
    check(tail(list(range(100))) == (89, 90.0), "tail of 100 items is p90")
    check(tail([3.0, 1.0, 2.0]) == (3.0, 100.0), "tail of few items is the maximum")
    clean = error_rate_upper(0, 100)
    check(abs(clean - (1 - 0.05 ** 0.01)) < 1e-15, "error_rate bound with no failure")
    check(error_rate_upper(1, 100) > clean, "one failure raises error_rate")
    check(abs(error_rate_upper(5, 100) - 0.1023) < 1e-3, "Clopper-Pearson bound for 5/100")


def bench(workload, seconds, trace, *extra, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", str(seconds), "--trace", str(trace), *extra],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def result_of(proc, what):
    check(proc.returncode == 0, f"{what}: exit {proc.returncode}: {proc.stderr[-800:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    check(set(result) == RESULT_KEYS, f"{what}: result keys {sorted(result)}")
    check(isinstance(result["attempted"], int) and result["attempted"] >= 1, f"{what}: attempted")
    return result


def check_runs():
    e2e_units = {n: u for n, (u, _, _) in END_TO_END.items()}
    layer_units = {n: u for n, u, *_ in LAYER_METRICS}
    for workload in WORKLOADS:
        for trace, units in ((0, e2e_units), (1, layer_units)):
            what = f"{workload} --trace {trace}"
            result = result_of(bench(workload, 1, trace), what)
            check(result["correct"] and result["failed"] == 0, f"{what}: failures {result}")
            got = {n: m["unit"] for n, m in result["metrics"].items()}
            check(got == units, f"{what}: metrics/units differ: {set(got) ^ set(units)}")
            check(all(isinstance(m["value"], (int, float)) for m in result["metrics"].values()),
                  f"{what}: non-numeric value")
            if trace == 0:
                check(all(m["value"] > 0 for m in result["metrics"].values()),
                      f"{what}: an end-to-end metric reads 0")
            print(f"ok  {what}: {result['attempted']} items", flush=True)


def check_faults():
    for workload, fault in (("global-shap", "wrong-proba"), ("knn-local-shap", "wrong-proba"),
                            ("local-explain", "wrong-proba"), ("cli-session", "bad-exit")):
        what = f"{workload} --inject-fault {fault}"
        result = result_of(bench(workload, 2, 0, "--inject-fault", fault), what)
        rate = result["metrics"]["error_rate"]["value"]
        check(result["failed"] > 0 and not result["correct"], f"{what}: fault not detected")
        check(rate > error_rate_upper(0, result["attempted"]), f"{what}: error_rate not raised")
        print(f"ok  {what}: {result['failed']}/{result['attempted']} failed, "
              f"error_rate {rate:.3f}", flush=True)


def check_refuses_bare_copy():
    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=scratch))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench("global-shap", 1, 0, cwd=bare)
        check(proc.returncode != 0 and not proc.stdout.strip(),
              f"bare copy: exit {proc.returncode}, stdout {proc.stdout[:200]!r}")
    finally:
        shutil.rmtree(bare)
    print("ok  refuses to run without the repository", flush=True)


def main():
    check_benchmark_json()
    check_stats()
    print("ok  BENCHMARK.json and statistics", flush=True)
    check_refuses_bare_copy()
    check_runs()
    check_faults()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
