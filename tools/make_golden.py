#!/usr/bin/env python3
"""Regenerate the golden local-explanation reports in tests/golden/.

For each model kind the script trains the CLI's default model (split seed
42, train fraction 0.7) into ``tests/golden/models/<kind>.json``. On that
model it then writes the timestamp-stripped canonical JSON report of

* ``explain --mode local-lime`` at the defaults,
* ``explain --mode local-shap --samples 512`` and ``--samples 26``,

for the years 1934 and 1947, and for logistic, svm and tree also

* ``explain --mode global-shap`` at the defaults (exhaustive coalitions,
  trainset background) over every year.

``tests/golden/cases.json`` lists every
command with its report file; ``tests/test_golden.py`` reruns each command
on the stored model and compares the result with the file.

The commands run with ``tests/golden`` as the working directory, so each
report's manifest records the model path as ``models/<kind>.json``.

Regenerate only for a change that is meant to alter these reports, and
say in CHANGES.md what changed and why.

Usage:
    python3 tools/make_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from floodxai import MODEL_KINDS, canonical_json, strip_timestamps  # noqa: E402
from floodxai.cli import main as cli_main  # noqa: E402
from floodxai.manifest import write_text  # noqa: E402

GOLDEN_DIR = REPO_ROOT / "tests" / "golden"
DATA_PATH = REPO_ROOT / "data" / "kerala.csv"
YEARS = (1934, 1947)
# (file stem, extra explain arguments)
MODES = (
    ("local-lime", ["--mode", "local-lime"]),
    ("local-shap-512", ["--mode", "local-shap", "--samples", "512"]),
    ("local-shap-26", ["--mode", "local-shap", "--samples", "26"]),
)
# kinds with an exhaustive global-shap report; KNN's takes about half a minute
GLOBAL_KINDS = ("logistic", "svm", "tree")


def _run(argv):
    """Run one CLI command quietly; a non-zero exit aborts with its stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main([str(a) for a in argv])
    if code != 0:
        raise SystemExit(f"floodxai {' '.join(map(str, argv))} exited {code}: {err.getvalue()}")


def cases():
    """Every golden command: explain arguments (without --data and --json) and report file."""
    local = [
        {
            "name": f"{kind}-{stem}-{year}",
            "argv": ["explain", "--model", f"models/{kind}.json", *extra, "--year", str(year)],
            "report": f"{kind}-{stem}-{year}.json",
        }
        for kind in MODEL_KINDS
        for stem, extra in MODES
        for year in YEARS
    ]
    return local + [
        {
            "name": f"{kind}-global-shap",
            "argv": ["explain", "--model", f"models/{kind}.json", "--mode", "global-shap"],
            "report": f"{kind}-global-shap.json",
        }
        for kind in GLOBAL_KINDS
    ]


def main():
    (GOLDEN_DIR / "models").mkdir(parents=True, exist_ok=True)
    os.chdir(GOLDEN_DIR)
    for kind in MODEL_KINDS:
        _run(["train", "--data", DATA_PATH, "--model", kind, "--out", f"models/{kind}.json"])
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "report.json"
        for case in cases():
            _run([*case["argv"], "--data", DATA_PATH, "--json", out])
            report = strip_timestamps(json.loads(out.read_text(encoding="utf-8")))
            write_text(case["report"], canonical_json(report))
    write_text("cases.json", json.dumps(cases(), indent=2) + "\n")
    print(f"wrote {len(cases())} reports and {len(MODEL_KINDS)} models to {GOLDEN_DIR}")


if __name__ == "__main__":
    main()
