#!/usr/bin/env python3
"""Regenerate the golden local-explanation reports in tests/golden/.

For each model kind the script trains the CLI's default model (split seed
42, train fraction 0.7) into ``tests/golden/models/<kind>.json``. On that
model it then writes the timestamp-stripped canonical JSON report of

* ``explain --mode local-lime`` at the defaults,
* ``explain --mode local-shap --samples 512`` and ``--samples 26``,

for the years 1934 and 1947, and for logistic, svm and tree also

* ``explain --mode global-shap`` at the defaults (exhaustive coalitions,
  trainset background) over every year,

and for the tree ``explain --mode global-shap --samples 200``.

``tests/golden/cases.json`` lists every
command with its report file; ``tests/test_golden.py`` reruns each command
on the stored model and compares the result with the file.

``tests/golden/tree-masked-proba.json`` holds the stored tree's
``masked_proba`` tables for the years in ``MASKED_YEARS``, on the trainset
and mean backgrounds, over the exhaustive mask table and over a seeded draw
of masks with duplicates. Each table is leaf fractions, so it is stored
exactly: the distinct values once, and per case each cell's index into them
(uint8, zlib, base64).

The commands run with ``tests/golden`` as the working directory, so each
report's manifest records the model path as ``models/<kind>.json``.

Regenerate only for a change that is meant to alter these reports, and
say in CHANGES.md what changed and why.

Usage:
    python3 tools/make_golden.py
"""

from __future__ import annotations

import base64
import contextlib
import io
import json
import os
import sys
import tempfile
import zlib
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from floodxai import MODEL_KINDS, canonical_json, strip_timestamps  # noqa: E402
from floodxai.cli import main as cli_main  # noqa: E402
from floodxai.dataset import impute_missing, load_csv, split  # noqa: E402
from floodxai.explain.shapley import _bit_table  # noqa: E402
from floodxai.manifest import write_text  # noqa: E402
from floodxai.models.io import model_from_dict, read_model_file  # noqa: E402

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
# tree masked_proba tables: 1934 and 1947, and the flood years 1961 and 2018
MASKED_YEARS = (1934, 1947, 1961, 2018)


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
    ] + [
        {
            "name": "tree-global-shap-200",
            "argv": ["explain", "--model", "models/tree.json", "--mode", "global-shap",
                     "--samples", "200"],
            "report": "tree-global-shap-200.json",
        }
    ]


def tree_masked_proba():
    """The stored tree's `masked_proba` tables, in the layout described above."""
    payload = read_model_file("models/tree.json")
    model = model_from_dict(payload)
    dataset = impute_missing(load_csv(DATA_PATH))
    seed, fraction = payload["metadata"]["seed"], payload["metadata"]["split"]
    train = split(dataset, fraction, seed).train.features()
    backgrounds = {"trainset": train, "mean": train.mean(axis=0, keepdims=True)}
    m = model.n_features
    rng = np.random.default_rng(0)
    drawn = rng.integers(0, 1 << m, size=150)
    codes = np.concatenate([drawn, rng.choice(drawn, size=50)]).tolist()
    tables = {
        "exhaustive": _bit_table(m),
        "sampled": ((np.array(codes)[:, None] >> np.arange(m)) & 1).astype(bool),
    }
    features = dict(zip(dataset.years(), dataset.features()))
    got = {
        (year, name, table): model.masked_proba(features[year], bg, masks)
        for year in MASKED_YEARS
        for name, bg in backgrounds.items()
        for table, masks in tables.items()
    }
    values = np.unique(np.concatenate([v.ravel() for v in got.values()]))
    if len(values) > 256:
        raise SystemExit(f"{len(values)} distinct tree values do not fit uint8 indices")
    cases = []
    for (year, name, table), v in got.items():
        index = np.searchsorted(values, v).astype(np.uint8)
        cases.append({
            "year": year,
            "background": name,
            "masks": table,
            "shape": list(v.shape),
            "index": base64.b64encode(zlib.compress(index.tobytes(), 9)).decode("ascii"),
        })
    return {
        "model": "models/tree.json",
        "sampled_codes": codes,
        "values": values.tolist(),
        "cases": cases,
    }


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
    write_text("tree-masked-proba.json", json.dumps(tree_masked_proba(), indent=1) + "\n")
    print(f"wrote {len(cases())} reports, {len(MODEL_KINDS)} models and the tree's "
          f"masked_proba tables to {GOLDEN_DIR}")


if __name__ == "__main__":
    main()
