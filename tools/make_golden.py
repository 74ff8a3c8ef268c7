#!/usr/bin/env python3
"""Regenerate the golden reports in tests/golden/.

For each model kind the script trains the CLI's default model (split seed
42, train fraction 0.7) into ``tests/golden/models/<kind>.json``. On that
model it then writes the timestamp-stripped canonical JSON report of

* ``explain --mode local-lime`` at the defaults,
* ``explain --mode local-shap --samples 512`` and ``--samples 26``,

for the years 1934 and 1947, and for logistic, svm and tree also

* ``explain --mode global-shap`` at the defaults (exhaustive coalitions,
  trainset background) over every year,
* ``explain --mode global-shap --samples 200`` over every year.

Then, per kind, ``explain --mode local-shap`` at the defaults (exhaustive
coalitions) for 1934 and 1947, ``evaluate --on test`` and ``evaluate --on
all`` over the four stored models at once, which covers ``predict`` (KNN's
tie rule too), ``summary``, and ``explain --mode compare --year 1947`` for the tree
(exhaustive) and for logistic with ``--samples 200``. KNN's compare runs an
exhaustive or 200-coalition global importance over every year, which takes
seconds, so it has no golden report.

``tests/golden/cases.json`` lists every
command with its report file; ``tests/test_golden.py`` reruns each command
on the stored model and compares the result with the file.

The ``train --json`` report of each stored model is ``<kind>-train.json``.
``tests/test_golden.py`` retrains each kind in a scratch directory, under
the same relative ``--out models/<kind>.json``, and compares both the model
file and that report with the stored ones.

``tests/golden/tree-masked-proba.json`` and ``knn-masked-proba.json`` hold
the stored tree's and KNN's ``masked_proba`` tables for the years in
``MASKED_YEARS``, on the trainset and mean backgrounds, over the exhaustive
mask table and over a seeded draw of masks with duplicates. A tree cell is a
leaf fraction and a KNN cell a vote, one of a few rationals, so each table is
stored exactly: the distinct values once, and per case each cell's index
into them (uint8, or uint16 beyond 256 values; zlib, base64).

The commands run with ``tests/golden`` as the working directory, so each
report's manifest records the model path as ``models/<kind>.json``. Each
model is trained under that relative path in a scratch directory, and the
stored file is replaced only when more than its timestamps changed, so a
rerun on an unchanged tree leaves the stored models untouched.

Last, for each report with a ranking, the script prints the smallest gap
between consecutive ranked importances and the ranks (1-based) whose order
rests on a gap below 1e-12, and for each compare report the features whose
sign agreement rests on a Shapley value or LIME weight below 1e-12 in size.
Such an order or sign is set by rounding, so another numpy or BLAS build
can flip it.

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
# kinds with an exhaustive global-shap report; KNN's takes 16-18 s on two CPUs
GLOBAL_KINDS = ("logistic", "svm", "tree")
# masked_proba tables per kind: 1934 and 1947, and for the tree the flood
# years 1961 and 2018 (a KNN table on the trainset background takes 0.1-0.2 s)
MASKED_YEARS = {"tree": (1934, 1947, 1961, 2018), "knn": YEARS}
# an order or a sign decided by less than this is rounding, not the model
NEAR_TIE = 1e-12


def _run(argv):
    """Run one CLI command quietly; a non-zero exit aborts with its stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main([str(a) for a in argv])
    if code != 0:
        raise SystemExit(f"floodxai {' '.join(map(str, argv))} exited {code}: {err.getvalue()}")


def cases():
    """Every golden command: CLI arguments (without --data and --json) and report file."""
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
            "name": f"{kind}-global-shap-200",
            "argv": ["explain", "--model", f"models/{kind}.json", "--mode", "global-shap",
                     "--samples", "200"],
            "report": f"{kind}-global-shap-200.json",
        }
        for kind in GLOBAL_KINDS
    ] + [
        {
            "name": f"{kind}-local-shap-exhaustive-{year}",
            "argv": ["explain", "--model", f"models/{kind}.json", "--mode", "local-shap",
                     "--year", str(year)],
            "report": f"{kind}-local-shap-exhaustive-{year}.json",
        }
        for kind in MODEL_KINDS
        for year in YEARS
    ] + [
        {
            "name": f"evaluate-{on}",
            "argv": ["evaluate", "--model", *[f"models/{kind}.json" for kind in MODEL_KINDS],
                     "--on", on],
            "report": f"evaluate-{on}.json",
        }
        for on in ("test", "all")
    ] + [
        {"name": "summary", "argv": ["summary"], "report": "summary.json"},
        {
            "name": "tree-compare-1947",
            "argv": ["explain", "--model", "models/tree.json", "--mode", "compare",
                     "--year", "1947"],
            "report": "tree-compare-1947.json",
        },
        {
            "name": "logistic-compare-200-1947",
            "argv": ["explain", "--model", "models/logistic.json", "--mode", "compare",
                     "--year", "1947", "--samples", "200"],
            "report": "logistic-compare-200-1947.json",
        },
    ]


def masked_proba_tables(kind):
    """The stored `kind` model's `masked_proba` tables, in the layout described above."""
    path = f"models/{kind}.json"
    payload = read_model_file(path)
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
        for year in MASKED_YEARS[kind]
        for name, bg in backgrounds.items()
        for table, masks in tables.items()
    }
    values = np.unique(np.concatenate([v.ravel() for v in got.values()]))
    if len(values) > 1 << 16:
        raise SystemExit(f"{len(values)} distinct {kind} values do not fit uint16 indices")
    dtype = np.uint8 if len(values) <= 256 else np.uint16
    cases = []
    for (year, name, table), v in got.items():
        index = np.searchsorted(values, v).astype(dtype)
        cases.append({
            "year": year,
            "background": name,
            "masks": table,
            "shape": list(v.shape),
            "index": base64.b64encode(zlib.compress(index.tobytes(), 9)).decode("ascii"),
        })
    return {
        "model": path,
        "sampled_codes": codes,
        "values": values.tolist(),
        "cases": cases,
    }


def ranking_margin(report):
    """The smallest gap between consecutive ranked importances of a report, and
    the 1-based ranks either side of each gap below NEAR_TIE."""
    by_name = dict(zip(report["feature_names"], report["importances"]))
    ranked = [by_name[name] for name in report["ranking"]]
    gaps = [a - b for a, b in zip(ranked, ranked[1:])]
    near = sorted({r for k, gap in enumerate(gaps) if gap < NEAR_TIE for r in (k + 1, k + 2)})
    return min(gaps), near


def near_zero_signs(report):
    """The features of a compare report whose sign agreement rests on a Shapley
    value or LIME weight below NEAR_TIE in size."""
    return [
        entry["feature"]
        for entry in report["sign_agreement"]
        if min(abs(entry["shap_phi"]), abs(entry["lime_weight"])) < NEAR_TIE
    ]


def print_margins():
    """Print the ranking margin of every report with a ranking, and the near-zero
    signs of every compare report."""
    for case in cases():
        report = json.loads(Path(case["report"]).read_text(encoding="utf-8"))
        if "ranking" in report:
            gap, near = ranking_margin(report)
            print(f"{case['name']}: smallest ranking gap {gap:.3g}; ranks resting on a gap "
                  f"below {NEAR_TIE:g}: {', '.join(map(str, near)) or 'none'}")
        if "sign_agreement" in report:
            print(f"{case['name']}: signs resting on a value below {NEAR_TIE:g}: "
                  f"{', '.join(near_zero_signs(report)) or 'none'}")


def store_model(trained, stored):
    """Copy the trained model file over the stored one unless only timestamps differ."""
    new = trained.read_text(encoding="utf-8")
    if stored.exists():
        old = stored.read_text(encoding="utf-8")
        if strip_timestamps(json.loads(old)) == strip_timestamps(json.loads(new)):
            return
    write_text({stored: new})


def main():
    (GOLDEN_DIR / "models").mkdir(parents=True, exist_ok=True)
    os.chdir(GOLDEN_DIR)
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "report.json"

        def store(argv, report):
            _run([*argv, "--data", DATA_PATH, "--json", out])
            stripped = strip_timestamps(json.loads(out.read_text(encoding="utf-8")))
            write_text({report: canonical_json(stripped)})

        # each model is trained under its relative path in the scratch directory,
        # so the train report records models/<kind>.json
        os.chdir(tmp)
        for kind in MODEL_KINDS:
            store(["train", "--model", kind, "--out", f"models/{kind}.json"],
                  GOLDEN_DIR / f"{kind}-train.json")
            store_model(Path(tmp) / "models" / f"{kind}.json",
                        GOLDEN_DIR / "models" / f"{kind}.json")
        os.chdir(GOLDEN_DIR)
        for case in cases():
            store(case["argv"], case["report"])
    write_text({"cases.json": json.dumps(cases(), indent=2) + "\n"})
    for kind in MASKED_YEARS:
        write_text({f"{kind}-masked-proba.json":
                    json.dumps(masked_proba_tables(kind), indent=1) + "\n"})
    print(f"wrote {len(cases())} reports, {len(MODEL_KINDS)} models with their train "
          f"reports and the {' and '.join(MASKED_YEARS)} "
          f"masked_proba tables to {GOLDEN_DIR}")
    print_margins()


if __name__ == "__main__":
    main()
