"""Golden reports: the CLI's reports on stored models stay put.

`tools/make_golden.py` wrote every file under tests/golden. Each case reruns
one CLI command on the stored model files and compares its report with
the golden one: strings, integers, key sets and list order (so rankings and
LIME's selection order) exactly, floats within 1e-12. Bytes are not compared,
because other SIMD reductions or LAPACK builds may move the last bits.

Each kind is also retrained in a scratch directory under the stored model's
relative path, and the model file and the `train --json` report are compared
with the stored ones by the same rule, ignoring timestamps.

The stored tree's and KNN's `masked_proba` tables are compared exactly: a
tree cell is a leaf fraction and a KNN cell a vote over distances summed in
feature order, which no reduction order can move.
"""

import base64
import json
import math
import zlib

import numpy as np
import pytest

from floodxai import (
    MODEL_KINDS,
    impute_missing,
    load_csv,
    load_model,
    split,
    strip_timestamps,
)
from floodxai.explain.shapley import _bit_table

from conftest import DATA_PATH, REPO_ROOT

GOLDEN_DIR = REPO_ROOT / "tests" / "golden"
CASES = json.loads((GOLDEN_DIR / "cases.json").read_text(encoding="utf-8"))
FLOAT_TOL = 1e-12


def assert_report_matches(got, want, where="report"):
    assert type(got) is type(want), f"{where}: {type(got).__name__} != {type(want).__name__}"
    if isinstance(want, dict):
        assert sorted(got) == sorted(want), f"{where}: keys differ"
        for key in want:
            assert_report_matches(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), f"{where}: {len(got)} entries, expected {len(want)}"
        for i, (g, w) in enumerate(zip(got, want)):
            assert_report_matches(g, w, f"{where}[{i}]")
    elif isinstance(want, float):
        assert math.isclose(got, want, rel_tol=FLOAT_TOL, abs_tol=FLOAT_TOL), (
            f"{where}: {got!r} != {want!r}"
        )
    else:
        assert got == want, f"{where}: {got!r} != {want!r}"


@pytest.mark.parametrize("case", CASES, ids=[case["name"] for case in CASES])
def test_golden_report(case, run_cli, monkeypatch, tmp_path):
    # the golden manifests record the model path relative to tests/golden
    monkeypatch.chdir(GOLDEN_DIR)
    out = tmp_path / "report.json"
    code, _, err = run_cli([*case["argv"], "--data", DATA_PATH, "--json", out])
    assert code == 0, err
    got = strip_timestamps(json.loads(out.read_text(encoding="utf-8")))
    want = json.loads((GOLDEN_DIR / case["report"]).read_text(encoding="utf-8"))
    assert_report_matches(got, want)


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_golden_train(kind, run_cli, monkeypatch, tmp_path):
    # a relative --out keeps the report's path that of the stored model
    monkeypatch.chdir(tmp_path)
    model = f"models/{kind}.json"
    code, _, err = run_cli(
        ["train", "--data", DATA_PATH, "--model", kind, "--out", model, "--json", "report.json"]
    )
    assert code == 0, err
    for got, want in ((model, model), ("report.json", f"{kind}-train.json")):
        assert_report_matches(
            strip_timestamps(json.loads((tmp_path / got).read_text(encoding="utf-8"))),
            strip_timestamps(json.loads((GOLDEN_DIR / want).read_text(encoding="utf-8"))),
            got,
        )


def assert_masked_proba_tables(kind):
    golden = json.loads((GOLDEN_DIR / f"{kind}-masked-proba.json").read_text(encoding="utf-8"))
    model = load_model(GOLDEN_DIR / golden["model"])
    model_file = (GOLDEN_DIR / golden["model"]).read_text(encoding="utf-8")
    metadata = json.loads(model_file)["metadata"]
    dataset = impute_missing(load_csv(DATA_PATH))
    train = split(dataset, metadata["split"], metadata["seed"]).train.features()
    backgrounds = {"trainset": train, "mean": train.mean(axis=0, keepdims=True)}
    codes = np.array(golden["sampled_codes"])
    assert len(np.unique(codes)) < len(codes), "the sampled table should repeat masks"
    m = model.n_features
    tables = {
        "exhaustive": _bit_table(m),
        "sampled": ((codes[:, None] >> np.arange(m)) & 1).astype(bool),
    }
    features = dict(zip(dataset.years(), dataset.features()))
    values = np.array(golden["values"])
    dtype = np.uint8 if len(values) <= 256 else np.uint16
    for case in golden["cases"]:
        index = np.frombuffer(zlib.decompress(base64.b64decode(case["index"])), dtype=dtype)
        got = model.masked_proba(
            features[case["year"]], backgrounds[case["background"]], tables[case["masks"]]
        )
        where = f"{case['year']}, {case['background']} background, {case['masks']} masks"
        np.testing.assert_array_equal(got, values[index].reshape(case["shape"]), err_msg=where)


def test_golden_tree_masked_proba():
    assert_masked_proba_tables("tree")


def test_golden_knn_masked_proba():
    assert_masked_proba_tables("knn")


def test_comparison_is_exact_but_for_float_rounding():
    want = {"conditions": [{"feature": "AUG", "bin": 3, "weight": 0.25}], "seed": 0}
    assert_report_matches(json.loads(json.dumps(want)), want)
    close = {"conditions": [{"feature": "AUG", "bin": 3, "weight": 0.25 + 1e-14}], "seed": 0}
    assert_report_matches(close, want)
    for wrong in (
        {"conditions": [{"feature": "AUG", "bin": 3, "weight": 0.25 + 1e-9}], "seed": 0},
        {"conditions": [{"feature": "JUL", "bin": 3, "weight": 0.25}], "seed": 0},
        {"conditions": [{"feature": "AUG", "bin": 2, "weight": 0.25}], "seed": 0},
        {"conditions": [{"feature": "AUG", "bin": 3.0, "weight": 0.25}], "seed": 0},
        {"conditions": [], "seed": 0},
        {"conditions": [{"feature": "AUG", "bin": 3, "weight": 0.25}]},
    ):
        with pytest.raises(AssertionError):
            assert_report_matches(wrong, want)
