"""Golden local-explanation reports: the CLI's reports on stored models stay put.

`tools/make_golden.py` wrote every file under tests/golden. Each case reruns
one `explain` command on the stored model file and compares its report with
the golden one: strings, integers, key sets and list order (so rankings and
LIME's selection order) exactly, floats within 1e-12. Bytes are not compared,
because other SIMD reductions or LAPACK builds may move the last bits.
"""

import json
import math

import pytest

from floodxai import strip_timestamps

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
