"""End-to-end command-line flows: flags, reports, schemas, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import floodxai
from floodxai import MODEL_KINDS, load_model, strip_timestamps
from floodxai.cli import main as cli_main


def json_tail(stdout):
    """Parse the canonical JSON that `--json -` appends after the text output."""
    payload, _ = json.JSONDecoder().raw_decode(stdout[stdout.index("{") :])
    return payload


def _leftmost_leaf(payload):
    """The leftmost leaf of a tree model file's payload."""
    node = payload["parameters"]["root"]
    while "left" in node:
        node = node["left"]
    return node


@pytest.fixture(scope="module")
def model_dir(tmp_path_factory, data_path):
    """One saved model file per kind, trained through the CLI itself."""
    directory = tmp_path_factory.mktemp("models")
    for kind in MODEL_KINDS:
        code = cli_main(
            [
                "train",
                "--data",
                str(data_path),
                "--model",
                kind,
                "--out",
                str(directory / f"{kind}.json"),
            ]
        )
        assert code == 0
    return directory


def test_cli_import_loads_no_scipy_or_xml_sax():
    # scipy once cost about half of every fresh command's run time
    probe = (
        "import sys; bare = set(sys.modules); import floodxai.cli; "
        "print(*sorted(set(sys.modules) - bare))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(Path(floodxai.__file__).parents[1])},
    )
    added = result.stdout.split()
    assert "floodxai.cli" in added
    assert [m for m in added if m.split(".")[0] == "scipy" or m.startswith("xml.sax")] == []


class TestSummary:
    def test_happy_path_text(self, run_cli, data_path):
        code, out, err = run_cli(["summary", "--data", data_path])
        assert code == 0 and err == ""
        assert "records: 121 (years 1901..2021)" in out
        assert "flood years:" in out
        assert "imputed cells (3; year,month,value,strategy):" in out
        assert "1913,FEB" in out and "1956,OCT" in out and "2003,JAN" in out
        assert "mean monthly rainfall (mm):" in out
        assert "JUL" in out and "#" in out

    def test_json_to_stdout_validates(self, run_cli, data_path, load_schema):
        code, out, _ = run_cli(["summary", "--data", data_path, "--json", "-"])
        assert code == 0
        payload = json_tail(out)
        jsonschema.validate(payload, load_schema("summary"))
        assert payload["n_records"] == 121
        assert payload["n_flood"] + payload["n_no_flood"] == 121
        assert len(payload["monthly_means"]) == 12
        assert len(payload["imputations"]) == 3

    def test_json_and_svg_files(self, run_cli, data_path, tmp_path, load_schema):
        json_path = tmp_path / "summary.json"
        svg_path = tmp_path / "summary.svg"
        code, out, _ = run_cli(
            ["summary", "--data", data_path, "--json", json_path, "--svg", svg_path]
        )
        assert code == 0
        assert f"json report -> {json_path}" in out
        assert f"svg chart -> {svg_path}" in out
        jsonschema.validate(json.loads(json_path.read_text()), load_schema("summary"))
        assert svg_path.read_text().startswith("<svg")

    def test_zero_imputation_echoed_in_manifest(self, run_cli, data_path):
        code, out, _ = run_cli(
            ["summary", "--data", data_path, "--impute", "zero", "--json", "-"]
        )
        assert code == 0
        payload = json_tail(out)
        assert payload["manifest"]["hyperparameters"]["impute"] == "zero"
        assert all(cell["value"] == 0.0 for cell in payload["imputations"])

    def test_missing_file_exits_2(self, run_cli, tmp_path):
        code, _, err = run_cli(["summary", "--data", tmp_path / "absent.csv"])
        assert code == 2
        assert err.startswith("error:")

    def test_malformed_csv_exits_2(self, run_cli, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("not,a,rainfall,table\n1,2,3,4\n")
        code, _, err = run_cli(["summary", "--data", bad])
        assert code == 2
        assert err.startswith("error:")


class TestTrain:
    def test_each_kind_round_trips_through_the_cli(
        self, model_dir, all_models, parts, load_schema
    ):
        X = parts.test.features()
        for kind in MODEL_KINDS:
            payload = json.loads((model_dir / f"{kind}.json").read_text())
            jsonschema.validate(payload, load_schema("model"))
            assert payload["kind"] == kind
            assert payload["metadata"]["seed"] == 42
            assert payload["metadata"]["split"] == 0.7
            reloaded = load_model(model_dir / f"{kind}.json")
            np.testing.assert_array_equal(
                np.asarray(reloaded.predict_proba(X)),
                np.asarray(all_models[kind].predict_proba(X)),
            )

    def test_stdout_reports_training(self, run_cli, data_path, tmp_path):
        code, out, _ = run_cli(
            [
                "train",
                "--data",
                data_path,
                "--model",
                "tree",
                "--out",
                tmp_path / "tree.json",
            ]
        )
        assert code == 0
        assert "trained tree on 84 rows (seed 42, split 0.7)" in out
        assert "train accuracy" in out
        assert "model ->" in out

    def test_default_output_name(self, run_cli, data_path, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, out, _ = run_cli(["train", "--data", data_path, "--model", "knn"])
        assert code == 0
        assert (tmp_path / "knn_model.json").exists()
        assert "knn_model.json" in out

    def test_json_report_scores_training_partition(
        self, run_cli, data_path, tmp_path, load_schema
    ):
        code, out, _ = run_cli(
            [
                "train",
                "--data",
                data_path,
                "--model",
                "logistic",
                "--out",
                tmp_path / "m.json",
                "--json",
                "-",
            ]
        )
        assert code == 0
        payload = json_tail(out)
        jsonschema.validate(payload, load_schema("metrics"))
        assert payload["partition"] == "train"
        assert payload["n_rows"] == 84
        assert payload["rows"][0]["kind"] == "logistic"

    @pytest.mark.parametrize(
        "kind, flag, value",
        [
            ("knn", "--k", "0"),
            ("knn", "--k", "200"),
            ("tree", "--max-depth", "-1"),
            ("svm", "--c", "0"),
            ("logistic", "--lr", "0"),
            ("logistic", "--epochs", "0"),
        ],
        ids=["k", "k-above-rows", "max-depth", "c", "lr", "epochs"],
    )
    def test_invalid_hyperparameter_flag_exits_2(
        self, run_cli, data_path, tmp_path, kind, flag, value
    ):
        code, _, err = run_cli(
            [
                "train",
                "--data",
                data_path,
                "--model",
                kind,
                flag,
                value,
                "--out",
                tmp_path / "m.json",
            ]
        )
        assert code == 2
        assert flag in err

    def test_inapplicable_flag_named(self, run_cli, data_path, tmp_path):
        code, _, err = run_cli(
            [
                "train",
                "--data",
                data_path,
                "--model",
                "knn",
                "--lr",
                "0.5",
                "--out",
                tmp_path / "m.json",
            ]
        )
        assert code == 2
        assert "--lr does not apply to --model knn" in err

    def test_hyperparameters_echoed_in_manifest(self, run_cli, data_path, tmp_path):
        out_path = tmp_path / "svm.json"
        code, _, _ = run_cli(
            [
                "train",
                "--data",
                data_path,
                "--model",
                "svm",
                "--c",
                "2.0",
                "--epochs",
                "50",
                "--out",
                out_path,
            ]
        )
        assert code == 0
        manifest = json.loads(out_path.read_text())["manifest"]
        assert manifest["hyperparameters"]["C"] == 2.0
        assert manifest["hyperparameters"]["epochs"] == 50
        assert manifest["seeds"] == {"split": 42}


class TestEvaluate:
    def test_table_on_test_partition(self, run_cli, data_path, model_dir):
        code, out, _ = run_cli(
            [
                "evaluate",
                "--data",
                data_path,
                "--model",
                *(model_dir / f"{kind}.json" for kind in MODEL_KINDS),
            ]
        )
        assert code == 0
        assert "partition: test (37 rows; split seed 42, train fraction 0.7)" in out
        lines = out.splitlines()
        header = next(i for i, l in enumerate(lines) if l.startswith("Model"))
        assert "Accuracy" in lines[header] and "F1-score" in lines[header]
        table_rows = lines[header + 2 : header + 6]
        assert [r.split("  ")[0].strip() for r in table_rows] == [
            "Logistic regression",
            "KNN",
            "Decision tree",
            "SVM",
        ]

    def test_train_partition_flag(self, run_cli, data_path, model_dir):
        code, out, _ = run_cli(
            [
                "evaluate",
                "--data",
                data_path,
                "--model",
                model_dir / "tree.json",
                "--on",
                "train",
            ]
        )
        assert code == 0
        assert "partition: train (84 rows" in out

    def test_json_report_validates(self, run_cli, data_path, model_dir, load_schema):
        code, out, _ = run_cli(
            [
                "evaluate",
                "--data",
                data_path,
                "--model",
                model_dir / "logistic.json",
                model_dir / "svm.json",
                "--json",
                "-",
            ]
        )
        assert code == 0
        payload = json_tail(out)
        jsonschema.validate(payload, load_schema("metrics"))
        assert [row["kind"] for row in payload["rows"]] == ["logistic", "svm"]
        assert payload["split"] == {"seed": 42, "train_fraction": 0.7}

    def test_repeat_runs_identical_after_timestamp_strip(
        self, run_cli, data_path, model_dir
    ):
        argv = [
            "evaluate",
            "--data",
            data_path,
            "--model",
            model_dir / "knn.json",
            "--json",
            "-",
        ]
        _, out_a, _ = run_cli(argv)
        _, out_b, _ = run_cli(argv)
        assert strip_timestamps(json_tail(out_a)) == strip_timestamps(json_tail(out_b))

    @pytest.mark.parametrize(
        "kind, corrupt, named",
        [
            ("logistic", lambda p: p["parameters"].pop("weights"), "weights"),
            ("logistic", lambda p: p["hyperparameters"].update(bogus=1), "bogus"),
            ("logistic", lambda p: p["hyperparameters"].update(epochs="many"), "malformed"),
            ("logistic", lambda p: p.update(metadata=[]), "metadata"),
            ("logistic", None, "JSON"),
            ("knn", lambda p: p["hyperparameters"].update(k=500), "k must satisfy"),
            ("knn", lambda p: p["parameters"]["train_labels"].pop(), "train_labels has"),
            ("knn", lambda p: p["parameters"]["train_labels"].__setitem__(0, 2), "0 or 1"),
            ("knn", lambda p: p["parameters"].update(train_scaled=[1.0, 2.0]), "list of rows"),
            ("tree", lambda p: p["parameters"]["root"].update(feature=-1), "feature < 12, got -1"),
            ("tree", lambda p: p["parameters"]["root"].update(feature=12), "feature < 12, got 12"),
            ("tree", lambda p: p["parameters"]["root"].update(threshold=float("nan")), "threshold"),
            ("tree", lambda p: _leftmost_leaf(p).update(n_samples=0), "n_samples must be >= 1"),
            ("tree", lambda p: _leftmost_leaf(p).update(n_flood=50), "n_flood must satisfy"),
        ],
        ids=[
            "missing-key",
            "unknown-hyperparameter",
            "wrong-type",
            "non-object-metadata",
            "not-json",
            "knn-k-above-rows",
            "knn-short-labels",
            "knn-non-binary-label",
            "knn-flat-rows",
            "tree-negative-feature",
            "tree-feature-past-width",
            "tree-nan-threshold",
            "tree-empty-leaf",
            "tree-flood-above-samples",
        ],
    )
    def test_malformed_model_file_exits_2(
        self, run_cli, data_path, model_dir, tmp_path, kind, corrupt, named
    ):
        path = tmp_path / "bad.json"
        if corrupt is None:
            path.write_text("{not json")
        else:
            payload = json.loads((model_dir / f"{kind}.json").read_text())
            corrupt(payload)
            path.write_text(json.dumps(payload))
        for command in (
            ["evaluate", "--model", path],
            ["explain", "--model", path, "--mode", "local-shap", "--year", "1947"],
        ):
            code, _, err = run_cli([*command, "--data", data_path])
            assert code == 2
            assert named in err

    def test_split_recovered_from_model_metadata(self, run_cli, data_path, tmp_path):
        out_path = tmp_path / "m.json"
        run_cli(
            [
                "train",
                "--data",
                data_path,
                "--model",
                "tree",
                "--seed",
                "7",
                "--split",
                "0.8",
                "--out",
                out_path,
            ]
        )
        code, out, _ = run_cli(["evaluate", "--data", data_path, "--model", out_path])
        assert code == 0
        assert "split seed 7, train fraction 0.8" in out

    def test_conflicting_seeds_need_explicit_flag(self, run_cli, data_path, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run_cli(["train", "--data", data_path, "--model", "tree", "--seed", "1", "--out", a])
        run_cli(["train", "--data", data_path, "--model", "tree", "--seed", "2", "--out", b])
        code, _, err = run_cli(["evaluate", "--data", data_path, "--model", a, b])
        assert code == 2
        assert "different split seeds" in err
        code, out, _ = run_cli(
            ["evaluate", "--data", data_path, "--model", a, b, "--seed", "1"]
        )
        assert code == 0
        assert "split seed 1" in out


class TestExplain:
    def test_global_shap_report(self, run_cli, data_path, model_dir, load_schema):
        code, out, _ = run_cli(
            [
                "explain",
                "--data",
                data_path,
                "--model",
                model_dir / "logistic.json",
                "--mode",
                "global-shap",
                "--background",
                "mean",
                "--json",
                "-",
            ]
        )
        assert code == 0
        assert "global importance (mean |phi| over 121 instances):" in out
        payload = json_tail(out)
        jsonschema.validate(payload, load_schema("shap_global"))
        assert payload["method"] == "kernel-exhaustive"
        assert payload["n_instances"] == 121
        by_name = dict(zip(payload["feature_names"], payload["importances"]))
        ranked = [by_name[name] for name in payload["ranking"]]
        assert ranked == sorted(ranked, reverse=True)

    def test_local_shap_additivity_and_svg(
        self, run_cli, data_path, model_dir, tmp_path, load_schema
    ):
        svg_path = tmp_path / "local.svg"
        code, out, _ = run_cli(
            [
                "explain",
                "--data",
                data_path,
                "--model",
                model_dir / "logistic.json",
                "--mode",
                "local-shap",
                "--year",
                "1947",
                "--json",
                "-",
                "--svg",
                svg_path,
            ]
        )
        assert code == 0
        assert "year 1947: model output" in out
        payload = json_tail(out)
        jsonschema.validate(payload, load_schema("shap_local"))
        assert len(payload["phi"]) == 12
        assert payload["model_output"] == pytest.approx(
            payload["base_value"] + sum(payload["phi"]), abs=1e-9
        )
        assert abs(payload["additivity_residual"]) < 1e-9
        assert svg_path.read_text().startswith("<svg")

    def test_local_lime_report(self, run_cli, data_path, model_dir, load_schema):
        code, out, _ = run_cli(
            [
                "explain",
                "--data",
                data_path,
                "--model",
                model_dir / "logistic.json",
                "--mode",
                "local-lime",
                "--year",
                "1947",
                "--samples",
                "600",
                "--json",
                "-",
            ]
        )
        assert code == 0
        assert "year 1947: predicted flood (p =" in out
        assert "local fidelity R^2 =" in out
        payload = json_tail(out)
        jsonschema.validate(payload, load_schema("lime"))
        assert payload["config"]["n_perturbations"] == 600
        assert len(payload["conditions"]) == 6
        assert payload["year"] == 1947

    def test_compare_mode_report(self, run_cli, data_path, model_dir, load_schema):
        code, out, _ = run_cli(
            [
                "explain",
                "--data",
                data_path,
                "--model",
                model_dir / "logistic.json",
                "--mode",
                "compare",
                "--year",
                "1947",
                "--background",
                "mean",
                "--json",
                "-",
            ]
        )
        assert code == 0
        assert "of the top-5 global features appear in the local surrogate" in out
        payload = json_tail(out)
        jsonschema.validate(payload, load_schema("compare"))
        assert payload["top_k"] == 5
        assert len(payload["shap_top"]) == 5

    def test_compare_rejects_svg(self, run_cli, data_path, model_dir, tmp_path):
        code, _, err = run_cli(
            [
                "explain",
                "--data",
                data_path,
                "--model",
                model_dir / "logistic.json",
                "--mode",
                "compare",
                "--year",
                "1947",
                "--svg",
                tmp_path / "x.svg",
            ]
        )
        assert code == 2
        assert "--svg does not apply to --mode compare" in err

    def test_local_mode_requires_year(self, run_cli, data_path, model_dir):
        code, _, err = run_cli(
            [
                "explain",
                "--data",
                data_path,
                "--model",
                model_dir / "tree.json",
                "--mode",
                "local-shap",
            ]
        )
        assert code == 2
        assert "requires --year" in err

    def test_unknown_year_lists_range(self, run_cli, data_path, model_dir):
        code, _, err = run_cli(
            [
                "explain",
                "--data",
                data_path,
                "--model",
                model_dir / "tree.json",
                "--mode",
                "local-shap",
                "--year",
                "1800",
            ]
        )
        assert code == 2
        assert "1901..2021" in err

    def test_sampled_budget_too_small(self, run_cli, data_path, model_dir):
        code, _, err = run_cli(
            [
                "explain",
                "--data",
                data_path,
                "--model",
                model_dir / "tree.json",
                "--mode",
                "local-shap",
                "--year",
                "1947",
                "--samples",
                "7",
            ]
        )
        assert code == 2
        assert "2M + 2" in err

    def test_non_numeric_budget_rejected(self, run_cli, data_path, model_dir):
        code, _, err = run_cli(
            [
                "explain",
                "--data",
                data_path,
                "--model",
                model_dir / "tree.json",
                "--mode",
                "local-shap",
                "--year",
                "1947",
                "--samples",
                "many",
            ]
        )
        assert code == 2
        assert "--samples" in err

    def test_sampled_shap_deterministic(self, run_cli, data_path, model_dir):
        argv = [
            "explain",
            "--data",
            data_path,
            "--model",
            model_dir / "svm.json",
            "--mode",
            "local-shap",
            "--year",
            "1934",
            "--samples",
            "256",
            "--seed",
            "3",
            "--json",
            "-",
        ]
        _, out_a, _ = run_cli(argv)
        _, out_b, _ = run_cli(argv)
        payload = json_tail(out_a)
        assert payload["method"] == "kernel-sampled"
        assert payload["config"]["seed"] == 3
        assert strip_timestamps(payload) == strip_timestamps(json_tail(out_b))

    def test_failed_run_leaves_no_report_file(self, run_cli, data_path, model_dir, tmp_path):
        report = tmp_path / "report.json"
        code, _, _ = run_cli(
            [
                "explain",
                "--data",
                data_path,
                "--model",
                model_dir / "tree.json",
                "--mode",
                "local-shap",
                "--year",
                "1800",
                "--json",
                report,
            ]
        )
        assert code == 2
        assert not report.exists()

    def test_top_features_controls_lime_sparsity(self, run_cli, data_path, model_dir):
        code, out, _ = run_cli(
            [
                "explain",
                "--data",
                data_path,
                "--model",
                model_dir / "logistic.json",
                "--mode",
                "local-lime",
                "--year",
                "1934",
                "--samples",
                "400",
                "--top-features",
                "3",
                "--json",
                "-",
            ]
        )
        assert code == 0
        assert len(json_tail(out)["conditions"]) == 3


class TestParser:
    def test_version_flag(self, run_cli):
        code, out, _ = run_cli(["--version"])
        assert code == 0
        assert "floodxai 0.1.0" in out

    def test_unknown_mode_rejected(self, run_cli, data_path, model_dir):
        code, _, _ = run_cli(
            [
                "explain",
                "--data",
                data_path,
                "--model",
                model_dir / "tree.json",
                "--mode",
                "global-lime",
            ]
        )
        assert code == 2

    def test_missing_subcommand_rejected(self, run_cli):
        code, _, _ = run_cli([])
        assert code == 2


@pytest.mark.parametrize(
    "command, extra, fragment",
    [
        ("local-lime", ["--year", "1947", "--kernel-width", "nan"], "kernel_width"),
        ("local-lime", ["--year", "1947", "--kernel-width", "inf"], "kernel_width"),
        ("local-lime", ["--year", "1947", "--kernel-width", "1e-200"], "kernel_width"),
        ("local-lime", ["--year", "1947", "--kernel-width", "1e-3"], "kernel_width"),
        ("train", ["--seed", "-1"], "seed"),
        ("evaluate", ["--seed", "-3"], "seed"),
        ("local-lime", ["--year", "1947", "--seed", "-1"], "seed"),
        ("local-shap", ["--year", "1947", "--samples", "100", "--seed", "-1"], "seed"),
    ],
    ids=[
        "kernel-width-nan",
        "kernel-width-inf",
        "kernel-width-underflows",
        "kernel-width-weights-one-row",
        "train-negative-seed",
        "evaluate-negative-seed",
        "lime-negative-seed",
        "sampled-shap-negative-seed",
    ],
)
def test_invalid_value_exits_2(
    run_cli, data_path, model_dir, tmp_path, command, extra, fragment
):
    if command == "train":
        argv = ["train", "--model", "tree", "--out", tmp_path / "m.json"]
    elif command == "evaluate":
        argv = ["evaluate", "--model", model_dir / "tree.json"]
    else:
        argv = ["explain", "--model", model_dir / "tree.json", "--mode", command]
    code, _, err = run_cli([*argv, "--data", data_path, *extra])
    assert code == 2, err
    assert err.startswith("error:") and fragment in err
    assert "ValueError" not in err
