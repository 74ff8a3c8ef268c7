"""Report plumbing: canonical JSON, atomic writes, charts, and agreement."""

import json
import math
import os
import stat

import numpy as np
import pytest

from floodxai import (
    LimeConfig,
    ShapConfig,
    bar_chart,
    build_manifest,
    canonical_json,
    compare_explanations,
    dataset_fingerprint,
    explain_local,
    global_importance,
    kernel_shap,
    strip_timestamps,
    svg_bar_chart,
    svg_two_sided_bar_chart,
    two_sided_bar_chart,
    write_report,
)
from floodxai.manifest import write_text


class TestCanonicalJson:
    def test_sorted_keys_and_trailing_newline(self):
        text = canonical_json({"b": 1, "a": 2})
        assert text.index('"a"') < text.index('"b"')
        assert text.endswith("\n")
        assert json.loads(text) == {"a": 2, "b": 1}

    def test_numpy_types_reduced(self):
        payload = {
            "arr": np.arange(3, dtype=np.float64),
            "scalar": np.float64(1.5),
            "count": np.int64(4),
            "flag": np.bool_(True),
        }
        decoded = json.loads(canonical_json(payload))
        assert decoded == {"arr": [0.0, 1.0, 2.0], "scalar": 1.5, "count": 4, "flag": True}

    def test_nan_and_inf_become_null(self):
        decoded = json.loads(canonical_json({"a": float("nan"), "b": float("inf")}))
        assert decoded == {"a": None, "b": None}

    def test_unserializable_object_rejected(self):
        with pytest.raises(TypeError):
            canonical_json({"x": object()})

    def test_byte_identical_across_calls(self):
        payload = {"z": [1.25, 2.5], "a": {"nested": True}}
        assert canonical_json(payload) == canonical_json(payload)


class TestWriteReport:
    def test_writes_canonical_text(self, tmp_path):
        path = tmp_path / "report.json"
        write_report(path, {"k": 1})
        assert path.read_text() == canonical_json({"k": 1})

    def test_creates_parent_directories(self, tmp_path):
        path = tmp_path / "deep" / "nested" / "report.json"
        write_report(path, {"k": 1})
        assert path.exists()

    def test_failed_serialization_leaves_no_file(self, tmp_path):
        path = tmp_path / "report.json"
        with pytest.raises(TypeError):
            write_report(path, {"bad": object()})
        assert not path.exists()
        assert not any(p.suffix == ".tmp" for p in tmp_path.iterdir())

    @pytest.mark.skipif(os.name != "posix", reason="the umask is a POSIX file mode")
    def test_file_mode_follows_the_umask(self, tmp_path):
        # the mode a plain open gives: 0666 less the umask
        for umask, mode in ((0o022, 0o644), (0o002, 0o664), (0o077, 0o600)):
            previous = os.umask(umask)
            try:
                path = write_report(tmp_path / f"{umask:03o}.json", {"k": 1})
            finally:
                os.umask(previous)
            assert stat.S_IMODE(os.stat(path).st_mode) == mode

    def test_overwrites_existing_file_atomically(self, tmp_path):
        path = tmp_path / "report.json"
        write_report(path, {"v": 1})
        write_report(path, {"v": 2})
        assert json.loads(path.read_text()) == {"v": 2}

    def test_group_is_written_together(self, tmp_path):
        texts = {tmp_path / "a.json": "a\n", tmp_path / "deep" / "b.svg": "b\n"}
        write_text(texts)
        assert {path: path.read_text() for path in texts} == texts

    @pytest.mark.parametrize("failing", [0, 1])
    def test_failed_group_write_leaves_no_file(self, tmp_path, failing):
        # a path under a regular file can get no directory; the other file stays unwritten
        (tmp_path / "blocker").touch()
        paths = [tmp_path / "out" / "a.json", tmp_path / "out" / "b.json"]
        paths[failing] = tmp_path / "blocker" / "x.json"
        with pytest.raises(OSError):
            write_text({path: "text\n" for path in paths})
        assert sorted(p.name for p in tmp_path.rglob("*") if p.is_file()) == ["blocker"]

    def test_failed_text_write_removes_every_temp_file(self, tmp_path):
        # the second text cannot be encoded, after the first temp file is written
        with pytest.raises(UnicodeEncodeError):
            write_text({tmp_path / "a.json": "a\n", tmp_path / "b.json": "\ud800"})
        assert list(tmp_path.iterdir()) == []


class TestManifest:
    def test_fields_and_fingerprint(self, data_path):
        manifest = build_manifest(
            "train", data_path, "0.1.0", seeds={"split": 42}, hyperparameters={"k": 5}
        )
        assert manifest["command"] == "train"
        assert manifest["version"] == "0.1.0"
        assert manifest["seeds"] == {"split": 42}
        assert manifest["hyperparameters"] == {"k": 5}
        assert manifest["dataset_fingerprint"] == dataset_fingerprint(data_path)
        assert manifest["dataset_fingerprint"].startswith("sha256:")
        assert manifest["created_at"].endswith("Z")

    def test_fingerprint_tracks_content(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        a.write_text("YEAR\n2000\n")
        b.write_text("YEAR\n2000\n")
        assert dataset_fingerprint(a) == dataset_fingerprint(b)
        b.write_text("YEAR\n2001\n")
        assert dataset_fingerprint(a) != dataset_fingerprint(b)

    def test_strip_timestamps_recurses(self):
        payload = {
            "created_at": "now",
            "nested": {"created_at": "now", "keep": 1},
            "list": [{"created_at": "now"}],
        }
        stripped = strip_timestamps(payload)
        assert stripped == {"nested": {"keep": 1}, "list": [{}]}

    def test_manifests_identical_after_strip(self, data_path):
        a = build_manifest("summary", data_path, "0.1.0")
        b = build_manifest("summary", data_path, "0.1.0")
        assert strip_timestamps(a) == strip_timestamps(b)


class TestTextCharts:
    def test_bar_lengths_scale_to_peak(self):
        chart = bar_chart(["a", "bb"], [2.0, 4.0], width=10)
        lines = chart.splitlines()
        assert lines[0].count("#") == 5
        assert lines[1].count("#") == 10
        assert lines[0].startswith("a ")
        assert "2.00" in lines[0] and "4.00" in lines[1]

    def test_zero_values_draw_no_bars(self):
        chart = bar_chart(["a"], [0.0])
        assert "#" not in chart

    def test_two_sided_chart_separates_signs(self):
        chart = two_sided_bar_chart(["pos", "neg"], [0.5, -0.25], width=8)
        pos_line, neg_line = chart.splitlines()
        bar_pos = pos_line.split("|")
        bar_neg = neg_line.split("|")
        assert "#" in bar_pos[1] and "#" not in bar_pos[0]
        assert "#" in bar_neg[0] and "#" not in bar_neg[1]
        assert "+0.5000" in pos_line and "-0.2500" in neg_line

    def test_two_sided_bars_proportional(self):
        chart = two_sided_bar_chart(["a", "b"], [1.0, -0.5], width=8)
        lines = chart.splitlines()
        assert lines[0].count("#") == 8
        assert lines[1].count("#") == 4


class TestSvgCharts:
    def test_valid_svg_with_one_rect_per_bar(self):
        svg = svg_bar_chart(["JAN", "FEB"], [1.0, 2.0], title="demo")
        assert svg.startswith("<svg") or svg.startswith("<?xml")
        assert svg.count("<rect") >= 2
        assert "JAN" in svg and "FEB" in svg and "demo" in svg

    def test_two_sided_svg_marks_axis(self):
        svg = svg_two_sided_bar_chart(["up", "down"], [0.4, -0.3])
        assert "<line" in svg
        assert "up" in svg and "down" in svg

    def test_labels_are_escaped(self):
        svg = svg_bar_chart(["a<b&c"], [1.0])
        assert "a<b&c" not in svg
        assert "a&lt;b&amp;c" in svg

    @pytest.mark.parametrize("chart", [svg_bar_chart, svg_two_sided_bar_chart])
    def test_markup_escaped_quotes_kept(self, chart):
        # &, < and > become entities; quotes stay as typed in text content
        svg = chart(["a&b<c>d\"e'f"], [1.0], title="T&<>\"'")
        assert 'font-size="15">T&amp;&lt;&gt;"\'</text>' in svg
        assert 'text-anchor="end">a&amp;b&lt;c&gt;d"e\'f</text>' in svg


@pytest.fixture(scope="module")
def views(logistic, parts):
    x = parts.test.features()[0]
    bg = parts.train.features()
    config = ShapConfig(background=bg)
    names = parts.train.feature_names
    shap_local = kernel_shap(logistic, x, config, feature_names=names)
    shap_global = global_importance(logistic, parts.test.features()[:4], config, names)
    lime_local = explain_local(logistic, x, parts.train, LimeConfig(seed=0))
    return shap_global, shap_local, lime_local


class TestCompareExplanations:
    def test_overlap_counts_shared_names(self, views):
        shap_global, shap_local, lime_local = views
        report = compare_explanations(shap_global, lime_local, shap_local, top_k=5)
        assert report.top_k == 5
        assert len(report.shap_top) == 5
        lime_set = set(report.lime_features)
        assert all(name in lime_set for name in report.overlap)
        assert report.overlap_fraction == pytest.approx(len(report.overlap) / 5)

    def test_top_k_defaults_to_condition_count(self, views):
        shap_global, _, lime_local = views
        report = compare_explanations(shap_global, lime_local)
        assert report.top_k == len(lime_local.conditions)

    def test_top_k_clamped_to_feature_count(self, views):
        shap_global, _, lime_local = views
        assert compare_explanations(shap_global, lime_local, top_k=99).top_k == 12
        assert compare_explanations(shap_global, lime_local, top_k=0).top_k == 1

    def test_sign_agreement_entries(self, views):
        shap_global, shap_local, lime_local = views
        report = compare_explanations(shap_global, lime_local, shap_local)
        assert len(report.sign_agreement) == len(lime_local.conditions)
        phi_by_name = dict(zip(shap_local.feature_names, shap_local.phi))
        for entry in report.sign_agreement:
            expected = (phi_by_name[entry["feature"]] >= 0) == (entry["lime_weight"] >= 0)
            assert entry["agree"] == expected
        agreed = sum(e["agree"] for e in report.sign_agreement)
        assert report.sign_agreement_fraction == pytest.approx(
            agreed / len(report.sign_agreement)
        )

    def test_no_shap_local_flags_fraction_nan(self, views):
        shap_global, _, lime_local = views
        report = compare_explanations(shap_global, lime_local)
        assert report.sign_agreement == ()
        assert math.isnan(report.sign_agreement_fraction)

    def test_to_dict_round_trips_through_json(self, views):
        shap_global, shap_local, lime_local = views
        report = compare_explanations(shap_global, lime_local, shap_local)
        payload = json.loads(canonical_json(report.to_dict()))
        assert payload["schema"] == "floodxai.compare"
        assert payload["top_k"] == report.top_k
        assert len(payload["sign_agreement"]) == len(report.sign_agreement)
