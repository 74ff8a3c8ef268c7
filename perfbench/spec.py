"""What the benchmark measures: workloads, end-to-end metrics and layer metrics.

`BENCHMARK.json` at the repository root repeats the names, units and bounds
declared here; `selftest.py` checks that the two agree. The layer table
also records which end-to-end metric each layer metric should move, and on
which workload, so a later change can state its prediction before it is
measured.
"""

KINDS = ("logistic", "knn", "tree", "svm")

# Explanation workloads use the default CLI split fraction.
TRAIN_FRACTION = 0.7

WORKLOADS = {
    "global-shap": (
        "global_importance over seeded 4-row batches, exhaustive Kernel SHAP, "
        "trainset background, logistic/svm/tree: Shapley engine self time dominates"
    ),
    "knn-local-shap": (
        "one exhaustive kernel_shap per seeded instance on KNN, trainset background: "
        "model predict_proba is ~97% of an item, so Shapley-engine changes should not move it"
    ),
    "local-explain": (
        "demo 06 flow per seeded (year, kind): LIME, exhaustive and sampled kernel_shap "
        "with small model batches, compare, write_report: weights, sampler, solve, I/O"
    ),
    "cli-session": (
        "fresh-process python -m floodxai summary/evaluate/explain commands: "
        "package import, models.io and render block every result"
    ),
}

RUN_SECONDS = 24

# name -> (unit, better, bound as a share of the parent's median). A shared
# 2-vCPU host switches between a fast and a slow state that differ by up to
# 40 %, whatever the run length, so timing bounds sit at the 0.25 ceiling;
# see README.md.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "items_per_s": ("items/s", "higher", 0.25),
    "item_p50_ms": ("ms", "lower", 0.25),
    "item_tail_ms": ("ms", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.1),
    "error_rate": ("fraction", "lower", 0.25),
}

CLI_COMMANDS = ("summary", "train", "evaluate", "explain.local-lime", "explain.local-shap")


def _per_kind(stem, unit, better, moves, on):
    return [(f"{stem}.{kind}", unit, better, moves, on) for kind in KINDS]


_PREDICT_ON = "knn-local-shap (knn), global-shap (others)"

# (name, unit, better, end-to-end metric it should move, workload it moves it on).
# Totals (calls, rows, busy_s, self_s) cover the traced half of a traced run;
# *_ms values are medians per call.
LAYER_METRICS = [
    ("floodxai.import_s", "s", "lower", "item_p50_ms, setup_s", "cli-session (setup_s: all)"),
    ("dataset.load_csv_ms", "ms", "lower", "setup_s", "all"),
    ("dataset.impute_missing_ms", "ms", "lower", "setup_s", "all"),
    ("dataset.split_ms", "ms", "lower", "setup_s", "all"),
    ("dataset.fit_scaler_ms", "ms", "lower", "setup_s", "all"),
    *_per_kind("models.train_ms", "ms", "lower", "setup_s", "all"),
    *_per_kind("models.predict_proba.calls", "count", "higher", "items_per_s", _PREDICT_ON),
    *_per_kind("models.predict_proba.rows", "count", "higher", "items_per_s", _PREDICT_ON),
    *_per_kind("models.predict_proba.busy_s", "s", "lower", "items_per_s", _PREDICT_ON),
    *_per_kind("models.predict_proba.rows_per_s", "rows/s", "higher", "items_per_s", _PREDICT_ON),
    ("explain.shapley.kernel_shap.busy_s", "s", "lower", "items_per_s, item_p50_ms",
     "global-shap, local-explain"),
    ("explain.shapley.kernel_shap.self_s", "s", "lower", "items_per_s, item_p50_ms",
     "global-shap, local-explain"),
    ("explain.shapley.global_importance.busy_s", "s", "lower", "items_per_s", "global-shap"),
    ("explain.shapley.global_importance.self_s", "s", "lower", "items_per_s", "global-shap"),
    ("explain.shapley.model_rows_per_item", "count", "lower", "items_per_s",
     "global-shap, knn-local-shap"),
    ("explain.shapley.model_calls_per_item", "count", "lower", "items_per_s",
     "global-shap, knn-local-shap"),
    ("explain.shapley.sampled_unique_ratio", "fraction", "lower", "item_p50_ms",
     "local-explain"),
    ("explain.lime.fit_discretizer_ms", "ms", "lower", "item_p50_ms", "local-explain"),
    ("explain.lime.perturb_ms", "ms", "lower", "item_p50_ms", "local-explain"),
    ("explain.lime.fit_local_surrogate_ms", "ms", "lower", "item_p50_ms", "local-explain"),
    ("explain.lime.fit_local_surrogate.self_ms", "ms", "lower", "item_p50_ms", "local-explain"),
    ("explain.lime.model_rows_per_item", "count", "lower", "item_p50_ms", "local-explain"),
    ("explain.compare.compare_ms", "ms", "lower", "item_p50_ms", "local-explain"),
    ("manifest.canonical_json_ms", "ms", "lower", "item_p50_ms", "local-explain, cli-session"),
    ("manifest.write_report_ms", "ms", "lower", "item_p50_ms", "local-explain, cli-session"),
    ("manifest.bytes_written_per_item", "bytes", "lower", "item_p50_ms",
     "local-explain, cli-session"),
    ("models.io.save_model_ms", "ms", "lower", "item_p50_ms", "cli-session"),
    ("models.io.load_model_ms", "ms", "lower", "item_p50_ms", "cli-session"),
    ("metrics.evaluate_ms", "ms", "lower", "item_p50_ms", "cli-session"),
    ("render.svg_ms", "ms", "lower", "item_p50_ms", "cli-session"),
    *[(f"cli.command_ms.{c}", "ms", "lower", "item_p50_ms", "cli-session") for c in CLI_COMMANDS],
    *[(f"cli.main_ms.{c}", "ms", "lower", "item_p50_ms", "cli-session") for c in CLI_COMMANDS],
    # Bookkeeping of the traced run itself.
    ("trace.items", "count", "higher", "-", "all"),
    ("trace.items_per_s.untraced", "items/s", "higher", "-", "all"),
    ("trace.items_per_s.traced", "items/s", "higher", "-", "all"),
    ("trace.overhead_frac", "fraction", "lower", "-", "all"),
    ("trace.model_share", "fraction", "lower", "-",
     "knn-local-shap (>= 0.9), global-shap (<= 0.5)"),
    ("trace.item_accounted_share", "fraction", "higher", "-", "all"),
]

LAYER_UNITS = {name: unit for name, unit, *_ in LAYER_METRICS}
