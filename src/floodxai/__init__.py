"""Flood prediction from monthly rainfall, with built-in explainability.

Ingest yearly rainfall tables, train small from-scratch classifiers
(logistic regression, k-nearest neighbors, decision tree, linear SVM),
evaluate them with confusion-matrix scores, and explain them globally
via Shapley-value attributions and locally via sparse linear surrogates.
"""

from .dataset import (
    ANNUAL_TOLERANCE_MM,
    ColumnSchema,
    Dataset,
    ImputedCell,
    MONTHS,
    RainfallRecord,
    Scaler,
    SplitDataset,
    apply_scaler,
    encode_flood_label,
    fit_scaler,
    impute_missing,
    load_csv,
    monthly_means,
    provenance_lines,
    split,
)
from .errors import ConfigError, DatasetError, FloodXaiError
from .explain import (
    EXHAUSTIVE,
    AgreementReport,
    Discretizer,
    GlobalImportance,
    LimeConfig,
    LimeExplanation,
    PerturbationSet,
    ShapConfig,
    ShapExplanation,
    coalition_value,
    compare_explanations,
    exact_shapley,
    explain_local,
    fit_discretizer,
    fit_local_surrogate,
    global_importance,
    kernel_shap,
    perturb,
)
from .manifest import (
    build_manifest,
    canonical_json,
    dataset_fingerprint,
    strip_timestamps,
    write_report,
)
from .metrics import ConfusionMatrix, MetricsReport, confusion, evaluate, render_table, score
from .render import bar_chart, svg_bar_chart, svg_two_sided_bar_chart, two_sided_bar_chart
from .models import (
    KnnConfig,
    KnnModel,
    LogisticConfig,
    LogisticModel,
    MODEL_KINDS,
    SvmConfig,
    SvmModel,
    TreeConfig,
    TreeModel,
    TreeNode,
    entropy,
    euclidean_distance,
    hinge_objective,
    load_model,
    loss_and_gradient,
    model_kind,
    save_model,
    train_knn,
    train_logistic,
    train_model,
    train_svm,
    train_tree,
)

__version__ = "0.1.0"
