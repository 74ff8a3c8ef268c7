"""The model-kind table: the one place that lists the classifier kinds.

Each kind maps to its model class, config dataclass, trainer and display
name. CLI choices and flags, training dispatch and model persistence are
all derived from `KINDS`; the `kind` enum of `schemas/model.v1.schema.json`
is the only other list, and a test keeps the two equal.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from ..errors import ConfigError
from .knn import KnnConfig, KnnModel, train_knn
from .logistic import LogisticConfig, LogisticModel, train_logistic
from .svm import SvmConfig, SvmModel, train_svm
from .tree import TreeConfig, TreeModel, train_tree


@dataclass(frozen=True)
class ModelKind:
    model_class: type
    config_class: type
    trainer: Callable
    display_name: str


KINDS = {
    "logistic": ModelKind(LogisticModel, LogisticConfig, train_logistic, "Logistic regression"),
    "knn": ModelKind(KnnModel, KnnConfig, train_knn, "KNN"),
    "tree": ModelKind(TreeModel, TreeConfig, train_tree, "Decision tree"),
    "svm": ModelKind(SvmModel, SvmConfig, train_svm, "SVM"),
}
MODEL_KINDS = tuple(KINDS)


def kind_entry(kind):
    """The table row for a kind name, or ConfigError naming the valid kinds."""
    try:
        return KINDS[kind]
    except (KeyError, TypeError):
        raise ConfigError(
            f"unknown model kind {kind!r}; expected one of {MODEL_KINDS}"
        ) from None


def model_kind(model):
    """Short kind string for a trained model instance."""
    for kind, entry in KINDS.items():
        if isinstance(model, entry.model_class):
            return kind
    raise ConfigError(f"unknown model type: {type(model).__name__}")


def train_model(kind, train, config=None):
    """Train a model of the named kind with its config dataclass (None: the defaults)."""
    entry = kind_entry(kind)
    return entry.trainer(train, config if config is not None else entry.config_class())
