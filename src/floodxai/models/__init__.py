"""From-scratch classifiers sharing a predict/predict_proba interface."""

from .base import ProbabilityClassifier, prepare_features
from .knn import KnnConfig, KnnModel, euclidean_distance, train_knn
from .logistic import LogisticConfig, LogisticModel, loss_and_gradient, train_logistic
from .svm import SvmConfig, SvmModel, hinge_objective, train_svm
from .tree import TreeConfig, TreeModel, TreeNode, entropy, train_tree
from .kinds import KINDS, MODEL_KINDS, model_kind, train_model
from .io import (
    MODEL_FORMAT_VERSION,
    load_model,
    model_from_dict,
    model_to_dict,
    read_model_file,
    save_model,
)

__all__ = [
    "ProbabilityClassifier",
    "prepare_features",
    "KnnConfig",
    "KnnModel",
    "euclidean_distance",
    "train_knn",
    "LogisticConfig",
    "LogisticModel",
    "loss_and_gradient",
    "train_logistic",
    "SvmConfig",
    "SvmModel",
    "hinge_objective",
    "train_svm",
    "TreeConfig",
    "TreeModel",
    "TreeNode",
    "entropy",
    "train_tree",
    "KINDS",
    "MODEL_KINDS",
    "model_kind",
    "train_model",
    "MODEL_FORMAT_VERSION",
    "load_model",
    "model_from_dict",
    "model_to_dict",
    "read_model_file",
    "save_model",
]
