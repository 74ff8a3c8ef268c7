"""Shared prediction contract for the four classifiers.

Every trained model accepts raw feature vectors in millimeters (any
per-model standardization is internal), exposes ``predict_proba`` giving
the probability of the flood class, and derives hard labels by
thresholding at 0.5 (probability 0.5 maps to class 1). Each model also
holds its frozen config dataclass as ``config`` and converts its learned
state to and from JSON-native values with ``parameters()`` and
``from_parameters(params, config, scaler)``, which ``models.io`` uses.

A model class may also define ``masked_proba(x, background, masks)``: the
``(n_masks, n_background)`` flood probabilities of the hybrids that take
the instance's value where a mask is set and the background row's value
elsewhere, computed without building them. Kernel SHAP uses it in place of
``predict_proba`` on the hybrids; it must agree with that to rounding. All
four classes define it: logistic and SVM through ``masked_linear_proba``
(the ``sigmoid`` of a logit shift), tree and KNN bit-identical to scoring
the hybrids.
"""

from __future__ import annotations

import numpy as np

from ..dataset import _as_finite
from ..errors import DatasetError


def sigmoid(z):
    """The logistic function 1 / (1 + exp(-z)), elementwise (scipy's `expit` formula).

    exp(-z) overflows to inf below z of about -709, where the result is exactly 0.
    """
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-z))


def prepare_features(X, n_features):
    """Coerce input to a 2-D float array, flagging single-vector input.

    A DatasetError names the row and feature of the first non-finite cell.
    """
    A = np.asarray(X, dtype=float)
    single = A.ndim == 1
    if single:
        A = A.reshape(1, -1)
    if A.ndim != 2:
        raise DatasetError(f"expected a feature vector or matrix, got ndim={A.ndim}")
    if A.shape[1] != n_features:
        raise DatasetError(f"feature-width mismatch: model expects {n_features}, got {A.shape[1]}")
    return _as_finite(A, "model input"), single


def unwrap_single(values, single):
    """Undo `prepare_features`' reshape: a single vector's result as a Python scalar."""
    return values[0].item() if single else values


def masked_linear_proba(weights, intercept, x, background, masks):
    """`masked_proba` of sigma(w . x + b): the hybrid's logit is the background
    row's plus w_f (x_f - bg_f) for every masked-in feature f."""
    (x,), _ = prepare_features(x, weights.shape[0])
    bg, _ = prepare_features(background, weights.shape[0])
    masks = np.asarray(masks, dtype=float)
    return sigmoid((bg @ weights + intercept)[None, :] + masks @ (weights * (x - bg)).T)


class ProbabilityClassifier:
    """Mixin deriving hard predictions from ``predict_proba``."""

    def predict(self, X):
        proba = self.predict_proba(X)
        if np.ndim(proba) == 0:
            return int(proba >= 0.5)
        return (np.asarray(proba) >= 0.5).astype(int)
