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
(the ``sigmoid`` of a logit shift, computed in one buffer of the table's
size), tree and KNN bit-identical to scoring the hybrids. Every
``masked_proba`` reads its masks through ``mask_table``: a 1-D mask is one
row, and a table of the wrong width or rank raises a ``DatasetError``.
"""

from __future__ import annotations

import numpy as np

from ..dataset import _as_finite
from ..errors import DatasetError


def sigmoid(z):
    """The logistic function 1 / (1 + exp(-z)), elementwise (scipy's `expit` formula).

    exp(-z) overflows to inf below z of about -709, where the result is exactly 0.
    """
    return _sigmoid_in_place(np.array(z, dtype=float))


def _sigmoid_in_place(z):
    """`sigmoid` of the float array z, written over z: the same IEEE operations in
    the same order (negate, exp, add 1, divide 1 by it), so the same bits."""
    np.negative(z, out=z)
    with np.errstate(over="ignore"):
        np.exp(z, out=z)
    z += 1.0
    return np.divide(1.0, z, out=z)


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


def mask_table(masks, n_features):
    """Coerce `masked_proba`'s masks to a 2-D bool table; a 1-D mask is one row.

    A DatasetError names the model's width and the masks' shape.
    """
    table = np.asarray(masks, dtype=bool)
    if table.ndim not in (1, 2) or table.shape[-1] != n_features:
        raise DatasetError(
            f"mask-width mismatch: model expects a mask or a table of masks over "
            f"{n_features} features, got shape {table.shape}"
        )
    return table.reshape(-1, n_features)


def unwrap_single(values, single):
    """Undo `prepare_features`' reshape: a single vector's result as a Python scalar."""
    return values[0].item() if single else values


def masked_linear_proba(weights, intercept, x, background, masks):
    """`masked_proba` of sigma(w . x + b): the hybrid's logit is the background
    row's plus w_f (x_f - bg_f) for every masked-in feature f.

    The (masks x background) table is one buffer: the logit shifts are written
    into it, the background logits added and the sigmoid finished in place.
    Each step is the operation of `sigmoid(bg_logit + shift)`, so the bits are
    that expression's, without its four temporaries of the table's size.
    """
    n = weights.shape[0]
    (x,), _ = prepare_features(x, n)
    bg, _ = prepare_features(background, n)
    z = mask_table(masks, n).astype(float) @ (weights * (x - bg)).T
    z += bg @ weights + intercept
    return _sigmoid_in_place(z)


class ProbabilityClassifier:
    """Mixin deriving hard predictions from ``predict_proba``."""

    def predict(self, X):
        proba = self.predict_proba(X)
        if np.ndim(proba) == 0:
            return int(proba >= 0.5)
        return (np.asarray(proba) >= 0.5).astype(int)
