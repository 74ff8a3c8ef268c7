"""Shared prediction contract for the four classifiers.

Every trained model accepts raw feature vectors in millimeters (any
per-model standardization is internal), exposes ``predict_proba`` giving
the probability of the flood class, and derives hard labels by
thresholding at 0.5 (probability 0.5 maps to class 1). Each model also
holds its frozen config dataclass as ``config`` and converts its learned
state to and from JSON-native values with ``parameters()`` and
``from_parameters(params, config, scaler)``, which ``models.io`` uses.
"""

from __future__ import annotations

import numpy as np

from ..errors import DatasetError


def prepare_features(X, n_features):
    """Coerce input to a 2-D float array, flagging single-vector input."""
    A = np.asarray(X, dtype=float)
    single = A.ndim == 1
    if single:
        A = A.reshape(1, -1)
    if A.ndim != 2:
        raise DatasetError(f"expected a feature vector or matrix, got ndim={A.ndim}")
    if A.shape[1] != n_features:
        raise DatasetError(f"feature-width mismatch: model expects {n_features}, got {A.shape[1]}")
    return A, single


def unwrap_single(values, single):
    """Undo `prepare_features`' reshape: a single vector's result as a Python scalar."""
    return values[0].item() if single else values


class ProbabilityClassifier:
    """Mixin deriving hard predictions from ``predict_proba``."""

    def predict(self, X):
        proba = self.predict_proba(X)
        if np.ndim(proba) == 0:
            return int(proba >= 0.5)
        return (np.asarray(proba) >= 0.5).astype(int)
