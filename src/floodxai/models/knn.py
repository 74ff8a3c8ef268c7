"""K-nearest-neighbors classifier over standardized rainfall features."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from ..dataset import fit_scaler
from ..errors import ConfigError, DatasetError
from .base import ProbabilityClassifier, prepare_features, unwrap_single


def euclidean_distance(a, b):
    """Plain Euclidean distance between two equal-length feature vectors."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise DatasetError(f"length mismatch: {a.shape} vs {b.shape}")
    return float(np.sqrt(np.sum((a - b) ** 2)))


@dataclass(frozen=True)
class KnnConfig:
    k: int = 5

    def validate(self):
        if self.k < 1:
            raise ConfigError(f"k must be >= 1, got {self.k}")


@dataclass(eq=False)
class KnnModel(ProbabilityClassifier):
    """Stores the scaled training set; predicts by vote over the K nearest.

    Neighbor selection is defined purely by distance values, so predictions
    are invariant to the storage order of training rows: when several points
    tie exactly at the K-th distance, the remaining vote slots are shared
    equally among them.
    """

    config: KnnConfig
    train_scaled: np.ndarray
    train_labels: np.ndarray
    scaler: object

    @property
    def n_features(self):
        return self.train_scaled.shape[1]

    def parameters(self):
        return {
            "train_scaled": [list(row) for row in self.train_scaled],
            "train_labels": [int(v) for v in self.train_labels],
        }

    @classmethod
    def from_parameters(cls, params, config, scaler):
        return cls(
            config=config,
            train_scaled=np.asarray(params["train_scaled"], dtype=float),
            train_labels=np.asarray(params["train_labels"], dtype=int),
            scaler=scaler,
        )

    def _distances(self, X):
        A, single = prepare_features(X, self.n_features)
        return cdist(self.scaler.transform(A), self.train_scaled), single

    def _proba_from_distances(self, D):
        k = self.config.k
        y = self.train_labels.astype(float)
        kth = np.sort(D, axis=1)[:, k - 1]
        closer = D < kth[:, None]
        at_kth = D == kth[:, None]
        n_closer = closer.sum(axis=1)
        n_at = at_kth.sum(axis=1)
        votes = closer @ y + (k - n_closer) * (at_kth @ y) / n_at
        return votes / k

    def predict_proba(self, X):
        D, single = self._distances(X)
        proba = self._proba_from_distances(D)
        return unwrap_single(proba, single)

    def predict(self, X):
        """Majority vote; an exact 50/50 vote falls to the nearest neighbor's class."""
        D, single = self._distances(X)
        proba = self._proba_from_distances(D)
        labels = (proba >= 0.5).astype(int)
        tied = proba == 0.5
        if tied.any():
            y = self.train_labels.astype(float)
            nearest = D.min(axis=1)
            for i in np.flatnonzero(tied):
                at_min = D[i] == nearest[i]
                # nearest neighbors that themselves split evenly keep class 1
                labels[i] = 1 if y[at_min].mean() >= 0.5 else 0
        return unwrap_single(labels, single)


def train_knn(train, k=5):
    """Standardize the training features and store them for neighbor lookup.

    `k` is the neighbor count or a whole :class:`KnnConfig`.
    """
    config = k if isinstance(k, KnnConfig) else KnnConfig(k=int(k))
    config.validate()
    n = len(train)
    if n == 0:
        raise DatasetError("cannot train KNN on an empty dataset")
    if config.k > n:
        raise ConfigError(f"k must satisfy 1 <= k <= {n}, got {config.k}")
    scaler = fit_scaler(train)
    return KnnModel(
        config=config,
        train_scaled=scaler.transform(train.features()),
        train_labels=train.labels(),
        scaler=scaler,
    )
