"""Linear soft-margin SVM trained by deterministic subgradient descent.

The regularized hinge objective is minimized in standardized feature space
with a decaying step size. Because subgradient steps are not individually
monotone, progress is tracked (and the returned parameters taken) at the
late-weighted average of the iterates, whose objective decreases smoothly.
Learned weights are folded back to raw millimeter coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..dataset import _check_integer, fit_scaler
from ..errors import ConfigError
from .base import LinearClassifier, _fold_to_raw


@dataclass(frozen=True)
class SvmConfig:
    C: float = 1.0
    epochs: int = 2000
    learning_rate: float = 0.5

    def validate(self):
        if not 0 < self.C < np.inf:
            raise ConfigError(f"C must be positive and finite, got {self.C}")
        _check_integer("epochs", self.epochs)
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if not 0 < self.learning_rate < np.inf:
            raise ConfigError(
                f"learning_rate must be positive and finite, got {self.learning_rate}"
            )


def hinge_objective(weights, bias, X, y_signed, C):
    """0.5 * lambda * ||w||^2 + mean hinge loss, with lambda = 1 / (C * n)."""
    n = X.shape[0]
    lam = 1.0 / (C * n)
    margins = y_signed * (X @ weights + bias)
    hinge = np.maximum(0.0, 1.0 - margins)
    return float(0.5 * lam * np.dot(weights, weights) + hinge.mean())


@dataclass(eq=False)
class SvmModel(LinearClassifier):
    """Trained linear SVM; the decision function is w . x + b on raw features.

    ``predict_proba`` is the sigmoid of the margin: a smooth, uncalibrated
    score in [0, 1]."""

    weights: np.ndarray
    bias: float
    config: SvmConfig
    scaler: object = None
    objective_history: np.ndarray = None

    OFFSET = "bias"


def train_svm(train, config=None):
    """Fit an :class:`SvmModel` on a training dataset."""
    config = config or SvmConfig()
    config.validate()
    X_raw, y01 = train.features(), train.labels()
    if np.unique(y01).size < 2:
        raise ConfigError("SVM needs both classes in the training set")
    y = np.where(y01 == 1, 1.0, -1.0)

    scaler = fit_scaler(train)
    X = scaler.transform(X_raw)
    n, d = X.shape
    lam = 1.0 / (config.C * n)

    w = np.zeros(d)
    b = 0.0
    w_avg = np.zeros(d)
    b_avg = 0.0
    weight_sum = 0.0
    history = np.empty(config.epochs)
    for t in range(1, config.epochs + 1):
        margins = y * (X @ w + b)
        active = margins < 1.0
        grad_w = lam * w - (X.T @ (y * active)) / n
        grad_b = -float(np.sum(y * active)) / n
        eta = config.learning_rate / np.sqrt(t)
        w = w - eta * grad_w
        b = b - eta * grad_b
        # late-weighted running average (weight t favors converged iterates)
        weight_sum += t
        w_avg = w_avg + (t / weight_sum) * (w - w_avg)
        b_avg = b_avg + (t / weight_sum) * (b - b_avg)
        history[t - 1] = hinge_objective(w_avg, b_avg, X, y, config.C)

    w_raw, b_raw = _fold_to_raw(w_avg, b_avg, scaler)
    return SvmModel(
        weights=w_raw,
        bias=b_raw,
        config=config,
        scaler=scaler,
        objective_history=history,
    )
