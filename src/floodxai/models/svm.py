"""Linear soft-margin SVM trained by deterministic subgradient descent.

The regularized hinge objective is minimized in standardized feature space
with a decaying step size. Because subgradient steps are not individually
monotone, progress is tracked (and the returned parameters taken) at the
late-weighted average of the iterates, whose objective decreases smoothly.
Learned weights are folded back to raw millimeter coordinates.

Each epoch takes its subgradient step and updates the average alone, in
buffers allocated once, and keeps the average's X @ w, w . w and bias. The
objective history is the exact per-epoch `hinge_objective` of the average,
with the same operations on the same values, evaluated for a block of
epochs at a time after their steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..dataset import _check_integer, fit_scaler
from ..errors import ConfigError
from .base import _HISTORY_BLOCK, LinearClassifier, _fold_to_raw


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


def _objectives(scores, sq_norms, biases, y_signed, lam):
    """`hinge_objective` of each epoch from the rows X @ w, w . w and the bias."""
    hinge = scores + biases[:, None]
    hinge *= y_signed
    np.subtract(1.0, hinge, out=hinge)
    np.maximum(0.0, hinge, out=hinge)
    return 0.5 * lam * sq_norms + hinge.mean(axis=1)


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
    rate = config.learning_rate

    w = np.zeros(d)
    b = 0.0
    w_avg = np.zeros(d)
    b_avg = 0.0
    weight_sum = 0.0
    margins = np.empty(n)
    active = np.empty(n, dtype=bool)
    pull = np.empty(n)
    grad_w = np.empty(d)
    scratch = np.empty(d)
    avg_scores = np.empty((_HISTORY_BLOCK, n))
    sq_norms = np.empty(_HISTORY_BLOCK)
    biases = np.empty(_HISTORY_BLOCK)
    history = np.empty(config.epochs)
    for t in range(1, config.epochs + 1):
        np.matmul(X, w, out=margins)
        margins += b
        margins *= y
        np.less(margins, 1.0, out=active)
        np.multiply(y, active, out=pull)
        # grad_w = lam * w - (X.T @ pull) / n
        np.matmul(X.T, pull, out=grad_w)
        grad_w /= n
        np.multiply(w, lam, out=scratch)
        np.subtract(scratch, grad_w, out=grad_w)
        grad_b = -float(pull.sum()) / n
        eta = rate / math.sqrt(t)
        grad_w *= eta
        w -= grad_w
        b = b - eta * grad_b
        # late-weighted running average (weight t favors converged iterates)
        weight_sum += t
        np.subtract(w, w_avg, out=scratch)
        scratch *= t / weight_sum
        w_avg += scratch
        b_avg = b_avg + (t / weight_sum) * (b - b_avg)
        k = (t - 1) % _HISTORY_BLOCK
        np.matmul(X, w_avg, out=avg_scores[k])
        sq_norms[k] = np.dot(w_avg, w_avg)
        biases[k] = b_avg
        if k == _HISTORY_BLOCK - 1 or t == config.epochs:
            history[t - 1 - k : t] = _objectives(
                avg_scores[: k + 1], sq_norms[: k + 1], biases[: k + 1], y, lam
            )

    w_raw, b_raw = _fold_to_raw(w_avg, b_avg, scaler)
    return SvmModel(
        weights=w_raw,
        bias=b_raw,
        config=config,
        scaler=scaler,
        objective_history=history,
    )
