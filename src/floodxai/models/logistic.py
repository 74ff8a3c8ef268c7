"""Binary logistic regression trained by full-batch gradient descent.

Optimization runs in standardized feature space for numeric stability and
the learned parameters are folded back to raw millimeter coordinates, so
the model's log-odds are exactly linear in the raw features.

Each epoch takes the gradient step of `loss_and_gradient` alone, in buffers
allocated once, and keeps the epoch's logits and w . w. The loss history is
the exact per-epoch loss of `loss_and_gradient`, with the same operations
on the same values, evaluated for a block of epochs at a time after their
steps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..dataset import _check_integer, fit_scaler
from ..errors import ConfigError
from .base import _HISTORY_BLOCK, LinearClassifier, _fold_to_raw, _sigmoid_in_place, sigmoid


@dataclass(frozen=True)
class LogisticConfig:
    learning_rate: float = 0.01
    epochs: int = 5000
    l2: float = 1e-4

    def validate(self):
        if not 0 < self.learning_rate < np.inf:
            raise ConfigError(
                f"learning_rate must be positive and finite, got {self.learning_rate}"
            )
        _check_integer("epochs", self.epochs)
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if not 0 <= self.l2 < np.inf:
            raise ConfigError(f"l2 must be non-negative and finite, got {self.l2}")


def loss_and_gradient(weights, intercept, X, y, l2):
    """Regularized mean negative log-likelihood and its exact gradient.

    The log-loss is evaluated via logaddexp so saturated logits stay finite;
    the L2 penalty applies to the weights only, never the intercept.
    """
    z = X @ weights + intercept
    p = sigmoid(z)
    n = X.shape[0]
    loss = float(np.mean(np.logaddexp(0.0, z) - y * z) + 0.5 * l2 * np.dot(weights, weights))
    grad_w = X.T @ (p - y) / n + l2 * weights
    grad_b = float(np.mean(p - y))
    return loss, grad_w, grad_b


@dataclass(eq=False)
class LogisticModel(LinearClassifier):
    """Trained logistic classifier: sigma(intercept + weights . x) in raw units."""

    weights: np.ndarray
    intercept: float
    config: LogisticConfig
    scaler: object = None
    loss_history: np.ndarray = None

    OFFSET = "intercept"


def _losses(logits, sq_norms, y, l2):
    """The loss of `loss_and_gradient` for each row of logits and its w . w."""
    terms = np.logaddexp(0.0, logits)
    terms -= y * logits
    return terms.mean(axis=1) + 0.5 * l2 * sq_norms


def train_logistic(train, config=None):
    """Fit a :class:`LogisticModel` on a training dataset.

    Full-batch gradient descent from a zero start; the loss before each
    epoch's step is recorded, and is non-increasing for the default step size.
    """
    config = config or LogisticConfig()
    config.validate()
    X_raw, y = train.features(), train.labels().astype(float)
    classes = np.unique(y)
    if classes.size < 2:
        raise ConfigError("logistic regression needs both classes in the training set")

    scaler = fit_scaler(train)
    X = scaler.transform(X_raw)
    n, n_features = X.shape
    rate, l2 = config.learning_rate, config.l2
    w = np.zeros(n_features)
    b = 0.0
    residual = np.empty(n)
    grad_w = np.empty(n_features)
    penalty = np.empty(n_features)
    logits = np.empty((_HISTORY_BLOCK, n))
    sq_norms = np.empty(_HISTORY_BLOCK)
    history = np.empty(config.epochs)
    for epoch in range(config.epochs):
        # the step of loss_and_gradient(w, b, X, y, l2), operation for operation
        k = epoch % _HISTORY_BLOCK
        z = logits[k]
        np.matmul(X, w, out=z)
        z += b
        sq_norms[k] = np.dot(w, w)
        np.copyto(residual, z)
        _sigmoid_in_place(residual)
        residual -= y
        np.matmul(X.T, residual, out=grad_w)
        grad_w /= n
        np.multiply(w, l2, out=penalty)
        grad_w += penalty
        grad_b = float(residual.sum() / n)
        grad_w *= rate
        w -= grad_w
        b = b - rate * grad_b
        if k == _HISTORY_BLOCK - 1 or epoch == config.epochs - 1:
            history[epoch - k : epoch + 1] = _losses(logits[: k + 1], sq_norms[: k + 1], y, l2)

    w_raw, b_raw = _fold_to_raw(w, b, scaler)
    return LogisticModel(
        weights=w_raw,
        intercept=b_raw,
        config=config,
        scaler=scaler,
        loss_history=history,
    )
