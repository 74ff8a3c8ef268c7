"""Binary logistic regression trained by full-batch gradient descent.

Optimization runs in standardized feature space for numeric stability and
the learned parameters are folded back to raw millimeter coordinates, so
the model's log-odds are exactly linear in the raw features.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..dataset import _check_integer, fit_scaler
from ..errors import ConfigError
from .base import LinearClassifier, _fold_to_raw, sigmoid


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


def train_logistic(train, config=None):
    """Fit a :class:`LogisticModel` on a training dataset.

    Full-batch gradient descent from a zero start; the per-epoch loss history
    is recorded and is non-increasing for the default step size.
    """
    config = config or LogisticConfig()
    config.validate()
    X_raw, y = train.features(), train.labels().astype(float)
    classes = np.unique(y)
    if classes.size < 2:
        raise ConfigError("logistic regression needs both classes in the training set")

    scaler = fit_scaler(train)
    X = scaler.transform(X_raw)
    n_features = X.shape[1]
    w = np.zeros(n_features)
    b = 0.0
    history = np.empty(config.epochs)
    for epoch in range(config.epochs):
        loss, grad_w, grad_b = loss_and_gradient(w, b, X, y, config.l2)
        history[epoch] = loss
        w = w - config.learning_rate * grad_w
        b = b - config.learning_rate * grad_b

    w_raw, b_raw = _fold_to_raw(w, b, scaler)
    return LogisticModel(
        weights=w_raw,
        intercept=b_raw,
        config=config,
        scaler=scaler,
        loss_history=history,
    )
