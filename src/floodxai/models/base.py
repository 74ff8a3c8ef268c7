"""Shared prediction contract for the four classifiers.

Every trained model accepts raw feature vectors in millimeters (any
per-model standardization is internal), exposes ``predict_proba`` giving
the probability of the flood class, and derives hard labels by
thresholding at 0.5 (probability 0.5 maps to class 1). Each model also
holds its frozen config dataclass as ``config`` and converts its learned
state to and from JSON-native values with ``parameters()`` and
``from_parameters(params, config, scaler)``, which ``models.io`` uses. The
tree and KNN each lay out their own; logistic and SVM share one layout,
``weights`` and a named offset, in ``LinearClassifier``.

``masked_proba(x, background, masks)`` gives the ``(n_masks, n_background)``
flood probabilities of the hybrids that take the instance's value where a
mask is set and the background row's value elsewhere, computed without
building them; it must agree with ``predict_proba`` on the hybrids to
rounding. ``masked_mean(x, background, masks)`` gives the coalition value
v(S) of each mask: the mean of that table over the background rows. Kernel
SHAP asks for v(S) only, so a kind may compute it without the table.

The boundary lives in ``ProbabilityClassifier``: its ``predict_proba``,
``masked_proba`` and ``masked_mean`` check every input once, through
``prepare_features`` and ``mask_table``. A non-numeric or non-finite cell, a
wrong width or rank, or an instance of other than one row raises a
``DatasetError``; a 1-D mask is one row, and an empty background or mask
table gives an empty table. ``masked_mean`` of an empty background raises a
``DatasetError``, as there is nothing to average. A kind defines only its
math: ``_proba(A)`` on a finite 2-D matrix, ``_masked_proba(x, bg, table)``
on a finite instance, a non-empty background and a non-empty bool mask
table, and optionally ``_masked_mean`` on the same inputs, which defaults to
the mean of ``_masked_proba``. Logistic and SVM share ``LinearClassifier``
(the ``sigmoid`` of a logit shift, computed in one buffer of the table's
size), the tree makes one descent over the distinct patterns of the masks
on its split features, and KNN shares squared-distance prefixes; tree and
KNN are bit-identical to scoring the hybrids.

Two kinds define ``_masked_mean``. The tree averages each distinct pattern's
row once and is bit-identical to the table mean. The linear models, on the
full lattice ``_bit_table(M)`` in code order, build exp(-logit) as a product
of one factor per feature: v(S) is then within a few ulps (1e-12 is the
bound the tests hold it to) of the table mean, and v(empty) keeps its bits.
They do so only while every background row has |logit| + sum_f
|w_f (x_f - bg_f)| < 700, so no partial product leaves the normal floats;
any other table or background takes the table mean, which saturates to
exact 0 and 1. KNN takes the default.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ..dataset import _as_finite, _as_numeric
from ..errors import ConfigError, DatasetError


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

    A DatasetError names the row and feature of the first non-finite cell, or
    says the input is not numeric.
    """
    A = _as_numeric(X, "model input")
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


@lru_cache(maxsize=8)
def _bit_table(n_features):
    """All 2^M subset masks as a boolean table, row index = subset bitmask."""
    codes = np.arange(1 << n_features, dtype=np.int64)
    table = ((codes[:, None] >> np.arange(n_features)) & 1).astype(bool)
    table.setflags(write=False)
    return table


def _finite_parameter(name, values):
    """A model file's learned `values` as floats; a ConfigError names the field
    if an entry is not finite (a JSON null reads as NaN)."""
    A = np.asarray(values, dtype=float)
    if not np.isfinite(A).all():
        raise ConfigError(f"{name} must be finite, got a null, NaN or infinite entry")
    return A


def unwrap_single(values, single):
    """Undo `prepare_features`' reshape: a single vector's result as a Python scalar."""
    return values[0].item() if single else values


class ProbabilityClassifier:
    """The model boundary: checks every input once, then hands the kind's
    ``_proba`` a finite 2-D matrix and its ``_masked_proba`` and ``_masked_mean``
    a finite instance, a non-empty background and a non-empty bool mask table.
    Hard labels derive from ``predict_proba``."""

    def predict_proba(self, X):
        A, single = prepare_features(X, self.n_features)
        return unwrap_single(self._proba(A), single)

    def predict(self, X):
        proba = self.predict_proba(X)
        if np.ndim(proba) == 0:
            return int(proba >= 0.5)
        return (np.asarray(proba) >= 0.5).astype(int)

    def masked_proba(self, x, background, masks):
        x, bg, table = self._masked_inputs("masked_proba", x, background, masks)
        if not (len(table) and len(bg)):
            return np.empty((len(table), len(bg)))
        return self._masked_proba(x, bg, table)

    def masked_mean(self, x, background, masks):
        x, bg, table = self._masked_inputs("masked_mean", x, background, masks)
        if not len(bg):
            raise DatasetError("masked_mean averages over background rows, got none")
        if not len(table):
            return np.empty(0)
        return self._masked_mean(x, bg, table)

    def _masked_inputs(self, method, x, background, masks):
        """The checked (instance row, background matrix, bool mask table) of `method`."""
        n = self.n_features
        x, _ = prepare_features(x, n)
        if len(x) != 1:
            raise DatasetError(f"{method} takes one instance, got {len(x)} rows")
        bg, _ = prepare_features(background, n)
        return x[0], bg, mask_table(masks, n)

    def _masked_mean(self, x, bg, table):
        return self._masked_proba(x, bg, table).mean(axis=1)


# the lattice product of `LinearClassifier._masked_mean` runs only while every
# background row's |logit| + sum_f |d_f| stays below this, so each partial product
# is exp of an argument within +-700: a normal float (exp overflows past 709.78,
# and its results leave the normal floats below -708.4)
_LATTICE_LOGIT_BOUND = 700.0


# Epochs whose objective the linear trainers evaluate together, after their
# steps: the block holds this many rows of n training values, a few tens of KB.
_HISTORY_BLOCK = 64


def _fold_to_raw(weights, offset, scaler):
    """Standardized-space linear parameters folded back to raw units:
    w . scaler.transform(x) + b == w' . x + b'. Returns (w', b')."""
    return weights / scaler.std, float(offset - np.dot(weights / scaler.std, scaler.mean))


class LinearClassifier(ProbabilityClassifier):
    """sigma(w . x + offset) on raw features: logistic regression and the linear
    SVM. A subclass is a dataclass with fields ``weights``, its offset (named by
    ``OFFSET``), ``config`` and ``scaler``; its learned parameters are the
    weights and the offset under that name."""

    OFFSET = None

    @property
    def n_features(self):
        return self.weights.shape[0]

    @property
    def _offset(self):
        return getattr(self, self.OFFSET)

    def parameters(self):
        return {"weights": list(self.weights), self.OFFSET: self._offset}

    @classmethod
    def from_parameters(cls, params, config, scaler):
        return cls(
            weights=_finite_parameter("weights", params["weights"]),
            **{cls.OFFSET: float(_finite_parameter(cls.OFFSET, params[cls.OFFSET]))},
            config=config,
            scaler=scaler,
        )

    def decision_function(self, X):
        A, single = prepare_features(X, self.n_features)
        return unwrap_single(A @ self.weights + self._offset, single)

    def _proba(self, A):
        return sigmoid(A @ self.weights + self._offset)

    def _masked_proba(self, x, bg, table):
        """The hybrid's logit is the background row's plus w_f (x_f - bg_f) for every
        masked-in feature f. The (masks x background) table is one buffer: the logit
        shifts are written into it, the background logits added and the sigmoid
        finished in place. Each step is the operation of `sigmoid(bg_logit + shift)`,
        so the bits are that expression's, without its four temporaries of the
        table's size."""
        z = table.astype(float) @ (self.weights * (x - bg)).T
        z += bg @ self.weights + self._offset
        return _sigmoid_in_place(z)

    def _masked_mean(self, x, bg, table):
        """Over the full lattice in code order, exp(-logit) is a product: the
        background logit's factor times one factor exp(-d_f) per masked-in feature,
        d_f = w_f (x_f - bg_f). Rows [2^f, 2^(f+1)) are rows [0, 2^f) times feature
        f's factor, so the table costs one multiply per cell instead of one exp. While
        |logit| + sum_f |d_f| < 700 for every background row, every partial product is
        a normal float, and v(S) agrees with the mean of `_masked_proba` to within a
        few ulps; row 0 is exp(-logit) itself, so v(empty) keeps its bits. Any other
        table, or a background row that could reach the sigmoid's saturation, takes
        the mean of `_masked_proba`."""
        logit = bg @ self.weights + self._offset
        shift = self.weights * (x - bg)
        m = len(x)
        if (
            len(table) != 1 << m
            or np.max(np.abs(logit) + np.abs(shift).sum(axis=1)) >= _LATTICE_LOGIT_BOUND
            or not np.array_equal(table, _bit_table(m))
        ):
            return super()._masked_mean(x, bg, table)
        e = np.empty((len(table), len(bg)))
        np.exp(-logit, out=e[0])
        factors = np.exp(-shift.T)
        for f in range(m):
            np.multiply(e[: 1 << f], factors[f], out=e[1 << f : 2 << f])
        e += 1.0
        return np.divide(1.0, e, out=e).mean(axis=1)
