"""Local surrogate explanations for tabular classifiers.

An instance is explained by discretizing each feature into training-set
quantile bins, sampling perturbed neighbors that either keep a feature's
value (interpretable bit 1) or resample it from a different bin (bit 0),
probing the black-box model on those neighbors, and fitting a sparse
linear surrogate on the bits weighted by proximity to the instance. The
surrogate's signed weights become human-readable per-feature conditions
such as "AUG > 510.02".
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import lru_cache

import numpy as np

from ..dataset import _as_finite, _check_integer, _check_seed, _feature_matrix, fit_scaler
from ..errors import ConfigError, DatasetError
from .shapley import _feature_names, _predict_fn

RIDGE_LAMBDA = 1e-3
_RESAMPLE_MODES = ("uniform", "normal")
_INTEGER_FIELDS = ("n_perturbations", "n_selected_features", "n_bins")  # the seed: _check_seed


@dataclass(frozen=True)
class LimeConfig:
    n_perturbations: int = 2000
    kernel_width: float = None
    n_selected_features: int = 6
    n_bins: int = 4
    seed: int = 0
    resample: str = "uniform"

    def validate(self, n_features=None):
        for name in _INTEGER_FIELDS:
            _check_integer(name, getattr(self, name))
        if self.n_selected_features < 1:
            raise ConfigError(
                f"n_selected_features must be positive, got {self.n_selected_features}"
            )
        if n_features is not None and self.n_selected_features > n_features:
            raise ConfigError(
                f"n_selected_features ({self.n_selected_features}) exceeds the "
                f"feature count ({n_features})"
            )
        if self.n_perturbations < 10 * self.n_selected_features:
            raise ConfigError(
                f"n_perturbations ({self.n_perturbations}) must be at least "
                f"10 x n_selected_features ({10 * self.n_selected_features})"
            )
        if self.kernel_width is not None and not 0 < self.kernel_width < np.inf:
            raise ConfigError(
                f"kernel_width must be a positive finite number, got {self.kernel_width}"
            )
        if self.n_bins < 2:
            raise ConfigError(f"n_bins must be at least 2, got {self.n_bins}")
        if self.resample not in _RESAMPLE_MODES:
            raise ConfigError(
                f"resample must be one of {_RESAMPLE_MODES}, got {self.resample!r}"
            )
        _check_seed(self.seed)

    def effective_kernel_width(self, n_features):
        """Default sigma = 0.75 * sqrt(M) in standardized-feature space."""
        if self.kernel_width is not None:
            return float(self.kernel_width)
        return 0.75 * float(np.sqrt(n_features))


@dataclass(frozen=True, eq=False)
class Discretizer:
    """Quantile bins per feature, with the training spread of each bin.

    `thresholds[f]` holds strictly increasing cut points; values fall in
    bin b when thresholds[b-1] < value <= thresholds[b]. `bin_stats[f]`
    maps each non-empty bin to (min, max, mean, sd) of the training
    values it contains — the ranges perturbation resampling draws from.
    Features with a single distinct training value get no thresholds and
    are flagged degenerate.
    """

    feature_names: tuple
    thresholds: tuple
    bin_stats: tuple
    degenerate: tuple

    @property
    def n_features(self):
        return len(self.feature_names)

    def n_bins(self, feature):
        return len(self.thresholds[feature]) + 1

    def bin_of(self, feature, value):
        """Bin index of a value; bin b covers (t[b-1], t[b]]."""
        return int(np.searchsorted(self.thresholds[feature], value, side="left"))

    def bins(self, X):
        """Bin index of every entry of a feature matrix."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        out = np.empty(X.shape, dtype=np.int64)
        for f in range(self.n_features):
            out[:, f] = np.searchsorted(self.thresholds[f], X[:, f], side="left")
        return out

    def condition(self, feature, value):
        """Human-readable bin condition for a value, thresholds in mm."""
        name = self.feature_names[feature]
        cuts = self.thresholds[feature]
        if len(cuts) == 0:
            return f"{name} = {value:.2f}"
        b = self.bin_of(feature, value)
        if b == 0:
            return f"{name} <= {cuts[0]:.2f}"
        if b == len(cuts):
            return f"{name} > {cuts[-1]:.2f}"
        return f"{cuts[b - 1]:.2f} < {name} <= {cuts[b]:.2f}"


def _training_names(train, X, feature_names):
    """The given names, else a Dataset's own, else x0, x1, ...; one per column of X."""
    if feature_names is None:
        feature_names = getattr(train, "feature_names", None)
    return _feature_names(feature_names, X.shape[1])


def fit_discretizer(train, n_bins=4, feature_names=None):
    """Cut each feature at training-set quantiles (quartiles by default)."""
    X = _feature_matrix(train)
    if X.shape[0] == 0:
        raise DatasetError("cannot fit a discretizer on an empty training set")
    _check_integer("n_bins", n_bins)
    if n_bins < 2:
        raise ConfigError(f"n_bins must be at least 2, got {n_bins}")
    feature_names = _training_names(train, X, feature_names)
    missing = np.isnan(X).any(axis=0)
    if missing.any():
        raise DatasetError(
            f"feature {feature_names[int(np.argmax(missing))]} contains missing values; "
            "impute first"
        )
    _as_finite(X, "training")
    quantiles = np.arange(1, n_bins) / n_bins
    all_thresholds, all_stats, degenerate = [], [], []
    for f in range(X.shape[1]):
        col = X[:, f]
        cuts = np.unique(np.quantile(col, quantiles))
        if np.unique(col).size < 2:
            cuts = cuts[:0]
        all_thresholds.append(cuts)
        bins = np.searchsorted(cuts, col, side="left")
        stats = {}
        for b in range(len(cuts) + 1):
            members = col[bins == b]
            if members.size:
                stats[b] = (
                    float(members.min()),
                    float(members.max()),
                    float(members.mean()),
                    float(members.std()),
                )
        all_stats.append(stats)
        degenerate.append(len(cuts) == 0)
    return Discretizer(
        feature_names=feature_names,
        thresholds=tuple(all_thresholds),
        bin_stats=tuple(all_stats),
        degenerate=tuple(degenerate),
    )


@dataclass(frozen=True, eq=False)
class PerturbationSet:
    """Perturbed neighbors of one instance.

    `bits[i, f] = 1` means sample i keeps the instance's value for
    feature f; 0 means the value was resampled from another bin.
    `distances` are Euclidean distances to the instance in standardized
    feature space; sample 0 is the instance itself.
    """

    instance: np.ndarray
    X: np.ndarray
    bits: np.ndarray
    distances: np.ndarray


def perturb(instance, discretizer, scaler, config):
    """Draw the perturbation neighborhood of an instance.

    Each feature of each sample independently keeps the instance's exact
    value with probability 1/2 (bit 1) or is redrawn from a uniformly
    chosen other non-empty bin (bit 0) — uniform over that bin's training
    range, or normal around its mean when config.resample = "normal".
    Degenerate features have no other bin and always keep their value.
    Deterministic for a given seed; sample 0 is the unmodified instance.
    """
    config.validate(discretizer.n_features)
    x = _as_finite(instance, "instance").ravel()
    m = discretizer.n_features
    if x.shape[0] != m:
        raise DatasetError(f"instance has {x.shape[0]} features, expected {m}")
    n = config.n_perturbations
    rng = np.random.default_rng(config.seed)

    bits = np.ones((n, m), dtype=np.int8)
    if n > 1:
        bits[1:] = rng.integers(0, 2, size=(n - 1, m), dtype=np.int8)
    X = np.tile(x, (n, 1))
    for f in range(m):
        own_bin = discretizer.bin_of(f, x[f])
        other_bins = [b for b in discretizer.bin_stats[f] if b != own_bin]
        if not other_bins:
            bits[:, f] = 1
            continue
        rows = np.nonzero(bits[:, f] == 0)[0]
        if rows.size == 0:
            continue
        chosen = rng.integers(0, len(other_bins), size=rows.size)
        stats = np.array([discretizer.bin_stats[f][b] for b in other_bins])
        if config.resample == "uniform":
            low, high = stats[chosen, 0], stats[chosen, 1]
            X[rows, f] = rng.uniform(low, high)
        else:
            X[rows, f] = rng.normal(stats[chosen, 2], stats[chosen, 3])
    distances = np.linalg.norm(
        scaler.transform(X) - scaler.transform(x)[None, :], axis=1
    )
    return PerturbationSet(instance=x, X=X, bits=bits, distances=distances)


@dataclass(frozen=True)
class LimeCondition:
    """One signed term of the surrogate: a bin condition and its weight."""

    feature: str
    feature_index: int
    condition: str
    weight: float
    instance_value: float
    bin: int

    def to_dict(self):
        return asdict(self)


@dataclass(frozen=True, eq=False)
class LimeExplanation:
    """Sparse linear surrogate of the model around one instance."""

    feature_names: tuple
    instance: np.ndarray
    predicted_class: int
    predicted_proba: float
    intercept: float
    conditions: tuple
    local_fidelity: float
    config: LimeConfig
    kernel_width: float

    @property
    def local_prediction(self):
        """Surrogate output at the instance (all interpretable bits on)."""
        return float(self.intercept + sum(c.weight for c in self.conditions))

    def weight_of(self, feature_name):
        for c in self.conditions:
            if c.feature == feature_name:
                return c.weight
        return None

    def to_dict(self):
        return {
            "schema": "floodxai.lime",
            "schema_version": 1,
            "feature_names": list(self.feature_names),
            "instance": [float(v) for v in self.instance],
            "predicted_class": int(self.predicted_class),
            "predicted_proba": float(self.predicted_proba),
            "intercept": float(self.intercept),
            "conditions": [c.to_dict() for c in self.conditions],
            "local_prediction": self.local_prediction,
            "local_fidelity": float(self.local_fidelity),
            "config": dict(asdict(self.config), kernel_width=self.kernel_width),
        }


def _ridge_wls(bits, y, weights, ridge=RIDGE_LAMBDA):
    """Ridge-regularized weighted least squares with a free intercept.

    Centering by the weighted means keeps the intercept unpenalized.
    Returns (coefficients, intercept, weighted SSE).
    """
    w_sum = weights.sum()
    x_mean = weights @ bits / w_sum
    y_mean = float(weights @ y / w_sum)
    xc = bits - x_mean
    yc = y - y_mean
    sw = np.sqrt(weights)
    a = xc * sw[:, None]
    b = yc * sw
    gram = a.T @ a + ridge * np.eye(bits.shape[1])
    beta = np.linalg.solve(gram, a.T @ b)
    intercept = y_mean - float(x_mean @ beta)
    residual = y - (bits @ beta + intercept)
    return beta, intercept, float(weights @ residual**2)


def _forward_select(bits, y, weights, candidates, n_select):
    """Greedy forward selection of bit columns by weighted-SSE reduction.

    Each step adds the candidate whose ridge WLS fit on (selected + [f])
    has the least weighted SSE, ties to the earliest candidate. The
    proximity-weighted, centred moment matrix of [bits, y] is formed once;
    a trial's fit solves its ridged Gram submatrix G beta = c, and its SSE
    is s_yy - 2 beta.c + beta' G beta, the residual sum `_ridge_wls` reports.
    All remaining candidates of a step are scored by one batched solve.
    """
    m = bits.shape[1]
    z = np.column_stack([bits, y])
    zc = (z - weights @ z / weights.sum()) * np.sqrt(weights)[:, None]
    moments = zc.T @ zc
    gram, cross, s_yy = moments[:m, :m], moments[:m, m], moments[m, m]
    selected, remaining = [], list(candidates)
    for step in range(min(n_select, len(remaining))):
        trials = np.array([selected + [f] for f in remaining])
        g = gram[trials[:, :, None], trials[:, None, :]]
        c = cross[trials]
        # an (n, s, 1) right-hand side is a stack of columns in numpy 1.x and 2.x
        beta = np.linalg.solve(
            g + RIDGE_LAMBDA * np.eye(step + 1), c[:, :, None]
        )[:, :, 0]
        sse = s_yy - 2.0 * np.einsum("ns,ns->n", beta, c) + np.einsum(
            "ns,nst,nt->n", beta, g, beta
        )
        selected.append(int(remaining.pop(int(np.argmin(sse)))))
    return selected


def fit_local_surrogate(model, samples, config, feature_names=None, discretizer=None):
    """Fit the sparse proximity-weighted surrogate on a perturbation set.

    Proximity pi(z) = exp(-d(x, z)^2 / sigma^2). Sparsity is enforced by
    forward-selecting n_selected_features bit columns (greedy weighted-SSE
    reduction, ties to the lowest feature index), scoring every trial from
    one weighted Gram matrix of the bits and the model output, then
    refitting ridge weighted least squares on the selected set. Reports
    the weighted R^2 of the final surrogate as local_fidelity. A design
    with fewer than two rows, or whose rows all equal the first, is
    rejected, and so is a kernel width under which a proximity weight is
    not finite or fewer than two are positive.
    """
    x = samples.instance
    m = x.shape[0]
    config.validate(m)
    if feature_names is None and discretizer is not None:
        feature_names = discretizer.feature_names
    feature_names = _feature_names(feature_names, m)
    varies = (samples.bits != samples.bits[:1]).any(axis=0)
    if samples.bits.shape[0] < 2 or not varies.any():
        raise DatasetError(
            "degenerate perturbation design: all interpretable vectors are "
            "identical, so no surrogate can be fit"
        )
    bits = samples.bits.astype(float)
    sigma = config.effective_kernel_width(m)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        proximity = np.exp(-samples.distances**2 / sigma**2)
    if not np.isfinite(proximity).all() or np.count_nonzero(proximity) < 2:
        # sigma**2 underflows to 0 (0/0 at the instance), or every perturbation
        # but the instance lies too far for the kernel: no weighted fit exists
        raise ConfigError(
            f"kernel_width {sigma:g} is too small for this perturbation set: a fit "
            "needs finite proximity weights, at least two of them positive"
        )

    predict = _predict_fn(model)
    y = predict(samples.X)

    selected = _forward_select(
        bits, y, proximity, np.flatnonzero(varies), config.n_selected_features
    )

    # a varying column exists and n_selected_features >= 1, so selected is non-empty
    beta, intercept, _ = _ridge_wls(bits[:, selected], y, proximity)
    fitted = bits[:, selected] @ beta + intercept

    y_mean = float(proximity @ y / proximity.sum())
    ss_res = float(proximity @ (y - fitted) ** 2)
    ss_tot = float(proximity @ (y - y_mean) ** 2)
    fidelity = 1.0 if ss_tot < 1e-18 else 1.0 - ss_res / ss_tot

    proba = float(predict(x[None, :])[0])
    order = sorted(range(len(selected)), key=lambda i: -abs(beta[i]))
    conditions = []
    for i in order:
        f = selected[i]
        value = float(x[f])
        if discretizer is not None:
            text = discretizer.condition(f, value)
            b = discretizer.bin_of(f, value)
        else:
            text = f"{feature_names[f]} bit"
            b = 1
        conditions.append(
            LimeCondition(
                feature=feature_names[f],
                feature_index=f,
                condition=text,
                weight=float(beta[i]),
                instance_value=value,
                bin=b,
            )
        )
    return LimeExplanation(
        feature_names=feature_names,
        instance=x,
        predicted_class=int(proba >= 0.5),
        predicted_proba=proba,
        intercept=float(intercept),
        conditions=tuple(conditions),
        local_fidelity=fidelity,
        config=config,
        kernel_width=sigma,
    )


class _TrainingRows:
    """A training matrix that hashes and compares by its shape, strides and bytes.

    numpy's reductions follow the memory layout, so two matrices with equal
    keys give bit-identical fits.
    """

    def __init__(self, X):
        self.X = X
        self.key = (X.shape, X.strides, X.tobytes())

    def __hash__(self):
        return hash(self.key)

    def __eq__(self, other):
        return self.key == other.key


@lru_cache(maxsize=8)
def _fitted(rows, n_bins, feature_names):
    """(Discretizer, Scaler) of one training matrix, fitted once per content.

    A fit that raises is not cached, so invalid training rows raise on every
    call. The cached objects stay inside `explain_local`.
    """
    return fit_discretizer(rows.X, n_bins, feature_names), fit_scaler(rows.X)


def explain_local(model, instance, train, config=None, feature_names=None):
    """Discretize, perturb, probe the model, and fit the local surrogate.

    The discretizer and scaler are fitted once per training set (by content),
    so explaining many instances against one training set fits them once.
    """
    config = config or LimeConfig()
    X_train = _feature_matrix(train)
    config.validate(X_train.shape[1])
    names = _training_names(train, X_train, feature_names)
    discretizer, scaler = _fitted(_TrainingRows(X_train), config.n_bins, names)
    samples = perturb(instance, discretizer, scaler, config)
    return fit_local_surrogate(
        model, samples, config, feature_names=names, discretizer=discretizer
    )
