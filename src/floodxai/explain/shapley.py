"""Shapley-value feature attributions for black-box classifiers.

Two independent routes to the same quantity:

* :func:`exact_shapley` enumerates every feature subset and applies the
  combinatorial Shapley formula directly — the brute-force oracle.
* :func:`kernel_shap` fits an additive surrogate by weighted least squares over
  binary coalition vectors using the Shapley kernel. Over every coalition (EXHAUSTIVE
  mode) that fit is the Shapley values (Lundberg & Lee 2017, Theorem 2), taken here in
  closed form; a sampled coalition budget approximates them at a fraction of the cost.

The coalition value v(S) uses background substitution: features in S take
the instance's values, the rest are replaced by background rows, and the
model output (flood probability) is averaged over the background. The
oracles (`exact_shapley`, `coalition_value`) always build those hybrid rows
and call `predict_proba`. `kernel_shap` and `global_importance` ask a model
that keeps `ProbabilityClassifier`'s `predict_proba`, `masked_proba` and
`masked_mean` (every package kind) for v(S) through that `masked_mean`; any
other model, callable or wrapper is scored on the hybrid rows, as the
oracles score it.
"""

from __future__ import annotations

import hashlib
import math
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from ..dataset import _as_finite, _as_numeric, _check_seed
from ..errors import ConfigError, DatasetError
from ..models.base import ProbabilityClassifier, _bit_table

EXHAUSTIVE = "exhaustive"
MAX_EXACT_FEATURES = 20
_CHUNK_ROWS = 65536  # hybrid rows built and scored at a time
_CHUNK_VALUES = 1 << 20  # probabilities (masks x background rows) asked of one masked call
_CHUNK_WORDS = 1 << 13  # raw generator words turned into coalitions at a time
_LOW32 = np.uint64(0xFFFFFFFF)


def _predict_fn(model):
    """Accept either a probability-scoring object or a bare callable; the function
    returned checks that it gives one finite float per row of its 2-D input."""
    predict = getattr(model, "predict_proba", model)
    if not callable(predict):
        raise ConfigError(
            f"model must expose predict_proba or be callable, got {type(model).__name__}"
        )

    def checked(X):
        out = np.asarray(predict(X), dtype=float)
        if out.shape != (len(X),):
            raise DatasetError(f"model returned shape {out.shape} for {len(X)} rows, not one each")
        bad = np.flatnonzero(~np.isfinite(out))
        if len(bad):
            raise DatasetError(f"model output for row {bad[0]} is {out[bad[0]]}; it must be finite")
        return out

    return checked


def background_fingerprint(background):
    """Content hash identifying the background matrix in report echoes."""
    bg = np.ascontiguousarray(np.atleast_2d(np.asarray(background, dtype=float)))
    digest = hashlib.sha256()
    digest.update(repr(bg.shape).encode("ascii"))
    digest.update(bg.tobytes())
    return "sha256:" + digest.hexdigest()


def _hybrid_mean(model):
    """v(S) of each mask of one chunk from `predict_proba` on the hybrid rows
    themselves, scored `_CHUNK_ROWS` rows at a time."""
    predict = _predict_fn(model)

    def mean(x, bg, masks):
        out = np.empty((len(masks), len(bg)))
        step = max(1, _CHUNK_ROWS // len(bg))
        for start in range(0, len(masks), step):
            chunk = masks[start : start + step]
            hybrid = np.where(chunk[:, None, :], x[None, None, :], bg[None, :, :])
            preds = predict(hybrid.reshape(-1, x.shape[0]))
            out[start : start + step] = preds.reshape(len(chunk), len(bg))
        return out.mean(axis=1)

    return mean


def _mean_fn(model):
    """v(S) of each mask of one chunk. A model whose class takes `predict_proba`,
    `masked_proba` and `masked_mean` from `ProbabilityClassifier` itself is asked
    through that `masked_mean`; anything else is scored on its hybrid rows: a bare
    callable, a wrapper that forwards attributes, a subclass that overrides one of
    the three, a duck-typed class."""
    cls = type(model)
    if all(
        getattr(cls, name, None) is getattr(ProbabilityClassifier, name)
        for name in ("predict_proba", "masked_proba", "masked_mean")
    ):
        return partial(ProbabilityClassifier.masked_mean, model)
    return _hybrid_mean(model)


def _checked(instance, background):
    """The instance and background as finite float arrays, the background a
    non-empty matrix of the instance's width: every entry point checks them once."""
    bg = np.atleast_2d(_as_finite(background, "background"))
    x = _as_finite(instance, "instance")
    if x.shape[0] == 0:
        raise DatasetError("the instance has 0 features; Shapley values need at least one")
    if bg.shape[1] != x.shape[0]:
        raise DatasetError(
            f"background has {bg.shape[1]} features but the instance has {x.shape[0]}"
        )
    if bg.shape[0] == 0:
        raise DatasetError("background has no rows")
    return x, bg


def _mean_values(mean, x, bg, masks):
    """v(S) for every row of the bool table `masks` from `mean`, asked for at most
    `_CHUNK_VALUES` (masks x background rows) per call."""
    values = np.empty(len(masks))
    step = max(1, _CHUNK_VALUES // len(bg))
    for start in range(0, len(masks), step):
        values[start : start + step] = mean(x, bg, masks[start : start + step])
    return values


def coalition_value(model, instance, subset, background):
    """Model output with `subset` features from the instance, rest masked."""
    x = _as_numeric(instance, "instance")
    mask = np.zeros(x.shape[0], dtype=bool)
    subset = list(subset)
    # a bool is an int to Python, and a float index would be truncated
    if not all(isinstance(i, (int, np.integer)) and not isinstance(i, bool) and 0 <= i < len(mask)
               for i in subset):
        raise ConfigError(f"subset indices must be integers in [0, {len(mask) - 1}], got {subset}")
    mask[subset] = True
    mean = _hybrid_mean(model)
    x, bg = _checked(x, background)
    return float(_mean_values(mean, x, bg, mask[None])[0])


@dataclass(frozen=True, eq=False)
class ShapConfig:
    """Settings for kernel-based attribution.

    `background` is the reference data (matrix or single vector) that
    defines masked feature values. `n_coalition_samples` is either the
    EXHAUSTIVE sentinel or an integer coalition budget.
    """

    background: object = None
    n_coalition_samples: object = EXHAUSTIVE
    seed: int = 0

    def validate(self, n_features):
        if self.background is None:
            raise ConfigError("ShapConfig.background must be provided")
        if self.n_coalition_samples == EXHAUSTIVE:
            if n_features > MAX_EXACT_FEATURES:
                raise ConfigError(
                    f"exhaustive Kernel SHAP supports at most {MAX_EXACT_FEATURES} features "
                    f"(got {n_features}); use an integer n_coalition_samples budget instead"
                )
            return
        budget = self.n_coalition_samples
        minimum = 2 * n_features + 2
        if not isinstance(budget, (int, np.integer)) or budget < minimum:
            raise ConfigError(
                f"n_coalition_samples must be '{EXHAUSTIVE}' or an integer >= "
                f"{minimum} (2M + 2 for M={n_features}), got {budget!r}"
            )
        _check_seed(self.seed)


def _report(result, schema, **body):
    """The report of a ShapExplanation or GlobalImportance: its schema, `body`, and
    the names, method and config echo the two share."""
    return {
        "schema": schema,
        "schema_version": 1,
        "feature_names": list(result.feature_names),
        **body,
        "method": result.method,
        "config": {
            "n_coalitions": int(result.n_coalitions),
            "seed": None if result.seed is None else int(result.seed),
            "background_fingerprint": result.background_fingerprint,
        },
    }


@dataclass(frozen=True, eq=False)
class ShapExplanation:
    """Per-feature attributions for a single instance."""

    feature_names: tuple
    instance: np.ndarray
    phi: np.ndarray
    base_value: float
    model_output: float
    method: str
    n_coalitions: int
    seed: object
    background_fingerprint: str

    @property
    def additivity_residual(self):
        """model_output - (base_value + sum(phi)); ~0 when efficiency holds."""
        return float(self.model_output - self.base_value - float(self.phi.sum()))

    def to_dict(self):
        return _report(
            self,
            "floodxai.shap_local",
            instance=[float(v) for v in self.instance],
            phi=[float(v) for v in self.phi],
            base_value=float(self.base_value),
            model_output=float(self.model_output),
            additivity_residual=self.additivity_residual,
        )


@dataclass(frozen=True, eq=False)
class GlobalImportance:
    """Mean absolute attribution per feature over a set of instances."""

    feature_names: tuple
    importances: np.ndarray
    n_instances: int
    method: str
    n_coalitions: int
    seed: object
    background_fingerprint: str

    @property
    def ranking(self):
        """Feature indices in descending importance; ties keep input order."""
        return tuple(int(i) for i in np.argsort(-self.importances, kind="stable"))

    def ranked(self):
        """(name, importance) pairs in descending order."""
        return [(self.feature_names[i], float(self.importances[i])) for i in self.ranking]

    def top(self, k):
        """Names of the k most important features."""
        return [name for name, _ in self.ranked()[:k]]

    def to_dict(self):
        return _report(
            self,
            "floodxai.shap_global",
            importances=[float(v) for v in self.importances],
            ranking=[self.feature_names[i] for i in self.ranking],
            n_instances=int(self.n_instances),
        )


def _feature_names(feature_names, n_features):
    """`feature_names` as a tuple, x0, x1, ... when None or empty. The explainers'
    shared check: a ConfigError unless there is one name per feature."""
    names = () if feature_names is None else tuple(feature_names)
    if not names:
        return tuple(f"x{i}" for i in range(n_features))
    if len(names) != n_features:
        raise ConfigError(
            f"feature_names has {len(names)} entries but the data has {n_features} features"
        )
    return names


def exact_shapley(model, instance, background, feature_names=None):
    """Exact Shapley attributions by full subset enumeration.

    phi_i = sum over subsets S not containing i of
    |S|! (M-|S|-1)! / M! * [v(S + i) - v(S)].
    """
    x = _as_numeric(instance, "instance").ravel()
    m = x.shape[0]
    if m > MAX_EXACT_FEATURES:
        raise ConfigError(
            f"exact enumeration supports at most {MAX_EXACT_FEATURES} features "
            f"(got {m}); use kernel_shap with a sampling budget instead"
        )
    names = _feature_names(feature_names, m)
    mean = _hybrid_mean(model)
    x, bg = _checked(x, background)
    masks = _bit_table(m)
    values = _mean_values(mean, x, bg, masks)
    sizes = masks.sum(axis=1)
    fact = [math.factorial(k) for k in range(m + 1)]
    weight_by_size = np.array(
        [fact[s] * fact[m - 1 - s] / fact[m] for s in range(m)]
    )
    codes = np.arange(1 << m, dtype=np.int64)
    phi = np.empty(m)
    for i in range(m):
        without = codes[(codes >> i) & 1 == 0]
        gains = values[without | (1 << i)] - values[without]
        phi[i] = float(np.dot(weight_by_size[sizes[without]], gains))
    return ShapExplanation(
        feature_names=names,
        instance=x,
        phi=phi,
        base_value=float(values[0]),
        model_output=float(values[-1]),
        method="exact",
        n_coalitions=1 << m,
        seed=None,
        background_fingerprint=background_fingerprint(background),
    )


def _scaled_design(table, weights):
    """(sqrt(w) * design, sqrt(w)) over table[1:-1]: efficiency eliminates the last
    feature, so each column is z_i - z_last."""
    z = table[1:-1].astype(float)
    scale = np.sqrt(weights)
    return (z[:, :-1] - z[:, -1:]) * scale[:, None], scale


@lru_cache(maxsize=8)
def _exhaustive_projection(m):
    """theta = P @ target over _bit_table(m)[1:-1] in closed form: every coalition's
    regression solves to the Shapley values, so P[i, S] = w[s-1] if feature i < M-1 is in
    S (size s), else -w[s], with w[k] = k!(M-k-1)!/M!; the target's other terms give i
    nothing (dummy axiom). Kept column-major, as np.where leaves it: a row-major copy
    rounds P @ target differently and flips the sign of tree-compare-1947's zero FEB phi."""
    interior = _bit_table(m)[1:-1]
    sizes = interior.sum(axis=1)
    fact = [math.factorial(k) for k in range(m + 1)]
    w = np.array([fact[k] * fact[m - 1 - k] / fact[m] for k in range(m)])
    projection = np.where(interior[:, :-1].T, w[sizes - 1], -w[sizes])
    projection.setflags(write=False)
    return projection


@lru_cache(maxsize=32)
def _size_cdf(m):
    """Coalition sizes 1..M-1 and the CDF `Generator.choice(sizes, p=probs)` builds
    from their kernel weight mass: probs.cumsum(), divided by its last entry."""
    sizes = np.arange(1, m)
    mass = (m - 1) / (sizes * (m - sizes))
    cdf = (mass / mass.sum()).cumsum()
    cdf /= cdf[-1]
    cdf.setflags(write=False)
    return sizes.tolist(), cdf


def _interleave(a, b):
    """a[0], b[0], a[1], b[1], ... as one array."""
    out = np.empty((2 * len(a),) + a.shape[1:], dtype=a.dtype)
    out[0::2], out[1::2] = a, b
    return out


def _lay_out(raw, held, draws, sizes, cdf, extra):
    """Place up to `draws` paired draws on the generator words `raw`.

    A draw takes one whole word for its size, then 2s - 1 32-bit reads plus
    `extra[k]` rejected ones. A read takes the half word held over from the
    last read if there is one (`held` at the start), else the low half of the
    next word, holding its high half. Returns the sizes and size-word
    positions of the draws whose words all lie in `raw`, the number of words
    they use, and whether a half word is held after them.
    """
    drawn, size_words, used = [], [], 0
    while len(drawn) < draws and used < len(raw):
        s = sizes[bisect_right(cdf, (raw.item(used) >> 11) * 2.0**-53)]
        n = 2 * s - 1 + extra.get(len(drawn), 0)
        after = used + 1 + (n - held + 1) // 2
        if after > len(raw):
            break
        drawn.append(s)
        size_words.append(used)
        used, held = after, (n - held) & 1
    return drawn, size_words, used, held


def _read_bounds(m, s):
    """The bound b of each accepted read of draws of sizes `s`, and whether it is a pick.

    A draw of size s reads bounds m-s, ..., m-1 for Floyd's picks, then
    s-1, ..., 1 for `Generator.choice`'s shuffle of them, whose values go unused.
    """
    per = 2 * s - 1
    start = np.cumsum(per) - per  # each draw's first read
    lengths = _interleave(s, s - 1)
    # along a run the bound moves one per read: up from m-s, then down from s-1
    slope = np.repeat(np.resize(np.array([1, -1]), len(lengths)), lengths)
    offset = np.repeat(_interleave(m - s - start, start + per), lengths)
    return (offset + slope * np.arange(len(slope))).astype(np.uint64), slope > 0


def _first_rejected(product, bound):
    """The first read whose product u * (b + 1) Lemire's method rejects, or None: its low
    32 bits fall below (2^32 - 1 - b) mod (b + 1), which only a low part <= b can."""
    low = product & _LOW32
    near = np.flatnonzero(low <= bound)
    bad = near[low[near] < (_LOW32 - bound[near]) % (bound[near] + 1)]
    return int(bad[0]) if len(bad) else None


def _floyd_masks(m, s, value, bound):
    """Members of each draw as a (draws, m) mask: Floyd's step of bound b picks its value
    v, or b itself if v is already a member.

    v is already a member if it equals an earlier value of the draw, or if it
    is the bound b' < b of an earlier step that picked b' itself: a chain back
    through earlier steps, followed here by pointer doubling.
    """
    value, bound = value.astype(np.int64), bound.astype(np.int64)
    cell = np.repeat(np.arange(0, len(s) * m, m), s) + value
    shift = len(cell).bit_length()
    key = np.sort((cell << shift) | np.arange(len(cell)))
    taken = np.zeros(len(cell), dtype=bool)
    taken[key[1:] & ((1 << shift) - 1)] = (key[1:] >> shift) == (key[:-1] >> shift)
    gap = bound - value
    chained = np.flatnonzero((value >= np.repeat(m - s, s)) & (gap > 0))
    link = np.arange(len(cell))
    link[chained] -= gap[chained]
    while len(chained):
        via = link[chained]
        taken[chained] |= taken[via]
        link[chained] = link[via]
        chained = chained[~taken[chained] & (link[chained] != via)]
    mask = np.zeros((len(s), m), dtype=bool)
    mask.ravel()[cell] = True
    mask.ravel()[(cell + gap)[taken]] = True
    return mask


def _sample_coalitions(m, budget, seed):
    """Draw coalition masks with sizes proportional to kernel weight mass.

    Each draw is paired with its complement (same weight mass, opposite
    membership) and duplicates are merged in first-seen order over code 0,
    its complement, code 1, ..., cut at `budget`; their counts become the
    regression weights. Deterministic for a given seed.

    The draws are numpy's own: a size as `Generator.choice(sizes, p=probs)`
    draws it, then the members as `Generator.choice(m, size=s, replace=False)`
    draws them. They are replayed from the raw 64-bit PCG64 words, which
    numpy keeps fixed across versions, instead of calling either method:

    * a size takes one whole word w and is `sizes[bisect_right(cdf, u)]`
      with u = (w >> 11) * 2^-53 and the CDF of `_size_cdf`;
    * members take 32-bit reads: the low half of the next word, whose high
      half is held for the following read (a size word in between leaves
      it held). A read u draws from [0, b] by Lemire's method: with
      p = u * (b + 1), it is rejected, and the next read taken, if
      p mod 2^32 < (2^32 - 1 - b) mod (b + 1); otherwise it draws p >> 32;
    * a draw of size s makes Floyd's s picks with b = m-s, ..., m-1 (see
      `_floyd_masks`), then s - 1 reads with b = s-1, ..., 1, `choice`'s
      shuffle of the picks, whose values go unused.

    Without a rejection, draw k takes 1 + s - (k mod 2) words, so one pass
    over the sizes places every draw and the rest is array work. A rejected
    read shifts the draws after it by a half word: they are placed again
    past it. Draws go a chunk of `_CHUNK_WORDS` words at a time, so memory
    beyond the distinct masks kept does not grow with the budget. Above
    10,000 features `choice` draws the members of coalitions larger than
    M / 50 by a partial shuffle; this sampler keeps Floyd's picks there.
    """
    bitgen = np.random.default_rng(seed).bit_generator
    counts = Counter()
    if budget > 0:
        sizes, cdf = _size_cdf(m)
        cdf = cdf.tolist()
    left = budget  # coalitions still to draw, two per paired draw
    raw = held = np.empty(0, dtype=np.uint64)
    while left > 0:
        draws = (left + 1) // 2
        raw = np.concatenate([raw, bitgen.random_raw(min(draws * m, _CHUNK_WORDS))])
        rejected, extra = [], {}
        while True:  # lay the draws out again past each rejected read
            drawn, size_words, used, h = _lay_out(raw, len(held), draws, sizes, cdf, extra)
            if not drawn:
                break
            words = np.delete(raw[:used], size_words)
            halves = np.concatenate([held, _interleave(words & _LOW32, words >> 32)])
            reads = halves[: len(halves) - h]
            if rejected:
                reads = np.delete(reads, [r for r in rejected if r < len(reads)])
            s = np.array(drawn)
            bound, pick = _read_bounds(m, s)
            product = reads * (bound + 1)
            first = _first_rejected(product, bound)
            if first is None:
                break
            k = int(np.cumsum(2 * s - 1).searchsorted(first, side="right"))
            extra[k] = extra.get(k, 0) + 1
            rejected.append(first + len(rejected))  # every earlier rejection lies before it
        if not drawn:
            continue
        mask = _floyd_masks(m, s, product[pick] >> 32, bound[pick])
        pairs = _interleave(mask, ~mask)[:left]
        counts.update(pairs.view(np.dtype((np.void, m))).ravel().tolist())
        left -= len(pairs)
        raw, held = raw[used:], halves[len(halves) - h :]
    masks = np.frombuffer(bytearray().join(counts), dtype=bool).reshape(len(counts), m)
    return masks, np.fromiter(counts.values(), dtype=float, count=len(counts))


def _attribute(mean, x, bg, config, offset=0):
    """(phi, v(empty), v(full), n_coalitions) over one mask table: the empty coalition,
    the regression's coalitions, the full one. Sampled mode seeds config.seed + offset."""
    m = x.shape[0]
    exhaustive = config.n_coalition_samples == EXHAUSTIVE
    if exhaustive:
        table = _bit_table(m)
    else:
        budget = config.n_coalition_samples if m > 1 else 0  # one feature: no interior
        interior, weights = _sample_coalitions(m, budget, config.seed + offset)
        table = np.vstack([np.zeros(m, dtype=bool), interior, np.ones(m, dtype=bool)])
    values = _mean_values(mean, x, bg, table)
    v_empty, v_full = values[0], values[-1]
    delta = v_full - v_empty
    target = values[1:-1] - v_empty - table[1:-1, -1] * delta
    if exhaustive:
        theta = _exhaustive_projection(m) @ target
    else:
        design, scale = _scaled_design(table, weights)
        theta, *_ = np.linalg.lstsq(design, target * scale, rcond=None)
    return np.append(theta, delta - theta.sum()), v_empty, v_full, table.shape[0]


def _method(config):
    return "kernel-exhaustive" if config.n_coalition_samples == EXHAUSTIVE else "kernel-sampled"


def kernel_shap(model, instance, config, feature_names=None):
    """Kernel SHAP: weighted least squares over binary coalition vectors.

    The intercept is pinned to v(empty) and efficiency (attributions sum to model_output
    - base_value) is imposed exactly by eliminating the last feature's coefficient. The
    fit is closed-form in EXHAUSTIVE mode (`_exhaustive_projection`), else `lstsq`.
    """
    x = _as_numeric(instance, "instance").ravel()
    m = x.shape[0]
    names = _feature_names(feature_names, m)
    config.validate(m)
    mean = _mean_fn(model)
    x, bg = _checked(x, config.background)
    phi, v_empty, v_full, n_coalitions = _attribute(mean, x, bg, config)
    return ShapExplanation(
        feature_names=names,
        instance=x,
        phi=phi,
        base_value=float(v_empty),
        model_output=float(v_full),
        method=_method(config),
        n_coalitions=n_coalitions,
        seed=None if config.n_coalition_samples == EXHAUSTIVE else config.seed,
        background_fingerprint=background_fingerprint(config.background),
    )


def global_importance(model, X, config, feature_names=None):
    """Mean |phi| per feature over every row of X, with descending ranking.

    In sampled mode row i uses seed + i so rows draw independent coalition
    sets while the whole aggregate stays reproducible; `n_coalitions` is then
    the most distinct coalitions any row used.
    """
    X = np.atleast_2d(_as_finite(X, "X"))
    if X.ndim != 2:
        raise DatasetError(f"X must be a matrix of instances, got {X.ndim} dimensions")
    if X.shape[0] == 0:
        raise DatasetError("global importance needs at least one instance")
    m = X.shape[1]
    names = _feature_names(feature_names, m)
    config.validate(m)
    mean = _mean_fn(model)
    _, bg = _checked(X[0], config.background)
    total, n_coalitions = np.zeros(m), 0
    for i, row in enumerate(X):
        phi, _, _, n = _attribute(mean, row, bg, config, offset=i)
        total += np.abs(phi)
        n_coalitions = max(n_coalitions, n)
    return GlobalImportance(
        feature_names=names,
        importances=total / X.shape[0],
        n_instances=X.shape[0],
        method=_method(config),
        n_coalitions=n_coalitions,
        seed=config.seed,
        background_fingerprint=background_fingerprint(config.background),
    )
