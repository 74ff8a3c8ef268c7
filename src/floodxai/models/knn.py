"""K-nearest-neighbors classifier over standardized rainfall features.

A distance is the square root of the squared per-feature differences summed
in feature order 0..M-1: the floating-point steps of scipy's ``cdist``, whose
values it equals bit for bit. The training rows are kept split by label, so
a vote needs only the k nearest of each half.

Coalition values (`KnnModel.masked_proba`) add the same per-feature terms
along a trie of mask prefixes. The trie depends only on the mask table, so
`_mask_plan` builds it once per table and exhaustive Kernel SHAP reuses it
for every instance; the sums, and so the votes, stay those of the hybrid
rows bit for bit. A call that fills more than one block of masks walks its
blocks on two threads where two CPUs are available, counting no more CPUs
than a cgroup CPU quota grants (numpy's add, sort and square root release the
GIL on blocks this large). The threads split one block's worth of distances
between them, so a call holds no more memory than a serial one; the thread
count follows from the CPUs and the call's size, with no setting.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from ..dataset import _check_integer, fit_scaler
from ..errors import ConfigError, DatasetError
from .base import ProbabilityClassifier, _finite_parameter, prepare_features, unwrap_single

# float64 distances computed at a time: a block of query rows, a block of masks
# (shared by the threads of a `_masked_proba` call)
_QUERY_BLOCK = 1 << 15
_MASK_BLOCK = 1 << 19
# threads of one `_masked_proba` call: the most measured to pay. A thread's
# block shrinks as their number grows, and two threads on blocks of 2^17
# distances each ran about 35 % slower than two on 2^18 each
_MAX_THREADS = 2


def _read_cpu_max():
    """The text of the cgroup v2 CPU quota file: `<quota> <period>` or `max <period>`."""
    with open("/sys/fs/cgroup/cpu.max", encoding="ascii") as handle:
        return handle.read()


@lru_cache(maxsize=1)
def _quota_cpus():
    """The whole CPUs of this process's cgroup CPU quota, read once per process:
    quota // period, at least 1. None when there is no quota to read: the file is
    missing or unreadable, reads `max`, or holds anything but two positive
    integers. Rounded down, as two threads on one CPU's time ran slower than one."""
    try:
        quota, period = (int(field) for field in _read_cpu_max().split())
    except (OSError, ValueError):
        return None
    if quota < 1 or period < 1:
        return None
    return max(1, quota // period)


def _available_cpus():
    """The number of CPUs this process may run on, capped by the whole CPUs of a
    cgroup CPU quota where one is set."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    quota = _quota_cpus()
    return cpus if quota is None else min(cpus, quota)


def _worker_count(n_masks, cells, cpus):
    """Threads for a `_masked_proba` call of `n_masks` masks with `cells` squared
    distances each, on `cpus` CPUs. Each thread walks a block of `_MASK_BLOCK // n`
    distances, so the call holds what a serial one does. There is one thread per
    CPU, but no more than the blocks a serial call would fill (a call within one
    block stays serial), none with an empty block, and no more than
    `_MAX_THREADS`: on two CPUs, two threads on half blocks beat one thread on a
    whole block, but more threads on smaller blocks have not been measured."""
    serial = max(1, _MASK_BLOCK // cells)  # masks in one serial block
    return max(1, min(cpus, -(-n_masks // serial), serial, _MAX_THREADS))


def euclidean_distance(a, b):
    """Plain Euclidean distance between two equal-length feature vectors."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise DatasetError(f"length mismatch: {a.shape} vs {b.shape}")
    return float(np.sqrt(np.sum((a - b) ** 2)))


def _vote(D2, n0, k):
    """Flood probability of each row of squared distances D2, whose first n0 columns
    are label-0 training rows and the rest label-1; sorts both halves of each row
    in place.

    The rows strictly closer than the k-th distance vote; the rest of the k slots
    are shared equally among the rows at exactly the k-th distance. The square
    root is monotone, so sorting squared distances orders the distances; it is
    taken only where ties are decided: the first k of each half, and, in the rows
    where a half's k-th distance ties the union's and so does its next one, that
    whole half.
    """
    halves = (D2[:, :n0], D2[:, n0:])
    heads = np.full((2, k, len(D2)), np.inf)
    for half, head in zip(halves, heads):
        half.sort(axis=1)
        np.sqrt(half[:, :k].T, out=head[: min(k, half.shape[1])])
    # the k-th smallest of two sorted lists: the best split of the k slots between them
    kth = np.minimum(heads[0, k - 1], heads[1, k - 1])
    for i in range(1, k):
        np.minimum(kth, np.maximum(heads[0, i - 1], heads[1, k - 1 - i]), out=kth)
    closer, at = [], []
    for half, head in zip(halves, heads):
        width = min(k, half.shape[1])
        closer.append((head[:width] < kth).sum(axis=0))
        tied = (head[:width] == kth).sum(axis=0)
        if half.shape[1] > k:
            # a tie at column k-1 runs on only if column k ties too
            runs = np.flatnonzero(head[k - 1] == kth)
            runs = runs[np.sqrt(half[runs, k]) == kth[runs]]
            tied[runs] = (np.sqrt(half[runs]) == kth[runs, None]).sum(axis=1)
        at.append(tied)
    votes = closer[1] + (k - closer[0] - closer[1]) * at[1] / (at[0] + at[1])
    return votes / k


@dataclass(frozen=True)
class KnnConfig:
    k: int = 5

    def validate(self):
        _check_integer("k", self.k)
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
        train_scaled = _finite_parameter("train_scaled", params["train_scaled"])
        train_labels = np.asarray(params["train_labels"], dtype=int)
        if train_scaled.ndim != 2:
            raise ConfigError(
                f"train_scaled must be a list of rows, got shape {train_scaled.shape}"
            )
        n = len(train_scaled)
        if len(train_labels) != n:
            raise ConfigError(
                f"train_labels has {len(train_labels)} entries but train_scaled has {n} rows"
            )
        if not np.isin(train_labels, (0, 1)).all():
            raise ConfigError(
                f"train_labels must be 0 or 1, got {np.unique(train_labels).tolist()}"
            )
        if config.k > n:
            raise ConfigError(
                f"k must satisfy 1 <= k <= {n} stored training rows, got {config.k}"
            )
        width = train_scaled.shape[1]
        if scaler is None:
            raise ConfigError(f"scaler is missing; KNN standardizes its {width} features")
        if scaler.mean.shape != (width,) or scaler.std.shape != (width,):
            raise ConfigError(
                f"scaler mean and std must have {width} entries, one per train_scaled "
                f"feature, got shapes {scaler.mean.shape} and {scaler.std.shape}"
            )
        return cls(
            config=config, train_scaled=train_scaled, train_labels=train_labels, scaler=scaler
        )

    @cached_property
    def _by_label(self):
        """(training rows feature-major with label-0 rows first, label-0 count)."""
        order = np.argsort(self.train_labels, kind="stable")
        n0 = int(np.sum(self.train_labels == 0))
        return np.ascontiguousarray(self.train_scaled[order].T), n0

    def _squared_distances(self, A):
        """Squared distances from each row of the checked matrix A to the training rows,
        in `_by_label` order."""
        queries = np.ascontiguousarray(self.scaler.transform(A).T)
        train, _ = self._by_label
        D = np.zeros((A.shape[0], train.shape[1]))
        step = max(1, _QUERY_BLOCK // train.shape[1])
        diff = np.empty((min(step, len(D)), train.shape[1]))
        for start in range(0, len(D), step):
            block = D[start : start + step]
            d = diff[: len(block)]
            for q, t in zip(queries[:, start : start + step], train):
                np.subtract(q[:, None], t, out=d)
                np.square(d, out=d)
                block += d
        return D

    def _proba(self, A):
        return _vote(self._squared_distances(A), self._by_label[1], self.config.k)

    def predict(self, X):
        """Majority vote; an exact 50/50 vote falls to the nearest neighbor's class."""
        A, single = prepare_features(X, self.n_features)
        D2 = self._squared_distances(A)
        n0 = self._by_label[1]
        proba = _vote(D2, n0, self.config.k)
        labels = (proba >= 0.5).astype(int)
        for i in np.flatnonzero(proba == 0.5):
            distances = np.sqrt(D2[i])
            at_min = distances == distances.min()
            # nearest neighbors that themselves split evenly keep class 1
            labels[i] = 1 if at_min[n0:].sum() >= at_min[:n0].sum() else 0
        return unwrap_single(labels, single)

    def _masked_proba(self, x, bg, masks):
        """`masked_proba` without hybrid rows: each squared distance is the sum, in
        feature order, of per-feature terms taken from the instance or the
        background row. The masks are lexsorted and walked in blocks, so masks that
        agree on features 0..j mostly share a block and one partial sum over them;
        that walk depends only on the mask table and is planned once per table.

        The blocks are independent, so `_worker_count` threads walk them, thread i
        the blocks i, i + n, ...: each writes its own rows of the output and sums
        into its own buffers, which together are the size of a serial call's. A
        call within one serial block (every mean-background call) stays serial.
        The sums and votes do not depend on the blocks, so the output is the same
        for any thread count."""
        train, n0 = self._by_label
        cells = len(bg) * train.shape[1]
        n = _worker_count(len(masks), cells, _available_cpus())
        step = max(1, _MASK_BLOCK // (n * cells))
        # planned before the large arrays below exist: a plan cached from above them
        # on the heap would keep their freed space from being reused, and each new
        # table's plan would grow the heap again
        plan = _mask_plan(masks.tobytes(), masks.shape, step)
        # terms[j, 0]: background rows' feature-j terms, terms[j, 1]: the instance's
        terms = np.empty((self.n_features, 2, len(bg), train.shape[1]))
        np.square(self.scaler.transform(bg).T[:, :, None] - train[:, None, :], out=terms[:, 0])
        terms[:, 1] = np.square(self.scaler.transform(x)[:, None, None] - train[:, None, :])
        buffers = np.empty((n, 2, min(step, len(masks))) + terms.shape[2:])
        out = np.empty((len(masks), len(bg)))

        def walk(blocks, own):
            for rows, levels, group in blocks:
                sums = _prefix_sums(levels, terms, own)
                proba = _vote(sums.reshape(-1, train.shape[1]), n0, self.config.k)
                out[rows] = proba.reshape(len(sums), len(bg))[group]

        if n == 1:
            walk(plan, buffers[0])
        else:
            # imported here: concurrent.futures pulls in logging, which every
            # process would pay for at start-up
            from concurrent.futures import ThreadPoolExecutor

            with ThreadPoolExecutor(n) as pool:
                # list() re-raises what a thread raised
                list(pool.map(walk, [plan[i::n] for i in range(n)], buffers))
        return out


@lru_cache(maxsize=8)
def _mask_plan(table, shape, step):
    """The prefix-sum walk over a mask table (its bytes and shape) in blocks of
    `step` lexsorted masks: per block, (its rows of the table, its levels, the
    distinct-mask index of each row). Level j turns the distinct prefixes 0..j-1
    into the distinct prefixes 0..j. A full level, where every prefix has both
    children, is its child count: prefix p's children are 2p (bit 0) and 2p + 1.
    Otherwise it is (parents of the bit-0 children, parents of the bit-1 children),
    numbered in that order."""
    masks = np.frombuffer(table, dtype=bool).reshape(shape)
    order = np.lexsort(masks.T[::-1])
    plan = []
    for start in range(0, len(masks), step):
        rows = order[start : start + step]
        group = np.zeros(len(rows), dtype=np.intp)
        n, levels = 1, []
        for bit in masks[rows].T:
            child = bit * n + group  # prefix p's bit-0 child is p, its bit-1 child n + p
            present = np.zeros(2 * n, dtype=bool)
            present[child] = True
            if present.all():
                levels.append(2 * n)
                group = 2 * group + bit
            else:
                levels.append((_frozen(present[:n]), _frozen(present[n:])))
                group = (np.cumsum(present) - 1)[child]
            n = int(present.sum())
        rows.setflags(write=False)
        group.setflags(write=False)
        plan.append((rows, tuple(levels), group))
    return tuple(plan)


def _frozen(present):
    """The indices of `present`'s true entries, read-only: the plan is shared."""
    indices = np.flatnonzero(present)
    indices.setflags(write=False)
    return indices


def _prefix_sums(levels, terms, buffers):
    """Squared distances of each distinct mask of one `_mask_plan` block; level j
    adds feature j's term to every distinct prefix 0..j once. `buffers` holds two
    levels."""
    sums = np.zeros((1,) + terms.shape[2:])
    for j, level in enumerate(levels):
        if type(level) is int:
            nxt = buffers[j % 2, :level]
            np.add(sums[:, None], terms[j], out=nxt.reshape((len(sums),) + terms.shape[1:]))
        else:
            nxt = buffers[j % 2, : len(level[0]) + len(level[1])]
            children = (nxt[: len(level[0])], nxt[len(level[0]) :])
            for parents, child, term in zip(level, children, terms[j]):
                if len(parents) == len(sums):  # every prefix has this child
                    np.add(sums, term, out=child)
                else:
                    np.take(sums, parents, axis=0, out=child, mode="clip")
                    child += term
        sums = nxt
    return sums


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
