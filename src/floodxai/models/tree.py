"""Binary decision tree grown by greedy entropy-based splits on raw features.

Split thresholds are midpoints between consecutive sorted feature values;
gain ties break toward the lowest feature index, then the lowest threshold,
so training is fully deterministic. Growth stops at pure nodes, the depth
cap, the minimum leaf size, or when no split improves entropy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigError, DatasetError
from .base import ProbabilityClassifier, mask_table, prepare_features, unwrap_single


def entropy(labels):
    """Shannon entropy of a label multiset, in bits."""
    values = np.asarray(labels)
    if values.size == 0:
        raise DatasetError("entropy of an empty multiset is undefined")
    _, counts = np.unique(values, return_counts=True)
    p = counts / values.size
    return float(-np.sum(p * np.log2(p)))


def _binary_entropy(n_pos, n_total):
    if n_total == 0 or n_pos == 0 or n_pos == n_total:
        return 0.0
    p = n_pos / n_total
    return float(-(p * math.log2(p) + (1 - p) * math.log2(1 - p)))


@dataclass(eq=False)
class TreeNode:
    """Internal node (feature, threshold, children) or leaf (class probability)."""

    n_samples: int
    n_flood: int
    entropy_bits: float
    feature: int = None
    threshold: float = None
    gain: float = None
    left: "TreeNode" = None
    right: "TreeNode" = None

    @property
    def is_leaf(self):
        return self.feature is None

    @property
    def proba(self):
        return self.n_flood / self.n_samples

    def to_dict(self):
        """Nested JSON form; a leaf omits its (None) split fields."""
        payload = {k: v for k, v in vars(self).items() if v is not None}
        if not self.is_leaf:
            payload.update(left=self.left.to_dict(), right=self.right.to_dict())
        return payload

    @classmethod
    def from_dict(cls, payload, n_features):
        """Rebuild a node and its subtree; a ConfigError names the first field out of range."""
        node = cls(
            n_samples=int(payload["n_samples"]),
            n_flood=int(payload["n_flood"]),
            entropy_bits=float(payload["entropy_bits"]),
        )
        if node.n_samples < 1:
            raise ConfigError(f"tree node n_samples must be >= 1, got {node.n_samples}")
        if not 0 <= node.n_flood <= node.n_samples:
            raise ConfigError(
                f"tree node n_flood must satisfy 0 <= n_flood <= n_samples = "
                f"{node.n_samples}, got {node.n_flood}"
            )
        if "feature" in payload:
            node.feature = int(payload["feature"])
            node.threshold = float(payload["threshold"])
            if not 0 <= node.feature < n_features:
                raise ConfigError(
                    f"tree node feature must satisfy 0 <= feature < {n_features}, "
                    f"got {node.feature}"
                )
            if not math.isfinite(node.threshold):
                raise ConfigError(f"tree node threshold must be finite, got {node.threshold}")
            node.gain = float(payload["gain"])
            node.left = cls.from_dict(payload["left"], n_features)
            node.right = cls.from_dict(payload["right"], n_features)
        return node


@dataclass(frozen=True)
class TreeConfig:
    max_depth: int = 5
    min_samples_leaf: int = 2

    def validate(self):
        if self.max_depth < 0:
            raise ConfigError(f"max_depth must be >= 0, got {self.max_depth}")
        if self.min_samples_leaf < 1:
            raise ConfigError(f"min_samples_leaf must be >= 1, got {self.min_samples_leaf}")


def _best_split(X, y, min_leaf):
    """Return (gain, feature, threshold) of the best split, or None."""
    n = y.size
    parent = _binary_entropy(int(y.sum()), n)
    if parent == 0.0:
        return None
    best = None
    for j in range(X.shape[1]):
        column = X[:, j]
        order = np.argsort(column, kind="stable")
        xs = column[order]
        ys = y[order]
        flood_prefix = np.cumsum(ys)
        total_flood = int(flood_prefix[-1])
        # candidate cut after position i (1-based count on the left)
        for i in range(1, n):
            if xs[i] == xs[i - 1]:
                continue
            n_left = i
            n_right = n - i
            if n_left < min_leaf or n_right < min_leaf:
                continue
            threshold = (xs[i - 1] + xs[i]) / 2.0
            left_flood = int(flood_prefix[i - 1])
            child = (
                n_left / n * _binary_entropy(left_flood, n_left)
                + n_right / n * _binary_entropy(total_flood - left_flood, n_right)
            )
            gain = parent - child
            if gain > 1e-15 and (best is None or gain > best[0] + 1e-15):
                best = (gain, j, threshold)
    return best


def _grow(X, y, depth, config):
    n = y.size
    n_flood = int(y.sum())
    node = TreeNode(n_samples=n, n_flood=n_flood, entropy_bits=_binary_entropy(n_flood, n))
    if depth >= config.max_depth or n < 2 * config.min_samples_leaf:
        return node
    found = _best_split(X, y, config.min_samples_leaf)
    if found is None:
        return node
    gain, feature, threshold = found
    mask = X[:, feature] <= threshold
    node.feature = feature
    node.threshold = float(threshold)
    node.gain = float(gain)
    node.left = _grow(X[mask], y[mask], depth + 1, config)
    node.right = _grow(X[~mask], y[~mask], depth + 1, config)
    return node


@dataclass(eq=False)
class TreeModel(ProbabilityClassifier):
    """Trained decision tree; consumes raw millimeter features."""

    root: TreeNode
    config: TreeConfig
    n_features: int
    scaler: object = None

    def parameters(self):
        return {"n_features": self.n_features, "root": self.root.to_dict()}

    @classmethod
    def from_parameters(cls, params, config, scaler):
        n_features = int(params["n_features"])
        return cls(
            root=TreeNode.from_dict(params["root"], n_features),
            config=config,
            n_features=n_features,
            scaler=scaler,
        )

    def predict_proba(self, X):
        A, single = prepare_features(X, self.n_features)
        proba = np.empty(A.shape[0])
        self._assign(self.root, A, np.arange(A.shape[0]), proba)
        return unwrap_single(proba, single)

    def _assign(self, node, A, indices, out):
        if indices.size == 0:
            return
        if node.is_leaf:
            out[indices] = node.proba
            return
        mask = A[indices, node.feature] <= node.threshold
        self._assign(node.left, A, indices[mask], out)
        self._assign(node.right, A, indices[~mask], out)

    def masked_proba(self, x, background, masks):
        """One descent over the (mask pattern x background row) grid. A hybrid's leaf
        depends only on its mask bits on the features the tree splits on, so the masks
        are reduced to their distinct patterns there. At each split a pattern takes the
        instance's branch where its bit is set and the row's elsewhere; the reach sets
        are ANDed down the tree, so each hybrid gets the leaf `predict_proba` gives it."""
        (x,), _ = prepare_features(x, self.n_features)
        bg, _ = prepare_features(background, self.n_features)
        table = mask_table(masks, self.n_features)
        key, axis = table[:, sorted({node.feature for node in self.internal_nodes()})], 0
        if key.shape[1] <= 62:
            # one exact integer per mask: unique rows (axis=0) cost many times more
            key, axis = key @ (1 << np.arange(key.shape[1], dtype=np.int64)), None
        _, first, inverse = np.unique(key, return_index=True, return_inverse=True, axis=axis)
        patterns = table[first]
        out = np.empty((len(patterns), bg.shape[0]))
        stack = [(self.root, np.ones(out.shape, dtype=bool))]
        while stack:
            node, reach = stack.pop()
            if node.is_leaf:
                out[reach] = node.proba
                continue
            f, t = node.feature, node.threshold
            left = np.where(patterns[:, f, None], x[f] <= t, bg[None, :, f] <= t)
            stack += [(node.left, reach & left), (node.right, reach & ~left)]
        # row-major like the hybrids' predictions, so a mean over background rows
        # sums in the same order and the coalition values stay bit-identical
        return out[inverse.reshape(-1)]

    def leaves(self):
        stack, found = [self.root], []
        while stack:
            node = stack.pop()
            if node.is_leaf:
                found.append(node)
            else:
                stack.extend((node.left, node.right))
        return found

    def internal_nodes(self):
        stack, found = [self.root], []
        while stack:
            node = stack.pop()
            if not node.is_leaf:
                found.append(node)
                stack.extend((node.left, node.right))
        return found


def train_tree(train, config=None):
    """Grow a :class:`TreeModel` on raw features."""
    config = config or TreeConfig()
    config.validate()
    if len(train) == 0:
        raise DatasetError("cannot train a tree on an empty dataset")
    X, y = train.features(), train.labels()
    root = _grow(X, y, 0, config)
    return TreeModel(root=root, config=config, n_features=X.shape[1])
