"""Confusion-matrix evaluation scores and the model comparison table.

The positive class is flood = 1 throughout, and probability 0.5 maps to
class 1. Ratios with a zero denominator (e.g. precision when nothing was
predicted positive) are reported as NaN — flagged, never coerced to 0 or
1 — and serialize to JSON null / render as "n/a".
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import DatasetError


@dataclass(frozen=True)
class ConfusionMatrix:
    """Counts with flood = 1 as the positive class."""

    tp: int
    fp: int
    tn: int
    fn: int

    @property
    def total(self):
        return self.tp + self.fp + self.tn + self.fn

    def to_dict(self):
        return asdict(self)


@dataclass(frozen=True)
class MetricsReport:
    """Named scores for one model; undefined ratios are NaN."""

    model: str
    accuracy: float
    precision: float
    recall: float
    f1: float
    matrix: ConfusionMatrix

    def to_dict(self):
        def cell(value):
            return None if math.isnan(value) else float(value)

        return {
            "model": self.model,
            "accuracy": cell(self.accuracy),
            "precision": cell(self.precision),
            "recall": cell(self.recall),
            "f1": cell(self.f1),
            "confusion": self.matrix.to_dict(),
        }


def confusion(predictions, truth):
    """Count tp/fp/tn/fn over paired binary labels."""
    p = np.asarray(predictions).ravel()
    t = np.asarray(truth).ravel()
    if p.size != t.size:
        raise DatasetError(
            f"length mismatch: {p.size} predictions vs {t.size} truth labels"
        )
    if p.size == 0:
        raise DatasetError("cannot build a confusion matrix from empty label lists")
    for name, arr in (("predictions", p), ("truth", t)):
        bad = np.setdiff1d(np.unique(arr), [0, 1])
        if bad.size:
            raise DatasetError(f"{name} contain non-binary labels: {bad.tolist()}")
    p = p.astype(int)
    t = t.astype(int)
    return ConfusionMatrix(
        tp=int(np.sum((p == 1) & (t == 1))),
        fp=int(np.sum((p == 1) & (t == 0))),
        tn=int(np.sum((p == 0) & (t == 0))),
        fn=int(np.sum((p == 0) & (t == 1))),
    )


def _ratio(numerator, denominator):
    return numerator / denominator if denominator > 0 else float("nan")


def score(matrix, model=""):
    """Accuracy, precision, recall, and F1 from a confusion matrix."""
    if matrix.total == 0:
        raise DatasetError("cannot score an empty confusion matrix")
    accuracy = (matrix.tp + matrix.tn) / matrix.total
    precision = _ratio(matrix.tp, matrix.tp + matrix.fp)
    recall = _ratio(matrix.tp, matrix.tp + matrix.fn)
    if math.isnan(precision) or math.isnan(recall) or precision + recall == 0:
        f1 = float("nan")
    else:
        f1 = 2 * precision * recall / (precision + recall)
    return MetricsReport(
        model=model,
        accuracy=accuracy,
        precision=precision,
        recall=recall,
        f1=f1,
        matrix=matrix,
    )


def evaluate(model, test, name=None):
    """Score a trained model on a dataset partition at threshold 0.5."""
    if len(test.records) == 0:
        raise DatasetError("cannot evaluate on an empty dataset")
    predictions = model.predict(test.features())
    if name is None:
        name = type(model).__name__
    return score(confusion(predictions, test.labels()), model=name)


def render_table(reports):
    """Aligned text table: Model, Accuracy, Precision, Recall, F1-score."""
    headers = ("Model", "Accuracy", "Precision", "Recall", "F1-score")

    def fmt(value):
        return "n/a" if math.isnan(value) else f"{value:.2f}"

    rows = [
        (r.model, fmt(r.accuracy), fmt(r.precision), fmt(r.recall), fmt(r.f1))
        for r in reports
    ]
    widths = [
        max(len(headers[c]), *(len(row[c]) for row in rows)) if rows else len(headers[c])
        for c in range(5)
    ]
    lines = [
        "  ".join(h.ljust(widths[c]) for c, h in enumerate(headers)).rstrip(),
        "  ".join("-" * widths[c] for c in range(5)),
    ]
    for row in rows:
        cells = [row[0].ljust(widths[0])]
        cells += [row[c].rjust(widths[c]) for c in range(1, 5)]
        lines.append("  ".join(cells).rstrip())
    return "\n".join(lines)
