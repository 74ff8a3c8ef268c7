"""Loading, cleaning, encoding, scaling and splitting of monthly rainfall records.

The on-disk format is a CSV with one row per calendar year: a ``YEAR``
column, twelve monthly rainfall columns (``JAN`` .. ``DEC``, millimeters),
a flood label column (``FLOODS`` by default, YES/NO or numeric) and an
optional ``ANNUAL`` total. Column matching is case-insensitive and extra
columns (station names, seasonal aggregates) are ignored.
"""

from __future__ import annotations

import csv
import math
import numbers
import warnings
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import ConfigError, DatasetError

MONTHS = ("JAN", "FEB", "MAR", "APR", "MAY", "JUN", "JUL", "AUG", "SEP", "OCT", "NOV", "DEC")

#: the fill strategies of `impute_missing`
IMPUTE_STRATEGIES = ("column-mean", "zero")

#: maximum tolerated gap between a stated annual total and the monthly sum
ANNUAL_TOLERANCE_MM = 1.0

_FLOOD_TEXT = {"YES": 1, "Y": 1, "TRUE": 1, "NO": 0, "N": 0, "FALSE": 0}


def encode_flood_label(raw, row=None):
    """Map a raw label cell to {0, 1}.

    Text labels (YES/NO and common variants) are recognized directly;
    numeric labels are binarized by a nonzero test, with a warning when a
    value outside {0, 1} is coerced.
    """
    text = str(raw).strip()
    if text.upper() in _FLOOD_TEXT:
        return _FLOOD_TEXT[text.upper()]
    try:
        value = float(text)
    except ValueError:
        where = "" if row is None else f" at row {row}"
        raise DatasetError(f"unparseable flood label {raw!r}{where}") from None
    if math.isnan(value):
        where = "" if row is None else f" at row {row}"
        raise DatasetError(f"unparseable flood label {raw!r}{where}")
    if value not in (0.0, 1.0):
        warnings.warn(f"numeric flood label {value} binarized by nonzero test")
    return int(value != 0.0)


@dataclass(frozen=True)
class RainfallRecord:
    """One year of observations: twelve monthly depths plus the flood label.

    ``monthly_mm`` may contain NaN for missing cells until the dataset is
    imputed. ``annual_mismatch`` is set when a stated annual total disagrees
    with the monthly sum by more than ``ANNUAL_TOLERANCE_MM``; such records
    are flagged, never rejected.
    """

    year: int
    monthly_mm: tuple
    flood: int
    annual_mm: float | None = None
    annual_mismatch: bool = False

    def missing_months(self):
        return tuple(MONTHS[j] for j, v in enumerate(self.monthly_mm) if math.isnan(v))


@dataclass(frozen=True)
class ImputedCell:
    """Provenance entry for one filled cell."""

    year: int
    month: str
    value: float
    strategy: str

    def as_line(self):
        return f"{self.year},{self.month},{self.value},{self.strategy}"


@dataclass(frozen=True)
class Dataset:
    """Immutable ordered collection of rainfall records."""

    records: tuple
    feature_names: tuple = MONTHS
    imputations: tuple = ()

    def __post_init__(self):
        width = len(self.feature_names)
        years = set()
        for rec in self.records:
            if len(rec.monthly_mm) != width:
                raise DatasetError(
                    f"year {rec.year}: expected {width} monthly values, got {len(rec.monthly_mm)}"
                )
            if rec.flood not in (0, 1):
                raise DatasetError(f"year {rec.year}: flood label {rec.flood!r} not in {{0, 1}}")
            if rec.year in years:
                raise DatasetError(f"duplicate year {rec.year}")
            years.add(rec.year)

    def __len__(self):
        return len(self.records)

    def features(self):
        """Feature matrix of shape (n_records, 12), float64."""
        out = np.array([rec.monthly_mm for rec in self.records], dtype=float)
        return out.reshape(len(self.records), len(self.feature_names))

    def labels(self):
        return np.array([rec.flood for rec in self.records], dtype=int)

    def years(self):
        return tuple(rec.year for rec in self.records)

    def record_for_year(self, year):
        for rec in self.records:
            if rec.year == year:
                return rec
        if not self.records:
            raise DatasetError(f"year {year} not found: dataset is empty")
        lo, hi = min(self.years()), max(self.years())
        raise DatasetError(f"year {year} not found: available years span {lo}..{hi}")

    def missing_cells(self):
        return tuple(
            (rec.year, month) for rec in self.records for month in rec.missing_months()
        )

    def has_missing(self):
        return any(rec.missing_months() for rec in self.records)


@dataclass(frozen=True)
class SplitDataset:
    """Train/test partition produced by :func:`split`."""

    train: Dataset
    test: Dataset
    seed: int
    train_fraction: float


@dataclass(frozen=True)
class ColumnSchema:
    """Column-name mapping for :func:`load_csv` (matched case-insensitively)."""

    year: str = "YEAR"
    months: tuple = MONTHS
    flood: str = "FLOODS"
    annual: str = "ANNUAL"


def _cell(row, index):
    if index is None or index >= len(row):
        return ""
    return row[index].strip()


def _parse_rain(text, year, month):
    """Parse one rainfall cell; blanks, non-numerics and negatives become NaN."""
    if not text:
        return math.nan
    try:
        value = float(text)
    except ValueError:
        return math.nan
    if math.isnan(value):
        return math.nan
    if value < 0:
        warnings.warn(f"year {year} {month}: negative rainfall {value} treated as missing")
        return math.nan
    return value


def _flag_annual(record):
    """Recompute the annual-consistency flag; unknown while cells are missing."""
    if record.annual_mm is None or record.missing_months():
        return replace(record, annual_mismatch=False)
    gap = abs(sum(record.monthly_mm) - record.annual_mm)
    return replace(record, annual_mismatch=bool(gap > ANNUAL_TOLERANCE_MM))


def load_csv(path, schema=None):
    """Read a rainfall CSV into a :class:`Dataset`.

    Rows are preserved in file order. Non-numeric rainfall cells are
    recorded as missing (to be handled by :func:`impute_missing`); an
    unparseable flood label is an error naming the row.
    """
    schema = schema or ColumnSchema()
    path = Path(path)
    with path.open(newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise DatasetError(f"{path}: file is empty") from None
        lookup = {}
        for idx, name in enumerate(header):
            lookup.setdefault(name.strip().lower(), idx)

        required = [schema.year, *schema.months, schema.flood]
        absent = [name for name in required if name.lower() not in lookup]
        if absent:
            raise DatasetError(f"{path}: missing required column(s): {', '.join(absent)}")
        year_col = lookup[schema.year.lower()]
        month_cols = [lookup[m.lower()] for m in schema.months]
        flood_col = lookup[schema.flood.lower()]
        annual_col = lookup.get(schema.annual.lower())

        records = []
        for row_no, row in enumerate(reader, start=2):
            if not any(cell.strip() for cell in row):
                continue
            year_text = _cell(row, year_col)
            try:
                year = int(float(year_text))
            except ValueError:
                raise DatasetError(f"{path}: row {row_no}: unparseable year {year_text!r}") from None
            monthly = tuple(
                _parse_rain(_cell(row, col), year, month)
                for month, col in zip(schema.months, month_cols)
            )
            annual_text = _cell(row, annual_col)
            annual = None
            if annual_text:
                try:
                    annual = float(annual_text)
                except ValueError:
                    annual = None
            flood = encode_flood_label(_cell(row, flood_col), row=row_no)
            record = _flag_annual(
                RainfallRecord(year=year, monthly_mm=monthly, flood=flood, annual_mm=annual)
            )
            records.append(record)

    if not records:
        warnings.warn(f"{path}: no data rows, returning an empty dataset")
    return Dataset(records=tuple(records))


def impute_missing(dataset, strategy="column-mean"):
    """Fill missing cells and extend the imputation provenance log.

    ``column-mean`` fills with the mean of the present values in the same
    month column; ``zero`` fills with 0.0. Idempotent: a dataset without
    missing cells is returned unchanged.
    """
    if strategy not in IMPUTE_STRATEGIES:
        raise ConfigError(f"unknown imputation strategy {strategy!r}")
    X = dataset.features()
    missing = np.isnan(X)
    if not missing.any():
        return dataset

    if strategy == "column-mean":
        dead = [m for j, m in enumerate(dataset.feature_names) if missing[:, j].all()]
        if dead:
            raise DatasetError(
                f"column-mean imputation undefined: no values at all for {', '.join(dead)}"
            )
        fill = np.nanmean(X, axis=0)
    else:
        fill = np.zeros(X.shape[1])

    events = []
    new_records = []
    for rec, row_missing in zip(dataset.records, missing):
        if not row_missing.any():
            new_records.append(rec)
            continue
        monthly = list(rec.monthly_mm)
        for j in np.flatnonzero(row_missing):
            monthly[j] = float(fill[j])
            events.append(ImputedCell(rec.year, dataset.feature_names[j], float(fill[j]), strategy))
        new_records.append(_flag_annual(replace(rec, monthly_mm=tuple(monthly))))
    return replace(
        dataset,
        records=tuple(new_records),
        imputations=dataset.imputations + tuple(events),
    )


def provenance_lines(dataset):
    """Imputation log as ``year,month,imputed_value,strategy`` lines."""
    return tuple(event.as_line() for event in dataset.imputations)


def _check_integer(name, value):
    """Require an int or numpy integer (not a bool): a ConfigError names the value."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ConfigError(f"{name} must be an integer, got {value!r}")


def _check_seed(seed):
    """Require a non-negative integer seed, which numpy's generators otherwise refuse
    with a bare TypeError or ValueError (or, for a bool, quietly read as 0 or 1)."""
    _check_integer("seed", seed)
    if seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {seed}")


def _check_split(train_fraction, seed):
    """`split`'s rules on its settings, which need no data: a ConfigError names
    the seed or the train_fraction."""
    _check_seed(seed)
    if isinstance(train_fraction, bool) or not isinstance(train_fraction, numbers.Real):
        raise ConfigError(f"train_fraction must be a number, got {train_fraction!r}")
    if not 0 < train_fraction < 1:
        raise ConfigError(f"train_fraction must lie in (0, 1), got {train_fraction}")


def split(dataset, train_fraction=0.7, seed=0):
    """Deterministic shuffled train/test split; train size = floor(fraction * n)."""
    _check_split(train_fraction, seed)
    n = len(dataset)
    if n == 0:
        raise DatasetError("cannot split an empty dataset")
    # tiny epsilon so exact-boundary products (0.7 * 10) floor as in exact arithmetic
    n_train = int(math.floor(train_fraction * n + 1e-9))
    if n_train == 0 or n_train == n:
        raise DatasetError(
            f"train_fraction {train_fraction} leaves an empty partition for {n} records"
        )
    perm = np.random.default_rng(seed).permutation(n)

    def take(indices):
        recs = tuple(dataset.records[i] for i in indices)
        years = {r.year for r in recs}
        log = tuple(e for e in dataset.imputations if e.year in years)
        return Dataset(records=recs, feature_names=dataset.feature_names, imputations=log)

    return SplitDataset(
        train=take(perm[:n_train]),
        test=take(perm[n_train:]),
        seed=seed,
        train_fraction=train_fraction,
    )


@dataclass(frozen=True, eq=False)
class Scaler:
    """Per-feature standardizer; zero-variance columns pass through (std -> 1)."""

    mean: np.ndarray
    std: np.ndarray

    def transform(self, X):
        A = np.asarray(X, dtype=float)
        return (A - self.mean) / self.std

    def inverse(self, Z):
        return np.asarray(Z, dtype=float) * self.std + self.mean


def _as_finite(values, what):
    """`values` as a float array; DatasetError names its first non-finite cell."""
    A = np.asarray(values, dtype=float)
    if np.isfinite(A).all():
        return A
    rows = np.atleast_2d(A)
    i, j = np.argwhere(~np.isfinite(rows))[0]
    row = f" row {i}" if A.ndim > 1 else ""
    raise DatasetError(f"{what}{row} feature {j} is {rows[i, j]}; inputs must be finite")


def _feature_matrix(train):
    """A :class:`Dataset`'s feature matrix, or a plain matrix as a 2-D float array."""
    if hasattr(train, "features"):
        return train.features()
    return np.atleast_2d(np.asarray(train, dtype=float))


def fit_scaler(train):
    """Fit a :class:`Scaler` from training rows only (population statistics).

    Accepts a :class:`Dataset` or a plain feature matrix.
    """
    X = _feature_matrix(train)
    if X.shape[0] == 0:
        raise DatasetError("cannot fit a scaler on an empty dataset")
    mean = X.mean(axis=0)
    std = X.std(axis=0)
    std = np.where(std == 0.0, 1.0, std)
    return Scaler(mean=mean, std=std)


def apply_scaler(scaler, dataset):
    """Return a copy of ``dataset`` with standardized feature values."""
    Z = scaler.transform(dataset.features())
    records = tuple(
        replace(rec, monthly_mm=tuple(float(v) for v in row), annual_mm=None, annual_mismatch=False)
        for rec, row in zip(dataset.records, Z)
    )
    return replace(dataset, records=records)


def monthly_means(dataset):
    """Arithmetic mean rainfall per month over all records."""
    if len(dataset) == 0:
        raise DatasetError("monthly means undefined for an empty dataset")
    if dataset.has_missing():
        raise DatasetError("dataset has missing cells; run impute_missing first")
    return dataset.features().mean(axis=0)
