"""Ingestion, imputation, splitting, and scaling behavior."""

import math
import re

import numpy as np
import pytest

from floodxai import (
    ANNUAL_TOLERANCE_MM,
    ColumnSchema,
    ConfigError,
    Dataset,
    DatasetError,
    MONTHS,
    RainfallRecord,
    apply_scaler,
    encode_flood_label,
    fit_scaler,
    impute_missing,
    load_csv,
    monthly_means,
    provenance_lines,
    split,
)

HEADER = "YEAR," + ",".join(MONTHS) + ",ANNUAL,FLOODS"


def write_csv(tmp_path, rows, header=HEADER):
    path = tmp_path / "data.csv"
    path.write_text("\n".join([header, *rows]) + "\n")
    return path


def row(year, values, flood="NO", annual=""):
    return f"{year}," + ",".join(str(v) for v in values) + f",{annual},{flood}"


class TestLoadCsv:
    def test_loads_years_and_labels(self, data_path):
        ds = load_csv(data_path)
        assert len(ds) == 121
        assert ds.years()[0] == 1901 and ds.years()[-1] == 2021
        assert set(np.unique(ds.labels())) == {0, 1}

    def test_missing_column_is_an_error(self, tmp_path):
        bad_header = HEADER.replace(",JUL", ",JULY")
        path = write_csv(tmp_path, [row(2000, range(12))], header=bad_header)
        with pytest.raises(DatasetError, match="JUL"):
            load_csv(path)

    def test_blank_and_non_numeric_cells_become_missing(self, tmp_path):
        values = list(range(12))
        values[3] = ""
        values[7] = "n/a"
        path = write_csv(tmp_path, [row(2000, values, "YES")])
        ds = load_csv(path)
        assert ds.missing_cells() == ((2000, "APR"), (2000, "AUG"))

    def test_negative_rainfall_becomes_missing(self, tmp_path):
        values = list(range(12))
        values[0] = -3.5
        path = write_csv(tmp_path, [row(2000, values)])
        with pytest.warns(UserWarning, match="negative"):
            ds = load_csv(path)
        assert ds.missing_cells() == ((2000, "JAN"),)

    def test_unparseable_flood_label_names_the_row(self, tmp_path):
        path = write_csv(tmp_path, [row(2000, range(12), flood="MAYBE")])
        with pytest.raises(DatasetError, match="row 2"):
            load_csv(path)

    def test_extra_columns_are_ignored(self, tmp_path):
        header = "STATION," + HEADER + ",NOTES"
        line = "X," + row(2000, range(12), "YES") + ",windy"
        path = write_csv(tmp_path, [line], header=header)
        ds = load_csv(path)
        assert len(ds) == 1 and ds.records[0].flood == 1

    def test_case_insensitive_headers(self, tmp_path):
        header = HEADER.lower()
        path = write_csv(tmp_path, [row(2000, range(12))], header=header)
        assert len(load_csv(path)) == 1

    def test_annual_mismatch_is_flagged_not_rejected(self, tmp_path):
        good = row(2000, [10.0] * 12, annual="120.0")
        bad = row(2001, [10.0] * 12, annual=str(120.0 + ANNUAL_TOLERANCE_MM + 1))
        ds = load_csv(write_csv(tmp_path, [good, bad]))
        assert not ds.records[0].annual_mismatch
        assert ds.records[1].annual_mismatch

    def test_empty_data_warns_and_returns_empty(self, tmp_path):
        path = write_csv(tmp_path, [])
        with pytest.warns(UserWarning):
            ds = load_csv(path)
        assert len(ds) == 0

    def test_custom_schema_maps_columns(self, tmp_path):
        header = "yr," + ",".join(f"m{i}" for i in range(12)) + ",flood"
        line = "1999," + ",".join(str(v) for v in range(12)) + ",1"
        path = write_csv(tmp_path, [line], header=header)
        schema = ColumnSchema(
            year="yr", months=tuple(f"m{i}" for i in range(12)), flood="flood"
        )
        ds = load_csv(path, schema)
        assert ds.years() == (1999,)


class TestFloodLabels:
    @pytest.mark.parametrize(
        "raw,expected",
        [("YES", 1), ("no", 0), ("Y", 1), ("N", 0), ("TRUE", 1), ("false", 0), ("1", 1), ("0", 0)],
    )
    def test_accepted_spellings(self, raw, expected):
        assert encode_flood_label(raw) == expected

    def test_numeric_nonzero_warns(self):
        with pytest.warns(UserWarning):
            assert encode_flood_label("2") == 1

    def test_garbage_label_is_an_error(self):
        with pytest.raises(DatasetError):
            encode_flood_label("perhaps")


class TestImpute:
    def test_column_mean_fills_and_logs(self, tmp_path):
        values = list(range(12))
        values[4] = ""
        rows = [row(2000, values, "YES"), row(2001, [10] * 12, "NO")]
        ds = impute_missing(load_csv(write_csv(tmp_path, rows)))
        assert not ds.has_missing()
        assert ds.records[0].monthly_mm[4] == 10.0
        assert provenance_lines(ds) == ("2000,MAY,10.0,column-mean",)

    def test_zero_strategy(self, tmp_path):
        values = list(range(12))
        values[0] = ""
        ds = impute_missing(load_csv(write_csv(tmp_path, [row(2000, values)])), "zero")
        assert ds.records[0].monthly_mm[0] == 0.0

    def test_idempotent_when_complete(self, dataset):
        assert impute_missing(dataset) is dataset

    def test_all_missing_column_is_an_error(self, tmp_path):
        values = list(range(12))
        values[2] = ""
        ds = load_csv(write_csv(tmp_path, [row(2000, values)]))
        with pytest.raises(DatasetError, match="MAR"):
            impute_missing(ds)

    def test_bundled_dataset_has_three_imputations(self, dataset):
        lines = provenance_lines(dataset)
        assert len(lines) == 3
        assert all(line.endswith("column-mean") for line in lines)


class TestSplit:
    def test_floor_sizes(self, dataset):
        parts = split(dataset, 0.7, 0)
        assert len(parts.train) == 84 and len(parts.test) == 37

    def test_exact_boundary_floors_like_exact_arithmetic(self, make_dataset):
        ds = make_dataset(np.arange(20).reshape(10, 2), [0, 1] * 5)
        parts = split(ds, 0.7, 3)
        assert len(parts.train) == 7 and len(parts.test) == 3

    def test_deterministic_and_disjoint(self, dataset):
        a, b = split(dataset, 0.7, 11), split(dataset, 0.7, 11)
        assert a.train.years() == b.train.years()
        assert set(a.train.years()).isdisjoint(a.test.years())
        assert sorted(a.train.years() + a.test.years()) == sorted(dataset.years())

    def test_different_seeds_differ(self, dataset):
        assert split(dataset, 0.7, 1).train.years() != split(dataset, 0.7, 2).train.years()

    def test_empty_partition_is_an_error(self, make_dataset):
        ds = make_dataset([[1.0], [2.0]], [0, 1])
        with pytest.raises(DatasetError):
            split(ds, 0.1, 0)

    def test_negative_seed_is_a_config_error(self, dataset):
        with pytest.raises(ConfigError, match="seed must be a non-negative integer, got -1"):
            split(dataset, 0.7, -1)

    @pytest.mark.parametrize("seed", [1.5, True, None, "3"], ids=["float", "bool", "none", "str"])
    def test_non_integer_seed_is_a_config_error(self, dataset, seed):
        # used to raise a bare TypeError from SeedSequence, or (True) to seed with 1
        with pytest.raises(ConfigError, match=f"seed must be an integer, got {seed!r}"):
            split(dataset, 0.7, seed)

    @pytest.mark.parametrize(
        "fraction", ["0.5", [0.5], None, True], ids=["str", "list", "none", "bool"]
    )
    def test_non_number_train_fraction_is_a_config_error(self, dataset, fraction):
        # used to raise a bare TypeError from the range comparison (a bool read as 1)
        message = f"train_fraction must be a number, got {fraction!r}"
        with pytest.raises(ConfigError, match=re.escape(message)):
            split(dataset, fraction, 0)

    def test_numpy_float_train_fraction_accepted(self, dataset):
        years = split(dataset, 0.7, 3).train.years()
        assert split(dataset, np.float64(0.7), 3).train.years() == years

    def test_numpy_integer_seed_accepted(self, dataset):
        years = split(dataset, 0.7, 3).train.years()
        assert split(dataset, 0.7, np.int64(3)).train.years() == years

    def test_imputation_log_follows_rows(self, dataset):
        parts = split(dataset, 0.7, 42)
        logged_years = {e.year for e in dataset.imputations}
        train_logged = {e.year for e in parts.train.imputations}
        test_logged = {e.year for e in parts.test.imputations}
        assert train_logged | test_logged == logged_years
        assert train_logged.issubset(set(parts.train.years()))


class TestScaler:
    def test_two_point_column_maps_to_unit_deviations(self, make_dataset):
        ds = make_dataset([[0.0], [10.0]], [0, 1])
        scaler = fit_scaler(ds)
        z = scaler.transform(ds.features())
        assert np.allclose(z.ravel(), [-1.0, 1.0])

    def test_constant_column_passes_through(self, make_dataset):
        ds = make_dataset([[5.0], [5.0]], [0, 1])
        z = fit_scaler(ds).transform(ds.features())
        assert np.allclose(z, 0.0)

    def test_inverse_round_trip(self, dataset):
        scaler = fit_scaler(dataset)
        X = dataset.features()
        assert np.allclose(scaler.inverse(scaler.transform(X)), X)

    def test_apply_scaler_standardizes_dataset(self, dataset):
        scaled = apply_scaler(fit_scaler(dataset), dataset)
        Z = scaled.features()
        assert np.allclose(Z.mean(axis=0), 0.0, atol=1e-12)
        assert np.allclose(Z.std(axis=0), 1.0, atol=1e-12)


class TestDatasetInvariants:
    def test_duplicate_years_rejected(self):
        rec = RainfallRecord(year=2000, monthly_mm=(1.0,) * 12, flood=0)
        with pytest.raises(DatasetError, match="duplicate"):
            Dataset(records=(rec, rec))

    def test_record_for_missing_year_lists_range(self, dataset):
        with pytest.raises(DatasetError, match="1901..2021"):
            dataset.record_for_year(1850)

    def test_monthly_means_requires_imputed(self, tmp_path):
        values = list(range(12))
        values[0] = ""
        rows = [row(2000, values), row(2001, [1] * 12)]
        ds = load_csv(write_csv(tmp_path, rows))
        with pytest.raises(DatasetError, match="impute"):
            monthly_means(ds)

    def test_june_july_are_wettest(self, dataset):
        means = monthly_means(dataset)
        top2 = {MONTHS[i] for i in np.argsort(-means)[:2]}
        assert top2 == {"JUN", "JUL"}

    def test_single_row_means_equal_that_row(self, make_dataset):
        X = [[float(i) for i in range(12)]]
        ds = make_dataset(X, [1], names=MONTHS)
        assert np.allclose(monthly_means(ds), X[0])
