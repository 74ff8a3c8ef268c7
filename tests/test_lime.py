"""Quartile discretization, perturbation sampling, and the local surrogate."""

import numpy as np
import pytest

from floodxai import (
    ConfigError,
    DatasetError,
    LimeConfig,
    explain_local,
    fit_discretizer,
    fit_local_surrogate,
    fit_scaler,
    perturb,
)
from floodxai import canonical_json
from floodxai.explain import lime as lime_module
from floodxai.explain.lime import PerturbationSet, _forward_select, _ridge_wls

RNG = np.random.default_rng(21)


def forward_select_by_refits(bits, y, weights, candidates, n_select):
    """Reference forward selection: one full ridge WLS refit per trial set.

    Each step keeps the first candidate with the strictly smallest SSE, so
    ties go to the lowest feature index.
    """
    selected = []
    for _ in range(min(n_select, len(candidates))):
        best_f, best_sse = None, None
        for f in candidates:
            if f in selected:
                continue
            _, _, sse = _ridge_wls(bits[:, selected + [f]], y, weights)
            if best_sse is None or sse < best_sse:
                best_f, best_sse = f, sse
        selected.append(best_f)
    return selected


def bin_indicator_model(discretizer, instance, coef, const=0.0):
    """Black box whose output is exactly linear in own-bin membership bits."""
    own = np.array(
        [discretizer.bin_of(f, instance[f]) for f in range(discretizer.n_features)]
    )
    coef = np.asarray(coef, dtype=float)

    def model(X):
        same = (discretizer.bins(X) == own[None, :]).astype(float)
        return const + same @ coef

    return model


@pytest.fixture
def train4():
    return RNG.uniform(0.0, 100.0, size=(200, 4))


class TestFitDiscretizer:
    def test_quartiles_of_1_to_100(self):
        ds = np.arange(1, 101, dtype=float).reshape(-1, 1)
        disc = fit_discretizer(ds)
        # np.quantile with linear interpolation: 25.75, 50.5, 75.25
        np.testing.assert_allclose(disc.thresholds[0], [25.75, 50.5, 75.25], atol=1e-12)
        assert disc.n_bins(0) == 4
        assert not disc.degenerate[0]

    def test_threshold_value_falls_in_lower_bin(self):
        disc = fit_discretizer(np.arange(1, 101, dtype=float).reshape(-1, 1))
        assert disc.bin_of(0, 25.75) == 0
        assert disc.bin_of(0, 25.7501) == 1
        assert disc.bin_of(0, 0.0) == 0
        assert disc.bin_of(0, 1000.0) == 3

    def test_constant_feature_flagged_degenerate(self):
        X = np.column_stack([np.full(20, 7.0), np.arange(20, dtype=float)])
        disc = fit_discretizer(X)
        assert disc.degenerate == (True, False)
        assert len(disc.thresholds[0]) == 0
        assert disc.condition(0, 7.0) == "x0 = 7.00"

    def test_heavy_ties_merge_quantiles(self):
        col = np.array([0, 0, 0, 0, 0, 0, 1, 2], dtype=float).reshape(-1, 1)
        disc = fit_discretizer(col)
        assert disc.n_bins(0) < 4  # duplicate quartile cuts collapse

    def test_missing_values_rejected(self):
        X = np.array([[1.0], [np.nan], [3.0]])
        with pytest.raises(DatasetError, match="impute first"):
            fit_discretizer(X)

    def test_empty_training_rejected(self):
        with pytest.raises(DatasetError, match="empty"):
            fit_discretizer(np.empty((0, 3)))

    def test_too_few_bins_rejected(self):
        with pytest.raises(ConfigError, match="n_bins"):
            fit_discretizer(np.arange(10, dtype=float).reshape(-1, 1), n_bins=1)

    @pytest.mark.parametrize("n_bins", [2.5, 4.0, True], ids=["fraction", "float", "bool"])
    def test_non_integer_bins_rejected(self, n_bins):
        # 2.5 used to cut at the 0.4 and 0.8 quantiles and report 3 bins
        with pytest.raises(ConfigError, match=f"n_bins must be an integer, got {n_bins!r}"):
            fit_discretizer(np.arange(40.0).reshape(20, 2), n_bins=n_bins)

    def test_bins_matrix_matches_scalar_lookup(self, train4):
        disc = fit_discretizer(train4)
        X = RNG.uniform(0.0, 100.0, size=(15, 4))
        B = disc.bins(X)
        for i in range(15):
            for f in range(4):
                assert B[i, f] == disc.bin_of(f, X[i, f])

    def test_bin_stats_bound_their_members(self, train4):
        disc = fit_discretizer(train4)
        for f in range(4):
            col = train4[:, f]
            bins = disc.bins(train4.reshape(-1, 4))[:, f]
            for b, (lo, hi, mean, sd) in disc.bin_stats[f].items():
                members = col[bins == b]
                assert members.size > 0
                assert lo == members.min() and hi == members.max()
                assert lo <= mean <= hi
                assert sd >= 0.0

    def test_condition_text_covers_all_cases(self):
        disc = fit_discretizer(np.arange(1, 101, dtype=float).reshape(-1, 1))
        assert disc.condition(0, 10.0) == "x0 <= 25.75"
        assert disc.condition(0, 40.0) == "25.75 < x0 <= 50.50"
        assert disc.condition(0, 60.0) == "50.50 < x0 <= 75.25"
        assert disc.condition(0, 90.0) == "x0 > 75.25"

    def test_dataset_month_names_flow_through(self, dataset):
        disc = fit_discretizer(dataset)
        assert disc.feature_names == dataset.feature_names
        assert "JUN" in disc.condition(5, 650.0)
        # a surrogate given no names takes the discretizer's, else x0, x1, ...
        config = LimeConfig(n_perturbations=300)
        samples = perturb(dataset.features()[0], disc, fit_scaler(dataset), config)
        model = lambda X: np.atleast_2d(X)[:, 5] / 1000.0
        explanation = fit_local_surrogate(model, samples, config, discretizer=disc)
        assert explanation.feature_names == dataset.feature_names
        explanation = fit_local_surrogate(model, samples, config)
        assert explanation.feature_names == tuple(f"x{i}" for i in range(12))


class TestPerturb:
    def make(self, train, instance, **kwargs):
        config = LimeConfig(**{"n_perturbations": 400, "n_selected_features": 4, **kwargs})
        disc = fit_discretizer(train)
        scaler = fit_scaler(train)
        return perturb(instance, disc, scaler, config), disc, config

    def test_first_sample_is_the_instance(self, train4):
        x = train4[0]
        samples, _, _ = self.make(train4, x)
        np.testing.assert_array_equal(samples.X[0], x)
        assert samples.bits[0].min() == 1
        assert samples.distances[0] == 0.0

    def test_kept_bits_keep_exact_values(self, train4):
        x = train4[3]
        samples, _, _ = self.make(train4, x)
        kept = samples.bits == 1
        expected = np.tile(x, (samples.X.shape[0], 1))
        np.testing.assert_array_equal(samples.X[kept], expected[kept])

    def test_resampled_bits_land_in_another_bin(self, train4):
        x = train4[7]
        samples, disc, _ = self.make(train4, x)
        own = [disc.bin_of(f, x[f]) for f in range(4)]
        bins = disc.bins(samples.X)
        off = samples.bits == 0
        for f in range(4):
            rows = np.nonzero(off[:, f])[0]
            assert rows.size > 0
            assert np.all(bins[rows, f] != own[f])

    def test_seed_determinism(self, train4):
        x = train4[1]
        a, _, _ = self.make(train4, x, seed=5)
        b, _, _ = self.make(train4, x, seed=5)
        c, _, _ = self.make(train4, x, seed=6)
        np.testing.assert_array_equal(a.X, b.X)
        np.testing.assert_array_equal(a.bits, b.bits)
        assert not np.array_equal(a.X, c.X)

    def test_degenerate_feature_never_perturbed(self):
        train = np.column_stack([np.full(50, 3.0), RNG.uniform(0, 10, 50)])
        x = np.array([3.0, 5.0])
        disc = fit_discretizer(train)
        scaler = fit_scaler(train)
        config = LimeConfig(n_perturbations=200, n_selected_features=2)
        samples = perturb(x, disc, scaler, config)
        assert np.all(samples.bits[:, 0] == 1)
        np.testing.assert_array_equal(samples.X[:, 0], 3.0)

    def test_distances_are_standardized_euclidean(self, train4):
        x = train4[2]
        samples, _, _ = self.make(train4, x)
        scaler = fit_scaler(train4)
        manual = np.linalg.norm(
            scaler.transform(samples.X) - scaler.transform(x)[None, :], axis=1
        )
        np.testing.assert_allclose(samples.distances, manual, atol=1e-12)

    def test_instance_width_checked(self, train4):
        with pytest.raises(DatasetError, match="features"):
            self.make(train4, np.zeros(3))

    def test_normal_resampling_differs_from_uniform(self, train4):
        x = train4[4]
        uniform, _, _ = self.make(train4, x, seed=9)
        normal, _, _ = self.make(train4, x, seed=9, resample="normal")
        np.testing.assert_array_equal(uniform.bits, normal.bits)
        assert not np.array_equal(uniform.X, normal.X)


class TestLocalSurrogate:
    def fit(self, train, instance, model, **kwargs):
        config = LimeConfig(**{"n_perturbations": 2000, "n_selected_features": 4, **kwargs})
        disc = fit_discretizer(train)
        scaler = fit_scaler(train)
        samples = perturb(instance, disc, scaler, config)
        return fit_local_surrogate(model, samples, config, discretizer=disc), disc

    def test_recovers_bit_linear_black_box(self, train4):
        x = train4[0]
        disc = fit_discretizer(train4)
        coef = np.array([0.4, -0.3, 0.2, 0.1])
        model = bin_indicator_model(disc, x, coef, const=0.05)
        explanation, _ = self.fit(train4, x, model)
        recovered = np.full(4, np.nan)
        for c in explanation.conditions:
            recovered[c.feature_index] = c.weight
        np.testing.assert_allclose(recovered, coef, atol=1e-3)
        assert explanation.local_fidelity >= 0.999
        assert explanation.local_prediction == pytest.approx(
            float(model(x[None, :])[0]), abs=1e-3
        )

    def test_constant_model_gets_zero_weights(self, train4):
        x = train4[5]
        explanation, _ = self.fit(train4, x, lambda X: np.full(len(np.atleast_2d(X)), 0.6))
        assert all(abs(c.weight) <= 1e-9 for c in explanation.conditions)
        assert explanation.intercept == pytest.approx(0.6, abs=1e-9)
        assert explanation.local_fidelity == 1.0

    def test_sparsity_cap_respected(self, train4):
        x = train4[6]
        model = bin_indicator_model(fit_discretizer(train4), x, [0.4, -0.3, 0.2, 0.1])
        explanation, _ = self.fit(train4, x, model, n_selected_features=2, n_perturbations=500)
        assert len(explanation.conditions) == 2

    def test_conditions_sorted_by_magnitude(self, train4):
        x = train4[8]
        model = bin_indicator_model(fit_discretizer(train4), x, [0.1, -0.5, 0.3, 0.0])
        explanation, _ = self.fit(train4, x, model)
        magnitudes = [abs(c.weight) for c in explanation.conditions]
        assert magnitudes == sorted(magnitudes, reverse=True)

    def test_sign_tracks_membership_direction(self):
        train = RNG.uniform(0.0, 100.0, size=(300, 2))
        model = lambda X: 1.0 / (1.0 + np.exp(-0.1 * (np.atleast_2d(X)[:, 0] - 50.0)))
        high = np.array([95.0, 50.0])  # top bin of x0: membership raises the output
        low = np.array([5.0, 50.0])  # bottom bin: membership lowers it
        explain_high, _ = self.fit(train, high, model, n_selected_features=2)
        explain_low, _ = self.fit(train, low, model, n_selected_features=2)
        assert explain_high.weight_of("x0") > 0.1
        assert explain_low.weight_of("x0") < -0.1

    def test_all_identical_bits_rejected(self, train4):
        x = train4[0]
        n = 50
        samples = PerturbationSet(
            instance=x,
            X=np.tile(x, (n, 1)),
            bits=np.ones((n, 4), dtype=np.int8),
            distances=np.zeros(n),
        )
        config = LimeConfig(n_perturbations=n, n_selected_features=4)
        with pytest.raises(DatasetError, match="degenerate perturbation design"):
            fit_local_surrogate(lambda X: np.zeros(len(X)), samples, config)

    @pytest.mark.parametrize("n_rows", [0, 1])
    def test_fewer_than_two_rows_rejected(self, train4, n_rows):
        x = train4[0]
        samples = PerturbationSet(
            instance=x,
            X=np.tile(x, (n_rows, 1)),
            bits=np.zeros((n_rows, 4), dtype=np.int8),
            distances=np.zeros(n_rows),
        )
        config = LimeConfig(n_perturbations=50, n_selected_features=4)
        with pytest.raises(DatasetError, match="degenerate perturbation design"):
            fit_local_surrogate(lambda X: np.zeros(len(X)), samples, config)

    def test_one_differing_row_is_enough(self, train4):
        x = train4[0]
        n = 50
        bits = np.ones((n, 4), dtype=np.int8)
        bits[n - 1, 2] = 0
        samples = PerturbationSet(
            instance=x, X=np.tile(x, (n, 1)), bits=bits, distances=np.zeros(n)
        )
        config = LimeConfig(n_perturbations=n, n_selected_features=4)
        explanation = fit_local_surrogate(
            lambda X: np.zeros(len(X)), samples, config
        )
        # only the one varying column can be selected
        assert [c.feature_index for c in explanation.conditions] == [2]

    def test_huge_kernel_width_matches_unweighted_fit(self, train4):
        x = train4[9]
        disc = fit_discretizer(train4)
        model = bin_indicator_model(disc, x, [0.4, -0.3, 0.2, 0.1])
        config = LimeConfig(
            n_perturbations=500, n_selected_features=4, kernel_width=1e9, seed=3
        )
        scaler = fit_scaler(train4)
        samples = perturb(x, disc, scaler, config)
        explanation = fit_local_surrogate(model, samples, config, discretizer=disc)

        y = model(samples.X)
        beta, intercept, _ = _ridge_wls(
            samples.bits.astype(float), y, np.ones(len(y))
        )
        for c in explanation.conditions:
            assert c.weight == pytest.approx(beta[c.feature_index], abs=1e-9)
        assert explanation.intercept == pytest.approx(intercept, abs=1e-9)

    def test_weight_of_unselected_feature_is_none(self, train4):
        x = train4[2]
        model = bin_indicator_model(fit_discretizer(train4), x, [0.9, 0.0, 0.0, 0.0])
        explanation, _ = self.fit(train4, x, model, n_selected_features=1, n_perturbations=300)
        assert explanation.weight_of("x0") is not None
        assert explanation.weight_of("x3") is None
        assert explanation.weight_of("nope") is None


class TestLimeConfig:
    def test_kernel_width_default_scales_with_features(self):
        config = LimeConfig()
        assert config.effective_kernel_width(16) == pytest.approx(3.0)
        assert LimeConfig(kernel_width=2.5).effective_kernel_width(16) == 2.5

    @pytest.mark.parametrize(
        "kwargs, fragment",
        [
            ({"n_selected_features": 0}, "n_selected_features"),
            ({"n_perturbations": 30, "n_selected_features": 4}, "10 x"),
            ({"kernel_width": 0.0}, "kernel_width"),
            ({"n_bins": 1}, "n_bins"),
            ({"resample": "bootstrap"}, "resample"),
            ({"kernel_width": float("nan")}, "kernel_width"),
            ({"kernel_width": float("inf")}, "kernel_width"),
            ({"seed": -1}, "seed must be a non-negative integer"),
            ({"n_bins": 2.5}, "n_bins must be an integer, got 2.5"),
            ({"n_bins": True}, "n_bins must be an integer, got True"),
            ({"n_perturbations": 100.5}, "n_perturbations must be an integer, got 100.5"),
            ({"n_selected_features": 2.5}, "n_selected_features must be an integer, got 2.5"),
            ({"n_selected_features": "6"}, "n_selected_features must be an integer, got '6'"),
            ({"seed": 1.5}, "seed must be an integer, got 1.5"),
            ({"seed": None}, "seed must be an integer, got None"),
            ({"seed": False}, "seed must be an integer, got False"),
        ],
    )
    def test_invalid_configs_rejected(self, kwargs, fragment):
        with pytest.raises(ConfigError, match=fragment):
            LimeConfig(**kwargs).validate()

    def test_numpy_integers_accepted(self):
        LimeConfig(
            n_perturbations=np.int64(200),
            n_selected_features=np.int32(4),
            n_bins=np.int64(3),
            seed=np.uint8(7),
        ).validate(12)

    def test_selection_capped_by_feature_count(self):
        with pytest.raises(ConfigError, match="exceeds"):
            LimeConfig(n_selected_features=13, n_perturbations=200).validate(12)


class TestExplainLocal:
    def test_end_to_end_on_trained_model(self, logistic, parts):
        x = parts.test.features()[0]
        explanation = explain_local(logistic, x, parts.train, LimeConfig(seed=0))
        assert explanation.predicted_proba == pytest.approx(
            logistic.predict_proba(x), abs=1e-12
        )
        assert explanation.predicted_class == int(explanation.predicted_proba >= 0.5)
        assert len(explanation.conditions) == 6
        months = {c.feature for c in explanation.conditions}
        assert months <= set(parts.train.feature_names)

    def test_repeat_runs_identical(self, logistic, parts):
        x = parts.test.features()[1]
        config = LimeConfig(seed=11, n_perturbations=600)
        a = explain_local(logistic, x, parts.train, config)
        b = explain_local(logistic, x, parts.train, config)
        assert [c.weight for c in a.conditions] == [c.weight for c in b.conditions]
        assert a.local_fidelity == b.local_fidelity

    def test_to_dict_structure(self, logistic, parts):
        x = parts.test.features()[0]
        payload = explain_local(logistic, x, parts.train, LimeConfig(seed=0)).to_dict()
        assert payload["schema"] == "floodxai.lime"
        assert len(payload["conditions"]) == 6
        assert payload["local_prediction"] == pytest.approx(
            payload["intercept"] + sum(c["weight"] for c in payload["conditions"]),
            abs=1e-12,
        )
        assert payload["config"]["kernel_width"] == pytest.approx(0.75 * np.sqrt(12))


class TestFitCache:
    """explain_local fits the discretizer and scaler once per training set."""

    @pytest.fixture
    def fits(self, monkeypatch):
        """The names of the fits `explain_local` runs, in order, from an empty cache."""
        calls = []

        def counting(name, fit):
            def counted(*args, **kwargs):
                calls.append(name)
                return fit(*args, **kwargs)

            return counted

        for name in ("fit_discretizer", "fit_scaler"):
            monkeypatch.setattr(lime_module, name, counting(name, getattr(lime_module, name)))
        lime_module._fitted.cache_clear()
        yield calls
        lime_module._fitted.cache_clear()

    @staticmethod
    def uncached(model, x, train, config):
        disc, scaler = fit_discretizer(train, config.n_bins), fit_scaler(train)
        samples = perturb(x, disc, scaler, config)
        return fit_local_surrogate(model, samples, config, discretizer=disc)

    def test_second_call_refits_nothing(self, fits, logistic, parts):
        X = parts.test.features()
        config = LimeConfig(n_perturbations=300, seed=4)
        first = explain_local(logistic, X[0], parts.train, config)
        assert fits == ["fit_discretizer", "fit_scaler"]
        # the same rows as a plain matrix, with the Dataset's names, hit the same fit
        again = explain_local(
            logistic, X[0], parts.train.features(), config, parts.train.feature_names
        )
        assert canonical_json(again.to_dict()) == canonical_json(first.to_dict())
        for row in X[:5]:
            got = explain_local(logistic, row, parts.train, config)
            want = self.uncached(logistic, row, parts.train, config)
            assert canonical_json(got.to_dict()) == canonical_json(want.to_dict())
        assert fits == ["fit_discretizer", "fit_scaler"]

    def test_changed_cell_layout_bins_or_names_fitted_fresh(self, fits, logistic, parts):
        train = parts.train.features()
        x = parts.test.features()[2]
        config = LimeConfig(n_perturbations=300, seed=4)
        explain_local(logistic, x, train, config)
        changed = train.copy()
        changed[17, 6] += 1.0
        fortran = np.asfortranarray(train)
        for rows, cfg, names in (
            (changed, config, None),
            (fortran, config, None),
            (train, LimeConfig(n_perturbations=300, seed=4, n_bins=3), None),
            (train, config, tuple(parts.train.feature_names)),
        ):
            before = len(fits)
            got = explain_local(logistic, x, rows, cfg, names)
            assert fits[before:] == ["fit_discretizer", "fit_scaler"]
            disc = fit_discretizer(rows, cfg.n_bins, names)
            samples = perturb(x, disc, fit_scaler(rows), cfg)
            want = fit_local_surrogate(logistic, samples, cfg, discretizer=disc)
            assert canonical_json(got.to_dict()) == canonical_json(want.to_dict())

    @pytest.mark.parametrize(
        "value, named",
        [(np.nan, "contains missing values"), (np.inf, "training row 3 feature 4 is inf"), (None, "empty")],
        ids=["nan", "inf", "empty"],
    )
    def test_invalid_rows_raise_on_every_call(self, fits, logistic, parts, value, named):
        train = parts.train.features()
        x = parts.test.features()[0]
        config = LimeConfig(n_perturbations=300)
        explain_local(logistic, x, train, config)
        bad = train[:0] if value is None else train.copy()
        if value is not None:
            bad[3, 4] = value
        for _ in range(3):
            with pytest.raises(DatasetError, match=named):
                explain_local(logistic, x, bad, config)
        assert lime_module._fitted.cache_info().currsize == 1


class TestForwardSelect:
    def test_matches_per_trial_refits(self, all_models, dataset, parts):
        """Gram-scored selection picks the refit loop's features in its order.

        Greedy selection of n features is the first n of selecting all 12,
        so one reference run at 12 covers n = 1, 6 and 12.
        """
        train = parts.train.features()
        disc = fit_discretizer(parts.train)
        scaler = fit_scaler(train)
        X = dataset.features()
        rows = np.random.default_rng(6).choice(len(X), size=15, replace=False)
        for row in rows:
            for resample in ("uniform", "normal"):
                config = LimeConfig(seed=int(row), resample=resample)
                samples = perturb(X[row], disc, scaler, config)
                bits = samples.bits.astype(float)
                weights = np.exp(
                    -samples.distances**2 / config.effective_kernel_width(12) ** 2
                )
                candidates = list(range(12))
                for kind, model in all_models.items():
                    y = model.predict_proba(samples.X)
                    expected = forward_select_by_refits(bits, y, weights, candidates, 12)
                    for n in (1, 6, 12):
                        got = _forward_select(bits, y, weights, candidates, n)
                        assert got == expected[:n], (kind, int(row), resample, n)
