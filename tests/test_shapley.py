"""Coalition values, exact Shapley enumeration, and the kernel estimator.

The exact enumerator and the kernel regression are independent routes to
the same attributions; several tests assert their agreement on top of the
closed forms available for constant and linear models.
"""

import hashlib
import math
import os
import sys
import threading
import tracemalloc
from functools import partial

import numpy as np
import pytest

from floodxai import (
    ConfigError,
    DatasetError,
    KnnConfig,
    KnnModel,
    LimeConfig,
    Scaler,
    ShapConfig,
    coalition_value,
    exact_shapley,
    explain_local,
    fit_discretizer,
    fit_local_surrogate,
    fit_scaler,
    global_importance,
    kernel_shap,
    perturb,
)
from floodxai.explain import shapley
from floodxai.models import ProbabilityClassifier
from floodxai.models import knn as knn_module
from floodxai.explain.shapley import (
    _CHUNK_ROWS,
    EXHAUSTIVE,
    MAX_EXACT_FEATURES,
    _bit_table,
    _hybrid_mean,
    _mean_fn,
    _mean_values,
    background_fingerprint,
)

RNG = np.random.default_rng(3)


def linear_model(w, b=0.0):
    w = np.asarray(w, dtype=float)
    return lambda X: np.atleast_2d(X) @ w + b


def nonlinear_model(X):
    X = np.atleast_2d(X)
    return X[:, 0] * X[:, 1] + np.sin(X[:, 2]) - 0.5 * X[:, 3] ** 2 + 2.0 * X[:, 4]


def high_order_model(X):
    """Every subset of features interacts, so sampling noise is visible."""
    X = np.atleast_2d(X)
    return np.exp(0.3 * X.sum(axis=1)) + X[:, 0] * X[:, 1]


def linear_phi(w, instance, background):
    """Closed-form attribution for a linear model: w_i * (x_i - mean(bg_i))."""
    bg_mean = np.atleast_2d(np.asarray(background, dtype=float)).mean(axis=0)
    return np.asarray(w, dtype=float) * (np.asarray(instance, dtype=float) - bg_mean)


@pytest.fixture
def background5():
    return RNG.normal(size=(10, 5))


@pytest.fixture
def instance5():
    return RNG.normal(size=5)


class TestCoalitionValue:
    def test_full_subset_is_model_output(self, instance5, background5):
        value = coalition_value(nonlinear_model, instance5, range(5), background5)
        assert value == pytest.approx(float(nonlinear_model(instance5)[0]), abs=1e-12)

    def test_empty_subset_is_background_mean(self, instance5, background5):
        value = coalition_value(nonlinear_model, instance5, [], background5)
        assert value == pytest.approx(float(nonlinear_model(background5).mean()), abs=1e-12)

    def test_partial_subset_substitutes_linearly(self, instance5, background5):
        w = np.array([1.0, -2.0, 0.5, 3.0, 0.0])
        model = linear_model(w, b=0.25)
        value = coalition_value(model, instance5, [0, 3], background5)
        bg_mean = background5.mean(axis=0)
        expected = (
            w[0] * instance5[0]
            + w[3] * instance5[3]
            + w[1] * bg_mean[1]
            + w[2] * bg_mean[2]
            + w[4] * bg_mean[4]
            + 0.25
        )
        assert value == pytest.approx(expected, abs=1e-10)

    def test_out_of_range_subset_rejected(self, instance5, background5):
        with pytest.raises(ConfigError, match="subset indices"):
            coalition_value(nonlinear_model, instance5, [5], background5)

    @pytest.mark.parametrize("subset", [[0.5], [1.0], [np.float64(2.0)], [True], [0, False]])
    def test_non_integer_subset_rejected(self, instance5, background5, subset):
        # a fractional index was truncated: [0.5] returned v({0})
        with pytest.raises(ConfigError, match="subset indices"):
            coalition_value(nonlinear_model, instance5, subset, background5)

    def test_numpy_integer_subset_accepted(self, instance5, background5):
        subset = np.array([3, 0])
        assert coalition_value(nonlinear_model, instance5, subset, background5) == (
            coalition_value(nonlinear_model, instance5, [0, 3], background5)
        )

    def test_accepts_trained_model_objects(self, logistic, parts):
        x = parts.test.features()[0]
        bg = parts.train.features()
        value = coalition_value(logistic, x, range(12), bg)
        assert value == pytest.approx(logistic.predict_proba(x), abs=1e-12)

    def test_single_background_vector_accepted(self, instance5):
        bg = np.zeros(5)
        value = coalition_value(linear_model(np.ones(5)), instance5, [1], bg)
        assert value == pytest.approx(instance5[1], abs=1e-12)


class TestExactShapley:
    def test_constant_model_gets_zero_attributions(self, instance5, background5):
        explanation = exact_shapley(lambda X: np.full(len(X), 0.7), instance5, background5)
        np.testing.assert_allclose(explanation.phi, 0.0, atol=1e-12)
        assert explanation.base_value == pytest.approx(0.7, abs=1e-12)
        assert explanation.additivity_residual == pytest.approx(0.0, abs=1e-12)

    def test_linear_model_closed_form(self, instance5, background5):
        w = np.array([2.0, -1.0, 0.0, 4.0, 0.5])
        explanation = exact_shapley(linear_model(w, b=1.0), instance5, background5)
        np.testing.assert_allclose(
            explanation.phi, linear_phi(w, instance5, background5), atol=1e-10
        )

    def test_unused_feature_gets_zero(self, instance5, background5):
        model = lambda X: np.atleast_2d(X)[:, 0] ** 2 + np.atleast_2d(X)[:, 2]
        explanation = exact_shapley(model, instance5, background5)
        assert explanation.phi[1] == pytest.approx(0.0, abs=1e-12)
        assert explanation.phi[3] == pytest.approx(0.0, abs=1e-12)
        assert explanation.phi[4] == pytest.approx(0.0, abs=1e-12)

    def test_symmetric_features_get_equal_attribution(self):
        model = lambda X: np.atleast_2d(X)[:, 0] * np.atleast_2d(X)[:, 1]
        col = RNG.normal(size=8)
        background = np.column_stack([col, col, RNG.normal(size=8)])
        instance = np.array([2.0, 2.0, -1.0])
        explanation = exact_shapley(model, instance, background)
        assert explanation.phi[0] == pytest.approx(explanation.phi[1], abs=1e-12)

    def test_attributions_are_linear_in_the_model(self, instance5, background5):
        f = nonlinear_model
        g = linear_model(np.array([0.5, 0.0, -1.5, 2.0, 1.0]), b=0.3)
        combined = lambda X: f(X) + g(X)
        phi_f = exact_shapley(f, instance5, background5).phi
        phi_g = exact_shapley(g, instance5, background5).phi
        phi_fg = exact_shapley(combined, instance5, background5).phi
        np.testing.assert_allclose(phi_fg, phi_f + phi_g, atol=1e-10)

    def test_efficiency_holds(self, instance5, background5):
        explanation = exact_shapley(nonlinear_model, instance5, background5)
        assert explanation.additivity_residual == pytest.approx(0.0, abs=1e-10)
        assert explanation.model_output == pytest.approx(
            float(nonlinear_model(instance5)[0]), abs=1e-12
        )

    def test_feature_count_cap(self):
        x = np.zeros(21)
        with pytest.raises(ConfigError, match="at most 20"):
            exact_shapley(lambda X: np.atleast_2d(X).sum(axis=1), x, np.zeros((2, 21)))

    def test_metadata_fields(self, instance5, background5):
        explanation = exact_shapley(nonlinear_model, instance5, background5)
        assert explanation.method == "exact"
        assert explanation.n_coalitions == 2**5
        assert explanation.seed is None
        assert explanation.background_fingerprint == background_fingerprint(background5)


class TestKernelShap:
    def test_exhaustive_matches_exact_on_nonlinear_model(self, instance5, background5):
        config = ShapConfig(background=background5, n_coalition_samples=EXHAUSTIVE)
        kernel = kernel_shap(nonlinear_model, instance5, config)
        exact = exact_shapley(nonlinear_model, instance5, background5)
        np.testing.assert_allclose(kernel.phi, exact.phi, atol=1e-10)
        assert kernel.base_value == pytest.approx(exact.base_value, abs=1e-12)

    @pytest.mark.parametrize("kind", ["logistic", "svm", "tree", "knn"])
    def test_exhaustive_matches_exact_on_trained_model(self, all_models, parts, kind):
        model = all_models[kind]
        x = parts.test.features()[0]
        bg = parts.train.features()
        config = ShapConfig(background=bg)
        kernel = kernel_shap(model, x, config, feature_names=parts.train.feature_names)
        exact = exact_shapley(model, x, bg, feature_names=parts.train.feature_names)
        np.testing.assert_allclose(kernel.phi, exact.phi, atol=1e-12)

    @pytest.mark.parametrize("samples", [EXHAUSTIVE, 4], ids=["exhaustive", "sampled"])
    def test_single_feature_short_circuit(self, samples):
        model = lambda X: 3.0 * np.atleast_2d(X)[:, 0]
        config = ShapConfig(
            background=np.array([[1.0], [3.0]]), n_coalition_samples=samples, seed=7
        )
        explanation = kernel_shap(model, np.array([5.0]), config)
        # phi must carry the full gap between f(x)=15 and the base value 6
        assert explanation.phi[0] == pytest.approx(9.0, abs=1e-12)
        assert explanation.n_coalitions == 2
        if samples == EXHAUSTIVE:
            assert (explanation.method, explanation.seed) == ("kernel-exhaustive", None)
        else:
            assert (explanation.method, explanation.seed) == ("kernel-sampled", 7)

    def test_efficiency_imposed_even_when_sampling(self, background5, instance5):
        config = ShapConfig(background=background5, n_coalition_samples=64, seed=5)
        explanation = kernel_shap(nonlinear_model, instance5, config)
        assert explanation.additivity_residual == pytest.approx(0.0, abs=1e-12)

    def test_sampling_is_deterministic_per_seed(self, background5, instance5):
        config_a = ShapConfig(background=background5, n_coalition_samples=64, seed=9)
        config_b = ShapConfig(background=background5, n_coalition_samples=64, seed=9)
        config_c = ShapConfig(background=background5, n_coalition_samples=64, seed=10)
        phi_a = kernel_shap(high_order_model, instance5, config_a).phi
        phi_b = kernel_shap(high_order_model, instance5, config_b).phi
        phi_c = kernel_shap(high_order_model, instance5, config_c).phi
        np.testing.assert_array_equal(phi_a, phi_b)
        assert not np.allclose(phi_a, phi_c, atol=1e-12)

    def test_paired_sampling_exact_for_pairwise_interactions(self, background5, instance5):
        # every draw enters with its complement, and complement-paired
        # regression reproduces exact Shapley whenever the coalition value
        # is at most quadratic in the membership bits -- which holds for
        # nonlinear_model because only x0*x1 couples two features
        exact = exact_shapley(nonlinear_model, instance5, background5)
        for seed in (0, 1, 2):
            config = ShapConfig(background=background5, n_coalition_samples=24, seed=seed)
            sampled = kernel_shap(nonlinear_model, instance5, config)
            np.testing.assert_allclose(sampled.phi, exact.phi, atol=1e-9)

    def test_sampled_is_exact_for_linear_models(self, background5, instance5):
        # the coalition value is affine in the mask bits, so any full-rank
        # weighted regression recovers the closed form regardless of budget
        w = np.array([1.5, -2.0, 0.75, 3.0, -0.25])
        config = ShapConfig(background=background5, n_coalition_samples=12, seed=1)
        explanation = kernel_shap(linear_model(w, b=2.0), instance5, config)
        np.testing.assert_allclose(
            explanation.phi, linear_phi(w, instance5, background5), atol=1e-8
        )

    def test_sampled_approximates_exhaustive(self):
        instance = RNG.normal(size=8)
        background = RNG.normal(size=(12, 8))
        exact = exact_shapley(high_order_model, instance, background)
        config = ShapConfig(background=background, n_coalition_samples=1024, seed=4)
        sampled = kernel_shap(high_order_model, instance, config)
        scale = np.abs(exact.phi).max()
        assert np.abs(sampled.phi - exact.phi).max() <= 0.05 * scale

    def test_budget_below_minimum_rejected(self, background5, instance5):
        config = ShapConfig(background=background5, n_coalition_samples=11)
        with pytest.raises(ConfigError, match="2M \\+ 2"):
            kernel_shap(nonlinear_model, instance5, config)

    def test_non_integer_budget_rejected(self, background5):
        config = ShapConfig(background=background5, n_coalition_samples=64.5)
        with pytest.raises(ConfigError):
            config.validate(5)

    def test_negative_seed_rejected_only_when_sampling(self, background5, instance5):
        config = ShapConfig(background=background5, n_coalition_samples=32, seed=-1)
        with pytest.raises(ConfigError, match="seed must be a non-negative integer"):
            kernel_shap(nonlinear_model, instance5, config)
        # exhaustive mode draws nothing, so it ignores the seed
        exhaustive = ShapConfig(background=background5, seed=-1)
        assert kernel_shap(nonlinear_model, instance5, exhaustive).seed is None

    def test_non_integer_seed_rejected_only_when_sampling(self, background5, instance5):
        # used to raise a bare TypeError from SeedSequence
        config = ShapConfig(background=background5, n_coalition_samples=100, seed=1.5)
        with pytest.raises(ConfigError, match="seed must be an integer, got 1.5"):
            kernel_shap(nonlinear_model, instance5, config)
        exhaustive = ShapConfig(background=background5, seed=1.5)
        assert kernel_shap(nonlinear_model, instance5, exhaustive).seed is None

    def test_exhaustive_width_capped(self):
        config = ShapConfig(background=np.zeros((1, MAX_EXACT_FEATURES + 1)))
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError, match="at most 20 features.*budget"):
                config.validate(MAX_EXACT_FEATURES + 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # rejected before any coalition table (2^21 rows here) is built
        assert peak < 1 << 20
        config.validate(MAX_EXACT_FEATURES)

    def test_missing_background_rejected(self, instance5):
        with pytest.raises(ConfigError, match="background"):
            kernel_shap(nonlinear_model, instance5, ShapConfig())

    def test_method_labels_and_counts(self, background5, instance5):
        exhaustive = kernel_shap(
            nonlinear_model, instance5, ShapConfig(background=background5)
        )
        assert exhaustive.method == "kernel-exhaustive"
        assert exhaustive.n_coalitions == 2**5
        assert exhaustive.seed is None

        sampled = kernel_shap(
            nonlinear_model,
            instance5,
            ShapConfig(background=background5, n_coalition_samples=32, seed=2),
        )
        assert sampled.method == "kernel-sampled"
        assert sampled.seed == 2
        assert sampled.n_coalitions <= 32 + 2

    def test_to_dict_shape(self, background5, instance5):
        payload = kernel_shap(
            nonlinear_model, instance5, ShapConfig(background=background5)
        ).to_dict()
        assert payload["schema"] == "floodxai.shap_local"
        assert len(payload["phi"]) == 5
        assert payload["config"]["background_fingerprint"].startswith("sha256:")
        assert payload["config"]["seed"] is None
        assert payload["model_output"] == pytest.approx(
            payload["base_value"] + sum(payload["phi"]), abs=1e-9
        )


class TestBackgroundFingerprint:
    def test_equal_content_equal_fingerprint(self):
        a = np.arange(6, dtype=float).reshape(2, 3)
        assert background_fingerprint(a) == background_fingerprint(a.copy())

    def test_different_content_differs(self):
        a = np.zeros((2, 3))
        b = np.ones((2, 3))
        assert background_fingerprint(a) != background_fingerprint(b)

    def test_shape_participates(self):
        flat = np.zeros(4)
        square = np.zeros((2, 2))
        assert background_fingerprint(flat) != background_fingerprint(square)


class TestGlobalImportance:
    def test_constant_model_keeps_input_order_on_ties(self, background5):
        X = RNG.normal(size=(4, 5))
        config = ShapConfig(background=background5)
        result = global_importance(lambda A: np.full(len(np.atleast_2d(A)), 0.3), X, config)
        np.testing.assert_allclose(result.importances, 0.0, atol=1e-12)
        assert result.ranking == (0, 1, 2, 3, 4)

    def test_single_informative_feature_ranks_first(self, background5):
        model = lambda X: 3.0 * np.atleast_2d(X)[:, 2]
        X = RNG.normal(size=(6, 5))
        result = global_importance(model, X, ShapConfig(background=background5))
        assert result.ranking[0] == 2
        assert result.top(1) == ["x2"]
        others = np.delete(result.importances, 2)
        np.testing.assert_allclose(others, 0.0, atol=1e-10)

    def test_equals_mean_of_per_row_magnitudes(self, background5):
        X = RNG.normal(size=(3, 5))
        config = ShapConfig(background=background5)
        result = global_importance(nonlinear_model, X, config)
        manual = np.mean(
            [np.abs(kernel_shap(nonlinear_model, row, config).phi) for row in X], axis=0
        )
        np.testing.assert_allclose(result.importances, manual, atol=1e-12)
        assert result.n_instances == 3

    def test_reports_the_most_coalitions_of_any_row(self):
        # it used to report the last row's count; at seed 0, budget 40 and M = 12
        # the five rows use 40, 42, 36, 40 and 40 coalitions
        model = linear_model(np.arange(12.0))
        X, bg = RNG.normal(size=(5, 12)), RNG.normal(size=(6, 12))
        sampled = ShapConfig(background=bg, n_coalition_samples=40, seed=0)
        counts = [
            kernel_shap(
                model, row, ShapConfig(background=bg, n_coalition_samples=40, seed=i)
            ).n_coalitions
            for i, row in enumerate(X)
        ]
        assert counts[-1] < max(counts)
        assert global_importance(model, X, sampled).n_coalitions == max(counts)
        assert global_importance(model, X[:1], sampled).n_coalitions == counts[0]
        assert global_importance(model, X, ShapConfig(background=bg)).n_coalitions == 1 << 12

    def test_sampled_rows_use_offset_seeds(self, background5):
        X = RNG.normal(size=(3, 5))
        config = ShapConfig(background=background5, n_coalition_samples=32, seed=100)
        result = global_importance(nonlinear_model, X, config)
        manual = np.mean(
            [
                np.abs(
                    kernel_shap(
                        nonlinear_model,
                        row,
                        ShapConfig(
                            background=background5, n_coalition_samples=32, seed=100 + i
                        ),
                    ).phi
                )
                for i, row in enumerate(X)
            ],
            axis=0,
        )
        np.testing.assert_array_equal(result.importances, manual)
        assert result.seed == 100

    def test_empty_input_rejected(self, background5):
        with pytest.raises(DatasetError, match="at least one"):
            global_importance(nonlinear_model, np.empty((0, 5)), ShapConfig(background=background5))

    def test_to_dict_ranking_sorted_descending(self, background5):
        X = RNG.normal(size=(4, 5))
        payload = global_importance(
            nonlinear_model, X, ShapConfig(background=background5)
        ).to_dict()
        assert payload["schema"] == "floodxai.shap_global"
        by_name = dict(zip(payload["feature_names"], payload["importances"]))
        ranked_values = [by_name[name] for name in payload["ranking"]]
        assert ranked_values == sorted(ranked_values, reverse=True)

    def test_custom_feature_names_flow_through(self, logistic, parts):
        X = parts.test.features()[:2]
        config = ShapConfig(background=parts.train.features()[:8])
        result = global_importance(logistic, X, config, feature_names=parts.train.feature_names)
        assert set(result.top(3)) <= set(parts.train.feature_names)


def _with(values, index, bad):
    values = np.array(values, dtype=float)
    values[index] = bad
    return values


def _text(values, index):
    """`values` as nested lists with the cell at `index` replaced by text."""
    values = np.array(values, dtype=object)
    values[index] = "a"
    return values.tolist()


def _ragged(rows):
    """`rows` as lists, the last one a cell short."""
    rows = np.asarray(rows).tolist()
    rows[-1] = rows[-1][:-1]
    return rows


@pytest.mark.parametrize(
    "entry, named",
    [
        (
            lambda f, x, bg: kernel_shap(f, _with(x, 3, np.nan), ShapConfig(background=bg)),
            "instance feature 3",
        ),
        (
            lambda f, x, bg: kernel_shap(
                f, x, ShapConfig(background=_with(bg, (2, 1), np.inf), n_coalition_samples=32)
            ),
            "background row 2 feature 1",
        ),
        (
            lambda f, x, bg: global_importance(
                f, _with([x, x, x], (2, 4), np.nan), ShapConfig(background=bg)
            ),
            "X row 2 feature 4",
        ),
        (
            lambda f, x, bg: global_importance(
                f, [x], ShapConfig(background=_with(bg, (0, 0), -np.inf))
            ),
            "background row 0 feature 0",
        ),
        (lambda f, x, bg: exact_shapley(f, _with(x, 0, np.nan), bg), "instance feature 0"),
        (
            lambda f, x, bg: exact_shapley(f, x, _with(bg, (1, 11), np.nan)),
            "background row 1 feature 11",
        ),
        (
            lambda f, x, bg: coalition_value(f, _with(x, 5, np.inf), [0, 5], bg),
            "instance feature 5",
        ),
        (
            lambda f, x, bg: coalition_value(f, x, [0], _with(bg, (3, 2), np.nan)),
            "background row 3 feature 2",
        ),
        (
            lambda f, x, bg: perturb(
                _with(x, 7, np.nan), fit_discretizer(bg), fit_scaler(bg), LimeConfig()
            ),
            "instance feature 7",
        ),
        (lambda f, x, bg: explain_local(f, _with(x, 7, np.nan), bg), "instance feature 7"),
        (
            lambda f, x, bg: explain_local(f, x, _with(bg, (2, 3), np.inf)),
            "training row 2 feature 3",
        ),
        (
            lambda f, x, bg: kernel_shap(f, _text(x, 3), ShapConfig(background=bg)),
            "instance must be numeric",
        ),
        (
            lambda f, x, bg: kernel_shap(f, x, ShapConfig(background=_ragged(bg))),
            "background must be numeric",
        ),
        (
            lambda f, x, bg: global_importance(f, _ragged([x, x, x]), ShapConfig(background=bg)),
            "X must be numeric",
        ),
        (
            lambda f, x, bg: global_importance(f, [x], ShapConfig(background=_text(bg, (0, 0)))),
            "background must be numeric",
        ),
        (lambda f, x, bg: exact_shapley(f, _text(x, 0), bg), "instance must be numeric"),
        (lambda f, x, bg: exact_shapley(f, x, _ragged(bg)), "background must be numeric"),
        (lambda f, x, bg: coalition_value(f, _text(x, 5), [0], bg), "instance must be numeric"),
        (lambda f, x, bg: coalition_value(f, x, [0], _ragged(bg)), "background must be numeric"),
        (
            lambda f, x, bg: perturb(_text(x, 7), fit_discretizer(bg), fit_scaler(bg), LimeConfig()),
            "instance must be numeric",
        ),
        (lambda f, x, bg: explain_local(f, _text(x, 7), bg), "instance must be numeric"),
        (lambda f, x, bg: explain_local(f, x, _ragged(bg)), "training data must be numeric"),
        (lambda f, x, bg: fit_discretizer(_text(bg, (2, 3))), "training data must be numeric"),
        (lambda f, x, bg: fit_scaler(_ragged(bg)), "training data must be numeric"),
    ],
    ids=[
        "kernel_shap-instance",
        "kernel_shap-background",
        "global_importance-instance",
        "global_importance-background",
        "exact_shapley-instance",
        "exact_shapley-background",
        "coalition_value-instance",
        "coalition_value-background",
        "perturb-instance",
        "explain_local-instance",
        "explain_local-training",
        "kernel_shap-instance-text",
        "kernel_shap-background-ragged",
        "global_importance-instance-ragged",
        "global_importance-background-text",
        "exact_shapley-instance-text",
        "exact_shapley-background-ragged",
        "coalition_value-instance-text",
        "coalition_value-background-ragged",
        "perturb-instance-text",
        "explain_local-instance-text",
        "explain_local-training-ragged",
        "fit_discretizer-text",
        "fit_scaler-ragged",
    ],
)
def test_non_finite_inputs_rejected(logistic, parts, entry, named):
    # NaN or inf would otherwise flow into NaN attributions or probabilities, and
    # a text cell or a ragged row into numpy's bare ValueError
    x = parts.test.features()[0]
    background = parts.train.features()[:8]
    with pytest.raises(DatasetError, match=named):
        entry(logistic, x, background)


def _surrogate(model, x, bg, names, with_discretizer):
    """`fit_local_surrogate` on a perturbation set of x, given the discretizer or not."""
    disc = fit_discretizer(bg)
    samples = perturb(x, disc, fit_scaler(bg), LimeConfig())
    return fit_local_surrogate(model, samples, LimeConfig(), names, disc if with_discretizer else None)


@pytest.mark.parametrize(
    "entry",
    [
        lambda f, x, bg, names: kernel_shap(f, x, ShapConfig(background=bg), names),
        lambda f, x, bg, names: global_importance(f, [x, x], ShapConfig(background=bg), names),
        lambda f, x, bg, names: exact_shapley(f, x, bg, names),
        lambda f, x, bg, names: explain_local(f, x, bg, LimeConfig(), names),
        lambda f, x, bg, names: fit_discretizer(bg, 4, names),
        lambda f, x, bg, names: _surrogate(f, x, bg, names, with_discretizer=True),
        lambda f, x, bg, names: _surrogate(f, x, bg, names, with_discretizer=False),
    ],
    ids=[
        "kernel_shap",
        "global_importance",
        "exact_shapley",
        "explain_local",
        "fit_discretizer",
        "fit_local_surrogate-discretizer",
        "fit_local_surrogate-bits",
    ],
)
@pytest.mark.parametrize("n_names", [3, 13])
def test_feature_names_of_the_wrong_length_rejected(logistic, parts, entry, n_names):
    # too few names gave a 3-name report over 12 phi or an IndexError in ranked();
    # LIME blamed n_selected_features or the instance width instead, and its
    # surrogate raised an IndexError on 3 names and reported all 13
    x = parts.test.features()[0]
    background = parts.train.features()[:8]
    names = tuple(f"m{i}" for i in range(n_names))
    with pytest.raises(ConfigError, match=f"feature_names has {n_names} entries but the data has 12 features"):
        entry(logistic, x, background, names)


@pytest.mark.parametrize(
    "entry",
    [
        lambda f, x, bg: kernel_shap(f, x, ShapConfig(background=bg)),
        lambda f, x, bg: global_importance(f, [x, x], ShapConfig(background=bg)),
        lambda f, x, bg: exact_shapley(f, x, bg),
        lambda f, x, bg: coalition_value(f, x, [0, 4], bg),
    ],
    ids=["kernel_shap", "global_importance", "exact_shapley", "coalition_value"],
)
@pytest.mark.parametrize("kind", ["logistic", "tree"])
def test_background_width_checked(all_models, parts, kind, entry):
    # rejected before any model call, on the generic path and on a model's own
    # masked_proba alike
    x = parts.test.features()[0]
    background = parts.train.features()[:3, :11]
    with pytest.raises(DatasetError, match="background has 11 features but the instance has 12"):
        entry(all_models[kind], x, background)


@pytest.mark.parametrize(
    "entry",
    [
        lambda f, x, bg: kernel_shap(f, x, ShapConfig(background=bg)),
        lambda f, x, bg: global_importance(f, [x, x], ShapConfig(background=bg)),
        lambda f, x, bg: exact_shapley(f, x, bg),
        lambda f, x, bg: coalition_value(f, x, [0, 4], bg),
    ],
    ids=["kernel_shap", "global_importance", "exact_shapley", "coalition_value"],
)
@pytest.mark.parametrize("kind", ["logistic", "knn"])
def test_empty_background_rejected(all_models, parts, kind, entry):
    # an empty background has no v(S) to average; it used to divide by zero
    x = parts.test.features()[0]
    with pytest.raises(DatasetError, match="background has no rows"):
        entry(all_models[kind], x, np.empty((0, 12)))


@pytest.mark.parametrize("kind", ["logistic", "svm", "tree", "knn"])
def test_masked_proba_matches_hybrid_predictions(all_models, dataset, parts, kind):
    model = all_models[kind]
    exact = kind in ("tree", "knn")
    table = _bit_table(12)
    train = parts.train.features()
    chunk = _CHUNK_ROWS // len(train)
    subsets = [table, table[chunk : 2 * chunk], table[::7]]
    for bg in (train, train[10:15], train[:1]):
        for x in dataset.features()[[0, 45, 120]]:
            for masks in subsets:
                hybrid = np.where(masks[:, None, :], x, bg[None, :, :])
                expected = model.predict_proba(hybrid.reshape(-1, 12)).reshape(len(masks), len(bg))
                got = model.masked_proba(x, bg, masks)
                assert got.shape == expected.shape
                if exact:
                    np.testing.assert_array_equal(got, expected)
                else:
                    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)
            # v(S) over the chunked loop: the tree's and KNN's values are bit-identical
            values = _mean_values(_mean_fn(model), x, bg, table)
            oracle = _mean_values(_hybrid_mean(model), x, bg, table)
            if exact:
                np.testing.assert_array_equal(values, oracle)
            else:
                np.testing.assert_allclose(values, oracle, rtol=0, atol=1e-12)


def _masked_proba_mean(model):
    """v(S) as the mean of the model's `masked_proba` table over the background rows."""
    return lambda x, bg, masks: model.masked_proba(x, bg, masks).mean(axis=1)


@pytest.mark.parametrize("kind", ["logistic", "tree", "knn"])
def test_chunking_leaves_coalition_values_unchanged(all_models, parts, kind, monkeypatch):
    # masked calls and hybrid batches split at any mask count give the same v(S)
    model = all_models[kind]
    x = parts.test.features()[2]
    bg = parts.train.features()[:7]
    table = _bit_table(12)
    whole = _mean_values(_masked_proba_mean(model), x, bg, table)
    oracle = _mean_values(_hybrid_mean(model), x, bg, table)
    monkeypatch.setattr(shapley, "_CHUNK_VALUES", 7 * 300)
    monkeypatch.setattr(shapley, "_CHUNK_ROWS", 7 * 100)
    np.testing.assert_array_equal(_mean_values(_masked_proba_mean(model), x, bg, table), whole)
    np.testing.assert_array_equal(_mean_values(_hybrid_mean(model), x, bg, table), oracle)


@pytest.mark.parametrize("kind", ["logistic", "svm", "tree", "knn"])
def test_every_kind_gives_coalition_values_by_masked_mean(all_models, kind):
    mean = shapley._mean_fn(all_models[kind])
    assert mean.func is ProbabilityClassifier.masked_mean
    assert mean.args == (all_models[kind],)


@pytest.mark.parametrize("kind", ["logistic", "svm", "tree"])
def test_chunking_leaves_masked_mean_values_unchanged(all_models, parts, kind, monkeypatch):
    # chunks of 300 masks are no longer the lattice: the linear models leave the
    # product path for the table mean, within 1e-12; the tree's bits stay
    model = all_models[kind]
    x = parts.test.features()[2]
    bg = parts.train.features()[:7]
    table = _bit_table(12)
    mean = shapley._mean_fn(model)
    whole = shapley._mean_values(mean, x, bg, table)
    monkeypatch.setattr(shapley, "_CHUNK_VALUES", 7 * 300)
    chunked = shapley._mean_values(mean, x, bg, table)
    if kind == "tree":
        np.testing.assert_array_equal(chunked, whole)
    else:
        np.testing.assert_allclose(chunked, whole, rtol=0, atol=1e-12)
    np.testing.assert_array_equal(chunked, _mean_values(_masked_proba_mean(model), x, bg, table))


class _DuckTyped:
    """Defines predict_proba and masked_proba, not ProbabilityClassifier's; counts
    the masked calls."""

    def __init__(self, model):
        self.model, self.calls = model, 0

    def predict_proba(self, X):
        return self.model.predict_proba(X)

    def masked_proba(self, x, background, masks):
        self.calls += 1
        return self.model.masked_proba(x, background, masks)


class _DuckTypedWithMean(_DuckTyped):
    """Also defines masked_mean."""

    def masked_mean(self, x, background, masks):
        self.calls += 1
        return self.model.masked_mean(x, background, masks)


@pytest.mark.parametrize("duck", [_DuckTyped, _DuckTypedWithMean], ids=["proba", "mean"])
@pytest.mark.parametrize("kind", ["logistic", "tree"])
def test_duck_typed_model_explained_by_its_predict_proba(all_models, parts, kind, duck):
    # only ProbabilityClassifier's own boundary is asked for v(S); a class that
    # merely has masked methods is scored on its hybrid rows, like a bare callable
    model = all_models[kind]
    wrapped = duck(model)
    x = parts.test.features()[6]
    for samples in (EXHAUSTIVE, 200):
        config = ShapConfig(background=parts.train.features(), n_coalition_samples=samples)
        got = kernel_shap(wrapped, x, config).phi
        np.testing.assert_array_equal(got, kernel_shap(model.predict_proba, x, config).phi)
        want = kernel_shap(model, x, config).phi
        if kind == "tree":
            np.testing.assert_array_equal(got, want)
        else:
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    assert wrapped.calls == 0


@pytest.mark.parametrize("name", ["masked_mean", "masked_proba"])
@pytest.mark.parametrize("kind", ["logistic", "tree", "knn"])
def test_subclass_overriding_the_boundary_takes_the_hybrid_rows(all_models, parts, kind, name):
    # a subclass whose masked method is its own is not the boundary the package
    # kinds share, so its v(S) comes from predict_proba on the hybrid rows
    model = all_models[kind]
    cls = type(model)

    def refused(self, *args):
        raise AssertionError(f"{name} called")

    sub = type("Own" + cls.__name__, (cls,), {name: refused})
    own = sub(**{f: getattr(model, f) for f in model.__dataclass_fields__})
    assert not isinstance(_mean_fn(own), partial)
    x = parts.test.features()[4]
    bg = parts.train.features()[:9]
    np.testing.assert_array_equal(
        _mean_values(_mean_fn(own), x, bg, _bit_table(12)),
        _mean_values(_hybrid_mean(model), x, bg, _bit_table(12)),
    )
    config = ShapConfig(background=bg)
    np.testing.assert_array_equal(
        kernel_shap(own, x, config).phi, kernel_shap(model.predict_proba, x, config).phi
    )


def _reference_knn_proba(model, X):
    """The KNN vote by its definition, over whole sorted rows: rows strictly closer than
    the k-th distance vote, the rest of the k slots are shared among rows at it."""
    k, y = model.config.k, model.train_labels.astype(float)
    Z = model.scaler.transform(np.atleast_2d(X))
    D = np.sqrt(((Z[:, None, :] - model.train_scaled[None, :, :]) ** 2).sum(axis=2))
    kth = np.sort(D, axis=1)[:, k - 1, None]
    closer, at = D < kth, D == kth
    return (closer @ y + (k - closer.sum(axis=1)) * (at @ y) / at.sum(axis=1)) / k


@pytest.mark.parametrize(
    "k, single_class",
    [(k, False) for k in range(1, 8)] + [(3, True)],
    ids=[f"k{k}" for k in range(1, 8)] + ["k3-single-class"],
)
def test_knn_masked_proba_exact_under_ties(k, single_class):
    # binary features and triplicated training rows put many distances exactly at
    # the k-th value in both label halves, so vote slots are shared and ties run
    # past column k; integer sums are exact, so the reference is exact too
    rng = np.random.default_rng(k)
    train = np.repeat(rng.integers(0, 2, size=(8, 4)).astype(float), 3, axis=0)
    labels = np.ones(len(train), dtype=int) if single_class else rng.integers(0, 2, len(train))
    model = KnnModel(KnnConfig(k), train, labels, Scaler(np.zeros(4), np.ones(4)))
    x = rng.integers(0, 2, size=4).astype(float)
    bg = rng.integers(0, 2, size=(3, 4)).astype(float)
    for masks in (_bit_table(4), rng.random((40, 4)) < 0.5):
        hybrid = np.where(masks[:, None, :], x, bg[None, :, :]).reshape(-1, 4)
        expected = _reference_knn_proba(model, hybrid).reshape(len(masks), len(bg))
        np.testing.assert_array_equal(model.predict_proba(hybrid), expected.ravel())
        np.testing.assert_array_equal(model.masked_proba(x, bg, masks), expected)


def _reference_vote(D2, n0, k):
    """The vote of `_vote` by its definition, over whole unsorted rows."""
    y = (np.arange(D2.shape[1]) >= n0).astype(float)
    D = np.sqrt(D2)
    kth = np.sort(D, axis=1)[:, k - 1, None]
    closer, at = D < kth, D == kth
    return (closer @ y + (k - closer.sum(axis=1)) * (at @ y) / at.sum(axis=1)) / k


@pytest.mark.parametrize("n0", [2, 9, 20], ids=["short-label-0-half", "balanced", "long"])
@pytest.mark.parametrize("k", range(1, 8))
def test_knn_vote_matches_whole_row_reference(k, n0):
    # squared distances from a handful of integers tie at column k in most rows,
    # and many of those ties run past it, in one half or both
    rng = np.random.default_rng(100 * k + n0)
    D2 = rng.integers(0, 4, size=(400, 24)).astype(float)
    D2[:50, :] = D2[:50, :1]  # whole rows of one value
    expected = _reference_vote(D2, n0, k)
    np.testing.assert_array_equal(knn_module._vote(D2.copy(), n0, k), expected)


def _hybrid_table(model):
    """The model's probabilities of the hybrid rows, as a (masks, background rows) table."""

    def table(x, bg, masks):
        hybrid = np.where(masks[:, None, :], x, bg[None, :, :])
        return model.predict_proba(hybrid.reshape(-1, len(x))).reshape(len(masks), len(bg))

    return table


def _knn_masked_cases(parts):
    train = parts.train.features()
    return train[5], train[20:23]


def test_knn_mask_plan_with_small_blocks(all_models, parts, monkeypatch):
    # blocks of 11 masks: an odd number of blocks over the full table, levels that
    # are partial at block edges and full inside them
    model = all_models["knn"]
    x, bg = _knn_masked_cases(parts)
    hybrid = _hybrid_table(model)
    monkeypatch.setattr(knn_module, "_MASK_BLOCK", 11 * bg.shape[0] * len(parts.train))
    table = _bit_table(12)
    rng = np.random.default_rng(5)
    shuffled = table[rng.integers(0, len(table), size=3000)]  # shuffled, with duplicates
    sampled = np.vstack([table[0], shapley._sample_coalitions(12, 200, 3)[0], table[-1]])
    for masks in (table, shuffled, sampled):
        plan = knn_module._mask_plan(masks.tobytes(), masks.shape, 11)
        assert len(plan) == -(-len(masks) // 11)
        levels = [level for _, block, _ in plan for level in block]
        assert any(type(level) is int for level in levels)
        assert any(type(level) is tuple for level in levels)
        np.testing.assert_array_equal(model.masked_proba(x, bg, masks), hybrid(x, bg, masks))
    assert len(knn_module._mask_plan(table.tobytes(), table.shape, 11)) % 2 == 1


def test_knn_mask_plan_reused_and_keyed_by_content(all_models, parts):
    model = all_models["knn"]
    x, bg = _knn_masked_cases(parts)
    hybrid = _hybrid_table(model)
    table = _bit_table(12)
    first = model.masked_proba(x, bg, table)
    hits = knn_module._mask_plan.cache_info().hits
    np.testing.assert_array_equal(model.masked_proba(x, bg, table), first)
    assert knn_module._mask_plan.cache_info().hits == hits + 1
    np.testing.assert_array_equal(first, hybrid(x, bg, table))
    # one row changed: a table of the same shape must not reuse the cached plan
    edited = table.copy()
    edited[7] = ~edited[7]
    np.testing.assert_array_equal(model.masked_proba(x, bg, edited), hybrid(x, bg, edited))


def test_knn_empty_mask_table(all_models, parts):
    x, bg = _knn_masked_cases(parts)
    got = all_models["knn"].masked_proba(x, bg, np.zeros((0, 12), dtype=bool))
    assert got.shape == (0, len(bg))


def test_knn_worker_count():
    block = knn_module._MASK_BLOCK
    for cells in (1, 3 * 84, 84 * 84, block // 3, block, 5 * block):
        serial = max(1, block // cells)  # masks in one serial block
        for cpus in (1, 2, 3, 8, 64):
            # a call within one serial block stays serial
            assert knn_module._worker_count(0, cells, cpus) == 1
            assert knn_module._worker_count(serial, cells, cpus) == 1
            for n_masks in (serial + 1, 2 * serial, 4096, 10**6):
                n = knn_module._worker_count(n_masks, cells, cpus)
                assert 1 <= n <= min(cpus, 2)
                assert n <= -(-n_masks // serial)  # no more than the serial blocks
                assert block // (n * cells) >= 1 or n == 1  # no empty thread block
                if serial >= 2 and n_masks >= 2 * serial:
                    assert n == min(cpus, 2)
    assert knn_module._available_cpus() >= 1


@pytest.mark.parametrize(
    "cpu_max, quota_cpus",
    [
        ("100000 100000\n", 1),
        ("250000 100000\n", 2),
        ("50000 100000\n", 1),
        ("max 100000\n", None),
        (None, None),
        ("", None),
        ("banana\n", None),
        ("100000 0\n", None),
        ("100000 100000 5\n", None),
    ],
    ids=["one-cpu", "two-and-a-half", "half-a-cpu", "max", "missing", "empty", "garbage",
         "zero-period", "three-fields"],
)
def test_knn_cpus_capped_by_cgroup_quota(monkeypatch, cpu_max, quota_cpus):
    # a quota's whole CPUs cap the affinity count; no readable quota leaves it,
    # and the quota file is read once however often the count is asked
    reads = []

    def read():
        reads.append(cpu_max)
        if cpu_max is None:
            raise FileNotFoundError("cpu.max")
        return cpu_max

    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    monkeypatch.setattr(knn_module, "_read_cpu_max", read)
    knn_module._quota_cpus.cache_clear()
    try:
        assert knn_module._quota_cpus() == quota_cpus
        for _ in range(3):
            assert knn_module._available_cpus() == (
                cpus if quota_cpus is None else min(cpus, quota_cpus)
            )
        assert len(reads) == 1
    finally:
        knn_module._quota_cpus.cache_clear()


def _knn_tables():
    table = _bit_table(12)
    rng = np.random.default_rng(5)
    shuffled = table[rng.integers(0, len(table), size=3000)]  # shuffled, with duplicates
    sampled = np.vstack([table[0], shapley._sample_coalitions(12, 200, 3)[0], table[-1]])
    return {"exhaustive": table, "shuffled": shuffled, "sampled": sampled}


@pytest.mark.parametrize("small_blocks", [False, True], ids=["mask-block", "small-blocks"])
def test_knn_masked_proba_same_for_any_thread_count(all_models, parts, monkeypatch,
                                                    small_blocks):
    model = all_models["knn"]
    x, bg = _knn_masked_cases(parts)
    cells = len(bg) * len(parts.train)
    monkeypatch.setattr(knn_module, "_available_cpus", lambda: 1)
    serial = {name: model.masked_proba(x, bg, masks) for name, masks in _knn_tables().items()}
    if small_blocks:
        # 12 masks a serial block; two threads walk blocks of 6 masks, 683 of
        # the full table, so one thread takes a block more than the other
        monkeypatch.setattr(knn_module, "_MASK_BLOCK", 12 * cells)
    for cpus in (1, 2, 3):
        monkeypatch.setattr(knn_module, "_available_cpus", lambda: cpus)
        for name, masks in _knn_tables().items():
            if cpus > 1 and name != "sampled":
                assert knn_module._worker_count(len(masks), cells, cpus) == 2
            got = model.masked_proba(x, bg, masks)
            np.testing.assert_array_equal(got, serial[name], err_msg=f"{cpus} CPUs, {name}")
    if small_blocks:
        # the walk holds for more threads than the cap allows: three threads on
        # blocks of 4 masks, 1024 of the full table
        monkeypatch.setattr(knn_module, "_MAX_THREADS", 3)
        for name, masks in _knn_tables().items():
            assert knn_module._worker_count(len(masks), cells, 3) == 3
            got = model.masked_proba(x, bg, masks)
            np.testing.assert_array_equal(got, serial[name], err_msg=f"3 threads, {name}")


@pytest.mark.parametrize("k", [1, 3, 4, 7])
def test_knn_masked_proba_exact_under_ties_on_threads(k, monkeypatch):
    # the binary, triplicated training rows of the tie test, grown until a call
    # fills several serial blocks
    rng = np.random.default_rng(k)
    train = np.repeat(rng.integers(0, 2, size=(64, 6)).astype(float), 3, axis=0)
    labels = rng.integers(0, 2, len(train))
    model = KnnModel(KnnConfig(k), train, labels, Scaler(np.zeros(6), np.ones(6)))
    x = rng.integers(0, 2, size=6).astype(float)
    bg = rng.integers(0, 2, size=(30, 6)).astype(float)
    masks = np.vstack([_bit_table(6), rng.random((400, 6)) < 0.5])
    assert knn_module._worker_count(len(masks), len(bg) * len(train), 2) == 2
    hybrid = np.where(masks[:, None, :], x, bg[None, :, :]).reshape(-1, 6)
    expected = _reference_knn_proba(model, hybrid).reshape(len(masks), len(bg))
    for cpus in (1, 2, 3):
        monkeypatch.setattr(knn_module, "_available_cpus", lambda: cpus)
        np.testing.assert_array_equal(model.masked_proba(x, bg, masks), expected)


def test_knn_masked_proba_concurrent_callers(knn, parts, monkeypatch):
    # two threads call one fresh model at once: they share its lazily built
    # training layout and the plan cache, and each call fans out in turn, so
    # four threads run on however many CPUs there are, switching often
    x = parts.train.features()[5]
    backgrounds = parts.train.features()[20:23], parts.train.features()[40:43]
    rng = np.random.default_rng(11)
    masks = _bit_table(12)[rng.permutation(4096)]  # a table no other test plans
    monkeypatch.setattr(knn_module, "_available_cpus", lambda: 1)
    expected = [knn.masked_proba(x, bg, masks) for bg in backgrounds]
    monkeypatch.setattr(knn_module, "_available_cpus", lambda: 2)
    model = KnnModel(knn.config, knn.train_scaled, knn.train_labels, knn.scaler)
    start = threading.Barrier(2)
    got = [None, None]

    def call(i):
        start.wait(timeout=60)
        got[i] = model.masked_proba(x, backgrounds[i], masks)

    before = knn_module._mask_plan.cache_info()
    threads = [threading.Thread(target=call, args=(i,)) for i in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    after = knn_module._mask_plan.cache_info()
    assert after.hits + after.misses == before.hits + before.misses + 2
    np.testing.assert_array_equal(got[0], expected[0])
    np.testing.assert_array_equal(got[1], expected[1])


@pytest.mark.parametrize(
    "train",
    [
        # in feature order 1e16 + 1 + 1 rounds to 1e16, a tie; summed the other
        # way round the first row would be farther
        [[1e8, 1.0, 1.0], [1e8, 0.0, 0.0]],
        # squared distances 1 and 1 + 2^-52 differ, but both distances round to 1.0
        [[1.0, 0.0, 0.0], [1.0, 2.0**-26, 0.0]],
    ],
    ids=["summation-order", "square-root-ties"],
)
def test_knn_rounds_like_cdist(train):
    # a distance is sqrt of the squared differences summed in feature order, as in
    # scipy's cdist; here that makes the two training rows tie for the one vote
    identity = Scaler(np.zeros(3), np.ones(3))
    model = KnnModel(KnnConfig(1), np.array(train), np.array([1, 0]), identity)
    x = np.zeros(3)
    assert model.predict_proba(x) == 0.5
    np.testing.assert_array_equal(model.masked_proba(x, x[None, :], _bit_table(3)), 0.5)


class _Rescaled:
    """Overrides predict_proba and forwards every other attribute to the model."""

    def __init__(self, model):
        self._model = model

    def predict_proba(self, X):
        return 0.9 * self._model.predict_proba(X) + 0.05

    def __getattr__(self, name):
        return getattr(self._model, name)


def _rescaled_subclass(model):
    cls = type(model)
    rescaled = lambda self, X: 0.9 * cls.predict_proba(self, X) + 0.05
    sub = type("Rescaled" + cls.__name__, (cls,), {"predict_proba": rescaled})
    return sub(**{f: getattr(model, f) for f in model.__dataclass_fields__})


@pytest.mark.parametrize("wrap", [_Rescaled, _rescaled_subclass], ids=["forwarding", "subclass"])
@pytest.mark.parametrize("kind", ["logistic", "tree", "knn"])
def test_wrappers_explained_by_their_predict_proba(all_models, parts, kind, wrap):
    # a wrapper reaches the model's masked_proba through forwarding, and a
    # subclass inherits it, but neither describes what they predict
    model = all_models[kind]
    x = parts.test.features()[3]
    config = ShapConfig(background=parts.train.features())
    wrapped = kernel_shap(wrap(model), x, config).phi
    bare = kernel_shap(lambda X: 0.9 * model.predict_proba(X) + 0.05, x, config).phi
    np.testing.assert_array_equal(wrapped, bare)
    assert not np.allclose(wrapped, kernel_shap(model, x, config).phi, rtol=0, atol=1e-6)


def _sample_coalitions_oracle(m, budget, seed):
    """The sampler as it was before the size CDF: one `Generator.choice` per size."""
    rng = np.random.default_rng(seed)
    sizes = np.arange(1, m)
    mass = (m - 1) / (sizes * (m - sizes))
    probs = mass / mass.sum()
    counts = {}
    drawn = 0
    while drawn < budget:
        s = int(rng.choice(sizes, p=probs))
        members = rng.choice(m, size=s, replace=False)
        mask = np.zeros(m, dtype=bool)
        mask[members] = True
        for candidate in (mask, ~mask):
            if drawn >= budget:
                break
            key = candidate.tobytes()
            if key in counts:
                counts[key] += 1
            else:
                counts[key] = 1
            drawn += 1
    masks = np.frombuffer(b"".join(counts.keys()), dtype=bool).reshape(len(counts), m)
    return masks.copy(), np.array(list(counts.values()), dtype=float)


@pytest.mark.parametrize("m", [2, 3, 5, 12, 20, 70])
def test_sampled_coalitions_equal_the_choice_sampler(m):
    # same stream, same masks in the same order, same counts; 70 features
    # need bit codes wider than one machine word
    for budget in (2 * m + 2, 200, 512, 4094):
        for seed in range(20):
            masks, counts = shapley._sample_coalitions(m, budget, seed)
            want_masks, want_counts = _sample_coalitions_oracle(m, budget, seed)
            assert masks.dtype == bool
            np.testing.assert_array_equal(masks, want_masks, err_msg=f"{m} {budget} {seed}")
            np.testing.assert_array_equal(counts, want_counts, err_msg=f"{m} {budget} {seed}")


@pytest.mark.parametrize("m", [2, 3, 12, 70])
def test_size_draw_equals_generator_choice(m):
    # pins the CDF lookup to numpy's own: a numpy whose choice changes fails here
    sizes, cdf = shapley._size_cdf(m)
    mass = (m - 1) / (np.arange(1, m) * (m - np.arange(1, m)))
    probs = mass / mass.sum()
    ours, theirs = np.random.default_rng(m), np.random.default_rng(m)
    drawn = [sizes[cdf.searchsorted(ours.random(), side="right")] for _ in range(1500)]
    chosen = [int(theirs.choice(np.arange(1, m), p=probs)) for _ in range(1500)]
    assert drawn == chosen
    assert ours.random() == theirs.random()


@pytest.mark.parametrize("m, seed", [(1000, 4), (2000, 4)])
def test_sampled_coalitions_equal_the_choice_sampler_through_rejections(m, seed, monkeypatch):
    # the smallest budget at widths where Lemire's bounded draw rejects a word:
    # at M = 1,000 seeds 4, 26, 29 and 34 of 0-39 reject one word, and at
    # M = 2,000 seed 4 rejects two, so the draws after them shift by a half word
    found, first_rejected = [], shapley._first_rejected

    def spy(*args):
        found.append(first_rejected(*args))
        return found[-1]

    monkeypatch.setattr(shapley, "_first_rejected", spy)
    masks, counts = shapley._sample_coalitions(m, 2 * m + 2, seed)
    assert any(index is not None for index in found)
    want_masks, want_counts = _sample_coalitions_oracle(m, 2 * m + 2, seed)
    np.testing.assert_array_equal(masks, want_masks)
    np.testing.assert_array_equal(counts, want_counts)


def test_bounded_draw_rejects_exactly_the_biased_words():
    # u draws (u * (b + 1)) >> 32 from [0, b] unless the low half of the product
    # is below (2^32 - 1 - b) mod (b + 1); for b = 11 that is 4, so of the words
    # below, 0 and 2^30 (low half 0) are rejected and 715827883 (low half 4) is not
    assert (2**32 - 12) % 12 == 4
    reads = np.array([715827883, 2**30, 0], dtype=np.uint64)
    bound = np.full(3, 11, dtype=np.uint64)
    product = reads * (bound + 1)
    assert int(product[0]) & 0xFFFFFFFF == 4 and int(product[0]) >> 32 == 2
    assert shapley._first_rejected(product, bound) == 1
    assert shapley._first_rejected(product[[0, 2]], bound[:2]) == 1
    assert shapley._first_rejected(product[:1], bound[:1]) is None
    # for b = 1 the threshold is 0: no word is rejected, word 0 draws 0
    one = np.ones(3, dtype=np.uint64)
    assert shapley._first_rejected(np.zeros(3, dtype=np.uint64), one) is None


def test_sampler_memory_does_not_grow_with_the_budget():
    # draws are made a chunk of generator words at a time; all at once, these
    # 25,000 draws would hold about 21 MB of intermediate arrays
    shapley._sample_coalitions(12, 1000, 0)
    tracemalloc.start()
    try:
        masks, counts = shapley._sample_coalitions(12, 50_000, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert counts.sum() == 50_000 and len(masks) <= 4094
    assert peak < 5 << 20


def test_sampled_coalitions_pinned():
    # the masks and counts of a fixed grid, recorded from the `Generator.choice`
    # sampler; they depend only on PCG64's raw output, which numpy keeps fixed
    digest = hashlib.sha256()
    for m in (2, 3, 12, 20, 70):
        for budget in (2 * m + 2, 200, 513):
            for seed in range(5):
                masks, counts = shapley._sample_coalitions(m, budget, seed)
                digest.update(np.array(masks.shape, dtype="<i8").tobytes())
                digest.update(masks.tobytes())
                digest.update(counts.astype("<f8").tobytes())
    assert digest.hexdigest() == "3447e2136d49e409652a27d04213aac745b57658e72011afc564108a584ad705"


class _Forwarding:
    """A wrapper object whose predict_proba is the given function."""

    def __init__(self, predict):
        self.predict_proba = predict


def _nan_on_last_row(X):
    out = np.full(len(X), 0.5)
    out[-1] = np.nan
    return out


@pytest.mark.parametrize(
    "entry",
    [
        lambda f, x, bg: kernel_shap(f, x, ShapConfig(background=bg)),
        lambda f, x, bg: kernel_shap(f, x, ShapConfig(background=bg, n_coalition_samples=200)),
        lambda f, x, bg: global_importance(f, [x, x], ShapConfig(background=bg)),
        lambda f, x, bg: exact_shapley(f, x, bg),
        lambda f, x, bg: coalition_value(f, x, [0, 4], bg),
        lambda f, x, bg: explain_local(f, x, bg, LimeConfig()),
    ],
    ids=["kernel_shap", "kernel_shap-sampled", "global_importance", "exact_shapley",
         "coalition_value", "explain_local"],
)
@pytest.mark.parametrize(
    "output, named",
    [
        (_nan_on_last_row, r"model output for row \d+ is nan; it must be finite"),
        (lambda X: np.full(len(X) - 1, 0.5), r"model returned shape \(\d+,\) for \d+ rows"),
        (lambda X: np.full((len(X), 1), 0.5), r"model returned shape \(\d+, 1\) for \d+ rows"),
    ],
    ids=["nan", "short", "2-D"],
)
@pytest.mark.parametrize("wrap", [lambda f: f, _Forwarding], ids=["callable", "forwarding"])
def test_model_output_checked(parts, entry, output, named, wrap):
    # NaN used to flow into NaN phi, weights and local_fidelity without an error,
    # and a wrong shape into a raw reshape ValueError or TypeError
    x = parts.test.features()[0]
    background = parts.train.features()[:8]
    with pytest.raises(DatasetError, match=named):
        entry(wrap(output), x, background)


@pytest.mark.parametrize(
    "entry",
    [
        lambda f, x, bg: kernel_shap(f, x, ShapConfig(background=bg)),
        lambda f, x, bg: kernel_shap(f, x, ShapConfig(background=bg, n_coalition_samples=10)),
        lambda f, x, bg: global_importance(f, [x, x], ShapConfig(background=bg)),
        lambda f, x, bg: exact_shapley(f, x, bg),
    ],
    ids=["kernel_shap", "kernel_shap-sampled", "global_importance", "exact_shapley"],
)
def test_zero_feature_instance_rejected(entry):
    # it raised a raw "cannot reshape array of size 0"
    with pytest.raises(DatasetError, match="the instance has 0 features"):
        entry(lambda X: np.zeros(len(X)), np.empty(0), np.empty((3, 0)))


@pytest.mark.parametrize("kind", ["logistic", "tree"])
def test_global_importance_rejects_a_3d_X(all_models, parts, kind):
    # it blamed the background: "background has 3 features but the instance has 2"
    X = parts.test.features()[:4].reshape(2, 2, 12)
    config = ShapConfig(background=parts.train.features())
    with pytest.raises(DatasetError, match="X must be a matrix of instances, got 3 dimensions"):
        global_importance(all_models[kind], X, config)


@pytest.mark.parametrize("m", range(1, 13))
def test_exhaustive_projection_is_the_weighted_least_squares_solve(m):
    # the closed-form Shapley table against the pseudo-inverse of the
    # kernel-weighted design it replaced
    table = _bit_table(m)
    sizes = table[1:-1].sum(axis=1)
    by_size = [0.0] + [(m - 1) / (math.comb(m, s) * s * (m - s)) for s in range(1, m)]
    design, scale = shapley._scaled_design(table, np.array(by_size)[sizes])
    oracle = np.linalg.pinv(design) * scale
    projection = shapley._exhaustive_projection(m)
    assert projection.shape == oracle.shape == (m - 1, (1 << m) - 2)
    np.testing.assert_allclose(projection, oracle, rtol=0, atol=1e-15)


def _no_linear_algebra(*args, **kwargs):
    raise AssertionError("exhaustive Kernel SHAP called a numpy.linalg solver")


@pytest.mark.parametrize("m", [1, 2, 12])
def test_exhaustive_mode_calls_no_solver(m, monkeypatch):
    rng = np.random.default_rng(m)
    X, background = rng.normal(size=(3, m)), rng.normal(size=(6, m))
    w = rng.normal(size=m)

    def model(X):
        z = np.atleast_2d(X) @ w
        return np.tanh(z) + 0.1 * z**2

    exact = [exact_shapley(model, x, background).phi for x in X]
    shapley._exhaustive_projection.cache_clear()
    for name in ("pinv", "svd", "qr", "lstsq"):
        monkeypatch.setattr(np.linalg, name, _no_linear_algebra)
    config = ShapConfig(background=background)
    for x, phi in zip(X, exact):
        np.testing.assert_allclose(kernel_shap(model, x, config).phi, phi, rtol=0, atol=1e-12)
    importance = global_importance(model, X, config)
    np.testing.assert_allclose(importance.importances, np.abs(exact).mean(axis=0), rtol=0,
                               atol=1e-12)
