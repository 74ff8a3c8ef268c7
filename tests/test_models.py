"""Unit behavior of the four classifiers and the model JSON round-trip."""

import re
import tracemalloc
import warnings

import numpy as np
import pytest

from floodxai import (
    ConfigError,
    DatasetError,
    KnnConfig,
    KnnModel,
    LogisticConfig,
    LogisticModel,
    MODEL_KINDS,
    SvmConfig,
    SvmModel,
    TreeConfig,
    TreeModel,
    TreeNode,
    entropy,
    euclidean_distance,
    fit_scaler,
    hinge_objective,
    load_model,
    loss_and_gradient,
    save_model,
    train_knn,
    train_logistic,
    train_model,
    train_svm,
    train_tree,
)
from floodxai.explain.shapley import _bit_table, _sample_coalitions
from floodxai.models import KINDS, ProbabilityClassifier, model_from_dict, model_to_dict
from floodxai.models import tree as tree_module
from floodxai.models.base import _HISTORY_BLOCK, _fold_to_raw, sigmoid

RNG = np.random.default_rng(7)


class TestEntropy:
    def test_pure_set_is_zero(self):
        assert entropy([1, 1, 1, 1]) == 0.0
        assert entropy([0]) == 0.0

    def test_balanced_binary_is_one_bit(self):
        assert entropy([0, 1, 0, 1]) == pytest.approx(1.0, abs=1e-12)

    def test_quarter_three_quarter_mix(self):
        # -(1/4)log2(1/4) - (3/4)log2(3/4) = 0.5 + 0.3112781... = 0.8112781...
        assert entropy([1, 0, 0, 0]) == pytest.approx(0.8112781244591328, abs=1e-4)

    def test_four_distinct_values_two_bits(self):
        assert entropy(["a", "b", "c", "d"]) == pytest.approx(2.0, abs=1e-12)

    def test_empty_multiset_rejected(self):
        with pytest.raises(DatasetError):
            entropy([])


class TestSigmoid:
    def test_saturates_exactly_without_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            saturated = sigmoid(np.array([-1000.0, 0.0, 1000.0]))
        np.testing.assert_array_equal(saturated, [0.0, 0.5, 1.0])

    def test_nan_passes_through(self):
        assert np.isnan(sigmoid(np.array([np.nan]))).all()

    def test_within_4_ulp_of_scipy_expit(self):
        expit = pytest.importorskip("scipy.special").expit
        z = np.concatenate([np.linspace(-750.0, 750.0, 300_001), np.linspace(-40, 40, 200_001)])
        reference = expit(z)
        assert np.all(np.abs(sigmoid(z) - reference) <= 4 * np.spacing(reference))


class TestLogistic:
    def test_gradient_matches_central_differences(self):
        X = RNG.normal(size=(12, 4))
        y = RNG.integers(0, 2, size=12).astype(float)
        w = RNG.normal(size=4)
        b = 0.3
        l2 = 0.05
        _, grad_w, grad_b = loss_and_gradient(w, b, X, y, l2)

        h = 1e-6
        numeric_w = np.empty(4)
        for j in range(4):
            e = np.zeros(4)
            e[j] = h
            up, _, _ = loss_and_gradient(w + e, b, X, y, l2)
            down, _, _ = loss_and_gradient(w - e, b, X, y, l2)
            numeric_w[j] = (up - down) / (2 * h)
        up, _, _ = loss_and_gradient(w, b + h, X, y, l2)
        down, _, _ = loss_and_gradient(w, b - h, X, y, l2)
        numeric_b = (up - down) / (2 * h)

        np.testing.assert_allclose(grad_w, numeric_w, rtol=1e-5, atol=1e-8)
        assert grad_b == pytest.approx(numeric_b, rel=1e-5, abs=1e-8)

    def test_penalty_excludes_intercept(self):
        X = np.zeros((3, 2))
        y = np.array([0.0, 1.0, 1.0])
        small, _, _ = loss_and_gradient(np.zeros(2), 5.0, X, y, l2=10.0)
        large, _, _ = loss_and_gradient(np.ones(2), 5.0, X, y, l2=10.0)
        assert large > small  # only the weights feel the l2 term here

    def test_separates_easy_data(self, make_dataset):
        X = np.concatenate([RNG.normal(-3, 0.5, size=(20, 2)), RNG.normal(3, 0.5, size=(20, 2))])
        y = np.array([0] * 20 + [1] * 20)
        model = train_logistic(make_dataset(X, y), LogisticConfig(epochs=800))
        assert np.array_equal(model.predict(X), y)

    def test_loss_history_non_increasing(self, logistic):
        diffs = np.diff(logistic.loss_history)
        assert np.all(diffs <= 1e-12)

    def test_predictions_invariant_to_feature_rescaling(self, make_dataset):
        X = RNG.normal(size=(30, 3))
        y = (X[:, 0] + X[:, 1] > 0).astype(int)
        scale = np.array([1000.0, 0.01, 1.0])
        config = LogisticConfig(epochs=300)
        base = train_logistic(make_dataset(X, y), config)
        scaled = train_logistic(make_dataset(X * scale, y), config)
        np.testing.assert_allclose(
            base.predict_proba(X), scaled.predict_proba(X * scale), atol=1e-10
        )

    def test_single_class_training_rejected(self, make_dataset):
        with pytest.raises(ConfigError):
            train_logistic(make_dataset(RNG.normal(size=(5, 2)), [1] * 5))

    @pytest.mark.parametrize(
        "config",
        [
            LogisticConfig(learning_rate=0.0),
            LogisticConfig(epochs=0),
            LogisticConfig(l2=-1.0),
            LogisticConfig(learning_rate=float("nan")),
            LogisticConfig(learning_rate=float("inf")),
            LogisticConfig(l2=float("nan")),
            LogisticConfig(l2=float("inf")),
            LogisticConfig(epochs=10.5),
            LogisticConfig(epochs=True),
        ],
    )
    def test_config_validation(self, config):
        with pytest.raises(ConfigError):
            config.validate()


class TestKnn:
    def test_euclidean_distance_known_triangle(self):
        assert euclidean_distance([0.0, 0.0], [3.0, 4.0]) == 5.0

    def test_euclidean_distance_shape_mismatch(self):
        with pytest.raises(DatasetError):
            euclidean_distance([1.0], [1.0, 2.0])

    def test_vote_fraction_simple_line(self, make_dataset):
        # query 1.6 on the line 0..4: nearest three are x=2, x=1, x=3
        # with labels 1, 0, 1, so the flood vote is 2/3.
        model = train_knn(make_dataset([[0], [1], [2], [3], [4]], [0, 0, 1, 1, 1]), k=3)
        assert model.predict_proba([1.6]) == pytest.approx(2 / 3, abs=1e-12)

    def test_training_order_does_not_matter(self, parts):
        ordered = train_knn(parts.train, k=5)
        perm = RNG.permutation(len(parts.train))
        shuffled_records = tuple(parts.train.records[i] for i in perm)
        shuffled = train_knn(
            type(parts.train)(records=shuffled_records, feature_names=parts.train.feature_names),
            k=5,
        )
        X = parts.test.features()
        np.testing.assert_allclose(ordered.predict_proba(X), shuffled.predict_proba(X), atol=1e-12)

    def test_distance_ties_share_the_vote(self, make_dataset):
        # query 0 sits exactly between a 0-labeled and a 1-labeled point, so
        # with k=1 both candidates share the single vote slot.
        model = train_knn(make_dataset([[-1], [1]], [0, 1]), k=1)
        assert model.predict_proba([0.0]) == pytest.approx(0.5, abs=1e-12)

    def test_even_vote_falls_to_nearest_neighbor(self, make_dataset):
        # k=2 over one near and one far point always splits 1-1; the class of
        # the nearer point decides, whichever class that is.
        near_flood = train_knn(make_dataset([[-1], [3]], [1, 0]), k=2)
        assert near_flood.predict_proba([0.0]) == pytest.approx(0.5)
        assert near_flood.predict([0.0]) == 1

        near_dry = train_knn(make_dataset([[-1], [3]], [0, 1]), k=2)
        assert near_dry.predict_proba([0.0]) == pytest.approx(0.5)
        assert near_dry.predict([0.0]) == 0

    def test_k_bounds_enforced(self, make_dataset):
        ds = make_dataset([[0], [1], [2]], [0, 1, 0])
        with pytest.raises(ConfigError):
            train_knn(ds, k=0)
        with pytest.raises(ConfigError):
            train_knn(ds, k=4)

    @pytest.mark.parametrize("config", [KnnConfig(k=0), KnnConfig(k=2.5), KnnConfig(k=True)])
    def test_config_validation(self, config):
        with pytest.raises(ConfigError):
            config.validate()

    def test_distances_equal_scipy_cdist(self, parts):
        # summed in feature order, then square-rooted: scipy's exact steps
        cdist = pytest.importorskip("scipy.spatial.distance").cdist
        model = train_knn(parts.train)
        X = np.vstack([parts.test.features(), RNG.normal(500.0, 300.0, size=(3000, 12))])
        order = np.argsort(model.train_labels, kind="stable")
        expected = cdist(model.scaler.transform(X), model.train_scaled[order])
        np.testing.assert_array_equal(np.sqrt(model._squared_distances(X)), expected)

    def test_k_equals_n_predicts_base_rate(self, make_dataset):
        ds = make_dataset([[0], [1], [2], [3]], [0, 1, 1, 1])
        model = train_knn(ds, k=4)
        np.testing.assert_allclose(model.predict_proba(ds.features()), 0.75, atol=1e-12)


class TestTree:
    def test_separable_toy_splits_at_midpoint(self, make_dataset):
        ds = make_dataset([[5], [5], [5], [15], [15], [15]], [0, 0, 0, 1, 1, 1])
        model = train_tree(ds)
        assert model.root.feature == 0
        assert model.root.threshold == pytest.approx(10.0, abs=1e-12)
        assert model.root.gain == pytest.approx(1.0, abs=1e-12)  # children are pure
        assert model.root.left.is_leaf and model.root.right.is_leaf
        assert np.array_equal(model.predict(ds.features()), ds.labels())

    def test_all_split_gains_non_negative(self, tree):
        gains = [node.gain for node in tree.internal_nodes()]
        assert gains and all(g >= -1e-12 for g in gains)

    def test_depth_zero_yields_single_leaf(self, make_dataset):
        ds = make_dataset(RNG.normal(size=(20, 3)), RNG.integers(0, 2, size=20))
        model = train_tree(ds, TreeConfig(max_depth=0))
        assert model.root.is_leaf
        expected = ds.labels().mean()
        np.testing.assert_allclose(model.predict_proba(ds.features()), expected, atol=1e-12)

    def test_max_depth_is_respected(self, make_dataset):
        ds = make_dataset(RNG.normal(size=(60, 4)), RNG.integers(0, 2, size=60))
        model = train_tree(ds, TreeConfig(max_depth=2, min_samples_leaf=1))

        def depth(node):
            if node.is_leaf:
                return 0
            return 1 + max(depth(node.left), depth(node.right))

        assert depth(model.root) <= 2

    def test_duplicate_feature_breaks_tie_to_lowest_index(self, make_dataset):
        X = np.array([[5.0, 5.0], [6.0, 6.0], [15.0, 15.0], [16.0, 16.0]])
        model = train_tree(make_dataset(X, [0, 0, 1, 1]), TreeConfig(min_samples_leaf=1))
        assert model.root.feature == 0

    def test_min_samples_leaf_blocks_splitting(self, make_dataset):
        ds = make_dataset([[5], [15], [5], [15]], [0, 1, 0, 1])
        model = train_tree(ds, TreeConfig(min_samples_leaf=4))
        assert model.root.is_leaf

    def test_leaf_probability_is_class_fraction(self, make_dataset):
        ds = make_dataset([[1], [2], [3], [4], [5]], [1, 0, 1, 1, 0])
        model = train_tree(ds, TreeConfig(max_depth=0))
        assert model.root.proba == pytest.approx(0.6)

    @pytest.mark.parametrize(
        "config",
        [
            TreeConfig(max_depth=-1),
            TreeConfig(min_samples_leaf=0),
            TreeConfig(max_depth=2.5),
            TreeConfig(min_samples_leaf=True),
        ],
    )
    def test_config_validation(self, config):
        with pytest.raises(ConfigError):
            config.validate()


class TestSvm:
    def test_hinge_objective_hand_value(self):
        # margins are 2 and 2, so no hinge; lambda = 1/(C*n) = 0.5 and the
        # penalty term is 0.5 * 0.5 * ||w||^2 = 0.25.
        value = hinge_objective(
            np.array([1.0]), 0.0, np.array([[2.0], [-2.0]]), np.array([1.0, -1.0]), C=1.0
        )
        assert value == pytest.approx(0.25, abs=1e-12)

    def test_separable_toy_has_zero_training_error(self, make_dataset):
        X = np.concatenate([RNG.normal(-2, 0.3, size=(15, 2)), RNG.normal(2, 0.3, size=(15, 2))])
        y = np.array([0] * 15 + [1] * 15)
        model = train_svm(make_dataset(X, y), SvmConfig(epochs=500))
        assert np.array_equal(model.predict(X), y)

    def test_symmetric_problem_keeps_zero_bias(self, make_dataset):
        model = train_svm(make_dataset([[-1.0], [1.0]], [0, 1]), SvmConfig(epochs=200))
        assert abs(model.bias) < 1e-12
        assert model.weights[0] > 0

    def test_objective_history_settles_downward(self, svm):
        history = svm.objective_history
        assert history[-1] < history[0]
        tail = history[len(history) // 4 :]
        assert np.all(np.diff(tail) <= 1e-9)

    def test_predictions_invariant_to_feature_rescaling(self, make_dataset):
        X = RNG.normal(size=(30, 3))
        y = (X[:, 0] - X[:, 2] > 0).astype(int)
        scale = np.array([500.0, 0.02, 4.0])
        config = SvmConfig(epochs=300)
        base = train_svm(make_dataset(X, y), config)
        scaled = train_svm(make_dataset(X * scale, y), config)
        np.testing.assert_allclose(
            base.decision_function(X), scaled.decision_function(X * scale), atol=1e-10
        )

    def test_proba_is_sigmoid_of_margin(self, svm, parts):
        X = parts.test.features()
        z = svm.decision_function(X)
        np.testing.assert_allclose(svm.predict_proba(X), 1.0 / (1.0 + np.exp(-z)), atol=1e-12)

    def test_single_class_training_rejected(self, make_dataset):
        with pytest.raises(ConfigError):
            train_svm(make_dataset(RNG.normal(size=(4, 2)), [0, 0, 0, 0]))

    @pytest.mark.parametrize(
        "config",
        [
            SvmConfig(C=0.0),
            SvmConfig(epochs=0),
            SvmConfig(learning_rate=-0.1),
            SvmConfig(C=float("nan")),
            SvmConfig(C=float("inf")),
            SvmConfig(learning_rate=float("nan")),
            SvmConfig(epochs=100.0),
        ],
    )
    def test_config_validation(self, config):
        with pytest.raises(ConfigError):
            config.validate()


def _reference_logistic(train, config):
    """The logistic training loop that calls `loss_and_gradient` every epoch."""
    scaler = fit_scaler(train)
    X, y = scaler.transform(train.features()), train.labels().astype(float)
    w, b = np.zeros(X.shape[1]), 0.0
    history = np.empty(config.epochs)
    for epoch in range(config.epochs):
        loss, grad_w, grad_b = loss_and_gradient(w, b, X, y, config.l2)
        history[epoch] = loss
        w = w - config.learning_rate * grad_w
        b = b - config.learning_rate * grad_b
    return (*_fold_to_raw(w, b, scaler), history)


def _reference_svm(train, config):
    """The SVM training loop that calls `hinge_objective` every epoch."""
    scaler = fit_scaler(train)
    X, y = scaler.transform(train.features()), np.where(train.labels() == 1, 1.0, -1.0)
    n, d = X.shape
    lam = 1.0 / (config.C * n)
    w, b = np.zeros(d), 0.0
    w_avg, b_avg = np.zeros(d), 0.0
    weight_sum = 0.0
    history = np.empty(config.epochs)
    for t in range(1, config.epochs + 1):
        margins = y * (X @ w + b)
        active = margins < 1.0
        grad_w = lam * w - (X.T @ (y * active)) / n
        grad_b = -float(np.sum(y * active)) / n
        eta = config.learning_rate / np.sqrt(t)
        w = w - eta * grad_w
        b = b - eta * grad_b
        weight_sum += t
        w_avg = w_avg + (t / weight_sum) * (w - w_avg)
        b_avg = b_avg + (t / weight_sum) * (b - b_avg)
        history[t - 1] = hinge_objective(w_avg, b_avg, X, y, config.C)
    return (*_fold_to_raw(w_avg, b_avg, scaler), history)


@pytest.fixture
def random_train(make_dataset):
    """A seeded 3-feature training set on unequal scales, with label noise."""
    rng = np.random.default_rng(2024)
    X = rng.normal(size=(57, 3)) * [120.0, 3.0, 0.4] + [800.0, 10.0, 0.0]
    y = (X[:, 0] - 800.0) / 120.0 + X[:, 2] / 0.4 + rng.normal(0.0, 0.7, size=57) > 0
    return make_dataset(X, y)


def _oracle_cases(config_class, variants):
    """(dataset, config) cases: the default config and the history block edges
    on the golden split, each variant there too, and the seeded random set."""
    B = _HISTORY_BLOCK
    configs = [config_class(), *(config_class(epochs=e) for e in (1, B - 1, B, B + 1, 2 * B + 3))]
    configs += [config_class(**v) for v in variants]
    cases = [pytest.param("golden", c, id=f"golden-{_config_id(c)}") for c in configs]
    return cases + [
        pytest.param("random", c, id=f"random-{_config_id(c)}")
        for c in (config_class(), config_class(epochs=2 * B + 3))
    ]


def _config_id(config):
    default = type(config)()
    changed = [f"{k}={v}" for k, v in vars(config).items() if getattr(default, k) != v]
    return ",".join(changed) or "default"


@pytest.mark.parametrize(
    "data, config", _oracle_cases(LogisticConfig, [{"l2": 0.0}, {"learning_rate": 0.05}])
)
def test_logistic_is_bit_identical_to_the_reference_loop(parts, random_train, data, config):
    train = parts.train if data == "golden" else random_train
    weights, intercept, history = _reference_logistic(train, config)
    model = train_logistic(train, config)
    assert np.array_equal(model.weights, weights)
    assert model.intercept == intercept
    assert np.array_equal(model.loss_history, history)


@pytest.mark.parametrize(
    "data, config", _oracle_cases(SvmConfig, [{"C": 2.0}, {"learning_rate": 0.1}])
)
def test_svm_is_bit_identical_to_the_reference_loop(parts, random_train, data, config):
    train = parts.train if data == "golden" else random_train
    weights, bias, history = _reference_svm(train, config)
    model = train_svm(train, config)
    assert np.array_equal(model.weights, weights)
    assert model.bias == bias
    assert np.array_equal(model.objective_history, history)


@pytest.mark.parametrize(
    "trainer, config_class", [(train_logistic, LogisticConfig), (train_svm, SvmConfig)]
)
def test_training_memory_does_not_grow_with_epochs(parts, trainer, config_class):
    # numpy reports its buffers to tracemalloc; only the history may grow
    def traced_peak(epochs):
        tracemalloc.start()
        try:
            trainer(parts.train, config_class(epochs=epochs))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    trainer(parts.train, config_class(epochs=10))
    short, long = traced_peak(500), traced_peak(2000)
    assert long - short <= 8 * (2000 - 500) + 64 * 1024, (short, long)


class TestModelIo:
    def test_round_trip_preserves_predictions(self, all_models, parts, tmp_path):
        X = parts.test.features()
        for kind, model in all_models.items():
            path = tmp_path / f"{kind}.json"
            save_model(model, path, metadata={"note": kind})
            reloaded = load_model(path)
            np.testing.assert_array_equal(
                np.asarray(model.predict_proba(X)), np.asarray(reloaded.predict_proba(X))
            )
            assert type(reloaded) is type(model)

    def test_payload_declares_kind_and_version(self, logistic):
        payload = model_to_dict(logistic)
        assert payload["kind"] == "logistic"
        assert payload["format_version"] == 1
        assert payload["schema"] == "floodxai.model"

    def test_unknown_format_version_rejected(self, logistic):
        payload = model_to_dict(logistic)
        payload["format_version"] = 99
        with pytest.raises(ConfigError, match="format_version"):
            model_from_dict(payload)

    def test_unknown_kind_rejected(self, logistic):
        payload = model_to_dict(logistic)
        payload["kind"] = "forest"
        with pytest.raises(ConfigError, match="kind"):
            model_from_dict(payload)

    def test_hyperparameters_survive_round_trip(self, parts, tmp_path):
        for kind, config in [
            ("logistic", LogisticConfig(learning_rate=0.05, epochs=200, l2=1e-3)),
            ("knn", KnnConfig(k=3)),
            ("tree", TreeConfig(max_depth=3, min_samples_leaf=5)),
            ("svm", SvmConfig(C=2.0, epochs=100, learning_rate=0.25)),
        ]:
            path = tmp_path / f"{kind}.json"
            save_model(train_model(kind, parts.train, config), path)
            assert load_model(path).config == config

    def test_model_kinds_match_schema(self, load_schema):
        assert list(MODEL_KINDS) == load_schema("model")["properties"]["kind"]["enum"]

    def test_train_model_dispatch(self, parts):
        for kind, klass in [
            ("logistic", LogisticModel),
            ("knn", KnnModel),
            ("tree", TreeModel),
            ("svm", SvmModel),
        ]:
            assert isinstance(train_model(kind, parts.train), klass)
        with pytest.raises(ConfigError):
            train_model("forest", parts.train)


@pytest.mark.parametrize(
    "call",
    [
        lambda model, X, bg: model.predict_proba(X),
        lambda model, X, bg: model.predict(X),
        lambda model, X, bg: model.masked_proba(X[2], bg, np.eye(12, dtype=bool)),
        lambda model, X, bg: model.masked_proba(bg[0], X, np.eye(12, dtype=bool)),
    ],
    ids=["predict_proba", "predict", "masked_proba-instance", "masked_proba-background"],
)
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_non_finite_model_inputs_rejected(all_models, parts, kind, bad, call):
    # used to return NaN (logistic, svm, knn with a RuntimeWarning), 0.0 (tree)
    # or an arbitrary vote (knn: 0.488 with one inf cell)
    X = parts.test.features()[:4].copy()
    X[2, 5] = bad
    bg = parts.train.features()[:3]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # row 0 for the instance, a single vector; row 2 of a matrix
        with pytest.raises(DatasetError, match=f"model input row [02] feature 5 is {bad}"):
            call(all_models[kind], X, bg)
    with pytest.raises(DatasetError, match=f"row 0 feature 5 is {bad}"):
        all_models[kind].predict_proba(X[2])


@pytest.mark.parametrize(
    "shape",
    [(11,), (4, 11), (4, 13), (2, 4, 12), ()],
    ids=["1d-11", "11-wide", "13-wide", "3d", "0d"],
)
@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_masked_proba_rejects_a_mask_table_of_the_wrong_shape(all_models, parts, kind, shape):
    # used to return zeros (knn), broadcast (linear) or raise a bare ValueError
    # from matmul (linear) or IndexError (tree, knn)
    x = parts.test.features()[0]
    bg = parts.train.features()[:3]
    masks = np.ones(shape, dtype=bool)
    match = rf"over 12 features, got shape {re.escape(str(shape))}"
    with pytest.raises(DatasetError, match=match):
        all_models[kind].masked_proba(x, bg, masks)


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_masked_proba_reads_a_1d_mask_as_one_row(all_models, parts, kind):
    model = all_models[kind]
    x = parts.test.features()[0]
    bg = parts.train.features()[:3]
    for mask in (np.zeros(12, dtype=bool), np.arange(12) % 3 == 0, np.ones(12, dtype=bool)):
        got = model.masked_proba(x, bg, mask)
        assert got.shape == (1, 3)
        np.testing.assert_array_equal(got, model.masked_proba(x, bg, mask[None, :]))


def _with_cell(A, value):
    """A copy of the matrix A with cell (1, 5) set to value (a string makes it non-numeric)."""
    A = np.array(A, dtype=object if isinstance(value, str) else float)
    A[1, 5] = value
    return A


MASKS = _bit_table(12)[::64]
# name -> (the input built from a 4-row matrix X, expected shape or DatasetError);
# for predict_proba, predict and decision_function
ROW_INPUTS = {
    "2-rows": (lambda X: X[:2], (2,)),
    "0-rows": (lambda X: X[:0], (0,)),
    "1-d-row": (lambda X: X[1], ()),
    "0-d": (lambda X: X[0, 0], DatasetError),
    "3-d": (lambda X: X[None], DatasetError),
    "nan-cell": (lambda X: _with_cell(X, np.nan), DatasetError),
    "inf-cell": (lambda X: _with_cell(X, np.inf), DatasetError),
    "wrong-width": (lambda X: X[:, :11], DatasetError),
    "non-numeric-cell": (lambda X: _with_cell(X, "a"), DatasetError),
}
# for masked_proba: (instance, background, masks) built from X and a 3-row background
MASKED_INPUTS = {
    "one-instance": (lambda X, bg: (X[1], bg, MASKS), (len(MASKS), 3)),
    "one-row-matrix-instance": (lambda X, bg: (X[1:2], bg, MASKS), (len(MASKS), 3)),
    "0-row-instance": (lambda X, bg: (X[:0], bg, MASKS), DatasetError),
    "2-row-instance": (lambda X, bg: (X[:2], bg, MASKS), DatasetError),
    "0-d-instance": (lambda X, bg: (X[0, 0], bg, MASKS), DatasetError),
    "3-d-background": (lambda X, bg: (X[1], bg[None], MASKS), DatasetError),
    "nan-cell-instance": (lambda X, bg: (_with_cell(X, np.nan)[1], bg, MASKS), DatasetError),
    "inf-cell-background": (lambda X, bg: (X[1], _with_cell(bg, np.inf), MASKS), DatasetError),
    "wrong-width-instance": (lambda X, bg: (X[1, :11], bg, MASKS), DatasetError),
    "wrong-width-background": (lambda X, bg: (X[1], bg[:, :11], MASKS), DatasetError),
    "non-numeric-instance": (lambda X, bg: (_with_cell(X, "a")[1], bg, MASKS), DatasetError),
    "non-numeric-background": (lambda X, bg: (X[1], _with_cell(bg, "a"), MASKS), DatasetError),
    "empty-background": (lambda X, bg: (X[1], bg[:0], MASKS), (len(MASKS), 0)),
    "empty-mask-table": (lambda X, bg: (X[1], bg, MASKS[:0]), (0, 3)),
    "empty-both": (lambda X, bg: (X[1], bg[:0], MASKS[:0]), (0, 0)),
}
BOUNDARY_CASES = [
    (kind, method, name)
    for kind in MODEL_KINDS
    for method in ("predict_proba", "predict", "decision_function")
    if hasattr(KINDS[kind].model_class, method)
    for name in ROW_INPUTS
] + [(kind, "masked_proba", name) for kind in MODEL_KINDS for name in MASKED_INPUTS]


@pytest.mark.parametrize(
    "kind, method, name", BOUNDARY_CASES, ids=["-".join(case) for case in BOUNDARY_CASES]
)
def test_model_boundary_contract(all_models, parts, kind, method, name):
    # used to raise a bare ValueError for a non-numeric cell (every kind and method)
    # or a masked_proba instance of 0 or 2 rows, and ZeroDivisionError for KNN's
    # masked_proba on an empty background
    for inherited in ("predict_proba", "masked_proba"):
        assert getattr(KINDS[kind].model_class, inherited) is getattr(
            ProbabilityClassifier, inherited
        ), f"{kind} bypasses the model boundary in {inherited}"
    X, bg = parts.test.features()[:4], parts.train.features()[:3]
    if method == "masked_proba":
        build, expected = MASKED_INPUTS[name]
        args = build(X, bg)
    else:
        build, expected = ROW_INPUTS[name]
        args = (build(X),)
    call = getattr(all_models[kind], method)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if expected is DatasetError:
            with pytest.raises(DatasetError):
                call(*args)
            return
        got = np.asarray(call(*args))
    assert got.shape == expected
    assert np.isfinite(got).all()


def _leaf(n_flood, n_samples):
    return TreeNode(n_samples=n_samples, n_flood=n_flood, entropy_bits=0.0)


def _split(feature, threshold, left, right):
    n_samples, n_flood = left.n_samples + right.n_samples, left.n_flood + right.n_flood
    return TreeNode(n_samples, n_flood, 0.0, feature, threshold, 0.0, left, right)


def _heap_tree(features, thresholds, i=0):
    """A complete tree: node i splits on features[i] at thresholds[i] and has
    children 2i + 1 and 2i + 2; the leaves' fractions are all distinct."""
    n_internal = len(features)
    if i >= n_internal:
        return _leaf(i - n_internal, n_internal + 1)
    return _split(
        int(features[i]),
        float(thresholds[i]),
        _heap_tree(features, thresholds, 2 * i + 1),
        _heap_tree(features, thresholds, 2 * i + 2),
    )


def _tree_masked_cases():
    """(name, tree, instance, background, masks). Values and thresholds are small
    integers, so many comparisons land exactly on a threshold."""
    rng = np.random.default_rng(14)

    def model(root, m):
        return TreeModel(root=root, config=TreeConfig(), n_features=m)

    def ints(*shape):
        return rng.integers(0, 4, size=shape).astype(float)

    def heap(m, depth, order=None):
        n_internal = 2**depth - 1
        features = np.resize(rng.permutation(m) if order is None else order, n_internal)
        return model(_heap_tree(features, rng.integers(0, 3, n_internal)), m)

    def draws(m, n):
        masks = rng.random((n, m)) < 0.5
        return np.vstack([masks, masks[::3]])  # duplicates, not adjacent

    twice = _split(1, 2.0, _split(1, 1.0, _leaf(1, 4), _leaf(2, 4)), _leaf(3, 4))
    wide = draws(70, 300)
    wide = np.vstack([wide, wide ^ (np.arange(70) >= 64)])  # pairs that differ past bit 63
    return [
        ("single-leaf", model(_leaf(3, 7), 4), ints(4), ints(3, 4), _bit_table(4)),
        ("one-feature-twice", model(twice, 3), np.array([0.0, 1.0, 0.0]),
         np.array([[0.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 3.0, 0.0]]), _bit_table(3)),
        ("one-row-background", heap(6, 4), ints(6), ints(1, 6), _bit_table(6)),
        ("1-d-mask", heap(6, 4), ints(6), ints(5, 6), np.arange(6) % 2 == 0),
        ("sampled-duplicates", heap(8, 4), ints(8), ints(5, 8), draws(8, 60)),
        # the top levels split on the widest features, which those pairs tell apart
        ("70-features", heap(70, 7, np.arange(70)[::-1]), ints(70), ints(5, 70), wide),
    ]


TREE_MASKED_CASES = _tree_masked_cases()


@pytest.mark.parametrize(
    "model, x, bg, masks",
    [case[1:] for case in TREE_MASKED_CASES],
    ids=[case[0] for case in TREE_MASKED_CASES],
)
def test_tree_masked_proba_equals_predictions_on_the_hybrids(model, x, bg, masks):
    table = np.atleast_2d(masks)
    hybrid = np.where(table[:, None, :], x, bg[None, :, :]).reshape(-1, model.n_features)
    expected = model.predict_proba(hybrid).reshape(len(table), len(bg))
    np.testing.assert_array_equal(model.masked_proba(x, bg, masks), expected)


def test_tree_masked_cases_cover_what_they_name():
    cases = {name: case for name, *case in TREE_MASKED_CASES}

    def split_features(model):
        return {node.feature for node in model.internal_nodes()}

    assert cases["single-leaf"][0].root.is_leaf
    assert len(split_features(cases["70-features"][0])) > 62
    model, _, _, masks = cases["sampled-duplicates"]
    patterns = np.unique(masks[:, sorted(split_features(model))], axis=0)
    assert len(patterns) < min(len(masks), 2 ** len(split_features(model)))


def _oracle_linear_proba(weights, intercept, x, bg, masks):
    """The one-line formula linear `masked_proba` replaced: the same bits are expected."""
    masks = np.asarray(masks, dtype=float)
    return sigmoid((bg @ weights + intercept)[None, :] + masks @ (weights * (x - bg)).T)


@pytest.mark.parametrize("kind", ["logistic", "svm"])
def test_linear_masked_proba_equals_the_one_line_formula(all_models, dataset, parts, kind):
    # the in-place steps are the formula's IEEE operations, so equal, not just close
    model = all_models[kind]
    intercept = model.intercept if kind == "logistic" else model.bias
    train = parts.train.features()
    backgrounds = [train, train.mean(axis=0, keepdims=True), train[3:8], train[:1]]
    tables = [_bit_table(12)] + [_sample_coalitions(12, b, 7)[0] for b in (26, 200, 512)]
    for x in dataset.features():
        for bg in backgrounds:
            for masks in tables:
                np.testing.assert_array_equal(
                    model.masked_proba(x, bg, masks),
                    _oracle_linear_proba(model.weights, intercept, x, bg, masks),
                )


@pytest.mark.parametrize("klass", [LogisticModel, SvmModel])
def test_linear_masked_proba_saturates_exactly_without_warnings(klass):
    # every hybrid logit lies beyond +-710; exp(-z) overflows to inf below -709.78
    model = klass(np.array([1.0, 1.0]), 0.0, None)
    x = np.array([1000.0, 0.0])
    bg = np.array([[-1000.0, 289.0], [-1711.0, 0.0]])
    masks = np.array([[False, False], [True, False], [False, True], [True, True]])
    # logits: [-711, -1711], [1289, 1000], [-1000, -1711], [1000, 1000]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = model.masked_proba(x, bg, masks)
    np.testing.assert_array_equal(got, [[0.0, 0.0], [1.0, 1.0], [0.0, 0.0], [1.0, 1.0]])


@pytest.mark.parametrize("kind, name", [(k, n) for k in MODEL_KINDS for n in MASKED_INPUTS])
def test_masked_mean_boundary_contract(all_models, parts, kind, name):
    # masked_mean checks its inputs as masked_proba does, and gives v(S) per mask;
    # v(S) is a mean over background rows, so an empty background has none
    assert KINDS[kind].model_class.masked_mean is ProbabilityClassifier.masked_mean
    X, bg = parts.test.features()[:4], parts.train.features()[:3]
    build, expected = MASKED_INPUTS[name]
    args = build(X, bg)
    model = all_models[kind]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if expected is DatasetError or expected[1] == 0:
            with pytest.raises(DatasetError):
                model.masked_mean(*args)
            return
        got = model.masked_mean(*args)
    assert got.shape == expected[:1]
    np.testing.assert_array_equal(got, model.masked_proba(*args).mean(axis=1))


def _tree_tables():
    table = _bit_table(12)
    rng = np.random.default_rng(11)
    shuffled = table[rng.integers(0, len(table), size=3000)]  # shuffled, with duplicates
    sampled = np.vstack([table[0], _sample_coalitions(12, 200, 3)[0], table[-1]])
    return {"exhaustive": table, "shuffled": shuffled, "sampled": sampled}


def test_tree_masked_mean_equals_the_table_mean(all_models, dataset, parts):
    # each distinct pattern's row is averaged once, under the reduction the
    # expanded table's rows get, so the bits are equal
    model = all_models["tree"]
    train = parts.train.features()
    for bg in (train, train[10:15], train[:1]):
        for x in dataset.features()[[0, 45, 120]]:
            for name, masks in _tree_tables().items():
                np.testing.assert_array_equal(
                    model.masked_mean(x, bg, masks),
                    model.masked_proba(x, bg, masks).mean(axis=1),
                    err_msg=f"{name} {len(bg)}-row background",
                )


def test_tree_pattern_map_reused_and_keyed_by_content(all_models, parts):
    model = all_models["tree"]
    x, bg = parts.test.features()[1], parts.train.features()[:5]
    table = _tree_tables()["shuffled"]
    first = model.masked_mean(x, bg, table)
    hits = tree_module._pattern_map.cache_info().hits
    np.testing.assert_array_equal(model.masked_mean(x, bg, table.copy()), first)
    assert tree_module._pattern_map.cache_info().hits == hits + 1
    # rows changed in place: a table of the same shape must not reuse the cached map
    edited = table.copy()
    edited[::7] = ~edited[::7]
    misses = tree_module._pattern_map.cache_info().misses
    got = model.masked_mean(x, bg, edited)
    assert tree_module._pattern_map.cache_info().misses == misses + 1
    hybrid = np.where(edited[:, None, :], x, bg[None, :, :]).reshape(-1, 12)
    np.testing.assert_array_equal(
        got, model.predict_proba(hybrid).reshape(len(edited), len(bg)).mean(axis=1)
    )


@pytest.mark.parametrize("kind", ["logistic", "svm"])
def test_linear_masked_mean_on_the_lattice_within_1e_12(all_models, dataset, parts, kind):
    # the lattice product is not the table's exp per cell, so only close: the
    # largest gap over these 484 calls read 5.6e-16 (logistic) and 4.4e-16 (svm)
    model = all_models[kind]
    train = parts.train.features()
    backgrounds = [train, train.mean(axis=0, keepdims=True), train[3:8], train[:1]]
    table = _bit_table(12)
    differ = 0
    for x in dataset.features():
        for bg in backgrounds:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = model.masked_mean(x, bg, table)
            want = model.masked_proba(x, bg, table).mean(axis=1)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
            assert got[0] == want[0]  # v(empty) is exp(-logit) itself: its bits stay
            differ += not np.array_equal(got, want)
    assert differ  # the product path ran: it moves the last bits somewhere


@pytest.mark.parametrize("klass", [LogisticModel, SvmModel])
def test_linear_masked_mean_saturates_exactly_without_warnings(klass):
    # the saturation fixture's four masks are the full lattice of two features in
    # code order, but its logits pass +-700, so the table's exact 0/1 are averaged
    model = klass(np.array([1.0, 1.0]), 0.0, None)
    x = np.array([1000.0, 0.0])
    bg = np.array([[-1000.0, 289.0], [-1711.0, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = model.masked_mean(x, bg, _bit_table(2))
    np.testing.assert_array_equal(got, [0.0, 1.0, 0.0, 1.0])


@pytest.mark.parametrize("kind", ["logistic", "svm"])
def test_linear_masked_mean_off_the_lattice_is_the_table_mean(all_models, parts, kind):
    # a row-permuted lattice, a lattice of the wrong width and a sampled table take
    # the mean of masked_proba, bit for bit
    model = all_models[kind]
    x, bg = parts.test.features()[4], parts.train.features()
    lattice = _bit_table(12)
    permuted = lattice[np.random.default_rng(2).permutation(len(lattice))]
    for masks in (permuted, lattice[:-1], _sample_coalitions(12, 512, 7)[0]):
        np.testing.assert_array_equal(
            model.masked_mean(x, bg, masks), model.masked_proba(x, bg, masks).mean(axis=1)
        )
