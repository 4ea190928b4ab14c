import math
import warnings
from dataclasses import fields, is_dataclass, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grantprod import ml
from grantprod.complexity import COMPLEXITY_SCHEMA
from grantprod.corpus import Label, stratified_fold_indices
from grantprod.ml import (
    ComplexityFeatures,
    FeatureMatrix,
    ForestHyper,
    MlpHyper,
    SvmHyper,
    TfidfFeatures,
    TrainingDivergedError,
    apply_imputer,
    complexity_rows,
    cross_validate,
    f1_score,
    fit_median_imputer,
    select_knn_k,
    significance_pvalue,
    tfidf_fold_matrices,
    train_decision_tree,
    train_knn,
    train_linear_svm,
    train_mlp,
    train_naive_bayes,
    train_random_forest,
)
from grantprod.ml import _mlp_init
from grantprod.relevance import gini_from_counts, impurity_decrease
from grantprod.seeds import derive_seed

from _complexity_oracle import complexity_vectors
from _synth import (
    planted_ne_corpus,
    planted_topic_corpus,
    shuffled_labels,
    wide_vocabulary_corpus,
)
from _trainer_oracle import bootstrap_rows, information_gain, kernel_loss_and_grad, mlp_arrays


def entropy_bits(labels):
    n = len(labels)
    h = 0.0
    for c in set(labels):
        p = labels.count(c) / n
        h -= p * math.log2(p)
    return h


# ---------------------------------------------------------------------------
# decision tree
# ---------------------------------------------------------------------------

def test_perfect_split_one_bit_gain():
    X = np.array([[0.0]] * 8 + [[1.0]] * 8)
    y = np.array([0] * 8 + [1] * 8)
    model = train_decision_tree(FeatureMatrix(X, y))
    tree = model.trees[0]
    assert tree.feature[0] == 0
    assert tree.threshold[0] == 0.5
    assert information_gain(y, X[:, 0] <= 0.5) == pytest.approx(1.0)
    assert tree.feature[tree.left[0]] == tree.feature[tree.right[0]] == -1
    assert (model.predict(X) == y).all()


def test_constant_features_single_leaf():
    X = np.zeros((6, 3))
    y = np.array([0, 0, 0, 0, 1, 1])
    model = train_decision_tree(FeatureMatrix(X, y))
    assert model.trees[0].feature[0] == -1
    assert (model.predict(X) == 0).all()  # majority class


def test_single_class_training_set_is_single_leaf():
    X = np.arange(8.0).reshape(4, 2)
    y = np.ones(4, dtype=int)
    model = train_decision_tree(FeatureMatrix(X, y))
    assert model.trees[0].feature[0] == -1
    assert (model.predict(X) == 1).all()


def test_xor_resolved_at_depth_two():
    X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    y = np.array([0, 1, 1, 0])
    # brute-force entropy table: either feature alone has zero gain at the root
    for j in range(2):
        assert information_gain(y, X[:, j] <= 0.5) == pytest.approx(0.0, abs=1e-12)
    model = train_decision_tree(FeatureMatrix(X, y))
    tree = model.trees[0]
    assert tree.feature[0] != -1
    assert not (tree.feature[tree.left[0]] == -1 and tree.feature[tree.right[0]] == -1)
    assert (model.predict(X) == y).all()


def test_zero_gain_split_is_admitted_at_min_gain_zero():
    # 9 positives in each 74-row half: the split leaves both children at the
    # node's fraction 9/74, where scalar and array log2 round apart
    X = np.repeat([0.0, 1.0], 74)[:, None]
    y = np.tile(np.arange(74) < 9, 2).astype(int)
    tree = train_decision_tree(FeatureMatrix(X, y)).trees[0]
    assert tree.feature.size == 3
    assert tree.threshold[0] == 0.5
    assert list(tree.n_samples) == [148, 74, 74]
    assert list(tree.n_positive) == [18, 9, 9]


def test_zero_gain_split_of_unequal_children_is_admitted_at_min_gain_zero():
    # children of 4 and 18 rows both at the node's fraction 1/2: the weights
    # 4/22 and 18/22 round, and h0 - wl*h0 - wr*h0 would land an ulp below 0
    X = np.repeat([0.0, 1.0], [4, 18])[:, None]
    y = np.concatenate([np.arange(4) < 2, np.arange(18) < 9]).astype(int)
    tree = train_decision_tree(FeatureMatrix(X, y)).trees[0]
    assert list(tree.n_samples) == [22, 4, 18]


def test_split_between_adjacent_floats_keeps_both_children():
    low = 4.9216076867444665  # a noun_sd value seen in a generated corpus
    high = np.nextafter(low, np.inf)
    assert (low + high) / 2.0 == high  # the midpoint rounds up to the right value
    X = np.array([[low], [high]])
    y = np.array([0, 1])
    model = train_decision_tree(FeatureMatrix(X, y))
    tree = model.trees[0]
    assert tree.threshold[0] == low
    assert tree.n_samples[tree.left[0]] == tree.n_samples[tree.right[0]] == 1
    assert (model.predict(X) == y).all()


def test_chosen_splits_have_nonnegative_delta_g():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(60, 4))
    y = (X[:, 1] + 0.3 * rng.normal(size=60) > 0).astype(int)
    tree = train_decision_tree(FeatureMatrix(X, y)).trees[0]
    nodes = np.flatnonzero(tree.feature >= 0)
    assert nodes.size
    decreases = [
        impurity_decrease(
            gini_from_counts(tree.n_positive[node], tree.n_samples[node]),
            gini_from_counts(tree.n_positive[tree.left[node]], tree.n_samples[tree.left[node]]),
            gini_from_counts(tree.n_positive[tree.right[node]], tree.n_samples[tree.right[node]]),
            tree.n_samples[tree.left[node]],
            tree.n_samples[tree.right[node]],
        )
        for node in nodes
    ]
    assert all(delta_g >= 0.0 for delta_g in decreases)


# ---------------------------------------------------------------------------
# random forest
# ---------------------------------------------------------------------------

def test_degenerate_forest_equals_tree():
    # on one feature every node's one candidate is that feature, so a
    # one-tree forest is the decision tree of its bootstrap rows
    rng = np.random.default_rng(2)
    X = rng.normal(size=(30, 1))
    y = (X[:, 0] > 0.2).astype(int)
    forest = train_random_forest(FeatureMatrix(X, y), ForestHyper(n_trees=1), seed=0)
    rows = bootstrap_rows(derive_seed(0, 0), 30)
    assert len(set(rows)) < 30  # a bootstrap, not every row once
    (tree,) = train_decision_tree(FeatureMatrix(X[rows], y[rows])).trees
    for name in ("feature", "threshold", "left", "right", "n_samples", "n_positive"):
        assert np.array_equal(getattr(forest.trees[0], name), getattr(tree, name), equal_nan=True)


def test_forest_separable_training_accuracy():
    X = np.vstack([np.full((10, 2), 0.0), np.full((10, 2), 1.0)])
    y = np.array([0] * 10 + [1] * 10)
    forest = train_random_forest(FeatureMatrix(X, y), ForestHyper(n_trees=15), seed=1)
    assert (forest.predict(X) == y).all()


def test_forest_determinism_under_seed():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(40, 5))
    y = (X[:, 2] > 0).astype(int)
    a = train_random_forest(FeatureMatrix(X, y), ForestHyper(n_trees=21), seed=9)
    b = train_random_forest(FeatureMatrix(X, y), ForestHyper(n_trees=21), seed=9)
    c = train_random_forest(FeatureMatrix(X, y), ForestHyper(n_trees=21), seed=10)
    assert (a.predict(X) == b.predict(X)).all()
    def splits(model):
        return [
            (t.feature[i], t.threshold[i], t.n_samples[i], t.n_positive[i])
            for t in model.trees for i in np.flatnonzero(t.feature >= 0)
        ]
    assert splits(a) == splits(b) != splits(c)


@pytest.mark.parametrize("trainer", [train_decision_tree, train_random_forest])
def test_tree_learners_reject_empty_or_nonfinite_training_sets(trainer):
    with pytest.raises(ValueError, match="^empty training set$"):
        trainer(FeatureMatrix(np.empty((0, 3)), []))
    X = np.ones((4, 3))
    X[2, 1] = np.inf
    with pytest.raises(ValueError, match="contains NaN or infinite values"):
        trainer(FeatureMatrix(X, [0, 1, 0, 1]))


@pytest.mark.parametrize("n_trees", [0, -1])
def test_forest_tree_count_is_checked_where_it_is_built(n_trees):
    # unchecked, no tree votes: every row is class 0 and every importance 0
    with pytest.raises(ValueError, match=f"at least one tree, not {n_trees}"):
        ForestHyper(n_trees=n_trees)


# ---------------------------------------------------------------------------
# naive bayes
# ---------------------------------------------------------------------------

def test_balanced_prior_equivalence():
    rng = np.random.default_rng(4)
    X = np.vstack([rng.normal(0, 1, (25, 3)), rng.normal(2, 1, (25, 3))])
    y = np.array([0] * 25 + [1] * 25)
    model = train_naive_bayes(FeatureMatrix(X, y), "gaussian")
    with_prior = np.argmax(model.decision_scores(X), axis=1)
    without_prior = np.argmax(model.decision_scores(X) - model.log_prior, axis=1)
    assert (with_prior == without_prior).all()


def test_gaussian_toy_matches_hand_computation():
    X = np.array([[0.0], [1.0], [4.0], [6.0]])
    y = np.array([0, 0, 1, 1])
    model = train_naive_bayes(FeatureMatrix(X, y), "gaussian")
    # class 0: mean 0.5, var 0.25; class 1: mean 5.0, var 1.0 (population)
    x = 1.2
    def log_lik(mean, var):
        return -0.5 * (math.log(2 * math.pi * var) + (x - mean) ** 2 / var)
    expected = np.array([log_lik(0.5, 0.25), log_lik(5.0, 1.0)]) + math.log(0.5)
    scores = model.decision_scores(np.array([[x]]))[0]
    np.testing.assert_allclose(scores, expected, rtol=1e-12)
    assert model.predict(np.array([[x]]))[0] == 0


def test_likelihood_dominance():
    X = np.array([[0.0, 0.0], [0.1, 0.0], [9.0, 9.0], [9.1, 9.2]])
    y = np.array([0, 0, 1, 1])
    model = train_naive_bayes(FeatureMatrix(X, y), "gaussian")
    assert model.predict(np.array([[0.0, 0.0]]))[0] == 0
    assert model.predict(np.array([[9.0, 9.0]]))[0] == 1


def test_zero_variance_feature_floored():
    X = np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 5.0], [1.0, 6.0]])
    y = np.array([0, 0, 1, 1])
    model = train_naive_bayes(FeatureMatrix(X, y), "gaussian")
    scores = model.decision_scores(X)
    assert np.isfinite(scores).all()


def test_multinomial_requires_nonnegative():
    X = np.array([[1.0, -0.5], [2.0, 1.0]])
    y = np.array([0, 1])
    with pytest.raises(ValueError):
        train_naive_bayes(FeatureMatrix(X, y), "multinomial")


def test_multinomial_separates_counts():
    X = np.array([[5.0, 0.0], [4.0, 1.0], [0.0, 5.0], [1.0, 4.0]])
    y = np.array([0, 0, 1, 1])
    model = train_naive_bayes(FeatureMatrix(X, y), "multinomial")
    assert (model.predict(X) == y).all()


# ---------------------------------------------------------------------------
# kNN
# ---------------------------------------------------------------------------

def test_knn_exact_match():
    X = np.array([[0.0, 0.0], [5.0, 5.0], [9.0, 0.0]])
    y = np.array([0, 1, 0])
    assert train_knn(FeatureMatrix(X, y), k=1).predict([[5.0, 5.0]])[0] == Label.PRODUCTIVE.value


def test_knn_full_vote_tie_breaks_to_nearest():
    X = np.array([[0.0], [1.0], [10.0], [11.0]])
    y = np.array([1, 1, 0, 0])
    # k = |train| on a balanced set: tie resolves to the nearest neighbor's class
    assert train_knn(FeatureMatrix(X, y), k=4).predict([[0.5]])[0] == Label.PRODUCTIVE.value
    assert train_knn(FeatureMatrix(X, y), k=4).predict([[10.5]])[0] == Label.ZERO_PUBLICATIONS.value


def test_knn_matches_exhaustive_sort():
    X = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [5.0, 5.0], [6.0, 6.0]])
    y = np.array([0, 0, 1, 1, 1])
    query = np.array([1.5, 1.5])
    distances = sorted(
        (float(np.linalg.norm(row - query)), i) for i, row in enumerate(X)
    )
    top3 = [y[i] for _, i in distances[:3]]
    expected = 1 if sum(top3) * 2 > 3 else 0
    assert train_knn(FeatureMatrix(X, y), k=3).predict([query])[0] == expected


def test_knn_cosine_metric():
    X = np.array([[1.0, 0.0], [2.0, 0.1], [0.0, 1.0], [0.1, 2.0]])
    y = np.array([0, 0, 1, 1])
    model = train_knn(FeatureMatrix(X, y), k=2, metric="cosine")
    assert model.predict(np.array([[3.0, 0.2]]))[0] == 0
    assert model.predict(np.array([[0.2, 3.0]]))[0] == 1


def test_knn_k_validation():
    X = np.zeros((3, 1))
    y = np.array([0, 1, 0])
    with pytest.raises(ValueError):
        train_knn(FeatureMatrix(X, y), k=4)


def test_select_knn_k_prefers_small_on_ties():
    rng = np.random.default_rng(8)
    X = np.vstack([rng.normal(0, 0.3, (15, 2)), rng.normal(3, 0.3, (15, 2))])
    y = np.array([0] * 15 + [1] * 15)
    k = select_knn_k(X, y, seed=1)
    assert k in (1, 3, 5, 7, 11, 15)


# ---------------------------------------------------------------------------
# linear SVM
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("C", [0.0, -1.0, math.nan, math.inf], ids=["zero", "negative", "nan", "inf"])
def test_svm_C_is_checked_where_it_is_built(C):
    # unchecked, C = 0 divides by zero in training and C = -1 trains a model
    # that predicts one class
    with pytest.raises(ValueError, match="C must be finite and positive"):
        SvmHyper(C=C)


def test_svm_separable_accuracy():
    rng = np.random.default_rng(6)
    X = np.vstack([rng.normal(-2, 0.4, (20, 2)), rng.normal(2, 0.4, (20, 2))])
    y = np.array([0] * 20 + [1] * 20)
    model = train_linear_svm(FeatureMatrix(X, y), SvmHyper(C=10.0))
    assert (model.predict(X) == y).mean() == 1.0


def test_svm_constant_labels_constant_predictor():
    X = np.array([[0.0], [1.0], [2.0]])
    model1 = train_linear_svm(FeatureMatrix(X, np.ones(3, dtype=int)))
    assert (model1.predict(X) == 1).all()
    model0 = train_linear_svm(FeatureMatrix(X, np.zeros(3, dtype=int)))
    assert (model0.predict(X) == 0).all()


def test_svm_recovers_max_margin_line():
    # closest points (2,0) and (0,0): the max-margin boundary is x = 1
    X = np.array([[2.0, 0.0], [3.0, 1.0], [3.0, -1.0],
                  [0.0, 0.0], [-1.0, 1.0], [-1.0, -1.0]])
    y = np.array([1, 1, 1, 0, 0, 0])
    model = train_linear_svm(FeatureMatrix(X, y), SvmHyper(C=10.0))
    assert (model.predict(X) == y).all()
    w = model.weights
    assert abs(w[1] / w[0]) < 0.05                      # direction along x
    assert -model.bias / w[0] == pytest.approx(1.0, abs=0.1)  # boundary near x = 1


def test_svm_determinism():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(30, 3))
    y = (X[:, 0] > 0).astype(int)
    a = train_linear_svm(FeatureMatrix(X, y))
    b = train_linear_svm(FeatureMatrix(X, y))
    np.testing.assert_array_equal(a.weights, b.weights)
    assert a.bias == b.bias


def test_tfidf_svm_predicts_both_classes_in_every_fold():
    # several hundred small tf-idf columns for 40 training rows: a fit whose
    # margins x.w stay far below its bias predicts the bias's sign for
    # every row, which scores macro F1 1/3 whatever the signal
    labeled = wide_vocabulary_corpus(n=60, seed=1, signal_pct=5)
    features = TfidfFeatures(top_x=1100)
    prepared = features.prepare([record for record, _ in labeled])
    y = np.array([int(label) for _, label in labeled])
    folds = np.array(stratified_fold_indices(list(y), 3, 5))
    correct = 0
    for fold in range(3):
        train, test = np.flatnonzero(folds != fold), np.flatnonzero(folds == fold)
        X_train, X_test = features.fold_matrices(prepared, train, test)
        assert X_train.shape[0] < X_train.shape[1]
        predictions = train_linear_svm(FeatureMatrix(X_train, y[train])).predict(X_test)
        assert 0 < predictions.sum() < predictions.size
        correct += int((predictions == y[test]).sum())
    assert correct > y.size // 2


# ---------------------------------------------------------------------------
# MLP
# ---------------------------------------------------------------------------

def test_zero_hidden_units_rejected():
    for units in (0, -1):
        with pytest.raises(ValueError, match=f"hidden units must be at least 1, not {units}"):
            MlpHyper(hidden_units=units)


@pytest.mark.parametrize("field, value", [
    ("learning_rate", 0.0), ("learning_rate", -0.1), ("learning_rate", math.nan),
    ("learning_rate", math.inf), ("epochs", 0), ("epochs", -1),
])
def test_mlp_step_and_epochs_are_checked_where_they_are_built(field, value):
    # unchecked, a rate <= 0 or no epoch at all "trains" without complaint,
    # and a NaN rate fails only at epoch 1
    with pytest.raises(ValueError, match=field.replace("_", " ")):
        MlpHyper(**{field: value})
    assert MlpHyper(learning_rate=1e308, epochs=1).learning_rate == 1e308  # DIVERGING's rate


def test_single_neuron_identity_task():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(80, 1))
    y = (x[:, 0] > 0).astype(int)
    model = train_mlp([FeatureMatrix(x, y)], MlpHyper(hidden_units=1, epochs=400), [2])[0]
    assert (model.predict(x) == y).mean() >= 0.95


def test_gradient_check_small_network():
    rng = np.random.default_rng(10)
    W1, b1, W2, b2 = _mlp_init(3, 4, derive_seed(10))
    weights, biases = [W1, W2], [b1, b2]
    X = rng.normal(size=(6, 3))
    y = rng.integers(0, 2, 6).astype(float)
    loss, grad_w, grad_b = kernel_loss_and_grad(weights, biases, X, y)
    h = 1e-6
    worst = 0.0
    for params, grads in ((weights, grad_w), (biases, grad_b)):
        for layer in range(len(params)):
            for index in np.ndindex(params[layer].shape):
                original = params[layer][index]
                params[layer][index] = original + h
                up, _, _ = kernel_loss_and_grad(weights, biases, X, y)
                params[layer][index] = original - h
                down, _, _ = kernel_loss_and_grad(weights, biases, X, y)
                params[layer][index] = original
                numeric = (up - down) / (2 * h)
                denom = max(1e-8, abs(numeric) + abs(grads[layer][index]))
                worst = max(worst, abs(numeric - grads[layer][index]) / denom)
    assert worst <= 1e-4


def test_mlp_divergence_raises():
    X = np.array([[1e3], [-1e3], [1e3], [-1e3]])
    y = np.array([1, 0, 1, 0])
    # a step large enough to overflow the output weights trips the guard
    with pytest.raises(TrainingDivergedError) as excinfo:
        train_mlp([FeatureMatrix(X, y)], MlpHyper(learning_rate=1e308, epochs=5), [0])
    assert "epoch" in str(excinfo.value)


def test_gram_mlp_divergence_names_the_epoch():
    # fewer rows than columns: the first layer trains in Gram space
    X = np.array([[1e3, -1e3, 5e2], [-1e3, 1e3, -5e2]])
    y = np.array([1, 0])
    with pytest.raises(TrainingDivergedError, match=r"non-finite loss .* at epoch \d+ "):
        train_mlp([FeatureMatrix(X, y)], MlpHyper(learning_rate=1e308, epochs=5), [0])


@pytest.mark.parametrize("trainer", [
    pytest.param(train_linear_svm, id="train_linear_svm"),
    pytest.param(lambda train: train_mlp([train], None, [0])[0], id="train_mlp"),
])
def test_gram_form_keeps_the_input_guards(trainer):
    def message(X, y):
        with pytest.raises(ValueError) as excinfo:
            trainer(FeatureMatrix(X, y))
        return str(excinfo.value)

    wide, tall = np.ones((2, 4)), np.ones((4, 2))
    wide[1, 2] = tall[1, 1] = np.nan
    assert message(wide, [0, 1]) == message(tall, [0, 1, 0, 1]) == (
        "feature matrix contains NaN or infinite values; impute first"
    )
    assert message(np.empty((0, 4)), []) == "empty training set"


def test_mlp_determinism():
    rng = np.random.default_rng(11)
    X = rng.normal(size=(20, 2))
    y = (X[:, 0] > 0).astype(int)
    a = train_mlp([FeatureMatrix(X, y)], MlpHyper(epochs=50), [4])[0]
    b = train_mlp([FeatureMatrix(X, y)], MlpHyper(epochs=50), [4])[0]
    for w1, w2 in zip(mlp_arrays(a), mlp_arrays(b)):
        np.testing.assert_array_equal(w1, w2)


# At this step size the 6 x 3 rows below diverge at an epoch set by their
# scale: 1.0 at epoch 3, 2.5 at epoch 2, and the first five rows times 1e3
# (a second shape) at epoch 1; 0.9 and 2.0 train all 40 epochs.
DIVERGING = MlpHyper(hidden_units=4, learning_rate=1e308, epochs=40)


def _scaled_fold(scale, rows=6):
    X = np.random.default_rng(3).normal(size=(6, 3))
    return FeatureMatrix(scale * X[:rows], (np.arange(6) % 2)[:rows])


def _divergence(trains):
    with pytest.raises(TrainingDivergedError) as excinfo:
        train_mlp(trains, DIVERGING, [0] * len(trains))
    return str(excinfo.value)


def test_stacked_divergence_is_the_first_in_fold_order():
    late, early, other_shape = _scaled_fold(1.0), _scaled_fold(2.5), _scaled_fold(1e3, rows=5)
    assert "at epoch 3 " in _divergence([late])
    assert "at epoch 2 " in _divergence([early])
    assert "at epoch 1 " in _divergence([other_shape])
    # a lower fold that diverges later still raises its own error
    assert _divergence([late, early]) == _divergence([late])
    assert _divergence([_scaled_fold(0.9), late, early, other_shape]) == _divergence([late])
    assert _divergence([early, late]) == _divergence([early])


def test_nan_fold_fails_where_the_per_fold_loop_would():
    late = _scaled_fold(1.0)
    nan = FeatureMatrix(np.full((6, 3), np.nan), np.arange(6) % 2)
    assert _divergence([late, nan]) == _divergence([late])
    for trains in ([nan, late], [_scaled_fold(0.9), nan, late]):
        with pytest.raises(ValueError, match="feature matrix contains NaN"):
            train_mlp(trains, DIVERGING, [0] * len(trains))


def test_folds_before_a_diverged_one_train_as_alone():
    # every fold of a stack runs to the last epoch and ends as its one-fold
    # fit would, wherever the diverging fold stands
    healthy, diverging = [_scaled_fold(0.9), _scaled_fold(2.0)], _scaled_fold(2.5)
    lockstep = ml._mlp_lockstep
    for position in range(3):
        trains = healthy[:position] + [diverging] + healthy[position:]
        groups = []

        def record(folds, hyper):
            groups.append(lockstep(folds, hyper))
            return groups[-1]

        with mock.patch.object(ml, "_mlp_lockstep", side_effect=record):
            raised = _divergence(trains)
        (outcomes,) = groups
        assert len(outcomes) == 3
        assert isinstance(outcomes[position], TrainingDivergedError)
        assert str(outcomes[position]) == raised == _divergence([diverging])
        for train, model in zip(healthy, outcomes[:position] + outcomes[position + 1:]):
            alone = train_mlp([train], DIVERGING, [0])[0]
            for got, want in zip(mlp_arrays(model), mlp_arrays(alone)):
                assert np.array_equal(got, want)


@pytest.mark.parametrize("shape", [(4, 2), (4, 6)], ids=["primal", "gram"])
def test_nonfinite_weights_after_the_last_epoch_raise(shape):
    # the last update overflows, and no later loss is computed to catch it
    X = np.random.default_rng(2).normal(size=shape) * 100.0
    hyper = MlpHyper(hidden_units=4, learning_rate=1e308, epochs=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TrainingDivergedError, match=(
            r"^non-finite weights after epoch 0 \(lr=1e\+308, hidden_units=4\)$"
        )):
            train_mlp([FeatureMatrix(X, [0, 1, 0, 1])], hyper, [0])


def test_cross_validate_fits_each_cell_in_one_mlp_call():
    # perfbench traces the MLP fit as ml.train_mlp: one call per cell, over
    # every (resample, fold) training set, which runs one lockstep loop per
    # training shape
    corpus = planted_topic_corpus(n=40, seed=1)
    with mock.patch.object(ml, "train_mlp", wraps=ml.train_mlp) as fit, \
            mock.patch.object(ml, "_mlp_lockstep", wraps=ml._mlp_lockstep) as lockstep:
        cross_validate(corpus, TfidfFeatures(top_x=20), "mlp", k=3, n_resamples=2, base_seed=5)
    ((trains, _, _), _), = fit.call_args_list
    assert len(trains) == 2 * 3
    shapes = {train.X.shape for train in trains}
    assert len(shapes) > 1  # unequal folds share the call
    assert lockstep.call_count == len(shapes)


def _mlp_cell_fits(n_resamples):
    """The (training sets, seeds, models) of the MLP's one call in a cell of
    ``n_resamples`` x 3 folds whose folds differ in size."""
    calls = []

    def fit(trains, hyper, seeds):
        calls.append((trains, seeds, train_mlp(trains, hyper, seeds)))
        return calls[-1][2]

    with mock.patch.object(ml, "train_mlp", side_effect=fit):
        cross_validate(planted_topic_corpus(n=40, seed=1), TfidfFeatures(top_x=20), "mlp",
                       k=3, n_resamples=n_resamples, base_seed=5)
    (call,) = calls
    return call


def test_each_mlp_model_of_a_cell_is_its_one_set_fit():
    trains, seeds, models = _mlp_cell_fits(n_resamples=2)
    assert seeds == [derive_seed(5, ml._SALT_TRAIN, r, fold) for r in range(2) for fold in range(3)]
    first_trains, first_seeds, _ = _mlp_cell_fits(n_resamples=1)
    assert seeds[:3] == first_seeds  # resample-major: resample 0's folds come first
    for train, first in zip(trains, first_trains):
        assert np.array_equal(train.X, first.X) and np.array_equal(train.y, first.y)
    hyper = ml.DEFAULT_HYPER["mlp"]
    for train, seed, model in zip(trains, seeds, models):
        alone = train_mlp([train], hyper, [seed])[0]
        for got, want in zip(mlp_arrays(model), mlp_arrays(alone)):
            assert np.array_equal(got, want)


def _diverging_cell(scales):
    """The error of a DIVERGING MLP cell of 2 resamples x 2 folds whose
    training rows at (resample, fold) path p are scaled by ``scales[p]``, and
    each path's one-set fit error (None where it trains)."""
    fold_matrices = TfidfFeatures.fold_matrices
    factors = iter(scales)

    def scaled(self, prepared, train_rows, test_rows):
        X_train, X_test = fold_matrices(self, prepared, train_rows, test_rows)
        return next(factors) * X_train, X_test

    with mock.patch.object(TfidfFeatures, "fold_matrices", scaled), \
            mock.patch.dict(ml.DEFAULT_HYPER, mlp=DIVERGING), \
            mock.patch.object(ml, "train_mlp", wraps=ml.train_mlp) as fit, \
            pytest.raises(TrainingDivergedError) as excinfo:
        cross_validate(planted_topic_corpus(n=24, seed=1), TfidfFeatures(top_x=20), "mlp",
                       k=2, n_resamples=2, base_seed=7)
    ((trains, _, seeds), _), = fit.call_args_list
    alone = []
    for train, seed in zip(trains, seeds):
        try:
            train_mlp([train], DIVERGING, [seed])
            alone.append(None)
        except TrainingDivergedError as error:
            alone.append(str(error))
    return str(excinfo.value), alone


def test_mlp_cell_reports_the_first_divergence_in_resample_fold_order():
    # paths (0, 0), (0, 1), (1, 0), (1, 1); at these scales (1, 0) alone
    # diverges, at epoch 1 ...
    message, alone = _diverging_cell([1, 2, 20, 1])
    assert alone[0] is alone[1] is alone[3] is None and "at epoch 1 " in alone[2]
    assert message == alone[2]
    # ... and with (0, 1) diverging too, at the later epoch 2, the cell
    # reports resample 0's error, as training resample by resample would
    message, alone = _diverging_cell([1, 0.1, 20, 1])
    assert "at epoch 2 " in alone[1] and "at epoch 1 " in alone[2]
    assert message == alone[1]


# The public one-set fit of each learner at one (resample, fold) path, given
# the path's training seed and kNN selection seed.
ONE_SET_FITS = {
    "dtree": lambda train, hyper, seed, knn_seed: train_decision_tree(train),
    "random_forest": lambda train, hyper, seed, knn_seed: train_random_forest(train, hyper, seed),
    "naive_bayes": lambda train, hyper, seed, knn_seed: train_naive_bayes(train, "multinomial"),
    "knn": lambda train, hyper, seed, knn_seed: train_knn(
        train, select_knn_k(train.X, train.y, knn_seed, "euclidean"), "euclidean"),
    "linear_svm": lambda train, hyper, seed, knn_seed: train_linear_svm(train, hyper),
    "mlp": lambda train, hyper, seed, knn_seed: train_mlp([train], hyper, [seed])[0],
}


def _model_values(model):
    """Every array and scalar a model holds, in field order."""
    if is_dataclass(model):
        return [v for f in fields(model) for v in _model_values(getattr(model, f.name))]
    if isinstance(model, list):
        return [v for item in model for v in _model_values(item)]
    return [model]


def _cell_fit(algorithm, features):
    """The (training sets, seeds, kNN seeds, models) of a 2-resample x
    3-fold cell's one ``_fit_cell`` call."""
    calls, real = [], ml._fit_cell

    def fit(algorithm, trains, hyper, seeds, knn_seeds, feature_config):
        models = list(real(algorithm, trains, hyper, seeds, knn_seeds, feature_config))
        calls.append((trains, seeds, knn_seeds, models))
        return models

    with mock.patch.object(ml, "_fit_cell", side_effect=fit):
        cross_validate(planted_topic_corpus(n=40, seed=1), features, algorithm,
                       k=3, n_resamples=2, base_seed=5)
    (call,) = calls
    return call


@pytest.mark.parametrize("algorithm", sorted(ONE_SET_FITS))
def test_each_model_of_a_cell_is_its_one_set_fit(algorithm):
    # knn, linear_svm and mlp read standardized complexity features; the
    # others read tf-idf as it is
    standardized = algorithm in ComplexityFeatures.standardized
    features = ComplexityFeatures() if standardized else TfidfFeatures(top_x=20)
    trains, seeds, knn_seeds, models = _cell_fit(algorithm, features)
    paths = [(r, fold) for r in range(2) for fold in range(3)]
    assert seeds == [derive_seed(5, ml._SALT_TRAIN, r, fold) for r, fold in paths]
    assert knn_seeds == [derive_seed(5, ml._SALT_KNN, r, fold) for r, fold in paths]
    assert len(trains) == len(models) == len(paths)
    hyper = ml.DEFAULT_HYPER[algorithm]
    for train, seed, knn_seed, model in zip(trains, seeds, knn_seeds, models):
        if standardized:
            assert np.allclose(train.X.mean(axis=0), 0.0)
        alone = ONE_SET_FITS[algorithm](train, hyper, seed, knn_seed)
        got, want = _model_values(model), _model_values(alone)
        assert type(model) is type(alone) and len(got) == len(want)
        for a, b in zip(got, want):  # NaN thresholds mark tree leaves
            np.testing.assert_array_equal(a, b, strict=True)


def test_per_set_learner_cell_reports_the_first_failure_in_resample_fold_order():
    # paths (0, 2) and (1, 0) fail; whatever order the sets are fitted in,
    # the cell reports (0, 2)
    cell, real = [], ml._fit_cell

    def fit_cell(algorithm, trains, *args):
        cell.extend(trains)
        return real(algorithm, trains, *args)

    def train_linear_svm(train, hyper):
        r, fold = divmod(next(i for i, t in enumerate(cell) if t is train), 3)
        if (r, fold) in ((0, 2), (1, 0)):
            raise TrainingDivergedError(f"path ({r}, {fold})")
        return ml.LinearSvmModel(np.zeros(train.X.shape[1]), 0.0)

    with mock.patch.object(ml, "_fit_cell", side_effect=fit_cell), \
            mock.patch.object(ml, "train_linear_svm", side_effect=train_linear_svm), \
            pytest.raises(TrainingDivergedError, match=r"^path \(0, 2\)$"):
        cross_validate(planted_topic_corpus(n=40, seed=1), TfidfFeatures(top_x=20), "linear_svm",
                       k=3, n_resamples=2, base_seed=5)
    assert len(cell) == 6


# ---------------------------------------------------------------------------
# scoring
# ---------------------------------------------------------------------------

def test_f1_perfect_and_degenerate():
    assert f1_score([1, 0, 1], [1, 0, 1]) == 1.0
    assert f1_score([0, 0, 0], [1, 1, 0]) == 0.0  # recall 0


def test_f1_direct_formula():
    # TP=3, FP=1, FN=2 -> P=0.75, R=0.6 -> F1 = 2/3
    predictions = [1, 1, 1, 1, 0, 0, 0]
    truth = [1, 1, 1, 0, 1, 1, 0]
    assert f1_score(predictions, truth) == pytest.approx(2 / 3)


def test_f1_length_mismatch():
    with pytest.raises(ValueError):
        f1_score([1, 0], [1])


def test_f1_accepts_labels():
    predictions = [Label.PRODUCTIVE, Label.ZERO_PUBLICATIONS]
    truth = [Label.PRODUCTIVE, Label.ZERO_PUBLICATIONS]
    assert f1_score(predictions, truth) == 1.0


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)), min_size=1, max_size=60),
       st.randoms(use_true_random=False))
def test_f1_permutation_invariance(pairs, rng):
    predictions = [p for p, _ in pairs]
    truth = [t for _, t in pairs]
    before = f1_score(predictions, truth)
    order = list(range(len(pairs)))
    rng.shuffle(order)
    after = f1_score([predictions[i] for i in order], [truth[i] for i in order])
    assert before == after


# ---------------------------------------------------------------------------
# significance
# ---------------------------------------------------------------------------

def brute_force_tail(n_correct, n_total, p):
    return math.fsum(
        math.comb(n_total, k) * p**k * (1 - p) ** (n_total - k)
        for k in range(n_correct, n_total + 1)
    )


def test_certain_event():
    assert significance_pvalue(0, 10, 0.5) == 1.0


def test_single_outcome_tail():
    assert significance_pvalue(10, 10, 0.5) == pytest.approx(2**-10, abs=1e-18)


def test_tail_matches_brute_force():
    assert significance_pvalue(16, 20, 0.6) == pytest.approx(
        brute_force_tail(16, 20, 0.6), abs=1e-12
    )


def test_monotone_in_n_correct():
    values = [significance_pvalue(k, 25, 0.55) for k in range(26)]
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_parameter_validation():
    with pytest.raises(ValueError):
        significance_pvalue(-1, 10, 0.5)
    with pytest.raises(ValueError):
        significance_pvalue(11, 10, 0.5)
    with pytest.raises(ValueError):
        significance_pvalue(5, 10, 1.0)


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------

def test_median_imputer_train_only():
    train = np.array([[1.0, np.nan], [3.0, 4.0], [5.0, 8.0]])
    medians = fit_median_imputer(train)
    np.testing.assert_array_equal(medians, [3.0, 6.0])
    test = np.array([[np.nan, np.nan]])
    np.testing.assert_array_equal(apply_imputer(test, medians), [[3.0, 6.0]])


def test_imputer_all_nan_column_falls_back_to_zero():
    medians = fit_median_imputer(np.array([[np.nan], [np.nan]]))
    assert medians[0] == 0.0


@st.composite
def imputer_matrices(draw):
    """NaN or finite entries of magnitude at most half the largest float."""
    rows, columns = draw(st.integers(1, 9)), draw(st.integers(1, 6))
    half = np.finfo(float).max / 2
    pool = draw(st.lists(  # a small pool, so columns repeat values (ties)
        st.one_of(
            st.floats(-half, half, allow_nan=False),
            st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e-300, 1e300, half, -half]),
            st.integers(-3, 3).map(float),
        ),
        min_size=1, max_size=6,
    ))
    values = st.one_of(st.sampled_from(pool), st.just(np.nan))
    matrix = np.array(draw(st.lists(values, min_size=rows * columns, max_size=rows * columns)))
    matrix = matrix.reshape(rows, columns)
    for column in draw(st.lists(st.integers(0, columns - 1), max_size=2)):
        matrix[:, column] = np.nan  # all-NaN columns
    return matrix


@settings(max_examples=400, deadline=None)
@given(imputer_matrices())
def test_median_imputer_equals_nanmedian(X):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # all-NaN columns
        expected = np.nanmedian(X, axis=0)
    expected = np.where(np.isnan(expected), 0.0, expected)
    medians = fit_median_imputer(X)
    assert medians.shape == expected.shape
    assert np.array_equal(medians, expected)


# ---------------------------------------------------------------------------
# cross-validation protocol
# ---------------------------------------------------------------------------

def test_report_shape_contract():
    corpus = planted_topic_corpus(n=40, seed=1)
    report = cross_validate(corpus, TfidfFeatures(top_x=20), "dtree",
                            k=2, n_resamples=1, base_seed=0)
    assert len(report.per_run_f1) == 2
    assert report.mean_f1 == pytest.approx(
        sum(report.per_run_f1) / len(report.per_run_f1)
    )
    assert report.n_total == 40  # every instance tested once per resample


def test_cross_validate_deterministic():
    corpus = planted_topic_corpus(n=60, seed=2)
    a = cross_validate(corpus, TfidfFeatures(top_x=20), "dtree", k=3, n_resamples=2, base_seed=7)
    b = cross_validate(corpus, TfidfFeatures(top_x=20), "dtree", k=3, n_resamples=2, base_seed=7)
    assert a == b


def test_planted_signal_recovered():
    corpus = planted_topic_corpus(n=80, seed=3)
    report = cross_validate(corpus, TfidfFeatures(top_x=30), "dtree",
                            k=4, n_resamples=2, base_seed=1)
    assert report.mean_f1 >= 0.9
    assert report.p_value < 0.01


@pytest.mark.parametrize("features", [ComplexityFeatures(), TfidfFeatures(top_x=20)],
                         ids=["complexity", "tfidf"])
def test_no_learner_draws_from_numpy_random(features):
    # the trees' bootstrap rows and feature subsets and the MLP's initial
    # weights come from the package's splitmix64 stream
    corpus = planted_topic_corpus(n=36, seed=4)
    with mock.patch.object(np.random, "default_rng", side_effect=AssertionError("numpy.random")):
        for algorithm in ml.DEFAULT_HYPER:
            cross_validate(corpus, features, algorithm, k=3, n_resamples=1, base_seed=2)


def test_complexity_pipeline_runs_all_algorithms():
    corpus = planted_topic_corpus(n=48, seed=4)
    for algorithm in ("naive_bayes", "knn", "linear_svm", "mlp"):
        report = cross_validate(corpus, ComplexityFeatures(), algorithm,
                                k=3, n_resamples=1, base_seed=2)
        assert 0.0 <= report.mean_f1 <= 1.0
        assert report.p_dominant == pytest.approx(0.5)


def test_vocabulary_fitted_on_training_folds_only():
    corpus = planted_topic_corpus(n=20, seed=5)
    # plant a marker word in exactly one document
    from grantprod.topical import count_documents, field_tokens, FieldSelector, select_columns
    token_lists = [field_tokens(r, FieldSelector.ABSTRACT) for r, _ in corpus]
    token_lists[0] = token_lists[0] + ["markerunicum"]
    counts = count_documents(token_lists)
    train_rows = list(range(1, 20))  # document 0 held out
    test_rows = [0]
    _, test = tfidf_fold_matrices(counts, train_rows, test_rows, top_x=100)
    vocabulary = select_columns(counts, train_rows, 100)
    assert "markerunicum" not in vocabulary.words
    assert test.shape == (1, len(vocabulary))
    refit = select_columns(counts, [0] + train_rows[:-1], 100)
    assert "markerunicum" in refit.words


def test_label_shuffled_corpus_near_chance():
    corpus = planted_topic_corpus(n=100, seed=6)
    null = shuffled_labels(corpus, seed=derive_seed(50, 0))
    report = cross_validate(null, TfidfFeatures(top_x=30), "dtree",
                            k=4, n_resamples=2, base_seed=3)
    assert 0.3 <= report.mean_f1 <= 0.7  # loose per-run band; tight band is aggregate


def test_complexity_rows_are_the_vectors_with_nan_for_missing():
    records = [record for record, _ in planted_ne_corpus(n=4)]
    records.append(replace(records[0], abstract_pt="Um."))  # one-word text: some metrics missing
    vectors = complexity_vectors(records, "pt", include_title=True)
    expected = [[np.nan if v is None else float(v) for v in vector.as_row()] for vector in vectors]
    assert np.isnan(expected[-1]).any()
    np.testing.assert_array_equal(complexity_rows(records, "pt", include_title=True), expected)


def test_included_title_is_a_sentence_of_its_own(monkeypatch):
    record, _ = planted_ne_corpus(n=1)[0]
    assert record.title_pt == "projeto" and record.abstract_pt.startswith("o estudo")
    calls = []
    extract = ml.extract_complexity_vector
    monkeypatch.setattr(ml, "extract_complexity_vector", lambda *a, **k: calls.append(1) or extract(*a, **k))
    [with_title] = complexity_rows([record], "pt", include_title=True)
    [abstract_only] = complexity_rows([record], "pt")
    assert len(calls) == 2  # one extraction per record and run
    sentences, words = (COMPLEXITY_SCHEMA.index(name) for name in ("sentence_count", "word_count"))
    assert abstract_only[sentences] == 1
    assert with_title[sentences] == 2
    assert with_title[words] == abstract_only[words] + 1
