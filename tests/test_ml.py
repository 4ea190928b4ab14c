import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grantprod import ml
from grantprod.corpus import Label
from grantprod.ml import (
    ComplexityFeatures,
    FeatureMatrix,
    ForestHyper,
    KnnHyper,
    MlpHyper,
    SvmHyper,
    TfidfFeatures,
    TrainingDivergedError,
    TreeHyper,
    apply_imputer,
    complexity_rows,
    complexity_vectors,
    cross_validate,
    f1_score,
    fit_median_imputer,
    macro_f1,
    mlp_loss_and_grad,
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

from _synth import planted_ne_corpus, planted_topic_corpus, shuffled_labels
from _trainer_oracle import information_gain


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
    assert model.roots[0].feature == 0
    assert model.roots[0].threshold == 0.5
    assert information_gain(y, X[:, 0] <= 0.5) == pytest.approx(1.0)
    assert model.roots[0].left.is_leaf and model.roots[0].right.is_leaf
    assert (model.predict(X) == y).all()


def test_constant_features_single_leaf():
    X = np.zeros((6, 3))
    y = np.array([0, 0, 0, 0, 1, 1])
    model = train_decision_tree(FeatureMatrix(X, y))
    assert model.roots[0].is_leaf
    assert (model.predict(X) == 0).all()  # majority class


def test_single_class_training_set_is_single_leaf():
    X = np.arange(8.0).reshape(4, 2)
    y = np.ones(4, dtype=int)
    model = train_decision_tree(FeatureMatrix(X, y))
    assert model.roots[0].is_leaf
    assert (model.predict(X) == 1).all()


def test_xor_resolved_at_depth_two():
    X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    y = np.array([0, 1, 1, 0])
    # brute-force entropy table: either feature alone has zero gain at the root
    for j in range(2):
        assert information_gain(y, X[:, j] <= 0.5) == pytest.approx(0.0, abs=1e-12)
    model = train_decision_tree(FeatureMatrix(X, y))
    assert not model.roots[0].is_leaf
    assert not (model.roots[0].left.is_leaf and model.roots[0].right.is_leaf)
    assert (model.predict(X) == y).all()


def test_max_depth_and_min_gain_stop():
    X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    y = np.array([0, 1, 1, 0])
    stump = train_decision_tree(FeatureMatrix(X, y), TreeHyper(max_depth=0))
    assert stump.roots[0].is_leaf
    strict = train_decision_tree(FeatureMatrix(X, y), TreeHyper(min_gain=1e-6))
    assert strict.roots[0].is_leaf  # zero-gain root split now rejected


def test_split_between_adjacent_floats_keeps_both_children():
    low = 4.9216076867444665  # a noun_sd value seen in a generated corpus
    high = np.nextafter(low, np.inf)
    assert (low + high) / 2.0 == high  # the midpoint rounds up to the right value
    X = np.array([[low], [high]])
    y = np.array([0, 1])
    model = train_decision_tree(FeatureMatrix(X, y))
    assert model.roots[0].threshold == low
    assert model.roots[0].left.n_samples == model.roots[0].right.n_samples == 1
    assert (model.predict(X) == y).all()


def test_chosen_splits_have_nonnegative_delta_g():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(60, 4))
    y = (X[:, 1] + 0.3 * rng.normal(size=60) > 0).astype(int)
    model = train_decision_tree(FeatureMatrix(X, y))
    nodes = list(model.split_nodes())
    assert nodes
    decreases = [
        impurity_decrease(
            gini_from_counts(node.n_positive, node.n_samples),
            gini_from_counts(node.left.n_positive, node.left.n_samples),
            gini_from_counts(node.right.n_positive, node.right.n_samples),
            node.left.n_samples,
            node.right.n_samples,
        )
        for node in nodes
    ]
    assert all(delta_g >= 0.0 for delta_g in decreases)


# ---------------------------------------------------------------------------
# random forest
# ---------------------------------------------------------------------------

def test_degenerate_forest_equals_tree():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(30, 3))
    y = (X[:, 0] > 0.2).astype(int)
    tree = train_decision_tree(FeatureMatrix(X, y))
    forest = train_random_forest(
        FeatureMatrix(X, y),
        ForestHyper(n_trees=1, bootstrap=False, max_features=None),
        seed=0,
    )
    assert (forest.predict(X) == tree.predict(X)).all()


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
        return [(n.feature, n.threshold, n.n_samples, n.n_positive) for n in model.split_nodes()]
    assert splits(a) == splits(b) != splits(c)


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
    k = select_knn_k(X, y, KnnHyper(), seed=1)
    assert k in (1, 3, 5, 7, 11, 15)


# ---------------------------------------------------------------------------
# linear SVM
# ---------------------------------------------------------------------------

def test_svm_separable_accuracy():
    rng = np.random.default_rng(6)
    X = np.vstack([rng.normal(-2, 0.4, (20, 2)), rng.normal(2, 0.4, (20, 2))])
    y = np.array([0] * 20 + [1] * 20)
    model = train_linear_svm(FeatureMatrix(X, y), SvmHyper(C=10.0, epochs=200), seed=0)
    assert (model.predict(X) == y).mean() == 1.0


def test_svm_constant_labels_constant_predictor():
    X = np.array([[0.0], [1.0], [2.0]])
    model1 = train_linear_svm(FeatureMatrix(X, np.ones(3, dtype=int)), seed=0)
    assert (model1.predict(X) == 1).all()
    model0 = train_linear_svm(FeatureMatrix(X, np.zeros(3, dtype=int)), seed=0)
    assert (model0.predict(X) == 0).all()


def test_svm_recovers_max_margin_line():
    # closest points (2,0) and (0,0): the max-margin boundary is x = 1
    X = np.array([[2.0, 0.0], [3.0, 1.0], [3.0, -1.0],
                  [0.0, 0.0], [-1.0, 1.0], [-1.0, -1.0]])
    y = np.array([1, 1, 1, 0, 0, 0])
    model = train_linear_svm(FeatureMatrix(X, y), SvmHyper(C=10.0, epochs=500), seed=3)
    assert (model.predict(X) == y).all()
    w = model.weights
    assert abs(w[1] / w[0]) < 0.05                      # direction along x
    assert -model.bias / w[0] == pytest.approx(1.0, abs=0.1)  # boundary near x = 1


def test_svm_determinism():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(30, 3))
    y = (X[:, 0] > 0).astype(int)
    a = train_linear_svm(FeatureMatrix(X, y), seed=5)
    b = train_linear_svm(FeatureMatrix(X, y), seed=5)
    np.testing.assert_array_equal(a.weights, b.weights)
    assert a.bias == b.bias


@pytest.mark.parametrize("density", [1.0, 0.05])
def test_numpy_identities_of_the_lean_svm_step(density):
    # train_linear_svm computes the margin with x.dot(w) and the norm with
    # math.sqrt(w.dot(w)); the textbook step used x @ w and np.linalg.norm
    rng = np.random.default_rng(12)
    X = rng.normal(size=(200, 1100)) * (rng.random((200, 1100)) < density)
    W = rng.normal(size=(200, 1100)) * (rng.random((200, 1100)) < density)
    for x, w in zip(X, W):
        assert np.linalg.norm(w) == math.sqrt(w.dot(w))
        assert (x @ w) == x.dot(w)


# ---------------------------------------------------------------------------
# MLP
# ---------------------------------------------------------------------------

def test_zero_hidden_units_rejected():
    with pytest.raises(ValueError):
        MlpHyper(hidden_layers=(0,))
    with pytest.raises(ValueError):
        MlpHyper(hidden_layers=())


def test_single_neuron_identity_task():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(80, 1))
    y = (x[:, 0] > 0).astype(int)
    model = train_mlp(FeatureMatrix(x, y), MlpHyper(hidden_layers=(1,), epochs=400), seed=2)
    assert (model.predict(x) == y).mean() >= 0.95


def test_gradient_check_small_network():
    rng = np.random.default_rng(10)
    weights, biases = _mlp_init([3, 4, 1], rng)
    X = rng.normal(size=(6, 3))
    y = rng.integers(0, 2, 6).astype(float)
    loss, grad_w, grad_b = mlp_loss_and_grad(weights, biases, X, y)
    h = 1e-6
    worst = 0.0
    for params, grads in ((weights, grad_w), (biases, grad_b)):
        for layer in range(len(params)):
            for index in np.ndindex(params[layer].shape):
                original = params[layer][index]
                params[layer][index] = original + h
                up, _, _ = mlp_loss_and_grad(weights, biases, X, y)
                params[layer][index] = original - h
                down, _, _ = mlp_loss_and_grad(weights, biases, X, y)
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
        train_mlp(FeatureMatrix(X, y), MlpHyper(learning_rate=1e308, epochs=5), seed=0)
    assert "epoch" in str(excinfo.value)


def test_gram_mlp_divergence_names_the_epoch():
    # fewer rows than columns: the first layer trains in Gram space
    X = np.array([[1e3, -1e3, 5e2], [-1e3, 1e3, -5e2]])
    y = np.array([1, 0])
    with pytest.raises(TrainingDivergedError, match=r"non-finite loss .* at epoch \d+ "):
        train_mlp(FeatureMatrix(X, y), MlpHyper(learning_rate=1e308, epochs=5), seed=0)


@pytest.mark.parametrize("trainer", [train_linear_svm, train_mlp])
def test_gram_form_keeps_the_input_guards(trainer):
    def message(X, y):
        with pytest.raises(ValueError) as excinfo:
            trainer(FeatureMatrix(X, y), seed=0)
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
    a = train_mlp(FeatureMatrix(X, y), MlpHyper(epochs=50), seed=4)
    b = train_mlp(FeatureMatrix(X, y), MlpHyper(epochs=50), seed=4)
    for w1, w2 in zip(a.weights, b.weights):
        np.testing.assert_array_equal(w1, w2)


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


def test_macro_f1():
    predictions = [1, 1, 0, 0]
    truth = [1, 0, 1, 0]
    expected = 0.5 * (f1_score(predictions, truth, 1) + f1_score(predictions, truth, 0))
    assert macro_f1(predictions, truth) == expected


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


def test_family_is_a_class_constant_the_report_still_names():
    with pytest.raises(TypeError):
        ComplexityFeatures(family="tfidf")
    report = cross_validate(planted_topic_corpus(n=40, seed=1), TfidfFeatures(top_x=20),
                            "naive_bayes", k=2, n_resamples=1, base_seed=0)
    assert report.config["features"]["family"] == "tfidf"


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
    vocabulary = counts.vocabulary(select_columns(counts, train_rows, 100))
    assert "markerunicum" not in vocabulary.entries
    assert test.shape == (1, len(vocabulary))
    refit = counts.vocabulary(select_columns(counts, [0] + train_rows[:-1], 100))
    assert "markerunicum" in refit.entries


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
    [with_title] = complexity_vectors([record], "pt", include_title=True)
    [abstract_only] = complexity_vectors([record], "pt")
    assert len(calls) == 2  # one extraction per record and run
    assert abstract_only.sentence_count == 1
    assert with_title.sentence_count == 2
    assert with_title.word_count == abstract_only.word_count + 1
