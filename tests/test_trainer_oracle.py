"""The lean trainer kernels in ``ml`` against the textbook loops they replace.

Every comparison is exact (``np.array_equal`` and ``==``): the kernels do the
same IEEE operations on the same operands in the same order.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import _trainer_oracle as oracle
from grantprod import ml
from grantprod.ml import FeatureMatrix, KnnHyper, MlpHyper, SvmHyper


def _seeded_rng(draw) -> np.random.Generator:
    return np.random.default_rng(draw(st.integers(0, 2**32 - 1)))


@st.composite
def svm_problems(draw):
    """Mostly-zero rows (as tf-idf gives), sometimes an all-zero row or one class."""
    n = draw(st.integers(1, 10))
    d = draw(st.integers(1, 12))
    rng = _seeded_rng(draw)
    density = draw(st.sampled_from([0.1, 0.3, 1.0]))
    scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
    X = scale * rng.normal(size=(n, d)) * (rng.random((n, d)) < density)
    if draw(st.booleans()):
        X[draw(st.integers(0, n - 1))] = 0.0
    labels = draw(st.sampled_from(["mixed", "zeros", "ones"]))
    if labels == "mixed":
        y = rng.integers(0, 2, n)
    else:
        y = np.full(n, 1 if labels == "ones" else 0)
    hyper = SvmHyper(C=draw(st.sampled_from([0.01, 1.0, 100.0])), epochs=draw(st.integers(1, 8)))
    return FeatureMatrix(X, y), hyper, draw(st.integers(0, 1000))


@settings(max_examples=150, deadline=None)
@given(svm_problems())
def test_svm_equals_textbook_pegasos(problem):
    train, hyper, seed = problem
    lean = ml.train_linear_svm(train, hyper, seed)
    textbook = oracle.train_linear_svm(train, hyper, seed)
    assert np.array_equal(lean.weights, textbook.weights)
    assert lean.bias == textbook.bias


@st.composite
def mlp_problems(draw):
    n = draw(st.integers(1, 10))
    d = draw(st.integers(1, 5))
    rng = _seeded_rng(draw)
    X = draw(st.sampled_from([0.1, 1.0, 30.0])) * rng.normal(size=(n, d))
    y = rng.integers(0, 2, n).astype(float)
    hidden = tuple(draw(st.lists(st.integers(1, 6), min_size=1, max_size=2)))
    weights, biases = ml._mlp_init([d, *hidden, 1], rng)
    biases = [rng.normal(size=b.shape) for b in biases]
    return X, y, weights, biases


@settings(max_examples=100, deadline=None)
@given(mlp_problems())
def test_mlp_loss_and_gradients_equal_textbook(problem):
    X, y, weights, biases = problem
    loss, grad_w, grad_b = ml.mlp_loss_and_grad(weights, biases, X, y)
    ref_loss, ref_w, ref_b = oracle.mlp_loss_and_grad(weights, biases, X, y)
    assert loss == ref_loss
    for got, want in zip(grad_w + grad_b, ref_w + ref_b):
        assert np.array_equal(got, want)


@settings(max_examples=40, deadline=None)
@given(
    mlp_problems(),
    st.integers(1, 6),
    st.sampled_from([0.1, 1.0]),
    st.integers(0, 1000),
)
def test_trained_mlp_equals_textbook(problem, epochs, learning_rate, seed):
    X, y, weights, _ = problem
    hidden = tuple(W.shape[1] for W in weights[:-1])
    train = FeatureMatrix(X, y.astype(int))
    hyper = MlpHyper(hidden_layers=hidden, learning_rate=learning_rate, epochs=epochs)
    lean = ml.train_mlp(train, hyper, seed)
    with mock.patch.object(ml, "mlp_loss_and_grad", oracle.mlp_loss_and_grad), \
            mock.patch.object(ml, "_sigmoid", oracle._sigmoid):
        textbook = ml.train_mlp(train, hyper, seed)
        textbook_proba = textbook.predict_proba(X)
    for got, want in zip(lean.weights + lean.biases, textbook.weights + textbook.biases):
        assert np.array_equal(got, want)
    assert np.array_equal(lean.predict_proba(X), textbook_proba)


SIGMOID_EDGES = [0.0, -0.0, 1e-300, -1e-300, 745.0, -745.0, 800.0, -800.0,
                 np.inf, -np.inf, np.nan]


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=20))
def test_sigmoid_equals_masked_scatter(values):
    z = np.array(SIGMOID_EDGES + values, dtype=float)
    assert np.array_equal(ml._sigmoid(z), oracle._sigmoid(z), equal_nan=True)


@st.composite
def knn_problems(draw):
    """Small integer-valued rows with duplicates, so neighbour distances tie."""
    n = draw(st.integers(2, 24))
    rng = _seeded_rng(draw)
    d = draw(st.integers(1, 4))
    X = rng.integers(0, 3, size=(n, d)).astype(float)
    X[rng.integers(0, n, n // 3)] = X[0]
    y = rng.integers(0, 2, n)
    return X, y, draw(st.sampled_from(["euclidean", "cosine"])), draw(st.integers(0, 1000))


@settings(max_examples=100, deadline=None)
@given(knn_problems())
def test_knn_selection_equals_per_k_models(problem):
    X, y, metric, seed = problem
    hyper = KnnHyper()
    assert ml.select_knn_k(X, y, hyper, seed, metric) == oracle.select_knn_k(
        X, y, hyper, seed, metric
    )
    # every per-k score of one split, against one fitted model per k
    test_mask = np.random.default_rng(seed).random(y.size) < 0.4
    X_tr, y_tr, X_te, y_te = X[~test_mask], y[~test_mask], X[test_mask], y[test_mask]
    ks = [1, 2, 3, 5, 7, 11, 15, 25]
    expected = [
        ml.f1_score(ml.train_knn(FeatureMatrix(X_tr, y_tr), k, metric).predict(X_te), y_te)
        if k <= y_tr.size else 0.0
        for k in ks
    ]
    assert ml._knn_fold_scores(X_tr, y_tr, X_te, y_te, ks, metric) == expected
