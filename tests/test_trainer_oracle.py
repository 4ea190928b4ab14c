"""The lean trainer kernels in ``ml`` against the textbook loops they replace.

With at least as many rows as columns every comparison is exact
(``np.array_equal`` and ``==``): the kernels do the same IEEE operations on
the same operands in the same order.  With fewer rows than columns the SVM and
the MLP train in Gram space, which reorders the sums, so those properties
allow a relative weight difference of ``GRAM_RTOL`` and require the textbook
prediction on every row whose textbook decision value is more than
``DECISION_MARGIN`` from its threshold.

Full-batch descent at a large step can amplify rounding tenfold an epoch.  On
such a run the textbook loop itself moves by more than ``GRAM_RTOL`` when X
moves by one ulp, so no reordering of its sums could stay within the
tolerance; the MLP property checks only the runs that the textbook loop
resolves to ``GRAM_RTOL / 1000``.

Each strategy returns a problem recipe: a frozen dataclass of its scalar draws
(the numpy generator's seed among them) whose ``build()`` makes the arrays.
A falsifying report prints the recipe, not the arrays (whose 8-digit repr
loses the digits a chaotic run depends on), so pasting the printed recipe
into ``@example(...)`` on the test replays the failure exactly.
"""

from dataclasses import dataclass
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import _trainer_oracle as oracle
from grantprod import ml
from grantprod.ml import FeatureMatrix, KnnHyper, MlpHyper, SvmHyper

GRAM_RTOL = 1e-9
DECISION_MARGIN = 1e-9


RNG_SEEDS = st.integers(0, 2**32 - 1)
LABEL_KINDS = st.sampled_from(["mixed", "zeros", "ones"])


def _shape(draw, gram: bool, max_cols: int) -> tuple[int, int]:
    """Fewer rows than columns for the Gram form, otherwise at least as many."""
    n = draw(st.integers(1, 10))
    if gram:
        return n, draw(st.integers(n + 1, n + 12))
    return n, draw(st.integers(1, min(n, max_cols)))


def _zero_row(draw, n: int) -> int | None:
    """An all-zero row half the time."""
    return draw(st.integers(0, n - 1)) if draw(st.booleans()) else None


def _labels(rng, kind: str, n: int) -> np.ndarray:
    if kind == "mixed":
        return rng.integers(0, 2, n)
    return np.full(n, 1 if kind == "ones" else 0)


def within(got, want, rtol: float) -> bool:
    got, want = np.atleast_1d(got), np.atleast_1d(want)
    return got.shape == want.shape and np.linalg.norm(got - want) <= rtol * np.linalg.norm(want)


def assert_close(got, want) -> None:
    assert within(got, want, GRAM_RTOL)


def assert_same_decisions(got, want, threshold: float) -> None:
    """Equal predictions wherever the textbook value is clear of the threshold."""
    clear = np.abs(want - threshold) > DECISION_MARGIN
    assert np.array_equal(got[clear] > threshold, want[clear] > threshold)


@dataclass(frozen=True)
class SvmProblem:
    """Mostly-zero rows (as tf-idf gives), sometimes an all-zero row or one class."""

    n: int
    d: int
    rng_seed: int
    density: float
    scale: float
    zero_row: int | None
    labels: str
    C: float
    epochs: int
    seed: int

    def build(self) -> tuple[FeatureMatrix, SvmHyper, int, np.ndarray]:
        rng = np.random.default_rng(self.rng_seed)
        shape = (self.n, self.d)
        X = self.scale * rng.normal(size=shape) * (rng.random(shape) < self.density)
        if self.zero_row is not None:
            X[self.zero_row] = 0.0
        y = _labels(rng, self.labels, self.n)
        probes = np.vstack([X, self.scale * rng.normal(size=(4, self.d))])
        return FeatureMatrix(X, y), SvmHyper(C=self.C, epochs=self.epochs), self.seed, probes


@st.composite
def svm_problems(draw, gram: bool = False) -> SvmProblem:
    n, d = _shape(draw, gram, max_cols=12)
    return SvmProblem(
        n=n,
        d=d,
        rng_seed=draw(RNG_SEEDS),
        density=draw(st.sampled_from([0.1, 0.3, 1.0])),
        scale=draw(st.sampled_from([1e-3, 1.0, 1e3])),
        zero_row=_zero_row(draw, n),
        labels=draw(LABEL_KINDS),
        C=draw(st.sampled_from([0.01, 1.0, 100.0])),
        epochs=draw(st.integers(1, 8)),
        seed=draw(st.integers(0, 1000)),
    )


@settings(max_examples=150, deadline=None)
@given(svm_problems())
def test_svm_equals_textbook_pegasos(problem):
    train, hyper, seed, _ = problem.build()
    lean = ml.train_linear_svm(train, hyper, seed)
    textbook = oracle.train_linear_svm(train, hyper, seed)
    assert np.array_equal(lean.weights, textbook.weights)
    assert lean.bias == textbook.bias


def assert_svm_near_textbook(train, hyper, seed, probes) -> None:
    gram = ml.train_linear_svm(train, hyper, seed)
    textbook = oracle.train_linear_svm(train, hyper, seed)
    assert_close(gram.weights, textbook.weights)
    assert_close(gram.bias, textbook.bias)
    assert_same_decisions(gram.decision_function(probes), textbook.decision_function(probes), 0.0)


@settings(max_examples=300, deadline=None)
@given(svm_problems(gram=True))
def test_gram_svm_within_tolerance_of_textbook_pegasos(problem):
    assert_svm_near_textbook(*problem.build())


@pytest.mark.parametrize("C, n", [(1.0, 3), (0.01, 9)])
def test_gram_svm_first_step_with_zero_or_rounded_shrink(C, n):
    # At t = 1 the shrink 1 - eta * lam is 0 for (1, 3) and 1.1e-16 for
    # (0.01, 9); w is still zero there, and neither may become the scale of w.
    lam = 1.0 / (C * n)
    assert (1.0 - (1.0 / lam) * lam == 0.0) == (C == 1.0)
    rng = np.random.default_rng(n)
    X = rng.normal(size=(n, n + 4))
    y = np.arange(n) % 2
    for epochs in (1, 5):
        assert_svm_near_textbook(FeatureMatrix(X, y), SvmHyper(C=C, epochs=epochs), 7, X)


@pytest.mark.parametrize("row_scale", [1e3, 1e6])
def test_gram_svm_scale_survives_repeated_projections(row_scale):
    # Large rows make hinge steps overshoot the ball, and each projection
    # shrinks the scale of w = s X^T alpha; left unfolded, the scale falls
    # below 1e-300 within 50 epochs, and at 1e6 alpha overflows.
    X = row_scale * np.random.default_rng(1).normal(size=(4, 10))
    train, hyper = FeatureMatrix(X, np.array([0, 1, 0, 1])), SvmHyper(C=100.0, epochs=50)
    with np.errstate(all="raise"):
        model = ml.train_linear_svm(train, hyper, seed=0)
    assert np.isfinite(model.weights).all()
    assert_svm_near_textbook(train, hyper, 0, X)


HIDDEN_LAYERS = st.lists(st.integers(1, 6), min_size=1, max_size=2).map(tuple)


@dataclass(frozen=True)
class MlpProblem:
    """Dense rows, labels, and weights and biases at random (non-zero) values."""

    n: int
    d: int
    rng_seed: int
    scale: float
    hidden: tuple[int, ...]

    def build(self) -> tuple[np.ndarray, np.ndarray, list[np.ndarray], list[np.ndarray]]:
        rng = np.random.default_rng(self.rng_seed)
        X = self.scale * rng.normal(size=(self.n, self.d))
        y = rng.integers(0, 2, self.n).astype(float)
        weights, biases = ml._mlp_init([self.d, *self.hidden, 1], rng)
        biases = [rng.normal(size=b.shape) for b in biases]
        return X, y, weights, biases


@st.composite
def mlp_problems(draw) -> MlpProblem:
    return MlpProblem(
        n=draw(st.integers(1, 10)),
        d=draw(st.integers(1, 5)),
        rng_seed=draw(RNG_SEEDS),
        scale=draw(st.sampled_from([0.1, 1.0, 30.0])),
        hidden=draw(HIDDEN_LAYERS),
    )


@settings(max_examples=100, deadline=None)
@given(mlp_problems())
def test_mlp_loss_and_gradients_equal_textbook(problem):
    X, y, weights, biases = problem.build()
    loss, grad_w, grad_b = ml.mlp_loss_and_grad(weights, biases, X, y)
    ref_loss, ref_w, ref_b = oracle.mlp_loss_and_grad(weights, biases, X, y)
    assert loss == ref_loss
    for got, want in zip(grad_w + grad_b, ref_w + ref_b):
        assert np.array_equal(got, want)


@dataclass(frozen=True)
class MlpTrainingProblem:
    """Dense rows at scales from 1e-3 to 1e3, sometimes an all-zero row or one class."""

    n: int
    d: int
    rng_seed: int
    scale: float
    zero_row: int | None
    labels: str
    hidden: tuple[int, ...]
    learning_rate: float
    epochs: int
    seed: int

    def build(self) -> tuple[FeatureMatrix, MlpHyper, int, np.ndarray]:
        rng = np.random.default_rng(self.rng_seed)
        X = self.scale * rng.normal(size=(self.n, self.d))
        if self.zero_row is not None:
            X[self.zero_row] = 0.0
        y = _labels(rng, self.labels, self.n)
        hyper = MlpHyper(
            hidden_layers=self.hidden, learning_rate=self.learning_rate, epochs=self.epochs
        )
        probes = np.vstack([X, self.scale * rng.normal(size=(4, self.d))])
        return FeatureMatrix(X, y), hyper, self.seed, probes


@st.composite
def mlp_training_problems(draw, gram: bool = False) -> MlpTrainingProblem:
    n, d = _shape(draw, gram, max_cols=5)
    return MlpTrainingProblem(
        n=n,
        d=d,
        rng_seed=draw(RNG_SEEDS),
        scale=draw(st.sampled_from([1e-3, 0.1, 1.0, 30.0, 1e3])),
        zero_row=_zero_row(draw, n),
        labels=draw(LABEL_KINDS),
        hidden=draw(HIDDEN_LAYERS),
        learning_rate=draw(st.sampled_from([0.1, 1.0])),
        epochs=draw(st.integers(1, 30)),
        seed=draw(st.integers(0, 1000)),
    )


@settings(max_examples=60, deadline=None)
@given(mlp_training_problems())
def test_trained_mlp_equals_textbook(problem):
    train, hyper, seed, probes = problem.build()
    lean = ml.train_mlp(train, hyper, seed)
    textbook = oracle.train_mlp(train, hyper, seed)
    for got, want in zip(lean.weights + lean.biases, textbook.weights + textbook.biases):
        assert np.array_equal(got, want)
    assert np.array_equal(lean.predict_proba(probes), oracle.mlp_predict_proba(textbook, probes))


def assert_mlp_near_textbook(train, hyper, seed, probes) -> None:
    gram = ml.train_mlp(train, hyper, seed)
    textbook = oracle.train_mlp(train, hyper, seed)
    for got, want in zip(gram.weights + gram.biases, textbook.weights + textbook.biases):
        assert_close(got, want)
    assert_same_decisions(
        gram.predict_proba(probes), oracle.mlp_predict_proba(textbook, probes), 0.5
    )


def _textbook_resolves(train, hyper, seed) -> bool:
    """Whether the textbook run moves by at most GRAM_RTOL / 1000 when X moves by one ulp."""
    textbook = oracle.train_mlp(train, hyper, seed)
    nudged = oracle.train_mlp(FeatureMatrix(train.X * (1.0 + 2.0**-52), train.y), hyper, seed)
    return all(
        within(got, want, GRAM_RTOL / 1000)
        for got, want in zip(nudged.weights + nudged.biases, textbook.weights + textbook.biases)
    )


@settings(max_examples=200, deadline=None)
@given(mlp_training_problems(gram=True))
def test_gram_mlp_within_tolerance_of_textbook(problem):
    train, hyper, seed, probes = problem.build()
    assume(_textbook_resolves(train, hyper, seed))
    assert_mlp_near_textbook(train, hyper, seed, probes)


@pytest.mark.parametrize("d", [6, 7])
def test_form_rule_at_its_boundary(d):
    # n == d trains in the primal, bit for bit; n == d - 1 trains in Gram space
    n = 6
    rng = np.random.default_rng(d)
    train = FeatureMatrix(rng.normal(size=(n, d)), np.arange(n) % 2)
    svm_hyper, mlp_hyper = SvmHyper(epochs=20), MlpHyper(hidden_layers=(3,), epochs=20)
    with mock.patch.object(ml, "_pegasos_gram", wraps=ml._pegasos_gram) as pegasos_gram, \
            mock.patch.object(ml, "_GramFirstLayer", wraps=ml._GramFirstLayer) as mlp_gram:
        svm = ml.train_linear_svm(train, svm_hyper, seed=3)
        mlp = ml.train_mlp(train, mlp_hyper, seed=3)
    assert pegasos_gram.call_count == mlp_gram.call_count == (n < d)
    assert svm.weights.shape == (d,)
    assert mlp.weights[0].shape == (d, 3)
    svm_textbook = oracle.train_linear_svm(train, svm_hyper, seed=3)
    mlp_textbook = oracle.train_mlp(train, mlp_hyper, seed=3)
    if n == d:
        assert np.array_equal(svm.weights, svm_textbook.weights)
        assert svm.bias == svm_textbook.bias
        for got, want in zip(mlp.weights + mlp.biases, mlp_textbook.weights + mlp_textbook.biases):
            assert np.array_equal(got, want)
    else:
        assert_svm_near_textbook(train, svm_hyper, 3, train.X)
        assert_mlp_near_textbook(train, mlp_hyper, 3, train.X)
    assert np.array_equal(svm.predict(train.X), svm_textbook.predict(train.X))
    assert np.array_equal(mlp.predict(train.X), mlp_textbook.predict(train.X))


SIGMOID_EDGES = [0.0, -0.0, 1e-300, -1e-300, 745.0, -745.0, 800.0, -800.0,
                 np.inf, -np.inf, np.nan]


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=20))
def test_sigmoid_equals_masked_scatter(values):
    z = np.array(SIGMOID_EDGES + values, dtype=float)
    assert np.array_equal(ml._sigmoid(z), oracle._sigmoid(z), equal_nan=True)


@dataclass(frozen=True)
class KnnProblem:
    """Small integer-valued rows with duplicates, so neighbour distances tie."""

    n: int
    d: int
    rng_seed: int
    metric: str
    seed: int

    def build(self) -> tuple[np.ndarray, np.ndarray, str, int]:
        rng = np.random.default_rng(self.rng_seed)
        X = rng.integers(0, 3, size=(self.n, self.d)).astype(float)
        X[rng.integers(0, self.n, self.n // 3)] = X[0]
        y = rng.integers(0, 2, self.n)
        return X, y, self.metric, self.seed


@st.composite
def knn_problems(draw) -> KnnProblem:
    return KnnProblem(
        n=draw(st.integers(2, 24)),
        d=draw(st.integers(1, 4)),
        rng_seed=draw(RNG_SEEDS),
        metric=draw(st.sampled_from(["euclidean", "cosine"])),
        seed=draw(st.integers(0, 1000)),
    )


@settings(max_examples=100, deadline=None)
@given(knn_problems())
def test_knn_selection_equals_per_k_models(problem):
    X, y, metric, seed = problem.build()
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
