"""The lean trainer kernels in ``ml`` against the textbook loops they replace.

With at least as many rows as columns every comparison is exact
(``np.array_equal`` and ``==``): the kernels do the same IEEE operations on
the same operands in the same order.  With fewer rows than columns the MLP
trains in Gram space, which reorders the sums, so those properties allow a
relative weight difference of ``GRAM_RTOL`` and require the textbook
prediction on every row whose textbook decision value is more than
``DECISION_MARGIN`` from its threshold.

The SVM is a Newton solve, not a loop with a textbook twin, so its
properties check optimality: at the fit the gradient vanishes to rounding
(measured by the Newton decrement), no nearby point has a lower exact
objective, and the two forms of a Newton step agree.

Full-batch descent at a large step can amplify rounding tenfold an epoch.  On
such a run the textbook loop itself moves by more than ``GRAM_RTOL`` when X
moves by one ulp, so no reordering of its sums could stay within the
tolerance; the MLP property checks only the runs that the textbook loop
resolves to ``GRAM_RTOL / 1000``.

The tree layer is exact throughout: the split search, the flat trees, their
prediction and the importances equal the node-object oracle's bit for bit.

Each strategy returns a problem recipe: a frozen dataclass of its scalar draws
(the numpy generator's seed among them) whose ``build()`` makes the arrays.
A falsifying report prints the recipe, not the arrays (whose 8-digit repr
loses the digits a chaotic run depends on), so pasting the printed recipe
into ``@example(...)`` on the test replays the failure exactly.
"""

import math
from dataclasses import dataclass
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import _trainer_oracle as oracle
from grantprod import ml
from grantprod.ml import FeatureMatrix, MlpHyper, SvmHyper
from grantprod.relevance import feature_importance
from grantprod.seeds import SplitMix64, _mix64, derive_seed

GRAM_RTOL = 1e-9
DECISION_MARGIN = 1e-9
EPS = np.finfo(float).eps


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

    def build(self) -> tuple[FeatureMatrix, SvmHyper]:
        rng = np.random.default_rng(self.rng_seed)
        shape = (self.n, self.d)
        X = self.scale * rng.normal(size=shape) * (rng.random(shape) < self.density)
        if self.zero_row is not None:
            X[self.zero_row] = 0.0
        return FeatureMatrix(X, _labels(rng, self.labels, self.n)), SvmHyper(C=self.C)


@st.composite
def svm_problems(draw) -> SvmProblem:
    """Either shape: fewer rows than columns or at least as many."""
    n, d = _shape(draw, draw(st.booleans()), max_cols=12)
    return SvmProblem(
        n=n,
        d=d,
        rng_seed=draw(RNG_SEEDS),
        density=draw(st.sampled_from([0.1, 0.3, 1.0])),
        scale=draw(st.sampled_from([1e-3, 1.0, 1e3])),
        zero_row=_zero_row(draw, n),
        labels=draw(LABEL_KINDS),
        C=draw(st.sampled_from([0.01, 1.0, 100.0])),
    )


@settings(max_examples=300, deadline=None)
@given(svm_problems())
# one class, rows of scale 1e3 at C = 100: the first step leaves most rows a
# hair outside the margin, and a halving line search then stalls at their
# kinks (steps of t ~ 1e-6) until the step cap raises
@example(SvmProblem(n=10, d=15, rng_seed=137, density=0.3, scale=1000.0,
                    zero_row=None, labels="zeros", C=100.0))
def test_svm_gradient_vanishes_at_the_fit(problem):
    # The Newton decrement g^T H^-1 g is what the objective's local model can
    # still lose; at the optimum it is 0, and rounding leaves it below eps f.
    train, hyper = problem.build()
    model = ml.train_linear_svm(train, hyper)
    gradient, hessian = oracle.svm_gradient_and_hessian(train, hyper.C, model)
    decrement = gradient @ np.linalg.solve(hessian, gradient)
    assert decrement <= 2 * EPS * float(oracle.svm_objective(train, hyper.C, model))


@settings(max_examples=150, deadline=None)
@given(svm_problems(), st.sampled_from([1e-3, 1e-6, 1e-9]))
def test_no_small_perturbation_lowers_the_svm_objective(problem, size):
    train, hyper = problem.build()
    model = ml.train_linear_svm(train, hyper)
    best = oracle.svm_objective(train, hyper.C, model)
    w = np.append(model.weights, model.bias)
    rng = np.random.default_rng(problem.rng_seed + 1)
    for _ in range(4):
        delta = rng.normal(size=w.size)
        moved = w + delta * (size * (np.linalg.norm(w) or 1.0) / np.linalg.norm(delta))
        nearby = ml.LinearSvmModel(weights=moved[:-1], bias=float(moved[-1]))
        assert oracle.svm_objective(train, hyper.C, nearby) >= best * (1 - EPS)


@settings(max_examples=300, deadline=None)
@given(svm_problems(), st.data())
def test_push_through_step_equals_square_step(problem, data):
    # Both solve H s = -g, so they agree to 1e-9 plus the forward error
    # eps * cond(H) that a backward-stable solve allows.  The push-through
    # form subtracts g from A^T (...)^-1 A g, so its rounding scales with |g|.
    train, hyper = problem.build()
    X = np.hstack([train.X, np.ones((problem.n, 1))])
    active = np.array(data.draw(st.lists(st.booleans(), min_size=problem.n, max_size=problem.n)))
    gradient = np.random.default_rng(problem.rng_seed).normal(size=X.shape[1])
    square = ml._newton_step(X, active, hyper.C, gradient, None)
    push_through = ml._newton_step(X, active, hyper.C, gradient, X @ X.T)
    A = X[active]
    hessian = np.eye(X.shape[1]) + 2.0 * hyper.C * (A.T @ A)
    bound = (GRAM_RTOL + EPS * np.linalg.cond(hessian)) * np.linalg.norm(gradient)
    assert np.linalg.norm(push_through - square) <= bound


@settings(max_examples=100, deadline=None)
@given(svm_problems())
def test_svm_iteration_cap_raises_diverged_error(problem):
    train, hyper = problem.build()
    with mock.patch.object(ml, "_newton_step", wraps=ml._newton_step) as newton_step:
        model = ml.train_linear_svm(train, hyper)
    steps = newton_step.call_count
    with mock.patch.object(ml, "_NEWTON_MAX_STEPS", steps):
        again = ml.train_linear_svm(train, hyper)
    assert np.array_equal(again.weights, model.weights) and again.bias == model.bias
    if steps > 1:  # one step ends at once when w~ = 0 is the optimum
        with mock.patch.object(ml, "_NEWTON_MAX_STEPS", steps - 1), \
                pytest.raises(ml.TrainingDivergedError, match=r"Newton steps: objective \d"):
            ml.train_linear_svm(train, hyper)


STREAM_SEEDS = [0, 1, 2**63, 2**64 - 1, derive_seed(7), derive_seed(42, 303, 1, 2)]


@pytest.mark.parametrize("seed", STREAM_SEEDS)
@pytest.mark.parametrize("count", [1, 7, 64])
def test_mlp_init_stream_is_splitmix64(seed, count):
    # the vectorized pass's 64-bit outputs are SplitMix64(seed).next_u64(),
    # one per uniform, and an odd count draws its last pair whole
    outputs = []

    def mix(z):
        outputs.append(_mix64(z))
        return outputs[-1]

    with mock.patch.object(ml, "_mix64", side_effect=mix):
        ml._standard_normals(seed, count)
    stream = SplitMix64(seed)
    assert outputs[0].dtype == np.uint64
    assert outputs[0].tolist() == [stream.next_u64() for _ in range(count + count % 2)]


@pytest.mark.parametrize("seed", STREAM_SEEDS)
def test_mlp_init_normals_equal_scalar_box_muller(seed):
    got = ml._standard_normals(seed, 2001)
    want = np.array(oracle.standard_normals(seed, 2001))
    np.testing.assert_array_max_ulp(got, want, maxulp=4)


def test_mlp_init_normals_have_standard_moments():
    z = ml._standard_normals(derive_seed(1), 10**5)
    # each bound is about six standard errors of its sample moment
    assert abs(z.mean()) < 0.02
    assert abs(z.var() - 1.0) < 0.03
    assert abs((z**4).mean() - 3.0) < 0.2
    assert abs((np.abs(z) < 1.0).mean() - math.erf(1 / math.sqrt(2))) < 0.01


def test_mlp_init_scales_the_stream_layer_by_layer():
    W1, b1, W2, b2 = ml._mlp_init(3, 4, seed=9)
    draws = ml._standard_normals(9, 3 * 4 + 4 * 1)
    assert np.array_equal(W1, draws[:12].reshape(3, 4) * (1.0 / math.sqrt(3)))
    assert np.array_equal(W2, draws[12:].reshape(4, 1) * (1.0 / math.sqrt(4)))
    assert np.array_equal(b1, np.zeros(4)) and np.array_equal(b2, np.zeros(1))


HIDDEN_UNITS = st.integers(1, 6)


@dataclass(frozen=True)
class MlpProblem:
    """Dense rows, labels, and weights and biases at random (non-zero) values."""

    n: int
    d: int
    rng_seed: int
    scale: float
    hidden: int

    def build(self) -> tuple[np.ndarray, np.ndarray, list[np.ndarray], list[np.ndarray]]:
        rng = np.random.default_rng(self.rng_seed)
        X = self.scale * rng.normal(size=(self.n, self.d))
        y = rng.integers(0, 2, self.n).astype(float)
        W1, b1, W2, b2 = ml._mlp_init(self.d, self.hidden, self.rng_seed)
        biases = [rng.normal(size=b.shape) for b in (b1, b2)]
        return X, y, [W1, W2], biases


@st.composite
def mlp_problems(draw) -> MlpProblem:
    return MlpProblem(
        n=draw(st.integers(1, 10)),
        d=draw(st.integers(1, 5)),
        rng_seed=draw(RNG_SEEDS),
        scale=draw(st.sampled_from([0.1, 1.0, 30.0])),
        hidden=draw(HIDDEN_UNITS),
    )


@settings(max_examples=100, deadline=None)
@given(mlp_problems())
def test_mlp_loss_and_gradients_equal_textbook(problem):
    X, y, weights, biases = problem.build()
    loss, grad_w, grad_b = oracle.kernel_loss_and_grad(weights, biases, X, y)
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
    hidden: int
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
            hidden_units=self.hidden, learning_rate=self.learning_rate, epochs=self.epochs
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
        hidden=draw(HIDDEN_UNITS),
        learning_rate=draw(st.sampled_from([0.1, 1.0])),
        epochs=draw(st.integers(1, 30)),
        seed=draw(st.integers(0, 1000)),
    )


@settings(max_examples=60, deadline=None)
@given(mlp_training_problems())
def test_trained_mlp_equals_textbook(problem):
    train, hyper, seed, probes = problem.build()
    lean = ml.train_mlp([train], hyper, [seed])[0]
    textbook = oracle.train_mlp(train, hyper, seed)
    for got, want in zip(oracle.mlp_arrays(lean), oracle.mlp_arrays(textbook)):
        assert np.array_equal(got, want)
    assert np.array_equal(lean.predict_proba(probes), oracle.mlp_predict_proba(textbook, probes))


@dataclass(frozen=True)
class StackedMlpProblem:
    """Training sets of up to three shapes, each in either form, for one call."""

    shapes: tuple[tuple[int, int], ...]
    rng_seed: int
    scale: float
    hidden: int
    learning_rate: float
    epochs: int
    seeds: tuple[int, ...]

    def build(self) -> tuple[list[FeatureMatrix], MlpHyper, list[int], list[np.ndarray]]:
        rng = np.random.default_rng(self.rng_seed)
        trains = [
            FeatureMatrix(self.scale * rng.normal(size=(n, d)), rng.integers(0, 2, n))
            for n, d in self.shapes
        ]
        hyper = MlpHyper(
            hidden_units=self.hidden, learning_rate=self.learning_rate, epochs=self.epochs
        )
        probes = [self.scale * rng.normal(size=(4, d)) for _, d in self.shapes]
        return trains, hyper, list(self.seeds), probes


@st.composite
def stacked_mlp_problems(draw) -> StackedMlpProblem:
    pool = [_shape(draw, draw(st.booleans()), max_cols=5) for _ in range(draw(st.integers(1, 3)))]
    shapes = tuple(draw(st.lists(st.sampled_from(pool), min_size=1, max_size=6)))
    return StackedMlpProblem(
        shapes=shapes,
        rng_seed=draw(RNG_SEEDS),
        scale=draw(st.sampled_from([1e-3, 0.1, 1.0, 30.0])),
        hidden=draw(HIDDEN_UNITS),
        learning_rate=draw(st.sampled_from([0.1, 1.0])),
        epochs=draw(st.integers(1, 30)),
        seeds=tuple(draw(st.integers(0, 1000)) for _ in shapes),
    )


@settings(max_examples=100, deadline=None)
@given(stacked_mlp_problems())
def test_stacked_mlp_equals_one_fold_calls(problem):
    # one call over F training sets trains each exactly as a call of its own
    trains, hyper, seeds, probes = problem.build()
    stacked = ml.train_mlp(trains, hyper, seeds)
    assert len(stacked) == len(trains)
    for train, seed, model, X in zip(trains, seeds, stacked, probes):
        alone = ml.train_mlp([train], hyper, [seed])[0]
        for got, want in zip(oracle.mlp_arrays(model), oracle.mlp_arrays(alone)):
            assert np.array_equal(got, want)
        assert np.array_equal(model.predict_proba(X), alone.predict_proba(X))


def assert_mlp_near_textbook(train, hyper, seed, probes) -> None:
    gram = ml.train_mlp([train], hyper, [seed])[0]
    textbook = oracle.train_mlp(train, hyper, seed)
    for got, want in zip(oracle.mlp_arrays(gram), oracle.mlp_arrays(textbook)):
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
        for got, want in zip(oracle.mlp_arrays(nudged), oracle.mlp_arrays(textbook))
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
    mlp_hyper = MlpHyper(hidden_units=3, epochs=20)
    with mock.patch.object(ml, "_GramFirstLayer", wraps=ml._GramFirstLayer) as mlp_gram:
        mlp = ml.train_mlp([train], mlp_hyper, [3])[0]
    assert mlp_gram.call_count == (n < d)
    assert mlp.W1.shape == (d, 3)
    mlp_textbook = oracle.train_mlp(train, mlp_hyper, seed=3)
    if n == d:
        for got, want in zip(oracle.mlp_arrays(mlp), oracle.mlp_arrays(mlp_textbook)):
            assert np.array_equal(got, want)
    else:
        assert_mlp_near_textbook(train, mlp_hyper, 3, train.X)
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
    assert ml.select_knn_k(X, y, seed, metric) == oracle.select_knn_k(X, y, seed, metric)
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


# Each fold draws its truth and its predictions from one of these label sets,
# so some folds hold one class and some predict no positive.
LABEL_SETS = [(0, 1), (0,), (1,)]


@st.composite
def scored_folds(draw) -> list[tuple[np.ndarray, np.ndarray]]:
    folds = []
    for _ in range(draw(st.integers(1, 12))):
        n = draw(st.integers(0, 15))
        truth = draw(st.lists(st.sampled_from(draw(st.sampled_from(LABEL_SETS))),
                              min_size=n, max_size=n))
        predictions = draw(st.lists(st.sampled_from(draw(st.sampled_from(LABEL_SETS))),
                                    min_size=n, max_size=n))
        folds.append((np.array(predictions, dtype=int), np.array(truth, dtype=int)))
    return folds


@settings(max_examples=300, deadline=None)
@given(scored_folds())
def test_scores_from_confusion_counts_equal_pooled_report_loop(folds):
    truth = np.concatenate([y for _, y in folds])
    assume(0 < truth.sum() < truth.size)  # the binomial test needs both classes
    counts = [ml._confusion(predictions, y) for predictions, y in folds]
    assert ml._scores(counts) == oracle.report_scores(folds)
    for (predictions, y), (tp, fp, fn, tn) in zip(folds, counts):
        assert ml.f1_score(predictions, y) == oracle.f1_score(predictions, y)
        assert tp + fp + fn + tn == y.size


# Column kinds of a tree problem: integer values with many ties, normal
# values, runs of adjacent floats (whose midpoints round up) and constants.
ADJACENT = np.array([1.5, np.nextafter(1.5, 2.0), np.nextafter(np.nextafter(1.5, 2.0), 2.0)])
COLUMN_KINDS = st.sampled_from(["ties", "normal", "adjacent", "constant"])


@dataclass(frozen=True)
class TreeProblem:
    """Columns of mixed kinds; with ``xor`` the first two are a tiled XOR table.

    An XOR table gives either of its columns zero gain at the nodes that hold
    whole copies of it, where a tree splits on a zero gain.
    """

    n: int
    kinds: tuple[str, ...]
    rng_seed: int
    xor: bool
    labels: str

    def build(self) -> tuple[np.ndarray, np.ndarray]:
        rng = np.random.default_rng(self.rng_seed)
        columns = {
            "ties": lambda: rng.integers(0, 3, self.n).astype(float),
            "normal": lambda: rng.normal(size=self.n),
            "adjacent": lambda: ADJACENT[rng.integers(0, 3, self.n)],
            "constant": lambda: np.full(self.n, 0.25),
        }
        X = np.column_stack([columns[kind]() for kind in self.kinds])
        y = _labels(rng, self.labels, self.n)
        if self.xor:
            table = np.tile([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]], (self.n // 4, 1))
            X[:, :2] = table
            y = (table[:, 0] != table[:, 1]).astype(int)
        return X, y


@st.composite
def tree_problems(draw) -> TreeProblem:
    xor = draw(st.booleans())
    n = 4 * draw(st.integers(1, 6)) if xor else draw(st.integers(1, 24))
    return TreeProblem(
        n=n,
        kinds=tuple(draw(st.lists(COLUMN_KINDS, min_size=2 if xor else 1, max_size=6))),
        rng_seed=draw(RNG_SEEDS),
        xor=xor,
        labels=draw(st.sampled_from(["mixed", "mixed", "mixed", "zeros", "ones"])),
    )


@settings(max_examples=300, deadline=None)
@given(tree_problems(), st.data())
def test_split_search_equals_per_feature_scan(problem, data):
    X, y = problem.build()
    d = X.shape[1]
    features = np.array(sorted(data.draw(
        st.sets(st.integers(0, d - 1), min_size=1, max_size=d), label="features"
    )))
    assert ml._best_split(X, y, features) == oracle.best_split(X, y, features)


def test_split_search_on_constant_and_xor_columns():
    X = np.array([[0.0, 0.0, 3.0], [0.0, 1.0, 3.0], [1.0, 0.0, 3.0], [1.0, 1.0, 3.0]])
    y = np.array([0, 1, 1, 0])
    for features in ([2], [0, 1, 2], [1, 2]):
        features = np.array(features)
        assert ml._best_split(X, y, features) == oracle.best_split(X, y, features)
    assert ml._best_split(X, y, np.array([2])) is None
    assert ml._best_split(X, y, np.array([0, 1])) == (0.0, 0, 0.5)


def scalar_entropy_bits(a: int, b: int) -> float:
    """Two-class entropy in bits with scalar math.log2."""
    return -sum(c / b * math.log2(c / b) for c in (a, b - a) if c > 0)


def test_zero_gain_split_scores_exactly_zero():
    # Scalar math.log2 and numpy's array log2 round some fractions a/b apart.
    # Scoring the node with one and its children with the other put a split
    # whose two children copy the node's fraction an ulp or so from zero, and
    # the tree kept or rejected it by that ulp.  One kernel and a gain
    # summed from each child's loss score the two halves exactly 0.0.
    pos, total = np.array([(a, b) for b in range(2, 400) for a in range(1, b)]).T
    array_entropy = ml._entropy_bits_vec(pos, total)
    apart = {
        (a, b) for a, b, h in zip(pos.tolist(), total.tolist(), array_entropy)
        if scalar_entropy_bits(a, b) != h
    }
    for a, b in sorted(apart | {(9, 74)}):
        X = np.repeat([0.0, 1.0], b)[:, None]
        y = np.tile(np.arange(b) < a, 2).astype(int)
        split = ml._best_split(X, y, np.array([0]))
        assert split[0] == 0.0, (a, b)
        assert split == oracle.best_split(X, y, np.array([0]))


# A forest's settings, or None for the decision tree
TREE_LEARNERS = st.none() | st.builds(ml.ForestHyper, n_trees=st.integers(1, 4))


def grow_both(problem, hyper, seed, order="left_first"):
    X, y = problem.build()
    train = FeatureMatrix(X, y)
    if hyper is None:  # every row, and every feature at each node: no draw reads the seed
        return X, ml.train_decision_tree(train), [oracle.grow_tree(X, y, seed, None, order)]
    model = ml.train_random_forest(train, hyper, seed)
    return X, model, oracle.grow_forest(train, hyper, seed, order)


def assert_flattened_equal(model, roots):
    assert len(model.trees) == len(roots)
    for tree, root in zip(model.trees, roots):
        flat = oracle.flatten(root)
        for name in ("feature", "threshold", "left", "right", "n_samples", "n_positive"):
            assert np.array_equal(getattr(tree, name), getattr(flat, name), equal_nan=True), name


@settings(max_examples=150, deadline=None)
@given(tree_problems(), TREE_LEARNERS, st.integers(0, 1000))
def test_flat_forest_equals_flattened_node_trees(problem, hyper, seed):
    _, model, roots = grow_both(problem, hyper, seed)
    assert_flattened_equal(model, roots)


@settings(max_examples=150, deadline=None)
@given(tree_problems(), TREE_LEARNERS, st.integers(0, 1000),
       st.sampled_from(["right_first", "breadth_first"]))
def test_growth_order_leaves_every_tree_unchanged(problem, hyper, seed, order):
    # a node's draws follow from its path, so growing the right subtree
    # first, or level by level, grows the trees train_random_forest grows
    _, model, roots = grow_both(problem, hyper, seed, order)
    assert_flattened_equal(model, roots)


@settings(max_examples=150, deadline=None)
@given(tree_problems(), TREE_LEARNERS, st.integers(0, 1000))
def test_flat_prediction_equals_row_walk(problem, hyper, seed):
    X, model, roots = grow_both(problem, hyper, seed)
    # training rows sit on thresholds' sides exactly; the others are new
    probes = np.vstack([X, np.random.default_rng(seed).normal(size=(5, X.shape[1]))])
    votes = np.zeros(len(probes), dtype=int)
    for tree, root in zip(model.trees, roots):
        walked = oracle.predict_tree(root, probes)
        assert np.array_equal(ml._tree_predictions(tree, probes), walked)
        votes += walked
    assert np.array_equal(model.predict(probes), (2 * votes > len(roots)).astype(int))


@settings(max_examples=150, deadline=None)
@given(tree_problems(), TREE_LEARNERS, st.integers(0, 1000))
def test_importance_equals_per_node_loop(problem, hyper, seed):
    X, model, roots = grow_both(problem, hyper, seed)
    for weighting in ("node_mean", "instance_weighted"):
        assert np.array_equal(
            feature_importance(model, weighting),
            oracle.feature_importance(roots, X.shape[1], weighting),
        )
