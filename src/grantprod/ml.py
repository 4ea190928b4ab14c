"""Classifier families and the balanced-resample x k-fold evaluation protocol.

All trainers are deterministic under their seed; anything data-dependent
(imputation medians, standardization statistics, tf-idf vocabularies, nested
kNN grid search) is fitted on training folds only.  Trees split on entropy
information gain (bits) and keep each node's sample and positive counts, from
which the relevance stage derives Gini impurity decreases.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import ClassVar, Iterable, Sequence

import numpy as np

from .complexity import COMPLEXITY_SCHEMA, extract_complexity_vector, write_feature_csv
from .corpus import (
    GrantRecord,
    Label,
    balanced_resample,
    stratified_fold_indices,
    write_csv,
)
from .relevance import (
    RankingRow,
    aggregate_relevance,
    average_rank,
    critical_difference,
    feature_importance,
)
from .seeds import _GOLDEN, _MASK64, SplitMix64, _mix64, derive_seed
from .textproc import LexiconSet, builtin_lexicons
from .topical import (
    DocumentCounts,
    FieldSelector,
    IdfVariant,
    VectorMode,
    Vocabulary,
    count_documents,
    document_text,
    field_text,
    field_tokens,
    fit_vocabulary_from_tokens,
    save_vocabulary,
    select_columns,
    vectorize,
    vectorize_counts,
)

_SALT_RESAMPLE = 101
_SALT_FOLD = 202
_SALT_TRAIN = 303
_SALT_KNN = 404

# The k candidates of the nested selection, and its inner folds (fewer when
# a class is smaller).
KNN_GRID = (1, 3, 5, 7, 11, 15)
KNN_INNER_FOLDS = 3


class TrainingDivergedError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# Feature matrices and fold transforms
# ---------------------------------------------------------------------------

@dataclass
class FeatureMatrix:
    """Dense instance-by-feature matrix with aligned labels."""

    X: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=float)
        self.y = np.asarray(self.y, dtype=int)
        if self.X.ndim != 2:
            raise ValueError("X must be two-dimensional")
        if self.X.shape[0] != self.y.shape[0]:
            raise ValueError("X and y row counts differ")


def _check_finite(X: np.ndarray) -> None:
    if not np.isfinite(X).all():
        raise ValueError("feature matrix contains NaN or infinite values; impute first")


def _require_nonempty(y: np.ndarray) -> None:
    if y.size == 0:
        raise ValueError("empty training set")


def fit_median_imputer(X: np.ndarray) -> np.ndarray:
    """Per-column medians ignoring NaN; all-NaN columns fall back to 0.

    Sorting puts each column's NaNs last, so its median is the mean of the
    middle one or two of its leading values.  On a matrix with at least one
    row whose values are NaN or finite and at most half the largest float
    in magnitude, as ``complexity_rows`` gives, the medians equal
    ``np.nanmedian``'s, which loads ``numpy.ma`` on its first call.
    """
    ordered = np.sort(X, axis=0)
    counts = np.count_nonzero(~np.isnan(ordered), axis=0)
    columns = np.arange(ordered.shape[1])
    low = ordered[(counts - 1) // 2, columns]
    high = ordered[counts // 2, columns]
    return np.where(counts == 0, 0.0, (low + high) / 2)


def apply_imputer(X: np.ndarray, medians: np.ndarray) -> np.ndarray:
    X = np.array(X, dtype=float, copy=True)
    rows, cols = np.nonzero(np.isnan(X))
    X[rows, cols] = medians[cols]
    return X


def fit_standardizer(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    mean = X.mean(axis=0)
    std = X.std(axis=0)
    std = np.where(std == 0, 1.0, std)
    return mean, std


def apply_standardizer(X: np.ndarray, mean: np.ndarray, std: np.ndarray) -> np.ndarray:
    return (X - mean) / std


def complexity_rows(
    records: Sequence[GrantRecord],
    language: str = "pt",
    lexicons: LexiconSet | None = None,
    include_title: bool = False,
) -> np.ndarray:
    """Raw complexity matrix, one row per record, with NaN where a metric is missing."""
    if lexicons is None:
        lexicons = builtin_lexicons(language)
    rows = []
    for record in records:
        vector = extract_complexity_vector(
            document_text(record, language, include_title),
            language=language,
            lexicons=lexicons,
            doc_id=record.grant_id,
        )
        rows.append([np.nan if v is None else float(v) for v in vector.as_row()])
    return np.array(rows, dtype=float).reshape(len(rows), len(COMPLEXITY_SCHEMA))


def tfidf_fold_matrices(
    counts: DocumentCounts,
    train_rows: Sequence[int],
    test_rows: Sequence[int],
    top_x: int,
    mode: VectorMode = VectorMode.TFIDF,
    idf_variant: IdfVariant = IdfVariant.LOG_RATIO,
    vocabulary: Vocabulary | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Training and test matrices of one fold; the vocabulary is fitted on the training rows only.

    ``counts`` holds every document's word counts, made once per area.  The
    fold's vocabulary is ``select_columns(counts, train_rows, top_x)``, from
    column sums over the training rows (or is ``vocabulary``, fitted
    beforehand on these counts).  One ``vectorize_counts`` call builds both
    matrices, each row on its own.
    """
    if vocabulary is None:
        vocabulary = select_columns(counts, train_rows, top_x)
    rows = np.concatenate([train_rows, test_rows]).astype(np.intp)
    matrix = vectorize_counts(counts, rows, vocabulary, mode, idf_variant)
    return matrix[:len(train_rows)], matrix[len(train_rows):]


# ---------------------------------------------------------------------------
# Hyperparameters
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ForestHyper:
    n_trees: int = 100

    def __post_init__(self):
        if self.n_trees < 1:
            raise ValueError(f"a forest needs at least one tree, not {self.n_trees!r}")


@dataclass(frozen=True)
class SvmHyper:
    C: float = 1.0  # weight of the summed squared hinge against 1/2 |w|^2

    def __post_init__(self):
        if not 0.0 < self.C < math.inf:
            raise ValueError(f"C must be finite and positive, not {self.C!r}")


@dataclass(frozen=True)
class MlpHyper:
    hidden_units: int = 16  # of the one tanh hidden layer
    learning_rate: float = 0.1
    epochs: int = 300

    def __post_init__(self):
        if self.hidden_units < 1:
            raise ValueError(f"hidden units must be at least 1, not {self.hidden_units!r}")
        if not 0.0 < self.learning_rate < math.inf:
            raise ValueError(f"learning rate must be finite and positive, not {self.learning_rate!r}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be at least 1, not {self.epochs!r}")


# The algorithms cross_validate runs, each with the hyperparameters it trains
# with (the decision tree, kNN and Naive Bayes have none).
DEFAULT_HYPER = {
    "dtree": None,
    "random_forest": ForestHyper(),
    "knn": None,
    "naive_bayes": None,
    "linear_svm": SvmHyper(),
    "mlp": MlpHyper(),
}


# ---------------------------------------------------------------------------
# Decision tree
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Tree:
    """What a tree learned, as parallel arrays over its nodes in preorder.

    Node 0 is the root and each left subtree precedes its right sibling.  A
    leaf has ``feature`` -1 and ``left``/``right`` -1; an internal node sends
    a row left when its ``feature`` value is at most ``threshold``.  Every
    node keeps its training sample and positive counts.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    n_samples: np.ndarray
    n_positive: np.ndarray


def _entropy_bits_vec(pos: np.ndarray, total: np.ndarray) -> np.ndarray:
    out = np.zeros(len(total))
    for counts in (pos, total - pos):
        p = counts / total
        mask = p > 0
        out[mask] -= p[mask] * np.log2(p[mask])
    return out


def _best_split(X, y, features):
    """Highest-gain (feature, midpoint threshold) over all candidate features at once."""
    n = y.size
    pos_total = int(y.sum())
    columns = X[:, features]
    order = np.argsort(columns, axis=0, kind="stable")
    xs = np.take_along_axis(columns, order, axis=0)
    pos_prefix = np.cumsum(y[order], axis=0)
    # a boundary b puts sorted rows [0..b] on the left; scored feature by feature
    column, boundary = np.nonzero((xs[1:] > xs[:-1]).T)
    if boundary.size == 0:
        return None
    n_left = boundary + 1
    pos_left = pos_prefix[boundary, column]
    n_right = n - n_left
    # one kernel call: the node's entropy, then each left child's, then each right child's
    m = boundary.size
    h = _entropy_bits_vec(
        np.concatenate(([pos_total], pos_left, pos_total - pos_left)),
        np.concatenate(([n], n_left, n_right)),
    )
    # each child's loss against the node: a child that keeps the node's
    # fraction adds exactly 0, whatever its rounded weight
    gains = (n_left / n) * (h[0] - h[1:m + 1]) + (n_right / n) * (h[0] - h[m + 1:])
    i = int(np.argmax(gains))  # first max -> first feature, then smallest threshold
    low, high = xs[boundary[i], column[i]], xs[boundary[i] + 1, column[i]]
    threshold = (low + high) / 2.0
    if not threshold < high:
        # adjacent floats: the midpoint rounds up to the right value,
        # so split at the left value to keep the scored partition
        threshold = low
    return float(gains[i]), int(features[column[i]]), float(threshold)


def _grow_tree(X, y, seed, max_features: int) -> Tree:
    """Grow depth first, left subtree first, appending each node in preorder.

    A node is a leaf when it is pure, when no candidate feature takes two
    values in it, or when its best gain rounds below 0.0; a zero gain splits,
    so XOR-style interactions resolve at depth 2.  A node of seed q draws
    ``max_features`` candidates from ``SplitMix64(q)``, or none when that is
    every feature, and seeds its children derive_seed(q, 0) and
    derive_seed(q, 1), left then right: its draws follow from its path.
    """
    nodes = []  # per node: feature, threshold, left, right, n_samples, n_positive

    def grow(X, y, seed) -> int:
        index = len(nodes)
        n = y.size
        n_positive = int(y.sum())
        nodes.append([-1, np.nan, -1, -1, n, n_positive])
        if n_positive in (0, n):
            return index

        d = X.shape[1]
        if max_features < d:
            features = sorted(SplitMix64(seed).sample_indices(d, max_features))
        else:
            features = np.arange(d)
        best = _best_split(X, y, features)
        if best is None or best[0] < 0.0:
            return index

        _, feature, threshold = best
        left_mask = X[:, feature] <= threshold
        left = grow(X[left_mask], y[left_mask], derive_seed(seed, 0))
        right = grow(X[~left_mask], y[~left_mask], derive_seed(seed, 1))
        nodes[index][:4] = feature, threshold, left, right
        return index

    grow(X, y, seed)
    return Tree(*(np.array(column) for column in zip(*nodes)))


def _tree_predictions(tree: Tree, X: np.ndarray) -> np.ndarray:
    """Each row's leaf majority; every row at an internal node moves down a level per step."""
    node = np.zeros(X.shape[0], dtype=int)
    rows = np.arange(X.shape[0])
    while rows.size:
        rows = rows[tree.feature[node[rows]] >= 0]
        at = node[rows]
        go_left = X[rows, tree.feature[at]] <= tree.threshold[at]
        node[rows] = np.where(go_left, tree.left[at], tree.right[at])
    return (2 * tree.n_positive[node] > tree.n_samples[node]).astype(int)


@dataclass
class TreeModel:
    """One decision tree, or a forest of them."""

    trees: list[Tree]
    n_features: int

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        votes = np.zeros(X.shape[0], dtype=int)
        for tree in self.trees:
            votes += _tree_predictions(tree, X)
        # strict majority of trees; exact ties fall to the zero class
        return (2 * votes > len(self.trees)).astype(int)


# ---------------------------------------------------------------------------
# Random forest
# ---------------------------------------------------------------------------

def _splitmix64(seed: int, count: int) -> np.ndarray:
    """Outputs 1..count of ``SplitMix64(seed)``, m(seed + i G), in one uint64 pass."""
    steps = np.arange(1, count + 1, dtype=np.uint64)
    return _mix64(steps * np.uint64(_GOLDEN) + np.uint64(seed & _MASK64))  # uint64 arrays wrap


def train_random_forest(
    train: FeatureMatrix,
    hyper: ForestHyper | None = None,
    seed: int = 0,
) -> TreeModel:
    """Bootstrap trees with per-node feature subsampling, majority vote (Breiman 2001).

    Each node draws floor(sqrt(d)) candidate features, at least 1.  Tree t of
    seed s = derive_seed(seed, t) draws its bootstrap row i as output i + 1
    of ``SplitMix64(s)`` mod n, and its root's seed is derive_seed(s, 0).
    """
    hyper = hyper or ForestHyper()
    _require_nonempty(train.y)
    _check_finite(train.X)
    n, d = train.X.shape
    max_features = max(1, int(math.sqrt(d)))
    trees = []
    for t in range(hyper.n_trees):
        tree_seed = derive_seed(seed, t)
        sample = (_splitmix64(tree_seed, n) % np.uint64(n)).astype(np.intp)
        trees.append(
            _grow_tree(train.X[sample], train.y[sample], derive_seed(tree_seed, 0), max_features)
        )
    return TreeModel(trees=trees, n_features=d)


def train_decision_tree(train: FeatureMatrix) -> TreeModel:
    """Greedy binary tree maximizing information gain at each node.

    Every row trains it and every feature is a candidate at each node, so it
    draws nothing.  A single-class training set yields a one-leaf majority
    model rather than an error.
    """
    _require_nonempty(train.y)
    _check_finite(train.X)
    d = train.X.shape[1]
    return TreeModel(trees=[_grow_tree(train.X, train.y, 0, d)], n_features=d)


# ---------------------------------------------------------------------------
# Naive Bayes
# ---------------------------------------------------------------------------

@dataclass
class NaiveBayesModel:
    likelihood: str
    log_prior: np.ndarray                  # (2,)
    means: np.ndarray | None               # gaussian: (2, d)
    variances: np.ndarray | None           # gaussian: (2, d)
    feature_log_prob: np.ndarray | None    # multinomial: (2, d)

    def decision_scores(self, X: np.ndarray) -> np.ndarray:
        """Per-class log-likelihood sums plus the log prior."""
        X = np.asarray(X, dtype=float)
        if self.likelihood == "gaussian":
            scores = np.empty((X.shape[0], 2))
            for c in range(2):
                var = self.variances[c]
                scores[:, c] = -0.5 * (
                    np.log(2.0 * math.pi * var) + (X - self.means[c]) ** 2 / var
                ).sum(axis=1)
        else:
            scores = X @ self.feature_log_prob.T
        return scores + self.log_prior

    def predict(self, X: np.ndarray) -> np.ndarray:
        return np.argmax(self.decision_scores(X), axis=1)


def train_naive_bayes(train: FeatureMatrix, likelihood: str = "gaussian") -> NaiveBayesModel:
    """Class priors plus per-feature likelihoods (Gaussian or multinomial).

    Gaussian variances are floored at 1e-9 times the mean feature variance of
    the training set, so constant features cannot blow up the log-likelihood.
    Multinomial counts use add-one smoothing.
    """
    if likelihood not in ("gaussian", "multinomial"):
        raise ValueError(f"unknown likelihood '{likelihood}'")
    _require_nonempty(train.y)
    _check_finite(train.X)
    X, y = train.X, train.y
    counts = np.array([(y == 0).sum(), (y == 1).sum()], dtype=float)
    if (counts == 0).any():
        raise ValueError("both classes must be present in the training set")
    log_prior = np.log(counts / y.size)

    means = variances = feature_log_prob = None
    if likelihood == "gaussian":
        means = np.vstack([X[y == c].mean(axis=0) for c in range(2)])
        variances = np.vstack([X[y == c].var(axis=0) for c in range(2)])
        floor = 1e-9 * float(X.var(axis=0).mean())
        if floor <= 0.0:
            floor = 1e-12
        variances = np.maximum(variances, floor)
    else:
        if (X < 0).any():
            raise ValueError("multinomial likelihood requires non-negative features")
        d = X.shape[1]
        totals = np.vstack([X[y == c].sum(axis=0) for c in range(2)])
        feature_log_prob = np.log(totals + 1.0) - np.log(
            totals.sum(axis=1, keepdims=True) + d
        )

    return NaiveBayesModel(
        likelihood=likelihood,
        log_prior=log_prior,
        means=means,
        variances=variances,
        feature_log_prob=feature_log_prob,
    )


# ---------------------------------------------------------------------------
# k nearest neighbors
# ---------------------------------------------------------------------------

def _pairwise_distances(queries: np.ndarray, references: np.ndarray, metric: str) -> np.ndarray:
    if metric == "euclidean":
        qq = (queries ** 2).sum(axis=1)[:, None]
        rr = (references ** 2).sum(axis=1)[None, :]
        d2 = np.maximum(qq + rr - 2.0 * queries @ references.T, 0.0)
        return np.sqrt(d2)
    if metric == "cosine":
        qn = np.linalg.norm(queries, axis=1)
        rn = np.linalg.norm(references, axis=1)
        sim = queries @ references.T
        denom = qn[:, None] * rn[None, :]
        sim = np.divide(sim, denom, out=np.zeros_like(sim), where=denom > 0)
        return 1.0 - sim
    raise ValueError(f"unknown metric '{metric}'")


def _knn_vote(neighbour_labels: np.ndarray) -> np.ndarray:
    """Label of each row's k nearest neighbours, given nearest first."""
    k = neighbour_labels.shape[1]
    votes = 2 * neighbour_labels.sum(axis=1)
    # strict majority wins; a vote tie goes to the nearest neighbor's label
    return np.where(votes > k, 1, np.where(votes < k, 0, neighbour_labels[:, 0]))


def _neighbour_labels(X: np.ndarray, X_train: np.ndarray, y_train: np.ndarray, metric: str):
    """Training labels of each query row, nearest first."""
    distances = _pairwise_distances(X, X_train, metric)
    # stable sort: distance ties resolve by training-set order
    return y_train[np.argsort(distances, axis=1, kind="stable")]


@dataclass
class KnnModel:
    X_train: np.ndarray
    y_train: np.ndarray
    k: int
    metric: str

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        labels = _neighbour_labels(X, self.X_train, self.y_train, self.metric)
        return _knn_vote(labels[:, : self.k])


def train_knn(train: FeatureMatrix, k: int, metric: str = "euclidean") -> KnnModel:
    if not 1 <= k <= train.y.size:
        raise ValueError("k must be in [1, len(train)]")
    _check_finite(train.X)
    return KnnModel(
        X_train=train.X,
        y_train=train.y,
        k=k,
        metric=metric,
    )


def _knn_fold_scores(X_tr, y_tr, X_te, y_te, ks: Sequence[int], metric: str) -> list[float]:
    """F1 of each k on one inner fold, all read from one neighbour order.

    A k larger than the training split scores 0.
    """
    labels = _neighbour_labels(X_te, X_tr, y_tr, metric)
    return [f1_score(_knn_vote(labels[:, :k]), y_te) if k <= y_tr.size else 0.0 for k in ks]


def select_knn_k(X: np.ndarray, y: np.ndarray, seed: int, metric: str = "euclidean") -> int:
    """Nested selection of k from ``KNN_GRID`` on the training split only.

    Each inner fold sorts its neighbours once and scores every k from it.
    """
    X = np.asarray(X, dtype=float)
    _check_finite(X)
    candidates = [k for k in KNN_GRID if k <= max(1, y.size - max(2, y.size // KNN_INNER_FOLDS))]
    if not candidates:
        candidates = [1]
    class_min = min(int((y == 0).sum()), int((y == 1).sum()))
    folds_n = min(KNN_INNER_FOLDS, max(2, class_min))
    if y.size < folds_n or class_min == 0:
        return candidates[0]
    assignment = np.array(stratified_fold_indices(list(y), folds_n, seed))
    scores = {k: [] for k in candidates}
    for fold in range(folds_n):
        test_mask = assignment == fold
        fold_scores = _knn_fold_scores(
            X[~test_mask], y[~test_mask], X[test_mask], y[test_mask], candidates, metric
        )
        for k, score in zip(candidates, fold_scores):
            scores[k].append(score)
    # best mean score; ties prefer the smaller k
    return max(candidates, key=lambda k: (sum(scores[k]) / len(scores[k]), -k))


# ---------------------------------------------------------------------------
# Linear SVM (L2-loss, solved by finite Newton over the active set)
# ---------------------------------------------------------------------------

@dataclass
class LinearSvmModel:
    weights: np.ndarray
    bias: float

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        return np.asarray(X, dtype=float) @ self.weights + self.bias

    def predict(self, X: np.ndarray) -> np.ndarray:
        return (self.decision_function(X) > 0).astype(int)


# Newton steps before a fit is declared diverged; the active set settles in a few.
_NEWTON_MAX_STEPS = 50


def train_linear_svm(train: FeatureMatrix, hyper: SvmHyper | None = None) -> LinearSvmModel:
    """Minimize 1/2 |w~|^2 + C sum_i max(0, 1 - y_i w~.x~_i)^2 with x~ = [x, 1].

    The L2-loss SVM of LIBLINEAR with its bias as a regularized extra column
    (Fan et al., JMLR 2008), solved by finite Newton (Keerthi and DeCoste,
    JMLR 2005): each step solves the rows inside the margin exactly, and an
    exact line search on the objective, a piecewise quadratic along the
    step, takes the step as far as it pays.  The fit stops when the step's
    directional derivative is non-negative to rounding (the objective
    cannot fall by more than its last bit), and draws no random numbers.
    """
    hyper = hyper or SvmHyper()
    _require_nonempty(train.y)
    _check_finite(train.X)
    X = np.hstack([train.X, np.ones((train.X.shape[0], 1))])
    y = 2.0 * train.y - 1.0
    C = hyper.C

    gram = None  # X X^T, formed at the first push-through step
    w = np.zeros(X.shape[1])
    margins = np.zeros(X.shape[0])
    for _ in range(_NEWTON_MAX_STEPS):
        slack = 1.0 - y * margins
        active = slack > 0.0
        gradient = w - 2.0 * C * (X.T @ np.where(active, y * slack, 0.0))
        push_through = np.count_nonzero(active) < X.shape[1]
        if push_through and gram is None:
            gram = X @ X.T
        step = _newton_step(X, active, C, gradient, gram if push_through else None)
        slope = float(gradient @ step)
        value = 0.5 * float(w @ w) + C * float(slack[active] @ slack[active])
        if slope >= -np.finfo(float).eps * value:
            return LinearSvmModel(weights=w[:-1], bias=float(w[-1]))
        t = _exact_line_search(slope, float(step @ step), slack, y * (X @ step), C)
        w = w + t * step
        margins = X @ w
    raise TrainingDivergedError(
        f"no optimum within {_NEWTON_MAX_STEPS} Newton steps: objective {value!r} (C={C})"
    )


def _newton_step(X, active, C, gradient, gram) -> np.ndarray:
    """-H^-1 gradient for the generalized Hessian H = I + 2C A^T A of the active rows A.

    A is X[active].  Without ``gram`` it solves the (d+1)^2 system
    (I/2C + A^T A) s = -gradient/2C.  Given ``gram`` = X X^T it takes the
    push-through form s = A^T (I/2C + A A^T)^-1 A gradient - gradient, a
    system in the active rows.  From a point, the step lands on the exact
    solution of its active rows, and the next step refines the gradient
    that rounding leaves.
    """
    if gram is None:
        A = X[active]
        system = A.T @ A
        system.flat[::len(system) + 1] += 0.5 / C
        return np.linalg.solve(system, gradient) / (-2.0 * C)
    system = gram[np.ix_(active, active)]
    system.flat[::len(system) + 1] += 0.5 / C
    coefficients = np.zeros(X.shape[0])
    coefficients[active] = np.linalg.solve(system, (X @ gradient)[active])
    return X.T @ coefficients - gradient


def _exact_line_search(slope, curvature, slack, rate, C) -> float:
    """The t > 0 that minimizes the objective along a step.

    Row i's slack along the step is slack[i] - t * rate[i], so the
    derivative in t is slope + t * curvature plus 2C * rate[i] * (t * rate[i]
    - slack[i]) for each row whose slack at t is positive (the rows with
    positive slack at 0 are already in ``slope``): piecewise linear and
    increasing, with a knee where a row's slack crosses 0.  Walking the
    knees in order finds the segment where it crosses 0.
    """
    inside = (slack > 0.0) | ((slack == 0.0) & (rate < 0.0))  # in the loss just after 0
    knees = np.flatnonzero(np.where(inside, rate > 0.0, rate < 0.0))
    at_knee = slack[knees] / rate[knees]
    order = np.argsort(at_knee, kind="stable")
    knees, at_knee = knees[order], at_knee[order]
    # a row leaving the loss takes its terms out of the derivative, a row entering adds them
    sign = np.where(inside[knees], -2.0 * C, 2.0 * C)
    offset = slope + np.cumsum(np.concatenate(([0.0], -sign * rate[knees] * slack[knees])))
    gain = curvature + 2.0 * C * float(rate[inside] @ rate[inside])
    gain = gain + np.cumsum(np.concatenate(([0.0], sign * rate[knees] ** 2)))
    crossed = np.flatnonzero(offset[:-1] + gain[:-1] * at_knee >= 0.0)
    k = crossed[0] if crossed.size else knees.size
    return -offset[k] / gain[k]


# ---------------------------------------------------------------------------
# Multi-layer perceptron
# ---------------------------------------------------------------------------

def _gram_form(X: np.ndarray) -> bool:
    """Train the MLP through G = X X^T when the training set has fewer rows than columns.

    The MLP's first-layer updates lie in the span of the rows (X^T a), so an
    epoch reads the n x n Gram matrix, not d-wide rows.
    """
    return X.shape[0] < X.shape[1]


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # e^-|z| never overflows; each branch is the stable form for its sign
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _mlp_backprop(first, b1, W2, b2, y) -> tuple[np.ndarray, ...]:
    """One epoch's losses and gradients for F folds of one shape, stacked on a leading axis.

    ``first``, a ``_PrimalFirstLayer`` or ``_GramFirstLayer``, forms the
    hidden layers' X W1; ``b1`` is the (F, h) hidden biases, ``W2`` the
    (F, h, 1) output weights, ``b2`` the (F, 1) output biases and ``y`` the
    (F, n) labels.  Every operation is the one-fold epoch's on each slice:
    an elementwise step, a per-slice matrix product (numpy calls the same
    BLAS routine on each slice of a stack) or a sum along one slice's rows,
    so fold f's numbers are bit for bit those of training it alone.

    Returns the (F,) losses, the gradient with respect to the hidden
    pre-activation X W1 + b1 (whose product with X^T is the gradient of
    W1, left to the caller), and the gradients of b1, W2 and b2.  A
    diverging fold overflows; the caller sets the floating-point error
    handling and checks the losses.
    """
    hidden = np.tanh(first.product() + b1[:, None, :])
    logits = (hidden @ W2 + b2[:, None, :])[:, :, 0]
    n = logits.shape[1]
    # log(1 + e^z) - y z, stable for large |z|
    losses = np.add.reduce(np.logaddexp(0.0, logits) - y * logits, axis=-1) / n

    delta = ((_sigmoid(logits) - y) / n)[:, :, None]
    grad_W2 = hidden.transpose(0, 2, 1) @ delta
    grad_b2 = delta.sum(axis=1)
    delta = (delta @ W2.transpose(0, 2, 1)) * (1.0 - hidden * hidden)
    return losses, delta, delta.sum(axis=1), grad_W2, grad_b2


def _standard_normals(seed: int, count: int) -> np.ndarray:
    """The first ``count`` standard normals of the splitmix64 stream of ``seed``.

    Output i = 1, 2, ... is m(seed + i G), the i-th ``SplitMix64(seed).next_u64()``;
    u = ((out >> 11) + 1) 2^-53 is in (0, 1], and each pair (u_2k, u_2k+1) gives
    r cos t and r sin t with r = sqrt(-2 ln u_2k), t = 2 pi u_2k+1 (Box-Muller).
    """
    u = ((_splitmix64(seed, count + count % 2) >> np.uint64(11)) + np.uint64(1)) * 2.0**-53
    r, t = np.sqrt(-2.0 * np.log(u[0::2])), 2.0 * math.pi * u[1::2]
    u[0::2], u[1::2] = r * np.cos(t), r * np.sin(t)
    return u[:count]


def _mlp_init(d: int, hidden_units: int, seed: int):
    """(W1, b1, W2, b2): zero biases and N(0, 1/fan_in) weights, W1's draws
    first, each in row-major order."""
    draws = _standard_normals(seed, d * hidden_units + hidden_units)
    W1 = draws[:d * hidden_units].reshape(d, hidden_units) * (1.0 / math.sqrt(d))
    W2 = draws[d * hidden_units:].reshape(hidden_units, 1) * (1.0 / math.sqrt(hidden_units))
    return W1, np.zeros(hidden_units), W2, np.zeros(1)


class _PrimalFirstLayer:
    """The hidden layers' weights W1 of F folds, stacked and updated as they are."""

    def __init__(self, Xs: Sequence[np.ndarray], Ws: Sequence[np.ndarray]):
        self.X = np.stack(Xs)
        self.W = np.stack(Ws)

    def product(self) -> np.ndarray:
        return self.X @ self.W

    def descend(self, learning_rate: float, delta: np.ndarray) -> None:
        self.W -= learning_rate * (self.X.transpose(0, 2, 1) @ delta)

    def weights(self) -> list[np.ndarray]:
        return list(self.W)


class _GramFirstLayer:
    """Each fold's W1 held as W1_0 - X^T A: an epoch adds lr * delta to the n x h matrix A.

    X W1 is then X W1_0 - G A with G = X X^T, so an epoch costs O(n^2 h)
    instead of O(n d h) (the representer form of the first layer).  Only
    G, X W1_0 and A are stacked, each computed per fold with the one-fold
    products, so the stack holds O(F n^2) numbers, not O(F n d); the one
    call of ``weights()`` turns each W1_0 into W1_0 - X^T A in place.
    """

    def __init__(self, Xs: Sequence[np.ndarray], Ws: Sequence[np.ndarray]):
        self.X = list(Xs)
        self.W0 = list(Ws)
        self.gram = np.stack([X @ X.T for X in Xs])
        self.initial_product = np.stack([X @ W for X, W in zip(Xs, Ws)])
        self.A = np.zeros(self.initial_product.shape)

    def product(self) -> np.ndarray:
        return self.initial_product - self.gram @ self.A

    def descend(self, learning_rate: float, delta: np.ndarray) -> None:
        self.A += learning_rate * delta

    def weights(self) -> list[np.ndarray]:
        for X, W0, A in zip(self.X, self.W0, self.A):
            W0 -= X.T @ A
        return self.W0


@dataclass
class MlpModel:
    """One tanh hidden layer of h units and a logistic output."""

    W1: np.ndarray  # (d, h)
    b1: np.ndarray  # (h,)
    W2: np.ndarray  # (h, 1)
    b2: np.ndarray  # (1,)

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        hidden = np.tanh(np.asarray(X, dtype=float) @ self.W1 + self.b1)
        return _sigmoid((hidden @ self.W2 + self.b2)[:, 0])

    def predict(self, X: np.ndarray) -> np.ndarray:
        return (self.predict_proba(X) > 0.5).astype(int)


def train_mlp(
    trains: Sequence[FeatureMatrix],
    hyper: MlpHyper | None,
    seeds: Sequence[int],
) -> list[MlpModel]:
    """One network per training set, each by full-batch gradient descent on cross-entropy.

    Expects standardized inputs; ``seeds[f]`` seeds the initial weights of
    ``trains[f]``, and one training set is ``train_mlp([m], hyper, [seed])[0]``.
    The training sets are grouped by shape, in the order they first
    appear, and each group trains in lockstep: one loop over arrays stacked
    on a leading fold axis.  Every fold's weights are bit for bit those of
    training it alone.

    With at least as many rows as columns the first layer's weights are
    updated as they are, bit for bit the textbook epoch.  With fewer rows
    than columns they are held as W1_0 - X^T A and formed once at the end;
    they then agree with the textbook loop to rounding.

    Failures are those of training the sets one after another.  The input
    guards (empty or non-finite training set) run in fold order, and the
    sets after the first that fails them are never reached.  Every other
    set ends as a model or as the error its one-set fit raises (a
    non-finite loss, or non-finite weights after the last epoch), and the
    first error in fold order is raised.
    """
    hyper = hyper or MlpHyper()
    folds = []
    guard: Exception | None = None
    for train, seed in zip(trains, seeds):
        try:
            _require_nonempty(train.y)
            _check_finite(train.X)
        except ValueError as error:  # the sets after it are never reached
            guard = error
            break
        init = _mlp_init(train.X.shape[1], hyper.hidden_units, derive_seed(seed))
        folds.append((train.X, train.y.astype(float), *init))

    groups: dict[tuple[int, int], list[int]] = {}
    for f, (X, *_) in enumerate(folds):
        groups.setdefault(X.shape, []).append(f)
    outcomes: list[MlpModel | Exception | None] = [None] * len(folds)
    for members in groups.values():
        for f, outcome in zip(members, _mlp_lockstep([folds[f] for f in members], hyper)):
            outcomes[f] = outcome
    for outcome in [*outcomes, guard]:
        if isinstance(outcome, Exception):
            raise outcome
    return outcomes


def _mlp_lockstep(folds, hyper: MlpHyper) -> list[MlpModel | TrainingDivergedError]:
    """Train folds of one shape together; return each fold's model or divergence error.

    Each fold is (X, y, W1, b1, W2, b2), the last four initial.  Every fold
    runs to the last epoch: a fold whose loss goes non-finite records its
    error and runs on, unread, as inf/NaN, which no other fold's slices see.
    """
    Xs, ys, W1s, b1s, W2s, b2s = zip(*folds)
    lr = hyper.learning_rate
    settings = f"(lr={lr}, hidden_units={hyper.hidden_units})"
    outcomes: list[MlpModel | TrainingDivergedError | None] = [None] * len(folds)
    with np.errstate(all="ignore"):  # a diverged fold's slices overflow; its error is kept
        first = (_GramFirstLayer if _gram_form(Xs[0]) else _PrimalFirstLayer)(Xs, W1s)
        b1, W2, b2 = np.stack(b1s), np.stack(W2s), np.stack(b2s)
        y = np.stack(ys)
        for epoch in range(hyper.epochs):
            losses, delta, grad_b1, grad_W2, grad_b2 = _mlp_backprop(first, b1, W2, b2, y)
            if not np.isfinite(losses).all():
                for f in np.flatnonzero(~np.isfinite(losses)).tolist():
                    if outcomes[f] is None:
                        outcomes[f] = TrainingDivergedError(
                            f"non-finite loss {float(losses[f])!r} at epoch {epoch} {settings}"
                        )
            first.descend(lr, delta)
            W2 -= lr * grad_W2
            b1 -= lr * grad_b1
            b2 -= lr * grad_b2
        first_weights = first.weights()
    for f, W1 in enumerate(first_weights):
        model = MlpModel(W1, b1[f], W2[f], b2[f])
        if outcomes[f] is None:  # the last epoch's update is checked here, not by a loss
            finite = all(np.isfinite(a).all() for a in (W1, b1[f], W2[f], b2[f]))
            outcomes[f] = model if finite else TrainingDivergedError(
                f"non-finite weights after epoch {hyper.epochs - 1} {settings}"
            )
    return outcomes


# ---------------------------------------------------------------------------
# Scoring
# ---------------------------------------------------------------------------

def _confusion(predictions, truth) -> tuple[int, int, int, int]:
    """(tp, fp, fn, tn) of 0/1 predictions against 0/1 truth, class 1 positive."""
    preds = np.asarray(predictions, dtype=int) == 1
    true = np.asarray(truth, dtype=int) == 1
    if preds.shape != true.shape:
        raise ValueError("predictions and truth must have equal length")
    tp = int((preds & true).sum())
    fp = int((preds & ~true).sum())
    fn = int((~preds & true).sum())
    return tp, fp, fn, preds.size - tp - fp - fn


def _f1(tp: int, fp: int, fn: int) -> float:
    """F1 from the counts of one class; defined as 0 when precision + recall is 0."""
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def f1_score(predictions, truth) -> float:
    """F1 of class 1."""
    tp, fp, fn, _ = _confusion(predictions, truth)
    return _f1(tp, fp, fn)


def significance_pvalue(n_correct: int, n_total: int, p_dominant: float) -> float:
    """Upper-tail binomial probability of at least n_correct chance successes.

    Summed in log space so small tails stay accurate for large n_total.
    """
    if not 0 <= n_correct <= n_total:
        raise ValueError("n_correct must lie in [0, n_total]")
    if not 0.0 < p_dominant < 1.0:
        raise ValueError("p_dominant must lie strictly between 0 and 1")
    if n_correct == 0:
        return 1.0
    log_p = math.log(p_dominant)
    log_q = math.log1p(-p_dominant)
    log_terms = [
        math.lgamma(n_total + 1)
        - math.lgamma(k + 1)
        - math.lgamma(n_total - k + 1)
        + k * log_p
        + (n_total - k) * log_q
        for k in range(n_correct, n_total + 1)
    ]
    peak = max(log_terms)
    tail = peak + math.log(math.fsum(math.exp(term - peak) for term in log_terms))
    return min(1.0, math.exp(tail))


# ---------------------------------------------------------------------------
# Cross-validation protocol
# ---------------------------------------------------------------------------

# A feature family prepares the records once per cross_validate call, builds each
# fold's matrices from that and exports the matrix.  Its settings are the
# fields; the constants the learners read are class constants.

@dataclass(frozen=True)
class ComplexityFeatures:
    language: str = "pt"
    include_title: bool = False

    # Dense features are standardized for the geometry/gradient-based
    # learners; trees are scale-invariant and the Gaussian likelihood handles
    # scale itself.
    standardized: ClassVar[frozenset[str]] = frozenset({"knn", "linear_svm", "mlp"})
    likelihood: ClassVar[str] = "gaussian"
    metric: ClassVar[str] = "euclidean"

    def text(self, record: GrantRecord) -> tuple[str, ...]:
        """The text these features are extracted from; raises MissingFieldError."""
        return document_text(record, self.language, self.include_title)

    def prepare(self, records, lexicons=None) -> np.ndarray:
        """Raw complexity matrix with NaN where a metric is missing."""
        return complexity_rows(records, self.language, lexicons, self.include_title)

    def fold_matrices(self, prepared, train_rows, test_rows) -> tuple[np.ndarray, np.ndarray]:
        """Training and test rows, missing values imputed with the training medians."""
        train, test = prepared[train_rows], prepared[test_rows]
        medians = fit_median_imputer(train)
        return apply_imputer(train, medians), apply_imputer(test, medians)

    def export(self, records, lexicons: LexiconSet, out_dir: Path, comment: str) -> None:
        write_feature_csv(
            out_dir / "features_complexity.csv",
            [r.grant_id for r in records],
            self.prepare(records, lexicons),
            header_comment=comment,
        )


@dataclass(frozen=True)
class TfidfFeatures:
    language: str = "pt"
    selector: FieldSelector = FieldSelector.ABSTRACT
    top_x: int = 1100
    mode: VectorMode = VectorMode.TFIDF
    idf_variant: IdfVariant = IdfVariant.LOG_RATIO
    per_fold_vocabulary: bool = True

    # Sparse tf-idf features are used as-is for every learner.
    standardized: ClassVar[frozenset[str]] = frozenset()
    likelihood: ClassVar[str] = "multinomial"
    metric: ClassVar[str] = "cosine"

    def text(self, record: GrantRecord) -> str:
        """The text these features are extracted from; raises MissingFieldError."""
        return field_text(record, self.selector, self.language)

    def prepare(self, records, lexicons=None) -> tuple[DocumentCounts, Vocabulary | None]:
        """Each record's word counts, and the whole-corpus vocabulary unless it is fitted per fold."""
        counts = count_documents(
            [field_tokens(record, self.selector, self.language) for record in records]
        )
        if self.per_fold_vocabulary:
            return counts, None
        return counts, select_columns(counts, range(len(records)), self.top_x)

    def fold_matrices(self, prepared, train_rows, test_rows) -> tuple[np.ndarray, np.ndarray]:
        counts, vocabulary = prepared
        return tfidf_fold_matrices(
            counts, train_rows, test_rows, self.top_x, self.mode, self.idf_variant, vocabulary
        )

    def export(self, records, lexicons: None, out_dir: Path, comment: str) -> None:
        # one whole-corpus vocabulary fit; its words, in index order, are the
        # rows of vocabulary.tsv and the columns of the matrix.  The fit and
        # vectorize run the fold kernel on their own token lists, so the
        # records are tokenized twice here: perfbench/tests pin that count
        # (six tokenizations per eval-tfidf record).
        vocabulary = fit_vocabulary_from_tokens(
            [field_tokens(record, self.selector, self.language) for record in records],
            self.top_x,
        )
        save_vocabulary(vocabulary, out_dir / "vocabulary.tsv")
        matrix = vectorize(
            [field_tokens(record, self.selector, self.language) for record in records],
            vocabulary,
            self.mode,
            self.idf_variant,
        )
        rows = ([record.grant_id] + [repr(v) if v else "0" for v in row.tolist()]
                for record, row in zip(records, matrix))
        header = ["grant_id", *vocabulary.words]
        write_csv(out_dir / "features_tfidf.csv", [comment], header, rows)


@dataclass
class EvalReport:
    per_run_f1: tuple[float, ...]
    mean_f1: float
    sd_f1: float
    per_run_macro_f1: tuple[float, ...]
    mean_macro_f1: float
    pooled_f1: float
    n_correct_total: int
    n_total: int
    p_dominant: float
    p_value: float

    def to_dict(self) -> dict:
        return asdict(self)


def _scores(confusions: Sequence[tuple[int, int, int, int]]) -> dict:
    """The EvalReport numbers of per-fold (tp, fp, fn, tn) counts; pooled ones sum them."""
    per_run_f1 = [_f1(tp, fp, fn) for tp, fp, fn, _ in confusions]
    per_run_macro = [0.5 * (_f1(tp, fp, fn) + _f1(tn, fn, fp)) for tp, fp, fn, tn in confusions]
    tp, fp, fn, tn = (sum(column) for column in zip(*confusions))
    n_total = tp + fp + fn + tn
    mean_f1 = float(np.mean(per_run_f1))
    p_dominant = max(tp + fn, fp + tn) / n_total
    return {
        "per_run_f1": tuple(per_run_f1),
        "mean_f1": mean_f1,
        "sd_f1": float(np.sqrt(np.mean((np.array(per_run_f1) - mean_f1) ** 2))),
        "per_run_macro_f1": tuple(per_run_macro),
        "mean_macro_f1": float(np.mean(per_run_macro)),
        "pooled_f1": _f1(tp, fp, fn),
        "n_correct_total": tp + tn,
        "n_total": n_total,
        "p_dominant": p_dominant,
        "p_value": significance_pvalue(tp + tn, n_total, p_dominant),
    }


def _fit_cell(algorithm, trains, hyper, seeds, knn_seeds, feature_config) -> Iterable:
    """One model per training set of a cell, in (resample, fold) order: every MLP
    at once, the other learners' models lazily, so scoring holds one at a time."""
    if algorithm == "mlp":
        return train_mlp(trains, hyper, seeds)
    if algorithm == "dtree":
        return (train_decision_tree(train) for train in trains)
    if algorithm == "random_forest":
        return (train_random_forest(train, hyper, seed) for train, seed in zip(trains, seeds))
    if algorithm == "naive_bayes":
        return (train_naive_bayes(train, feature_config.likelihood) for train in trains)
    if algorithm == "knn":
        metric = feature_config.metric
        return (
            train_knn(train, select_knn_k(train.X, train.y, knn_seed, metric), metric)
            for train, knn_seed in zip(trains, knn_seeds)
        )
    if algorithm == "linear_svm":
        return (train_linear_svm(train, hyper) for train in trains)
    raise ValueError(f"unknown algorithm '{algorithm}'")


def cross_validate(
    labeled: Sequence[tuple[GrantRecord, Label]],
    feature_config: ComplexityFeatures | TfidfFeatures,
    algorithm: str,
    k: int = 10,
    n_resamples: int = 10,
    base_seed: int = 0,
    lexicons: LexiconSet | None = None,
) -> EvalReport:
    """Balanced-resample x stratified k-fold evaluation of one algorithm.

    The cell builds the matrices of all its (resample, fold) paths first,
    then fits one model per path through one ``_fit_cell`` call.  Seeds derive
    from the path, so a fold's model does not depend on how it is trained,
    and a failure is the first in (resample, fold) order.  Each fold is kept
    as its confusion counts, resample-major, fold order within, and every
    report number comes from them, so the report is bit-reproducible for a
    given base seed.
    """
    if algorithm not in DEFAULT_HYPER:
        raise ValueError(f"unknown algorithm '{algorithm}' (expected one of {tuple(DEFAULT_HYPER)})")
    hyper = DEFAULT_HYPER[algorithm]
    prepared = feature_config.prepare([record for record, _ in labeled], lexicons)
    labels = np.array([label for _, label in labeled])

    trains, tests = [], []
    for r in range(n_resamples):
        source = np.array(balanced_resample(labeled, derive_seed(base_seed, _SALT_RESAMPLE, r)))
        y_ds = labels[source]
        assignment = np.array(
            stratified_fold_indices(list(y_ds), k, derive_seed(base_seed, _SALT_FOLD, r))
        )
        for fold in range(k):
            test_mask = assignment == fold
            X_train, X_test = feature_config.fold_matrices(
                prepared, source[~test_mask], source[test_mask]
            )
            if algorithm in feature_config.standardized:
                mean, std = fit_standardizer(X_train)
                X_train = apply_standardizer(X_train, mean, std)
                X_test = apply_standardizer(X_test, mean, std)
            trains.append(FeatureMatrix(X_train, y_ds[~test_mask]))
            tests.append((X_test, y_ds[test_mask]))

    paths = [(r, fold) for r in range(n_resamples) for fold in range(k)]
    seeds = [derive_seed(base_seed, _SALT_TRAIN, r, fold) for r, fold in paths]
    knn_seeds = [derive_seed(base_seed, _SALT_KNN, r, fold) for r, fold in paths]
    models = _fit_cell(algorithm, trains, hyper, seeds, knn_seeds, feature_config)
    confusions: list[tuple[int, int, int, int]] = []  # (tp, fp, fn, tn) per fold
    for model, (X_test, y_test) in zip(models, tests):
        confusions.append(_confusion(model.predict(X_test), y_test))

    return EvalReport(**_scores(confusions))


# ---------------------------------------------------------------------------
# Relevance protocol (one forest per balanced resample)
# ---------------------------------------------------------------------------

def relevance_over_resamples(
    labeled: Sequence[tuple[GrantRecord, Label]],
    features: ComplexityFeatures = ComplexityFeatures(),
    lexicons: LexiconSet | None = None,
    n_resamples: int = 10,
    base_seed: int = 0,
    forest_hyper: ForestHyper | None = None,
    weighting: str = "node_mean",
) -> tuple[list[RankingRow], float, np.ndarray]:
    """Train one forest per balanced resample on complexity features and rank.

    Returns the ranking, the Nemenyi critical difference over the resamples
    and the (resamples x features) rank matrix, columns in schema order.
    Resample seeds match those used by :func:`cross_validate` for the same
    base seed, so relevance runs line up with evaluation runs.
    """
    if n_resamples < 2:
        raise ValueError("the critical difference needs at least two resamples")
    prepared = features.prepare([record for record, _ in labeled], lexicons)
    labels = np.array([label for _, label in labeled])
    importances = []
    for r in range(n_resamples):
        rows = balanced_resample(labeled, derive_seed(base_seed, _SALT_RESAMPLE, r))
        X, _ = features.fold_matrices(prepared, rows, [])
        forest = train_random_forest(
            FeatureMatrix(X, labels[rows]),
            forest_hyper,
            seed=derive_seed(base_seed, _SALT_TRAIN, r),
        )
        importances.append(feature_importance(forest, weighting))
    importances = np.vstack(importances)
    ranks = aggregate_relevance(importances)
    ranking = average_rank(COMPLEXITY_SCHEMA, importances, ranks)
    return ranking, critical_difference(len(COMPLEXITY_SCHEMA), n_resamples), ranks
