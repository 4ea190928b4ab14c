"""Classifier families and the balanced-resample x k-fold evaluation protocol.

All trainers are deterministic under their seed; anything data-dependent
(imputation medians, standardization statistics, tf-idf vocabularies, nested
kNN grid search) is fitted on training folds only.  Trees split on entropy
information gain (bits) and keep each node's sample and positive counts, from
which the relevance stage derives Gini impurity decreases.
"""

from __future__ import annotations

import csv
import math
import warnings
from collections import Counter
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import ClassVar, Iterator, Sequence

import numpy as np

from .complexity import (
    COMPLEXITY_SCHEMA,
    ComplexityVector,
    extract_complexity_vector,
    write_feature_csv,
)
from .corpus import (
    GrantRecord,
    Label,
    balanced_resample,
    stratified_fold_indices,
)
from .relevance import (
    FeatureRelevanceReport,
    RankingRow,
    aggregate_relevance,
    average_rank,
    critical_difference,
    feature_importance,
)
from .seeds import derive_seed
from .textproc import LexiconSet, builtin_lexicons
from .topical import (
    ColumnSelection,
    DocumentCounts,
    FieldSelector,
    IdfVariant,
    VectorMode,
    count_documents,
    document_text,
    field_text,
    field_tokens,
    fit_vocabulary,
    save_vocabulary,
    select_columns,
    vectorize,
    vectorize_counts,
)

_SALT_RESAMPLE = 101
_SALT_FOLD = 202
_SALT_TRAIN = 303
_SALT_KNN = 404


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
        self.y = np.asarray([v.value if isinstance(v, Label) else int(v) for v in self.y])
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
    """Per-column medians ignoring NaN; all-NaN columns fall back to 0."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # all-NaN columns
        medians = np.nanmedian(X, axis=0)
    medians = np.where(np.isnan(medians), 0.0, medians)
    return medians


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


def complexity_vectors(
    records: Sequence[GrantRecord],
    language: str = "pt",
    lexicons: LexiconSet | None = None,
    include_title: bool = False,
) -> list[ComplexityVector]:
    """One complexity vector per record, extracted from its document text."""
    if lexicons is None:
        lexicons = builtin_lexicons(language)
    return [
        extract_complexity_vector(
            document_text(record, language, include_title),
            language=language,
            lexicons=lexicons,
            doc_id=record.grant_id,
        )
        for record in records
    ]


def complexity_rows(
    records: Sequence[GrantRecord],
    language: str = "pt",
    lexicons: LexiconSet | None = None,
    include_title: bool = False,
) -> np.ndarray:
    """Raw complexity matrix with NaN where a metric is missing."""
    rows = [
        [np.nan if v is None else float(v) for v in vector.as_row()]
        for vector in complexity_vectors(records, language, lexicons, include_title)
    ]
    return np.array(rows, dtype=float).reshape(len(rows), len(COMPLEXITY_SCHEMA))


def tfidf_fold_matrices(
    counts: DocumentCounts,
    train_rows: Sequence[int],
    test_rows: Sequence[int],
    top_x: int,
    mode: VectorMode = VectorMode.TFIDF,
    idf_variant: IdfVariant = IdfVariant.LOG_RATIO,
    selection: ColumnSelection | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Training and test matrices of one fold; the vocabulary is fitted on the training rows only.

    ``counts`` holds every document's word counts, made once per area.  The
    fold's vocabulary is selected from column sums over the training rows
    (or is ``selection``, fitted beforehand) and its matrices are built by
    column selection.  The fold's ``Vocabulary``, where one is wanted, is
    ``counts.vocabulary(select_columns(counts, train_rows, top_x))``.
    """
    if selection is None:
        selection = select_columns(counts, train_rows, top_x)
    return (
        vectorize_counts(counts, train_rows, selection, mode, idf_variant),
        vectorize_counts(counts, test_rows, selection, mode, idf_variant),
    )


# ---------------------------------------------------------------------------
# Hyperparameters
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TreeHyper:
    max_depth: int | None = None
    min_samples_split: int = 2
    min_samples_leaf: int = 1
    # Splits with gain below this become leaves.  The default of 0.0 admits
    # zero-gain splits on impure nodes, which is what lets a tree resolve
    # XOR-style interactions at depth 2.
    min_gain: float = 0.0


@dataclass(frozen=True)
class ForestHyper:
    n_trees: int = 100
    max_features: int | str | None = "sqrt"
    bootstrap: bool = True
    tree: TreeHyper = field(default_factory=TreeHyper)


@dataclass(frozen=True)
class KnnHyper:
    grid: tuple[int, ...] = (1, 3, 5, 7, 11, 15)  # k candidates for nested selection


@dataclass(frozen=True)
class SvmHyper:
    C: float = 1.0
    epochs: int = 200


@dataclass(frozen=True)
class MlpHyper:
    hidden_layers: tuple[int, ...] = (16,)
    learning_rate: float = 0.1
    epochs: int = 300

    def __post_init__(self):
        if not self.hidden_layers or any(h < 1 for h in self.hidden_layers):
            raise ValueError("hidden layers must all have at least one unit")


# The algorithms cross_validate runs, each with the hyperparameters it trains
# with (Naive Bayes has none).
DEFAULT_HYPER = {
    "dtree": TreeHyper(),
    "random_forest": ForestHyper(),
    "knn": KnnHyper(),
    "naive_bayes": None,
    "linear_svm": SvmHyper(),
    "mlp": MlpHyper(),
}


# ---------------------------------------------------------------------------
# Decision tree
# ---------------------------------------------------------------------------

@dataclass
class TreeNode:
    """What a tree learned at one node: its training counts and, if internal, the split."""

    n_samples: int
    n_positive: int
    feature: int | None = None
    threshold: float | None = None
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.feature is None

    @property
    def prediction(self) -> int:
        return 1 if 2 * self.n_positive > self.n_samples else 0


def _entropy_bits(pos: int, total: int) -> float:
    if total == 0:
        return 0.0
    h = 0.0
    for count in (pos, total - pos):
        if count > 0:
            p = count / total
            h -= p * math.log2(p)
    return h


def _entropy_bits_vec(pos: np.ndarray, total: np.ndarray) -> np.ndarray:
    out = np.zeros(len(total))
    for counts in (pos, total - pos):
        p = counts / total
        mask = p > 0
        out[mask] -= p[mask] * np.log2(p[mask])
    return out


def _best_split(X, y, features, min_leaf):
    """Highest-gain (feature, midpoint threshold); ties keep the first found."""
    n = y.size
    pos_total = int(y.sum())
    h_parent = _entropy_bits(pos_total, n)
    best = None
    for j in features:
        column = X[:, j]
        order = np.argsort(column, kind="stable")
        xs = column[order]
        ys = y[order]
        boundaries = np.nonzero(xs[1:] > xs[:-1])[0]  # left block is [0..b]
        if boundaries.size == 0:
            continue
        admissible = (boundaries + 1 >= min_leaf) & (n - boundaries - 1 >= min_leaf)
        boundaries = boundaries[admissible]
        if boundaries.size == 0:
            continue
        pos_prefix = np.cumsum(ys)
        n_left = boundaries + 1
        pos_left = pos_prefix[boundaries]
        n_right = n - n_left
        pos_right = pos_total - pos_left
        gains = (
            h_parent
            - (n_left / n) * _entropy_bits_vec(pos_left, n_left)
            - (n_right / n) * _entropy_bits_vec(pos_right, n_right)
        )
        i = int(np.argmax(gains))  # first max -> smallest threshold
        if best is None or gains[i] > best[0]:
            b = boundaries[i]
            threshold = (xs[b] + xs[b + 1]) / 2.0
            if not threshold < xs[b + 1]:
                # adjacent floats: the midpoint rounds up to the right value,
                # so split at the left value to keep the scored partition
                threshold = xs[b]
            best = (float(gains[i]), int(j), float(threshold))
    return best


def _grow_tree(X, y, hyper: TreeHyper, depth, rng=None, max_features=None):
    n = y.size
    node = TreeNode(n_samples=n, n_positive=int(y.sum()))
    if node.n_positive in (0, n):
        return node
    if hyper.max_depth is not None and depth >= hyper.max_depth:
        return node
    if n < hyper.min_samples_split:
        return node

    d = X.shape[1]
    if max_features is not None and max_features < d:
        features = np.sort(rng.choice(d, size=max_features, replace=False))
    else:
        features = np.arange(d)
    best = _best_split(X, y, features, hyper.min_samples_leaf)
    if best is None or best[0] < hyper.min_gain:
        return node

    _, node.feature, node.threshold = best
    left_mask = X[:, node.feature] <= node.threshold
    node.left = _grow_tree(X[left_mask], y[left_mask], hyper, depth + 1, rng, max_features)
    node.right = _grow_tree(X[~left_mask], y[~left_mask], hyper, depth + 1, rng, max_features)
    return node


def _predict_tree(root: TreeNode, X: np.ndarray) -> np.ndarray:
    out = np.empty(X.shape[0], dtype=int)
    for i, row in enumerate(X):
        node = root
        while not node.is_leaf:
            node = node.left if row[node.feature] <= node.threshold else node.right
        out[i] = node.prediction
    return out


@dataclass
class TreeModel:
    """One decision tree, or a forest of them."""

    roots: list[TreeNode]
    n_features: int

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        votes = np.zeros(X.shape[0], dtype=int)
        for root in self.roots:
            votes += _predict_tree(root, X)
        # strict majority of trees; exact ties fall to the zero class
        return (2 * votes > len(self.roots)).astype(int)

    def split_nodes(self) -> Iterator[TreeNode]:
        """Internal nodes tree by tree, each tree in preorder with the left subtree first."""
        for root in self.roots:
            stack = [root]
            while stack:
                node = stack.pop()
                if not node.is_leaf:
                    yield node
                    stack.append(node.right)
                    stack.append(node.left)


def train_decision_tree(train: FeatureMatrix, hyper: TreeHyper | None = None) -> TreeModel:
    """Greedy binary tree maximizing information gain at each node.

    A single-class training set yields a one-leaf majority model rather than
    an error.
    """
    hyper = hyper or TreeHyper()
    _require_nonempty(train.y)
    _check_finite(train.X)
    root = _grow_tree(train.X, train.y, hyper, depth=0)
    return TreeModel(roots=[root], n_features=train.X.shape[1])


# ---------------------------------------------------------------------------
# Random forest
# ---------------------------------------------------------------------------

def _resolve_max_features(spec_value, d: int) -> int | None:
    if spec_value is None:
        return None
    if spec_value == "sqrt":
        return max(1, int(math.sqrt(d)))
    value = int(spec_value)
    if value < 1:
        raise ValueError("max_features must be at least 1")
    return min(value, d)


def train_random_forest(
    train: FeatureMatrix,
    hyper: ForestHyper | None = None,
    seed: int = 0,
) -> TreeModel:
    """Bootstrap trees with per-node feature subsampling, majority vote."""
    hyper = hyper or ForestHyper()
    _require_nonempty(train.y)
    _check_finite(train.X)
    n, d = train.X.shape
    max_features = _resolve_max_features(hyper.max_features, d)
    roots = []
    for t in range(hyper.n_trees):
        rng = np.random.default_rng(derive_seed(seed, t))
        if hyper.bootstrap:
            sample = rng.integers(0, n, size=n)
            X_t, y_t = train.X[sample], train.y[sample]
        else:
            X_t, y_t = train.X, train.y
        roots.append(_grow_tree(X_t, y_t, hyper.tree, depth=0, rng=rng, max_features=max_features))
    return TreeModel(roots=roots, n_features=d)


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


def select_knn_k(
    X: np.ndarray,
    y: np.ndarray,
    hyper: KnnHyper,
    seed: int,
    metric: str = "euclidean",
    inner_folds: int = 3,
) -> int:
    """Nested grid selection of k on the training split only.

    Each inner fold sorts its neighbours once and scores every k from it.
    """
    X = np.asarray(X, dtype=float)
    _check_finite(X)
    candidates = [k for k in hyper.grid if k <= max(1, y.size - max(2, y.size // inner_folds))]
    if not candidates:
        candidates = [1]
    class_min = min(int((y == 0).sum()), int((y == 1).sum()))
    folds_n = min(inner_folds, max(2, class_min))
    if y.size < folds_n or class_min == 0:
        return candidates[0]
    if min(candidates) < 1:  # train_knn's check, which each k used to pass through
        raise ValueError("k must be in [1, len(train)]")
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
# Linear SVM (Pegasos: stochastic subgradient descent on hinge loss + L2)
# ---------------------------------------------------------------------------

def _gram_form(X: np.ndarray) -> bool:
    """Train through G = X X^T when the training set has fewer rows than columns.

    The SVM weights and the MLP's first-layer updates lie in the span of the
    rows (X^T a), so a step reads the n x n Gram matrix, not d-wide rows.
    """
    return X.shape[0] < X.shape[1]


@dataclass
class LinearSvmModel:
    weights: np.ndarray
    bias: float

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        return np.asarray(X, dtype=float) @ self.weights + self.bias

    def predict(self, X: np.ndarray) -> np.ndarray:
        return (self.decision_function(X) > 0).astype(int)


def train_linear_svm(
    train: FeatureMatrix,
    hyper: SvmHyper | None = None,
    seed: int = 0,
) -> LinearSvmModel:
    """Pegasos-style stochastic subgradient descent, lambda = 1 / (C n).

    The bias term is updated without regularization; the weight vector is
    projected onto the ball of radius 1/sqrt(lambda) for stability.  With at
    least as many rows as columns the loop holds w itself and computes the
    textbook steps bit for bit.  With fewer rows than columns it holds
    w = s X^T alpha and takes the same steps in O(n) each (kernelized
    Pegasos); the weights then agree with the textbook loop to rounding.
    """
    hyper = hyper or SvmHyper()
    _require_nonempty(train.y)
    _check_finite(train.X)
    X, y = train.X, train.y
    n = X.shape[0]
    signs = (2.0 * y - 1.0).tolist()
    lam = 1.0 / (hyper.C * n)
    radius = 1.0 / math.sqrt(lam)
    rng = np.random.default_rng(derive_seed(seed))
    pegasos = _pegasos_gram if _gram_form(X) else _pegasos_primal
    w, b = pegasos(X, signs, lam, radius, hyper.epochs, rng)
    return LinearSvmModel(weights=w, bias=b)


def _pegasos_primal(X, signs, lam, radius, epochs, rng) -> tuple[np.ndarray, float]:
    # A step costs mostly call overhead, so rows are read once.  Each float
    # operation is the textbook step's, on the same operands in the same
    # order; np.linalg.norm of a vector is sqrt(w.dot(w)).
    n, d = X.shape
    rows = list(X)
    w = np.zeros(d)
    step = np.empty(d)
    b = 0.0
    t = 0
    for _ in range(epochs):
        for i in rng.permutation(n).tolist():
            t += 1
            eta = 1.0 / (lam * t)
            x, sign = rows[i], signs[i]
            margin = sign * (x.dot(w) + b)
            w *= 1.0 - eta * lam
            if margin < 1.0:
                coef = eta * sign
                np.multiply(x, coef, out=step)
                w += step
                b += coef
            norm = math.sqrt(w.dot(w))
            if norm > radius:
                w *= radius / norm
    return w, b


# Below this the scale of a Gram-form Pegasos vector is folded into its
# coefficients, so that repeated projections cannot underflow it to zero.
_MIN_SCALE = 1e-100


def _pegasos_gram(X, signs, lam, radius, epochs, rng) -> tuple[np.ndarray, float]:
    # The same rng calls and the same shrink, hinge-step and projection
    # sequence as _pegasos_primal, with w = s * X^T alpha: x_i . w is
    # s * G[i] . alpha, and ||w||^2 is carried as a scalar through each step.
    n = X.shape[0]
    gram = X @ X.T
    rows = list(gram)
    diagonal = gram.diagonal().tolist()
    alpha = np.zeros(n)
    scale = 1.0
    sq_norm = 0.0
    radius_sq = radius * radius
    b = 0.0
    t = 0
    for _ in range(epochs):
        for i in rng.permutation(n).tolist():
            t += 1
            eta = 1.0 / (lam * t)
            sign = signs[i]
            xw = scale * float(rows[i].dot(alpha))
            margin = sign * (xw + b)
            # At t = 1 the shrink is 0 up to rounding and w is still zero,
            # so the scale stays 1 rather than collapse to (nearly) 0.
            if t > 1:
                shrink = 1.0 - eta * lam
                scale *= shrink
                xw *= shrink
                sq_norm *= shrink * shrink
            if margin < 1.0:
                coef = eta * sign
                alpha[i] += coef / scale
                sq_norm += coef * (2.0 * xw + coef * diagonal[i])
                b += coef
            if sq_norm > radius_sq:
                scale *= radius / math.sqrt(sq_norm)
                sq_norm = radius_sq
                if scale < _MIN_SCALE:
                    alpha *= scale
                    scale = 1.0
    return scale * (X.T @ alpha), b


# ---------------------------------------------------------------------------
# Multi-layer perceptron
# ---------------------------------------------------------------------------

def _sigmoid(z: np.ndarray) -> np.ndarray:
    # e^-|z| never overflows; each branch is the stable form for its sign
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _mlp_backprop(
    first: _PrimalFirstLayer | _GramFirstLayer,
    weights: list[np.ndarray],
    biases: list[np.ndarray],
    y: np.ndarray,
) -> tuple[float, np.ndarray, list[np.ndarray], list[np.ndarray]]:
    """One epoch's loss and gradients; ``first`` forms the first layer's X W1.

    Returns the loss, the gradient with respect to the first pre-activation
    X W1 + b1 (whose product with X^T is the first layer's weight gradient,
    left to the caller), the weight gradients of the later layers and every
    bias gradient.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # divergence is caught via the loss
        z = first.product() + biases[0]
        n = z.shape[0]
        hidden = []
        for W, b in zip(weights[1:], biases[1:]):
            hidden.append(np.tanh(z))
            z = hidden[-1] @ W + b
        logits = z[:, 0]
        # log(1 + e^z) - y z, stable for large |z|
        loss = float(np.add.reduce(np.logaddexp(0.0, logits) - y * logits) / n)

    delta = ((_sigmoid(logits) - y) / n)[:, None]
    grad_w: list[np.ndarray] = [np.empty(0)] * len(weights)
    grad_b: list[np.ndarray] = [np.empty(0)] * len(weights)
    for layer in range(len(weights) - 1, 0, -1):
        a = hidden[layer - 1]
        grad_w[layer] = a.T @ delta
        grad_b[layer] = delta.sum(axis=0)
        delta = (delta @ weights[layer].T) * (1.0 - a * a)
    grad_b[0] = delta.sum(axis=0)
    return loss, delta, grad_w, grad_b


def mlp_loss_and_grad(
    weights: list[np.ndarray],
    biases: list[np.ndarray],
    X: np.ndarray,
    y: np.ndarray,
) -> tuple[float, list[np.ndarray], list[np.ndarray]]:
    """Mean cross-entropy (computed from logits) and its exact gradients.

    tanh hidden layers, logistic output.  Exposed at module level so the
    analytic gradients can be checked against finite differences.
    """
    X = np.asarray(X, dtype=float)
    loss, delta, grad_w, grad_b = _mlp_backprop(_PrimalFirstLayer(X, weights[0]), weights, biases, y)
    grad_w[0] = X.T @ delta
    return loss, grad_w, grad_b


def _mlp_init(sizes: Sequence[int], rng: np.random.Generator):
    weights = []
    biases = []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        weights.append(rng.normal(0.0, 1.0 / math.sqrt(fan_in), size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return weights, biases


class _PrimalFirstLayer:
    """The first layer's weights W1, held and updated as they are."""

    def __init__(self, X: np.ndarray, W: np.ndarray):
        self.X = X
        self.W = W

    def product(self) -> np.ndarray:
        return self.X @ self.W

    def descend(self, learning_rate: float, delta: np.ndarray) -> None:
        self.W -= learning_rate * (self.X.T @ delta)

    def weights(self) -> np.ndarray:
        return self.W


class _GramFirstLayer:
    """W1 held as W1_0 - X^T A: an epoch adds lr * delta to the n x h matrix A.

    X W1 is then X W1_0 - G A with G = X X^T, so an epoch costs O(n^2 h)
    instead of O(n d h) (the representer form of the first layer).
    """

    def __init__(self, X: np.ndarray, W: np.ndarray):
        self.X = X
        self.W0 = W
        self.gram = X @ X.T
        self.initial_product = X @ W
        self.A = np.zeros((X.shape[0], W.shape[1]))

    def product(self) -> np.ndarray:
        return self.initial_product - self.gram @ self.A

    def descend(self, learning_rate: float, delta: np.ndarray) -> None:
        self.A += learning_rate * delta

    def weights(self) -> np.ndarray:
        return self.W0 - self.X.T @ self.A


@dataclass
class MlpModel:
    weights: list[np.ndarray]
    biases: list[np.ndarray]

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        a = np.asarray(X, dtype=float)
        for W, b in zip(self.weights[:-1], self.biases[:-1]):
            a = np.tanh(a @ W + b)
        return _sigmoid((a @ self.weights[-1] + self.biases[-1])[:, 0])

    def predict(self, X: np.ndarray) -> np.ndarray:
        return (self.predict_proba(X) > 0.5).astype(int)


def train_mlp(
    train: FeatureMatrix,
    hyper: MlpHyper | None = None,
    seed: int = 0,
) -> MlpModel:
    """Full-batch gradient descent on cross-entropy; expects standardized inputs.

    With at least as many rows as columns the first layer's weights are
    updated as they are, bit for bit the textbook epoch.  With fewer rows
    than columns they are held as W1_0 - X^T A and formed once at the end;
    they then agree with the textbook loop to rounding.
    """
    hyper = hyper or MlpHyper()
    _require_nonempty(train.y)
    _check_finite(train.X)
    X = train.X
    y = train.y.astype(float)
    sizes = [X.shape[1], *hyper.hidden_layers, 1]
    rng = np.random.default_rng(derive_seed(seed))
    weights, biases = _mlp_init(sizes, rng)
    first = (_GramFirstLayer if _gram_form(X) else _PrimalFirstLayer)(X, weights[0])
    lr = hyper.learning_rate
    for epoch in range(hyper.epochs):
        loss, delta, grad_w, grad_b = _mlp_backprop(first, weights, biases, y)
        if not math.isfinite(loss):
            raise TrainingDivergedError(
                f"non-finite loss {loss!r} at epoch {epoch} "
                f"(lr={lr}, layers={hyper.hidden_layers})"
            )
        first.descend(lr, delta)
        for layer in range(1, len(weights)):
            weights[layer] -= lr * grad_w[layer]
        for layer in range(len(biases)):
            biases[layer] -= lr * grad_b[layer]
    weights[0] = first.weights()
    return MlpModel(weights=weights, biases=biases)


# ---------------------------------------------------------------------------
# Scoring
# ---------------------------------------------------------------------------

def _as_int_labels(values) -> np.ndarray:
    return np.asarray([v.value if isinstance(v, Label) else int(v) for v in values])


def f1_score(predictions, truth, positive: int | Label = 1) -> float:
    """Positive-class F1; defined as 0 when precision + recall is 0."""
    preds = _as_int_labels(predictions)
    true = _as_int_labels(truth)
    if preds.shape != true.shape:
        raise ValueError("predictions and truth must have equal length")
    positive = positive.value if isinstance(positive, Label) else int(positive)
    tp = int(((preds == positive) & (true == positive)).sum())
    fp = int(((preds == positive) & (true != positive)).sum())
    fn = int(((preds != positive) & (true == positive)).sum())
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def macro_f1(predictions, truth) -> float:
    return 0.5 * (f1_score(predictions, truth, 1) + f1_score(predictions, truth, 0))


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
# fields; the family name and the constants the learners read are class
# constants, which asdict (the config echo) skips.

@dataclass(frozen=True)
class ComplexityFeatures:
    language: str = "pt"
    include_title: bool = False
    family: ClassVar[str] = "complexity"

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
            complexity_vectors(records, self.language, lexicons, self.include_title),
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
    family: ClassVar[str] = "tfidf"

    # Sparse tf-idf features are used as-is for every learner.
    standardized: ClassVar[frozenset[str]] = frozenset()
    likelihood: ClassVar[str] = "multinomial"
    metric: ClassVar[str] = "cosine"

    def text(self, record: GrantRecord) -> str:
        """The text these features are extracted from; raises MissingFieldError."""
        return field_text(record, self.selector, self.language)

    def prepare(self, records, lexicons=None) -> tuple[DocumentCounts, ColumnSelection | None]:
        """Each record's word counts, and the whole-corpus vocabulary unless it is fitted per fold."""
        counts = count_documents(
            [field_tokens(record, self.selector, self.language) for record in records]
        )
        if self.per_fold_vocabulary:
            return counts, None
        return counts, select_columns(counts, range(len(records)), self.top_x)

    def fold_matrices(self, prepared, train_rows, test_rows) -> tuple[np.ndarray, np.ndarray]:
        counts, selection = prepared
        return tfidf_fold_matrices(
            counts, train_rows, test_rows, self.top_x, self.mode, self.idf_variant, selection
        )

    def export(self, records, lexicons: LexiconSet, out_dir: Path, comment: str) -> None:
        # the exported matrix uses a whole-corpus vocabulary fit; per-fold
        # vocabularies exist only inside cross-validation.  fit_vocabulary and
        # vectorize run the fold kernel on their own token lists, so the
        # records are tokenized twice here: perfbench/tests pin that count
        # (six tokenizations per eval-tfidf record).
        vocabulary = fit_vocabulary(records, self.selector, self.top_x, self.language)
        save_vocabulary(vocabulary, out_dir / "vocabulary.tsv")
        words = sorted(vocabulary.entries, key=vocabulary.entries.get)
        matrix = vectorize(
            [field_tokens(record, self.selector, self.language) for record in records],
            vocabulary,
            self.mode,
            self.idf_variant,
        )
        with open(out_dir / "features_tfidf.csv", "w", newline="", encoding="utf-8") as handle:
            handle.write(f"# {comment}\n")
            writer = csv.writer(handle)
            writer.writerow(["grant_id"] + words)
            for record, row in zip(records, matrix):
                writer.writerow([record.grant_id] + [repr(v) if v else "0" for v in row.tolist()])


def _config_echo(feature_config, algorithm, k, n_resamples, base_seed, hyper) -> dict:
    features = {}
    for key, value in asdict(feature_config).items():
        features[key] = value.value if hasattr(value, "value") else value
    features["family"] = feature_config.family
    return {
        "algorithm": algorithm,
        "features": features,
        "k_folds": k,
        "n_resamples": n_resamples,
        "base_seed": base_seed,
        "hyperparameters": repr(hyper) if hyper is not None else "default",
    }


@dataclass
class EvalReport:
    algorithm: str
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
    config: dict

    def to_dict(self) -> dict:
        return asdict(self)


def _train_for_cell(algorithm, X, y, hyper, seed, feature_config, knn_seed):
    matrix = FeatureMatrix(X, y)
    if algorithm == "dtree":
        return train_decision_tree(matrix, hyper)
    if algorithm == "random_forest":
        return train_random_forest(matrix, hyper, seed)
    if algorithm == "naive_bayes":
        return train_naive_bayes(matrix, feature_config.likelihood)
    if algorithm == "knn":
        metric = feature_config.metric
        return train_knn(matrix, select_knn_k(X, y, hyper, knn_seed, metric), metric)
    if algorithm == "linear_svm":
        return train_linear_svm(matrix, hyper, seed)
    if algorithm == "mlp":
        return train_mlp(matrix, hyper, seed)
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

    Per-run F1 values are collected resample-major, fold order within, so the
    report is bit-reproducible for a given base seed.
    """
    if algorithm not in DEFAULT_HYPER:
        raise ValueError(f"unknown algorithm '{algorithm}' (expected one of {tuple(DEFAULT_HYPER)})")
    hyper = DEFAULT_HYPER[algorithm]
    prepared = feature_config.prepare([record for record, _ in labeled], lexicons)

    per_run_f1: list[float] = []
    per_run_macro: list[float] = []
    pooled_preds: list[int] = []
    pooled_truth: list[int] = []
    n_correct = 0
    n_total = 0
    label_counts: Counter[int] = Counter()

    for r in range(n_resamples):
        dataset = balanced_resample(labeled, derive_seed(base_seed, _SALT_RESAMPLE, r))
        y_ds = np.array([label.value for _, label in dataset.instances])
        source = np.array(dataset.source_indices)
        assignment = np.array(
            stratified_fold_indices(list(y_ds), k, derive_seed(base_seed, _SALT_FOLD, r))
        )
        for fold in range(k):
            test_mask = assignment == fold
            train_rows = source[~test_mask]
            test_rows = source[test_mask]
            y_train = y_ds[~test_mask]
            y_test = y_ds[test_mask]

            X_train, X_test = feature_config.fold_matrices(prepared, train_rows, test_rows)
            if algorithm in feature_config.standardized:
                mean, std = fit_standardizer(X_train)
                X_train = apply_standardizer(X_train, mean, std)
                X_test = apply_standardizer(X_test, mean, std)

            model = _train_for_cell(
                algorithm,
                X_train,
                y_train,
                hyper,
                derive_seed(base_seed, _SALT_TRAIN, r, fold),
                feature_config,
                derive_seed(base_seed, _SALT_KNN, r, fold),
            )
            predictions = model.predict(X_test)
            per_run_f1.append(f1_score(predictions, y_test))
            per_run_macro.append(macro_f1(predictions, y_test))
            n_correct += int((predictions == y_test).sum())
            n_total += int(y_test.size)
            label_counts.update(int(v) for v in y_test)
            pooled_preds.extend(int(v) for v in predictions)
            pooled_truth.extend(int(v) for v in y_test)

    mean_f1 = float(np.mean(per_run_f1))
    sd_f1 = float(np.sqrt(np.mean((np.array(per_run_f1) - mean_f1) ** 2)))
    p_dominant = max(label_counts.values()) / n_total
    return EvalReport(
        algorithm=algorithm,
        per_run_f1=tuple(per_run_f1),
        mean_f1=mean_f1,
        sd_f1=sd_f1,
        per_run_macro_f1=tuple(per_run_macro),
        mean_macro_f1=float(np.mean(per_run_macro)),
        pooled_f1=f1_score(pooled_preds, pooled_truth),
        n_correct_total=n_correct,
        n_total=n_total,
        p_dominant=p_dominant,
        p_value=significance_pvalue(n_correct, n_total, p_dominant),
        config=_config_echo(feature_config, algorithm, k, n_resamples, base_seed, hyper),
    )


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
) -> tuple[list[RankingRow], FeatureRelevanceReport, list[FeatureRelevanceReport]]:
    """Train one forest per balanced resample on complexity features and rank.

    Resample seeds match those used by :func:`cross_validate` for the same
    base seed, so relevance runs line up with evaluation runs.
    """
    prepared = features.prepare([record for record, _ in labeled], lexicons)
    reports = []
    for r in range(n_resamples):
        dataset = balanced_resample(labeled, derive_seed(base_seed, _SALT_RESAMPLE, r))
        X, _ = features.fold_matrices(prepared, list(dataset.source_indices), [])
        y = np.array([label.value for _, label in dataset.instances])
        forest = train_random_forest(
            FeatureMatrix(X, y),
            forest_hyper,
            seed=derive_seed(base_seed, _SALT_TRAIN, r),
        )
        reports.append(feature_importance(forest, COMPLEXITY_SCHEMA, weighting))
    aggregated = aggregate_relevance(reports)
    ranking = average_rank(aggregated)
    if n_resamples >= 2:
        aggregated.critical_difference = critical_difference(aggregated.average_rank, n_resamples)
    return ranking, aggregated, reports
