"""Reference trainer loops: the textbook code the lean kernels in ``ml`` replace.

``_sigmoid``, ``mlp_loss_and_grad`` and ``train_mlp`` are the array-call
versions of the MLP epoch, held in the primal (``W1`` stored as it is);
``mlp_predict_proba`` is the forward pass with this module's sigmoid.
``standard_normals`` is the MLP's initial draw one ``SplitMix64`` output and
one ``math`` call at a time, the scalar Box-Muller that
``ml._standard_normals`` vectorizes; numpy's vectorized log, cos and sin may
differ from the C library's in the last bits, so its property allows a few
ulp.  The textbook loops run over any number of layers; the networks
``ml`` trains, and so the ones compared, have one hidden layer, and
``mlp_arrays`` lists what one learned.  ``select_knn_k`` scores every k
with its own ``train_knn(...).predict``.  On a training set with at least
as many rows as columns the rewritten kernels must give the same floats
bit for bit; with fewer rows than columns the MLP trains in Gram space and
must stay within a fixed tolerance.  The properties in
``test_trainer_oracle.py`` check both.  ``kernel_loss_and_grad`` runs the MLP
epoch kernel on one fold.  ``svm_objective`` is the L2-loss SVM objective in
exact rational arithmetic, and ``svm_gradient_and_hessian`` sums its gradient
and generalized Hessian one row at a time; the SVM properties check that a
fit is optimal by them, since a Newton solve has no textbook loop to equal.
``entropy_bits`` and ``gini`` are the textbook two-class impurities of a
node's counts, computed here rather than borrowed from the kernels under
test; ``information_gain`` scores one split from its mask, the quantity the
tree's split search maximizes.  ``f1_score`` counts one class's hits from the label
arrays, and ``report_scores`` is the report loop that pooled every fold's
predictions and labels; ``ml`` scores each fold from its confusion counts.

The trees are ``TreeNode`` objects: ``best_split`` scans the candidate
features one at a time, ``grow_forest`` grows the node trees that
``ml.train_random_forest`` grows, with the same draws taken from the scalar
``SplitMix64`` and the nodes grown in any of three orders; ``grow_tree``
with ``max_features=None`` grows the tree of ``ml.train_decision_tree``.
``predict_tree`` walks one row at a time, and ``feature_importance`` sums
one node's decrease at a time.  ``flatten`` numbers a node tree in preorder as an ``ml.Tree``.
"""

from __future__ import annotations

import math
from collections import Counter, deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

import numpy as np

from grantprod.corpus import Label, stratified_fold_indices
from grantprod.ml import (
    FeatureMatrix,
    KNN_GRID,
    ForestHyper,
    LinearSvmModel,
    MlpHyper,
    MlpModel,
    Tree,
    TrainingDivergedError,
    _check_finite,
    _mlp_backprop,
    _mlp_init,
    _PrimalFirstLayer,
    _require_nonempty,
    significance_pvalue,
    train_knn,
)
from grantprod.seeds import SplitMix64, derive_seed


def svm_objective(train: FeatureMatrix, C: float, model: LinearSvmModel) -> Fraction:
    """1/2 |w~|^2 + C sum_i max(0, 1 - y_i w~.x~_i)^2 with x~ = [x, 1], exactly.

    Every float is a rational, so the sums and products are exact and two
    nearby points compare by their objectives, not by rounding.
    """
    w = [Fraction(v) for v in model.weights.tolist()]
    bias = Fraction(model.bias)
    total = (sum(v * v for v in w) + bias * bias) / 2
    for x, label in zip(train.X.tolist(), train.y.tolist()):
        margin = sum(Fraction(a) * v for a, v in zip(x, w)) + bias
        slack = 1 - margin if label == 1 else 1 + margin
        if slack > 0:
            total += Fraction(C) * slack * slack
    return total


def svm_gradient_and_hessian(
    train: FeatureMatrix, C: float, model: LinearSvmModel
) -> tuple[np.ndarray, np.ndarray]:
    """The objective's gradient and generalized Hessian at the model, summed row by row."""
    w = np.append(model.weights, model.bias)
    gradient = w.copy()
    hessian = np.eye(w.size)
    for x, label in zip(train.X, train.y):
        x = np.append(x, 1.0)
        sign = 1.0 if label == 1 else -1.0
        slack = 1.0 - sign * (x @ w)
        if slack > 0.0:
            gradient -= 2.0 * C * slack * sign * x
            hessian += 2.0 * C * np.outer(x, x)
    return gradient, hessian


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    positive = z >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-z[positive]))
    expz = np.exp(z[~positive])
    out[~positive] = expz / (1.0 + expz)
    return out


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
    n = X.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):  # divergence is caught via the loss
        activations = [np.asarray(X, dtype=float)]
        for W, b in zip(weights[:-1], biases[:-1]):
            activations.append(np.tanh(activations[-1] @ W + b))
        logits = (activations[-1] @ weights[-1] + biases[-1])[:, 0]
        # log(1 + e^z) - y z, stable for large |z|
        loss = float(np.mean(np.logaddexp(0.0, logits) - y * logits))

    delta = ((_sigmoid(logits) - y) / n)[:, None]
    grad_w: list[np.ndarray] = [np.empty(0)] * len(weights)
    grad_b: list[np.ndarray] = [np.empty(0)] * len(weights)
    for layer in range(len(weights) - 1, -1, -1):
        grad_w[layer] = activations[layer].T @ delta
        grad_b[layer] = delta.sum(axis=0)
        if layer > 0:
            delta = (delta @ weights[layer].T) * (1.0 - activations[layer] ** 2)
    return loss, grad_w, grad_b


def kernel_loss_and_grad(
    weights: list[np.ndarray],
    biases: list[np.ndarray],
    X: np.ndarray,
    y: np.ndarray,
) -> tuple[float, list[np.ndarray], list[np.ndarray]]:
    """``mlp_loss_and_grad`` of a one-hidden-layer network, computed by
    ``ml._mlp_backprop`` on a one-fold stack.

    The kernel's numbers in the textbook's shapes (``weights`` is [W1, W2]
    and ``biases`` [b1, b2]), so the two can be compared and the kernel's
    gradients checked against finite differences.
    """
    X = np.asarray(X, dtype=float)
    (W1, W2), (b1, b2) = weights, biases
    with np.errstate(over="ignore", invalid="ignore"):  # divergence shows in the loss
        losses, delta, grad_b1, grad_W2, grad_b2 = _mlp_backprop(
            _PrimalFirstLayer([X], [W1]), b1[None], W2[None], b2[None], np.asarray(y)[None]
        )
    return float(losses[0]), [X.T @ delta[0], grad_W2[0]], [grad_b1[0], grad_b2[0]]


def standard_normals(seed: int, count: int) -> list[float]:
    """Box-Muller on the uniforms ((out >> 11) + 1) 2^-53 of ``SplitMix64(seed)``, pair by pair."""
    stream = SplitMix64(seed)
    normals = []
    while len(normals) < count:
        u1 = ((stream.next_u64() >> 11) + 1) * 2.0**-53
        u2 = ((stream.next_u64() >> 11) + 1) * 2.0**-53
        r = math.sqrt(-2.0 * math.log(u1))
        normals += [r * math.cos(2.0 * math.pi * u2), r * math.sin(2.0 * math.pi * u2)]
    return normals[:count]


def train_mlp(
    train: FeatureMatrix,
    hyper: MlpHyper | None = None,
    seed: int = 0,
) -> MlpModel:
    """Full-batch gradient descent on cross-entropy; expects standardized inputs."""
    hyper = hyper or MlpHyper()
    _require_nonempty(train.y)
    _check_finite(train.X)
    X = train.X
    y = train.y.astype(float)
    W1, b1, W2, b2 = _mlp_init(X.shape[1], hyper.hidden_units, derive_seed(seed))
    weights, biases = [W1, W2], [b1, b2]
    for epoch in range(hyper.epochs):
        loss, grad_w, grad_b = mlp_loss_and_grad(weights, biases, X, y)
        if not math.isfinite(loss):
            raise TrainingDivergedError(
                f"non-finite loss {loss!r} at epoch {epoch} "
                f"(lr={hyper.learning_rate}, hidden_units={hyper.hidden_units})"
            )
        for layer in range(len(weights)):
            weights[layer] -= hyper.learning_rate * grad_w[layer]
            biases[layer] -= hyper.learning_rate * grad_b[layer]
    return MlpModel(weights[0], biases[0], weights[1], biases[1])


def mlp_arrays(model: MlpModel) -> list[np.ndarray]:
    """Every array an MLP learned: W1, b1, W2 and b2."""
    return [model.W1, model.b1, model.W2, model.b2]


def mlp_predict_proba(model: MlpModel, X: np.ndarray) -> np.ndarray:
    a = np.tanh(np.asarray(X, dtype=float) @ model.W1 + model.b1)
    return _sigmoid((a @ model.W2 + model.b2)[:, 0])


def select_knn_k(
    X: np.ndarray,
    y: np.ndarray,
    seed: int,
    metric: str = "euclidean",
    grid: tuple[int, ...] = KNN_GRID,
    inner_folds: int = 3,
) -> int:
    """Nested grid selection of k on the training split only."""
    candidates = [k for k in grid if k <= max(1, y.size - max(2, y.size // inner_folds))]
    if not candidates:
        candidates = [1]
    class_min = min(int((y == 0).sum()), int((y == 1).sum()))
    folds_n = min(inner_folds, max(2, class_min))
    if y.size < folds_n or class_min == 0:
        return candidates[0]
    assignment = np.array(stratified_fold_indices(list(y), folds_n, seed))
    scores = {k: [] for k in candidates}
    for fold in range(folds_n):
        test_mask = assignment == fold
        X_tr, y_tr = X[~test_mask], y[~test_mask]
        X_te, y_te = X[test_mask], y[test_mask]
        for k in candidates:
            if k > y_tr.size:
                scores[k].append(0.0)
                continue
            model = train_knn(FeatureMatrix(X_tr, y_tr), k, metric)
            scores[k].append(f1_score(model.predict(X_te), y_te))
    # best mean score; ties prefer the smaller k
    return max(candidates, key=lambda k: (sum(scores[k]) / len(scores[k]), -k))


def entropy_bits(n_positive: int, n_total: int) -> float:
    """Two-class entropy in bits: each class count over the total, positive class first."""
    h = 0.0
    for count in (n_positive, n_total - n_positive):
        if count > 0:
            p = count / n_total
            h -= p * np.log2(p)
    return h


def gini(n_positive: int, n_total: int) -> float:
    """Two-class Gini impurity 2p(1 - p) of a node's counts."""
    p = n_positive / n_total
    return 2.0 * p * (1.0 - p)


def information_gain(y: np.ndarray, left_mask: np.ndarray) -> float:
    """Entropy of the labels minus the split-conditional entropy, in bits."""
    y = np.asarray(y)
    left_mask = np.asarray(left_mask, dtype=bool)
    n = y.size
    n_left = int(left_mask.sum())
    n_right = n - n_left
    parent = entropy_bits(int(y.sum()), n)
    left = entropy_bits(int(y[left_mask].sum()), n_left)
    right = entropy_bits(int(y[~left_mask].sum()), n_right)
    return parent - (n_left / n) * left - (n_right / n) * right


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


def report_scores(folds) -> dict:
    """The EvalReport numbers of (predictions, truth) label arrays, one pair per fold."""
    per_run_f1: list[float] = []
    per_run_macro: list[float] = []
    pooled_preds: list[int] = []
    pooled_truth: list[int] = []
    n_correct = 0
    n_total = 0
    label_counts: Counter[int] = Counter()
    for predictions, y_test in folds:
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
    return {
        "per_run_f1": tuple(per_run_f1),
        "mean_f1": mean_f1,
        "sd_f1": sd_f1,
        "per_run_macro_f1": tuple(per_run_macro),
        "mean_macro_f1": float(np.mean(per_run_macro)),
        "pooled_f1": f1_score(pooled_preds, pooled_truth),
        "n_correct_total": n_correct,
        "n_total": n_total,
        "p_dominant": p_dominant,
        "p_value": significance_pvalue(n_correct, n_total, p_dominant),
    }


# ---------------------------------------------------------------------------
# Node-object trees
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


def best_split(X, y, features):
    """Highest-gain (feature, midpoint threshold); ties keep the first found."""
    n = y.size
    pos_total = int(y.sum())
    h_parent = entropy_bits(pos_total, n)
    best = None
    for j in features:
        column = X[:, j]
        order = np.argsort(column, kind="stable")
        xs = column[order]
        ys = y[order]
        boundaries = np.nonzero(xs[1:] > xs[:-1])[0]  # left block is [0..b]
        if boundaries.size == 0:
            continue
        pos_prefix = np.cumsum(ys)
        gains = []
        for b in boundaries:
            n_left, pos_left = b + 1, int(pos_prefix[b])
            n_right, pos_right = n - n_left, pos_total - pos_left
            gains.append(
                (n_left / n) * (h_parent - entropy_bits(pos_left, n_left))
                + (n_right / n) * (h_parent - entropy_bits(pos_right, n_right))
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


def grow_tree(X, y, seed, max_features, order="left_first") -> TreeNode:
    """Grow one node tree, taking the open nodes in ``order``.

    "left_first" and "right_first" are depth first, the named subtree
    first; "breadth_first" grows level by level, left to right.  A node of
    seed q samples its candidate features with ``SplitMix64(q)`` and seeds
    its children ``derive_seed(q, 0)`` and ``derive_seed(q, 1)``.
    """
    root = TreeNode(n_samples=y.size, n_positive=int(y.sum()))
    pending = deque([(root, X, y, seed)])
    while pending:
        node, X, y, seed = pending.popleft() if order == "breadth_first" else pending.pop()
        if node.n_positive in (0, node.n_samples):
            continue
        d = X.shape[1]
        if max_features is not None and max_features < d:
            features = sorted(SplitMix64(seed).sample_indices(d, max_features))
        else:
            features = range(d)
        best = best_split(X, y, features)
        if best is None or best[0] < 0.0:
            continue
        _, node.feature, node.threshold = best
        left_mask = X[:, node.feature] <= node.threshold
        children = [
            (TreeNode(n_samples=int(mask.sum()), n_positive=int(y[mask].sum())),
             X[mask], y[mask], derive_seed(seed, side))
            for side, mask in ((0, left_mask), (1, ~left_mask))
        ]
        node.left, node.right = children[0][0], children[1][0]
        # the stack pops the last child pushed first
        pending.extend(reversed(children) if order == "left_first" else children)
    return root


def bootstrap_rows(tree_seed: int, n: int) -> list[int]:
    """A forest tree's training rows: output i + 1 of ``SplitMix64(tree_seed)`` mod n."""
    stream = SplitMix64(tree_seed)
    return [stream.next_u64() % n for _ in range(n)]


def grow_forest(
    train: FeatureMatrix, hyper: ForestHyper, seed: int = 0, order: str = "left_first"
) -> list[TreeNode]:
    """The roots ``ml.train_random_forest`` grows, drawing one ``SplitMix64`` output at a time.

    Each tree trains on its bootstrap rows and each node draws
    floor(sqrt(d)) candidate features, at least one.
    """
    n, d = train.X.shape
    max_features = max(1, math.isqrt(d))
    roots = []
    for t in range(hyper.n_trees):
        tree_seed = derive_seed(seed, t)
        sample = bootstrap_rows(tree_seed, n)
        X_t, y_t = train.X[sample], train.y[sample]
        roots.append(grow_tree(X_t, y_t, derive_seed(tree_seed, 0), max_features, order))
    return roots


def predict_tree(root: TreeNode, X: np.ndarray) -> np.ndarray:
    out = np.empty(X.shape[0], dtype=int)
    for i, row in enumerate(X):
        node = root
        while not node.is_leaf:
            node = node.left if row[node.feature] <= node.threshold else node.right
        out[i] = node.prediction
    return out


def split_nodes(roots: list[TreeNode]) -> Iterator[TreeNode]:
    """Internal nodes tree by tree, each tree in preorder with the left subtree first."""
    for root in roots:
        stack = [root]
        while stack:
            node = stack.pop()
            if not node.is_leaf:
                yield node
                stack.append(node.right)
                stack.append(node.left)


def flatten(root: TreeNode) -> Tree:
    """The node tree as ``ml.Tree`` arrays, nodes numbered in preorder."""
    rows = []

    def visit(node) -> int:
        index = len(rows)
        rows.append([-1, np.nan, -1, -1, node.n_samples, node.n_positive])
        if not node.is_leaf:
            rows[index][:4] = node.feature, node.threshold, visit(node.left), visit(node.right)
        return index

    visit(root)
    return Tree(*(np.array(column) for column in zip(*rows)))


def _split_decrease(node: TreeNode) -> float:
    """Gini decrease of a tree node's split, each child weighted by its share of the rows."""
    left, right = node.left, node.right
    n = left.n_samples + right.n_samples
    return (
        gini(node.n_positive, node.n_samples)
        - (left.n_samples / n) * gini(left.n_positive, left.n_samples)
        - (right.n_samples / n) * gini(right.n_positive, right.n_samples)
    )


def feature_importance(roots: list[TreeNode], n_features: int, weighting: str) -> np.ndarray:
    """Mean impurity decrease per feature, one node at a time."""
    sums = np.zeros(n_features)
    weights = np.zeros(n_features)
    for node in split_nodes(roots):
        w = float(node.n_samples) if weighting == "instance_weighted" else 1.0
        sums[node.feature] += w * _split_decrease(node)
        weights[node.feature] += w
    return np.divide(sums, weights, out=np.zeros(n_features), where=weights > 0)
