"""Acceptance suite: one test per release criterion, each printing a verdict line.

Expected values come from independent oracles: high-precision arithmetic
(mpmath), exhaustive brute-force summation/enumeration, and finite
differences.  Every tolerance is pinned here, not calibrated after the fact.
Run with ``pytest tests/test_acceptance.py -s`` to see the verdict lines.
"""

import functools
import math

import mpmath
import numpy as np
import pytest

from grantprod.cli import main
from grantprod.complexity import COMPLEXITY_SCHEMA, brunet_index
from grantprod.ml import (
    FeatureMatrix,
    ForestHyper,
    TfidfFeatures,
    cross_validate,
    relevance_over_resamples,
    significance_pvalue,
    train_decision_tree,
)
from grantprod.ml import _mlp_init
from grantprod.relevance import gini_from_counts, impurity_decrease
from grantprod.seeds import SplitMix64, derive_seed
from grantprod.topical import tfidf_weight

from _synth import (
    mixed_area_corpus,
    planted_ne_corpus,
    planted_topic_corpus,
    shuffled_labels,
    write_corpus_csv,
)
from _trainer_oracle import kernel_loss_and_grad


def criterion(name):
    def decorate(test):
        @functools.wraps(test)
        def wrapper(*args, **kwargs):
            try:
                test(*args, **kwargs)
            except BaseException:
                print(f"[FAIL] {name}")
                raise
            print(f"[PASS] {name}")
        return wrapper
    return decorate


# ---------------------------------------------------------------------------
# 1. Gini constants (4-decimal regression, +-5e-5)
# ---------------------------------------------------------------------------

@criterion("gini constants: 0.5000 / 0.1107 / delta 0.4412")
def test_gini_constants():
    assert gini_from_counts(1, 2) == pytest.approx(0.5000, abs=5e-5)
    g_right = gini_from_counts(1, 17)
    assert g_right == pytest.approx(0.1107, abs=5e-5)
    # 32 instances split 15 (pure) / 17 (one stray)
    delta = impurity_decrease(0.5, 0.0, g_right, 15, 17)
    assert delta == pytest.approx(0.4412, abs=5e-5)


# ---------------------------------------------------------------------------
# 2. weighting collapse when a word occurs in every document
# ---------------------------------------------------------------------------

@criterion("tf-idf collapse: N_w = N gives exactly f/n_d (1200 random cases)")
def test_tfidf_collapse_property():
    rng = SplitMix64(2024)
    checked = 0
    for _ in range(1200):
        corpus_size = 1 + rng.randbelow(10000)
        n_d = 1 + rng.randbelow(500)
        f_wd = rng.randbelow(n_d + 1)
        weight = tfidf_weight(f_wd, n_d, corpus_size, corpus_size)
        assert weight == f_wd / n_d  # bit-exact, any corpus size including 1
        checked += 1
    assert checked == 1200


# ---------------------------------------------------------------------------
# 3. Brunet boundary values and monotonicity
# ---------------------------------------------------------------------------

@criterion("Brunet index: exact boundary, 1e-9 vs high-precision, monotone grid")
def test_brunet_boundary():
    assert brunet_index(1, 1) == 1.0
    mpmath.mp.dps = 50
    expected = float(mpmath.mpf(100) ** (mpmath.mpf(1000) ** mpmath.mpf("-0.165")))
    assert abs(brunet_index(1000, 100) - expected) <= 1e-9

    ns = np.unique(np.linspace(2, 5000, 100).astype(int))
    for v in (2, 17, 60):
        values = [brunet_index(int(n), v) for n in ns if n >= v]
        assert all(a > b for a, b in zip(values, values[1:]))  # decreasing in n
    vs = np.unique(np.linspace(2, 100, 100).astype(int))
    for n in (120, 1000):
        values = [brunet_index(n, int(v)) for v in vs]
        assert all(a < b for a, b in zip(values, values[1:]))  # increasing in v


# ---------------------------------------------------------------------------
# 4. binomial tail vs exhaustive summation
# ---------------------------------------------------------------------------

@criterion("binomial significance: brute-force match to 1e-12 for all n <= 30")
def test_binomial_significance():
    assert significance_pvalue(10, 10, 0.5) == pytest.approx(2**-10, abs=1e-15)
    for n_total in range(1, 31):
        for p in (0.3, 0.5, 0.6, 0.777):
            for n_correct in range(0, n_total + 1):
                exact = math.fsum(
                    math.comb(n_total, k) * p**k * (1 - p) ** (n_total - k)
                    for k in range(n_correct, n_total + 1)
                )
                value = significance_pvalue(n_correct, n_total, p)
                assert abs(value - min(1.0, exact)) <= 1e-12


# ---------------------------------------------------------------------------
# 5. root split maximizes brute-force information gain
# ---------------------------------------------------------------------------

def _oracle_entropy(labels):
    n = len(labels)
    h = 0.0
    for c in (0, 1):
        count = sum(1 for v in labels if v == c)
        if count:
            h -= (count / n) * math.log2(count / n)
    return h


def _oracle_gain(X, y, feature):
    left = [y[i] for i in range(len(y)) if X[i][feature] == 0]
    right = [y[i] for i in range(len(y)) if X[i][feature] == 1]
    if not left or not right:
        return None
    return (
        _oracle_entropy(list(y))
        - len(left) / len(y) * _oracle_entropy(left)
        - len(right) / len(y) * _oracle_entropy(right)
    )


@criterion("information gain: root split agrees with brute force on 50 datasets")
def test_information_gain_oracle():
    rng = np.random.default_rng(77)
    datasets = 0
    while datasets < 50:
        n = int(rng.integers(4, 33))
        d = int(rng.integers(1, 5))
        X = rng.integers(0, 2, size=(n, d)).astype(float)
        y = rng.integers(0, 2, size=n)
        gains = {j: _oracle_gain(X, y, j) for j in range(d)}
        gains = {j: g for j, g in gains.items() if g is not None}
        if len(set(y)) < 2 or not gains:
            continue
        datasets += 1
        best_gain = max(gains.values())
        model = train_decision_tree(FeatureMatrix(X, y))
        root_feature = model.trees[0].feature[0]
        assert root_feature != -1
        chosen = gains[root_feature]
        assert abs(chosen - best_gain) <= 1e-12  # exact arg max agreement
    assert datasets == 50


# ---------------------------------------------------------------------------
# 6. analytic vs finite-difference gradients
# ---------------------------------------------------------------------------

@criterion("MLP gradients: max relative error <= 1e-4 on 20 random networks")
def test_mlp_gradient_check():
    rng = np.random.default_rng(4242)
    worst = 0.0
    for _ in range(20):
        d = int(rng.integers(1, 4))
        W1, b1, W2, b2 = _mlp_init(d, int(rng.integers(1, 5)), int(rng.integers(2**63)))
        weights, biases = [W1, W2], [b1, b2]
        n = int(rng.integers(2, 9))
        X = rng.normal(size=(n, d))
        y = rng.integers(0, 2, n).astype(float)
        _, grad_w, grad_b = kernel_loss_and_grad(weights, biases, X, y)
        h = 1e-6
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
                    analytic = grads[layer][index]
                    denom = max(1e-8, abs(numeric) + abs(analytic))
                    worst = max(worst, abs(numeric - analytic) / denom)
    assert worst <= 1e-4


# ---------------------------------------------------------------------------
# 7. property-based substitutes for the corpus-bound scores
# ---------------------------------------------------------------------------

@criterion("7a planted signal: decision-tree tf-idf pipeline mean F1 >= 0.90")
def test_planted_signal_pipeline():
    corpus = planted_topic_corpus(n=400, seed=11)
    report = cross_validate(
        corpus, TfidfFeatures(top_x=40), "dtree", k=10, n_resamples=10, base_seed=5
    )
    assert report.mean_f1 >= 0.90
    assert report.p_value < 0.05


@criterion("7b shuffled labels: grand mean F1 in [0.45, 0.55], no significance flag")
def test_label_shuffled_null():
    corpus = planted_topic_corpus(n=400, seed=11)
    means = []
    n_correct = 0
    n_total = 0
    for i in range(10):
        null = shuffled_labels(corpus, seed=derive_seed(1000, i))
        report = cross_validate(
            null, TfidfFeatures(top_x=40), "dtree", k=5, n_resamples=2, base_seed=i
        )
        means.append(report.mean_f1)
        n_correct += report.n_correct_total
        n_total += report.n_total
        assert report.p_value >= 0.05  # no single run flags at alpha 0.05
    grand_mean = sum(means) / len(means)
    assert 0.45 <= grand_mean <= 0.55
    assert significance_pvalue(n_correct, n_total, 0.5) >= 0.05  # pooled, unflagged


@criterion("7c planted feature: ranked first in every resample")
def test_planted_feature_ranks_first():
    corpus = planted_ne_corpus(n=160, seed=3)
    ranking, _, ranks = relevance_over_resamples(
        corpus, n_resamples=10, base_seed=4, forest_hyper=ForestHyper(n_trees=50)
    )
    assert ranking[0].feature == "ne_ratio"
    assert (ranks[:, COMPLEXITY_SCHEMA.index("ne_ratio")] == 1.0).all()


# ---------------------------------------------------------------------------
# 8. protocol invariants
# ---------------------------------------------------------------------------

@criterion("protocol: equal class counts, fold skew <= 1, byte-identical reruns")
def test_protocol_invariants(tmp_path):
    from grantprod.corpus import Label, balanced_resample, stratified_fold_indices

    corpus = planted_topic_corpus(n=120, seed=21)
    unbalanced = corpus[:40] + [(r, l) for r, l in corpus if l is Label.ZERO_PUBLICATIONS]
    for seed in range(25):
        rows = balanced_resample(unbalanced, seed)
        labels = [unbalanced[i][1] for i in rows]
        assert labels.count(Label.PRODUCTIVE) == labels.count(Label.ZERO_PUBLICATIONS)
        for k in (2, 5, 10):
            folds = stratified_fold_indices([l.value for l in labels], k=k, seed=seed)
            sizes = [sum(1 for f in folds if f == fold) for fold in range(k)]
            assert sum(sizes) == len(rows)
            assert max(sizes) - min(sizes) <= 1

    # end-to-end double run under one seed: byte-identical CSV/JSON outputs
    corpus_path = tmp_path / "corpus.csv"
    write_corpus_csv(mixed_area_corpus(n=72), corpus_path)
    run_dirs = []
    for name in ("one", "two"):
        out = tmp_path / name
        code = main([
            "evaluate", "--input", str(corpus_path), "--format", "csv",
            "--features", "tfidf", "--top-x", "30", "--algo", "dtrees",
            "--folds", "5", "--resamples", "2", "--seed", "42", "--out", str(out),
        ])
        assert code == 0
        code = main([
            "relevance", "--input", str(corpus_path), "--format", "csv",
            "--resamples", "3", "--trees", "20", "--seed", "42",
            "--no-timestamp", "--out", str(out),
        ])
        assert code == 0
        run_dirs.append(out)

    for filename in ("eval_summary.csv", "eval_report.json", "vocabulary.tsv",
                     "features_tfidf.csv", "relevance.csv", "rank_diagram.svg"):
        first = (run_dirs[0] / filename).read_bytes()
        second = (run_dirs[1] / filename).read_bytes()
        assert first == second, f"{filename} differs between identical runs"
