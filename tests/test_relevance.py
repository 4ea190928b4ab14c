import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grantprod.complexity import COMPLEXITY_SCHEMA
from grantprod.ml import (
    FeatureMatrix,
    ForestHyper,
    TreeModel,
    relevance_over_resamples,
    train_decision_tree,
    train_knn,
    train_random_forest,
)
from grantprod.relevance import (
    RankingRow,
    UnsupportedModelError,
    aggregate_relevance,
    average_rank,
    critical_difference,
    feature_importance,
    gini_from_counts,
    impurity_decrease,
    nemenyi_q,
    rank_descending,
    render_rank_diagram,
    write_ranking_csv,
)
from grantprod.seeds import derive_seed

from _synth import planted_ne_corpus
from _trainer_oracle import TreeNode, bootstrap_rows, flatten


# ---------------------------------------------------------------------------
# Gini impurity
# ---------------------------------------------------------------------------

def test_even_split_is_half():
    assert gini_from_counts(1, 2) == pytest.approx(0.5, abs=5e-5)


def test_pure_node_is_zero():
    assert gini_from_counts(5, 5) == 0.0
    assert gini_from_counts(0, 5) == 0.0


def test_one_in_seventeen():
    assert gini_from_counts(1, 17) == pytest.approx(0.1107, abs=5e-5)


def test_symmetric_and_maximized_at_uniform():
    for n_pos, n_total in ((1, 10), (1, 4), (2, 5)):
        assert gini_from_counts(n_pos, n_total) == pytest.approx(
            gini_from_counts(n_total - n_pos, n_total)
        )
        assert gini_from_counts(n_pos, n_total) < gini_from_counts(1, 2)


# ---------------------------------------------------------------------------
# impurity decrease
# ---------------------------------------------------------------------------

def test_worked_split_example():
    g_right = gini_from_counts(1, 17)
    delta = impurity_decrease(0.5, 0.0, g_right, 15, 17)
    assert delta == pytest.approx(0.4412, abs=5e-5)


def test_copying_parent_distribution_gains_nothing():
    g = gini_from_counts(1, 4)
    assert impurity_decrease(g, g, g, 10, 30) == pytest.approx(0.0, abs=1e-15)


def test_pure_parent_gains_nothing():
    assert impurity_decrease(0.0, 0.0, 0.0, 5, 5) == 0.0


def test_child_count_validation():
    with pytest.raises(ValueError):
        impurity_decrease(0.5, 0.0, 0.0, 0, 0)


# ---------------------------------------------------------------------------
# feature importance
# ---------------------------------------------------------------------------

def leaf(n_samples, n_positive):
    return TreeNode(n_samples=n_samples, n_positive=n_positive)


def split(feature, left, right):
    return TreeNode(
        n_samples=left.n_samples + right.n_samples,
        n_positive=left.n_positive + right.n_positive,
        feature=feature,
        threshold=0.5,
        left=left,
        right=right,
    )


def test_single_node_tree_importance():
    # (4, 2) -> (2, 0) + (2, 2): Gini 0.5 falls to two pure children
    model = TreeModel(trees=[flatten(split(0, leaf(2, 0), leaf(2, 2)))], n_features=1)
    assert feature_importance(model)[0] == 0.5


def test_mean_over_nodes():
    # root (8, 4) -> (4, 1) + (4, 3): 0.5 - 0.375 = 0.125
    # (4, 1) -> (1, 1) + (3, 0): 0.375 - 0 = 0.375
    # (4, 3) -> (2, 2) + (2, 1): 0.375 - 0.5 * 0.5 = 0.125
    root = split(2, split(2, leaf(1, 1), leaf(3, 0)), split(0, leaf(2, 2), leaf(2, 1)))
    importance = feature_importance(TreeModel(trees=[flatten(root)], n_features=3))
    assert importance[2] == pytest.approx((0.125 + 0.375) / 2)
    assert importance[0] == pytest.approx(0.125)
    assert importance[1] == 0.0  # unused feature


def test_instance_weighted_alternative():
    # (60, 30) -> (30, 0) + (30, 30): 0.5;  (10, 5) -> (5, 2) + (5, 3): 0.5 - 0.48 = 0.02
    big = split(0, leaf(30, 0), leaf(30, 30))
    small = split(0, leaf(5, 2), leaf(5, 3))
    model = TreeModel(trees=[flatten(big), flatten(small)], n_features=1)
    node_mean = feature_importance(model, weighting="node_mean")
    weighted = feature_importance(model, weighting="instance_weighted")
    assert node_mean[0] == pytest.approx((0.5 + 0.02) / 2)
    assert weighted[0] == pytest.approx((60 * 0.5 + 10 * 0.02) / 70)


def test_unsupported_model():
    X = np.zeros((4, 1))
    y = np.array([0, 1, 0, 1])
    knn = train_knn(FeatureMatrix(X, y), k=1)
    with pytest.raises(UnsupportedModelError):
        feature_importance(knn)


def textbook_gini(n_positive, n):
    p = n_positive / n
    return 1.0 - p ** 2 - (1.0 - p) ** 2


def test_node_counts_and_importance_match_an_independent_recount():
    rng = np.random.default_rng(12)
    for trial in range(6):
        n, d = 40 + 10 * trial, 4
        X = rng.integers(0, 4, size=(n, d)).astype(float)  # few values: many ties
        y = ((X[:, 0] + X[:, 2] + rng.integers(0, 3, size=n)) > 4).astype(int)
        train = FeatureMatrix(X, y)
        # each model with the training rows of each of its trees
        models = [
            (train_decision_tree(train), [range(n)]),
            (train_random_forest(train, ForestHyper(n_trees=5), seed=trial),
             [bootstrap_rows(derive_seed(trial, t), n) for t in range(5)]),
        ]
        for model, tree_rows in models:
            nodes = [
                (t, node)
                for t, tree in enumerate(model.trees)
                for node in np.flatnonzero(tree.feature >= 0)
            ]
            assert nodes
            # route every training row down each tree and recount every node
            counts = {}
            for t, (tree, rows) in enumerate(zip(model.trees, tree_rows)):
                for row, label in zip(X[rows], y[rows]):
                    node = 0
                    while True:
                        n_seen, pos_seen = counts.get((t, node), (0, 0))
                        counts[(t, node)] = (n_seen + 1, pos_seen + int(label))
                        if tree.feature[node] == -1:
                            break
                        go_left = row[tree.feature[node]] <= tree.threshold[node]
                        node = tree.left[node] if go_left else tree.right[node]
            for t, tree in enumerate(model.trees):
                pending = [0]
                while pending:
                    node = pending.pop()
                    assert counts[(t, node)] == (tree.n_samples[node], tree.n_positive[node])
                    if tree.feature[node] != -1:
                        pending += [tree.left[node], tree.right[node]]

            for weighting in ("node_mean", "instance_weighted"):
                sums, weights = np.zeros(d), np.zeros(d)
                for t, node in nodes:
                    tree = model.trees[t]
                    n_node, pos_node = counts[(t, node)]
                    n_left, pos_left = counts[(t, tree.left[node])]
                    n_right, pos_right = counts[(t, tree.right[node])]
                    decrease = (
                        textbook_gini(pos_node, n_node)
                        - n_left / n_node * textbook_gini(pos_left, n_left)
                        - n_right / n_node * textbook_gini(pos_right, n_right)
                    )
                    assert decrease >= -1e-12
                    w = n_node if weighting == "instance_weighted" else 1
                    sums[tree.feature[node]] += w * decrease
                    weights[tree.feature[node]] += w
                expected = np.divide(sums, weights, out=np.zeros(d), where=weights > 0)
                importance = feature_importance(model, weighting=weighting)
                np.testing.assert_allclose(importance, expected, rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# ranks
# ---------------------------------------------------------------------------

def test_rank_descending_basic():
    np.testing.assert_array_equal(rank_descending([0.5, 0.9, 0.1]), [2, 1, 3])


def test_rank_ties_take_mean():
    np.testing.assert_array_equal(rank_descending([0.9, 0.5, 0.5, 0.1]), [1, 2.5, 2.5, 4])


def ranking_of(importances):
    """The ranking of a (resamples x features) importance matrix, features f0, f1, ..."""
    importances = np.array(importances, dtype=float)
    names = tuple(f"f{i}" for i in range(importances.shape[1]))
    return average_rank(names, importances, aggregate_relevance(importances))


def test_single_resample_rank_is_sorted_order():
    rows = ranking_of([[0.2, 0.9, 0.5]])
    assert [r.feature for r in rows] == ["f1", "f2", "f0"]
    assert [r.average_rank for r in rows] == [1.0, 2.0, 3.0]


def test_average_of_two_resamples():
    rows = ranking_of([[0.9, 0.5, 0.1], [0.1, 0.5, 0.9]])
    by_name = {r.feature: r.average_rank for r in rows}
    assert by_name["f0"] == pytest.approx((1 + 3) / 2)
    assert by_name["f1"] == pytest.approx(2.0)
    assert {r.feature: r.mean_importance for r in rows}["f0"] == pytest.approx(0.5)


def test_feature_names_must_cover_every_column():
    importances = np.array([[0.2, 0.9]])
    with pytest.raises(ValueError):
        average_rank(("f0",), importances, aggregate_relevance(importances))


@settings(max_examples=50, deadline=None)
@given(st.lists(st.sampled_from([0.0, 0.1, 0.25, 0.5, 0.9]), min_size=2, max_size=12))
def test_rank_conservation_with_ties(values):
    ranks = rank_descending(values)
    k = len(values)
    assert math.fsum(ranks) == pytest.approx(k * (k + 1) / 2)


# ---------------------------------------------------------------------------
# critical difference
# ---------------------------------------------------------------------------

def test_cd_formula_collapse_for_two():
    n = 10
    assert critical_difference(2, n) == pytest.approx(
        nemenyi_q(2) * math.sqrt(1.0 / n)
    )


def test_cd_hand_evaluation_k5():
    expected = 2.7278 * math.sqrt(5 * 6 / (6.0 * 10))
    assert critical_difference(5, 10) == pytest.approx(expected)


def test_zero_gap_never_significant():
    cd = critical_difference(3, 8)
    assert cd > 0.0  # equal average ranks always fall inside the CD


def test_q_table_bounds():
    with pytest.raises(ValueError) as excinfo:
        nemenyi_q(25)
    assert "2..20" in str(excinfo.value)
    assert nemenyi_q(2) == 1.96  # the alpha-0.05 column


# ---------------------------------------------------------------------------
# end-to-end ranking over resamples
# ---------------------------------------------------------------------------

def test_planted_feature_ranks_first_each_resample():
    corpus = planted_ne_corpus(n=80, seed=5)
    ranking, cd, ranks = relevance_over_resamples(
        corpus, n_resamples=4, base_seed=6, forest_hyper=ForestHyper(n_trees=25)
    )
    assert ranking[0].feature == "ne_ratio"
    assert ranks.shape == (4, len(COMPLEXITY_SCHEMA))
    assert (ranks[:, COMPLEXITY_SCHEMA.index("ne_ratio")] == 1.0).all()
    assert cd == critical_difference(len(COMPLEXITY_SCHEMA), 4)


def test_one_resample_is_rejected_before_any_forest_is_trained(monkeypatch):
    import grantprod.ml

    trained = []
    monkeypatch.setattr(grantprod.ml, "train_random_forest", lambda *a, **k: trained.append(a))
    with pytest.raises(ValueError, match="two resamples"):
        relevance_over_resamples(planted_ne_corpus(n=40, seed=5), n_resamples=1)
    assert trained == []


def test_each_resample_is_ranked_once(monkeypatch):
    import grantprod.relevance

    calls = []
    original = grantprod.relevance.rank_descending

    def counting(values):
        calls.append(len(values))
        return original(values)

    monkeypatch.setattr(grantprod.relevance, "rank_descending", counting)
    relevance_over_resamples(
        planted_ne_corpus(n=40, seed=5), n_resamples=3, base_seed=6,
        forest_hyper=ForestHyper(n_trees=3),
    )
    assert calls == [18, 18, 18]


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------

def ranking_fixture():
    return [
        RankingRow("alpha", 0.41, 1.2),
        RankingRow("beta", 0.30, 2.4),
        RankingRow("gamma", 0.05, 2.4),
    ]


def test_ranking_csv(tmp_path):
    path = tmp_path / "relevance.csv"
    write_ranking_csv(path, ranking_fixture(), cd=1.0, header_comment="cfg")
    lines = path.read_text().splitlines()
    assert lines[0] == "# cfg"
    assert lines[1] == "# critical_difference=1.0000"
    assert lines[2] == "feature,mean_importance,average_rank,within_cd_of_best"
    assert lines[3] == "alpha,0.410000,1.2000,true"
    assert lines[4].endswith("false")  # beta is 1.2 away from best, outside CD 1.0


def test_svg_labels_all_when_fewer_than_five():
    svg = render_rank_diagram(ranking_fixture(), cd=0.8)
    assert svg.count("<circle") == 3
    for name in ("alpha", "beta", "gamma"):
        assert name in svg
    assert "CD = 0.8000" in svg


def test_svg_timestamp_header_is_optional():
    with_stamp = render_rank_diagram(ranking_fixture(), 0.8, timestamp="2020-01-01T00:00:00")
    without = render_rank_diagram(ranking_fixture(), 0.8)
    assert "<!-- generated 2020-01-01T00:00:00 -->" in with_stamp
    assert "generated" not in without
    assert render_rank_diagram(ranking_fixture(), 0.8) == without  # deterministic
