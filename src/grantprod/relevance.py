"""Gini-impurity feature relevance: per-node decreases, rank aggregation, CD.

Importance is the unweighted mean impurity decrease over every tree node that
splits on a feature; an instance-weighted mean is available behind the
``weighting`` switch.  Average ranks across resamples feed a Nemenyi
critical-difference check whose q constants ship as a data file.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Sequence

import numpy as np

from .corpus import write_csv

# Features of a rank diagram that get a text label, best-ranked first.
LABELED_FEATURES = 5


class UnsupportedModelError(TypeError):
    pass


def gini_from_counts(n_pos, n_total):
    """Two-class Gini impurity straight from counts (scalars or arrays)."""
    if np.any(n_total <= 0):
        raise ValueError("empty node")
    p = n_pos / n_total
    return 2.0 * p * (1.0 - p)


def impurity_decrease(gini_before, gini_left, gini_right, n_left, n_right):
    """Weighted impurity decrease of a split, or of an array of splits.

    Child weights are instance shares.
    """
    if np.any(n_left < 0) or np.any(n_right < 0):
        raise ValueError("child counts must be non-negative")
    total = n_left + n_right
    if np.any(total < 1):
        raise ValueError("both child nodes are empty")
    beta_left = n_left / total
    beta_right = n_right / total
    return gini_before - beta_left * gini_left - beta_right * gini_right


def feature_importance(model, weighting: str = "node_mean") -> np.ndarray:
    """Mean impurity decrease per feature over all split nodes of a tree or forest.

    Returns a (features,) array, 0 for a feature no node splits on.  Each
    decrease is computed here from the node's and its children's sample and
    positive counts.  ``weighting='node_mean'`` averages it uniformly over
    nodes; ``'instance_weighted'`` weights each node by the instances it
    splits.  Nodes are summed tree by tree, each tree in preorder.
    """
    if not hasattr(model, "trees"):
        raise UnsupportedModelError(f"model of type {type(model).__name__} has no tree nodes")
    if weighting not in ("node_mean", "instance_weighted"):
        raise ValueError(f"unknown weighting '{weighting}'")

    d = model.n_features
    sums = np.zeros(d)
    weights = np.zeros(d)
    for tree in model.trees:
        split = np.flatnonzero(tree.feature >= 0)
        left, right = tree.left[split], tree.right[split]
        counts = tree.n_samples
        gini = gini_from_counts(tree.n_positive, counts)
        decrease = impurity_decrease(
            gini[split], gini[left], gini[right], counts[left], counts[right]
        )
        w = counts[split] if weighting == "instance_weighted" else np.ones(split.size)
        np.add.at(sums, tree.feature[split], w * decrease)
        np.add.at(weights, tree.feature[split], w)
    return np.divide(sums, weights, out=np.zeros(d), where=weights > 0)


def rank_descending(values: Sequence[float]) -> np.ndarray:
    """Fractional ranks, 1 = largest value; ties share the mean of their ranks."""
    values = np.asarray(values, dtype=float)
    order = np.argsort(-values, kind="stable")
    ranks = np.empty(len(values))
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        mean_rank = (i + j) / 2 + 1
        for position in range(i, j + 1):
            ranks[order[position]] = mean_rank
        i = j + 1
    return ranks


@dataclass(frozen=True)
class RankingRow:
    feature: str
    mean_importance: float
    average_rank: float


def aggregate_relevance(importances: np.ndarray) -> np.ndarray:
    """The rank matrix of a (resamples x features) importance matrix, one row per resample."""
    if not len(importances):
        raise ValueError("no importances to aggregate")
    return np.vstack([rank_descending(row) for row in importances])


def average_rank(
    feature_names: Sequence[str], importances: np.ndarray, ranks: np.ndarray
) -> list[RankingRow]:
    """One row per feature: its importance and rank averaged over resamples, best first."""
    rows = [
        RankingRow(feature=name, mean_importance=float(importance), average_rank=float(rank))
        for name, importance, rank in zip(
            feature_names, importances.mean(axis=0), ranks.mean(axis=0), strict=True
        )
    ]
    rows.sort(key=lambda row: (row.average_rank, row.feature))
    return rows


# ---------------------------------------------------------------------------
# Critical difference
# ---------------------------------------------------------------------------

@functools.cache
def _q_column() -> dict[int, float]:
    """q by k from the alpha-0.05 column of the data table."""
    column = {}
    data = resources.files("grantprod").joinpath("data", "nemenyi_q.tsv").read_text("utf-8")
    for line in data.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        k, q05, _ = line.split("\t")
        column[int(k)] = float(q05)
    return column


def nemenyi_q(k: int) -> float:
    """Nemenyi critical value q for ``k`` compared features at alpha 0.05."""
    row = _q_column()
    if k not in row:
        raise ValueError(f"k={k} outside the tabulated range {min(row)}..{max(row)}")
    return row[k]


def critical_difference(k: int, n_datasets: int) -> float:
    """Nemenyi CD at alpha 0.05 for ``k`` features ranked on ``n_datasets`` datasets.

    Two features differ iff their average-rank gap exceeds it.
    """
    if k < 2:
        raise ValueError("critical difference needs at least two compared features")
    if n_datasets < 2:
        raise ValueError("critical difference needs at least two datasets")
    return nemenyi_q(k) * math.sqrt(k * (k + 1) / (6.0 * n_datasets))


# ---------------------------------------------------------------------------
# Exports
# ---------------------------------------------------------------------------

def write_ranking_csv(
    path: str | Path,
    ranking: Sequence[RankingRow],
    cd: float,
    header_comment: str | None = None,
) -> None:
    """CSV table: feature, mean importance, average rank, within-CD-of-best flag."""
    best = ranking[0].average_rank if ranking else 0.0
    comments = [header_comment] if header_comment else []
    comments.append(f"critical_difference={cd:.4f}")
    rows = []
    for row in ranking:
        flag = str(row.average_rank - best <= cd).lower()
        rows.append((row.feature, f"{row.mean_importance:.6f}", f"{row.average_rank:.4f}", flag))
    header = ("feature", "mean_importance", "average_rank", "within_cd_of_best")
    write_csv(path, comments, header, rows)


def render_rank_diagram(
    ranking: Sequence[RankingRow],
    cd: float,
    timestamp: str | None = None,
) -> str:
    """SVG rank diagram: horizontal axis = average rank, one marker per feature.

    The best-ranked features (up to ``LABELED_FEATURES``) get text labels with
    leader lines; the CD bar shows the significance yardstick.
    """
    k = len(ranking)
    if k == 0:
        raise ValueError("empty ranking")
    left, right = 60.0, 740.0
    axis_y = 70.0
    label_step = 22.0
    labeled = list(ranking[: min(LABELED_FEATURES, k)])
    height = int(axis_y + 60 + label_step * len(labeled))
    span = max(k - 1, 1)

    def x_of(rank: float) -> float:
        return left + (rank - 1.0) / span * (right - left)

    parts = ['<?xml version="1.0" encoding="UTF-8"?>']
    if timestamp:
        parts.append(f"<!-- generated {timestamp} -->")
    parts.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="800" height="{height}" '
        f'viewBox="0 0 800 {height}">'
    )
    parts.append('<style>text{font-family:sans-serif;font-size:12px}</style>')
    parts.append(
        f'<line x1="{left:.2f}" y1="{axis_y:.2f}" x2="{right:.2f}" y2="{axis_y:.2f}" '
        'stroke="black" stroke-width="1.5"/>'
    )
    for tick in range(1, k + 1):
        x = x_of(tick)
        parts.append(
            f'<line x1="{x:.2f}" y1="{axis_y - 5:.2f}" x2="{x:.2f}" y2="{axis_y + 5:.2f}" '
            'stroke="black"/>'
        )
        parts.append(f'<text x="{x:.2f}" y="{axis_y - 10:.2f}" text-anchor="middle">{tick}</text>')
    cd_px = cd / span * (right - left)
    parts.append(
        f'<line x1="{left:.2f}" y1="30.00" x2="{left + cd_px:.2f}" y2="30.00" '
        'stroke="black" stroke-width="2"/>'
    )
    parts.append(f'<text x="{left:.2f}" y="22.00">CD = {cd:.4f}</text>')
    for row in ranking:
        x = x_of(row.average_rank)
        parts.append(f'<circle cx="{x:.2f}" cy="{axis_y:.2f}" r="4" fill="black"/>')
    for slot, row in enumerate(labeled):
        x = x_of(row.average_rank)
        y = axis_y + 30 + slot * label_step
        parts.append(
            f'<line x1="{x:.2f}" y1="{axis_y + 4:.2f}" x2="{x:.2f}" y2="{y - 10:.2f}" '
            'stroke="gray" stroke-dasharray="2,2"/>'
        )
        parts.append(
            f'<text x="{x:.2f}" y="{y:.2f}" text-anchor="middle">'
            f"{row.feature} ({row.average_rank:.2f})</text>"
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_rank_diagram(
    path: str | Path,
    ranking: Sequence[RankingRow],
    cd: float,
    timestamp: str | None = None,
) -> None:
    Path(path).write_text(render_rank_diagram(ranking, cd, timestamp), encoding="utf-8")
