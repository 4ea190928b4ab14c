"""Gini-impurity feature relevance: per-node decreases, rank aggregation, CD.

Importance is the unweighted mean impurity decrease over every tree node that
splits on a feature; an instance-weighted mean is available behind the
``weighting`` switch.  Average ranks across resamples feed a Nemenyi
critical-difference check whose q constants ship as a data file.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Sequence

import numpy as np

from .corpus import write_csv

# Significance level of the critical difference.
CD_ALPHA = 0.05
# Features of a rank diagram that get a text label, best-ranked first.
LABELED_FEATURES = 5


class UnsupportedModelError(TypeError):
    pass


def gini_from_counts(n_pos: int, n_total: int) -> float:
    """Two-class Gini impurity straight from counts."""
    if n_total <= 0:
        raise ValueError("empty node")
    p = n_pos / n_total
    return 2.0 * p * (1.0 - p)


def impurity_decrease(
    gini_before: float,
    gini_left: float,
    gini_right: float,
    n_left: int,
    n_right: int,
) -> float:
    """Weighted impurity decrease of a split; child weights are instance shares."""
    if n_left < 0 or n_right < 0:
        raise ValueError("child counts must be non-negative")
    total = n_left + n_right
    if total < 1:
        raise ValueError("both child nodes are empty")
    beta_left = n_left / total
    beta_right = n_right / total
    return gini_before - beta_left * gini_left - beta_right * gini_right


def _split_decrease(node) -> float:
    """Gini decrease of a tree node's split, from the counts of the node and its children."""
    left, right = node.left, node.right
    return impurity_decrease(
        gini_from_counts(node.n_positive, node.n_samples),
        gini_from_counts(left.n_positive, left.n_samples),
        gini_from_counts(right.n_positive, right.n_samples),
        left.n_samples,
        right.n_samples,
    )


@dataclass
class FeatureRelevanceReport:
    """Per-feature importance for one model, plus rank aggregates when present."""

    feature_names: tuple[str, ...]
    mean_importance: np.ndarray          # mean Gini decrease per feature; unused -> 0
    node_counts: np.ndarray              # nodes splitting on each feature
    per_resample_ranks: np.ndarray | None = None   # (n_resamples, n_features)
    average_rank: np.ndarray | None = None
    critical_difference: float | None = None


def feature_importance(
    model,
    feature_names: Sequence[str] | None = None,
    weighting: str = "node_mean",
) -> FeatureRelevanceReport:
    """Mean impurity decrease per feature over all split nodes of a tree or forest.

    Each decrease is computed here from the node's and its children's sample
    and positive counts.  ``weighting='node_mean'`` averages it uniformly
    over nodes; ``'instance_weighted'`` weights each node by the instances it
    splits.
    """
    if not hasattr(model, "split_nodes"):
        raise UnsupportedModelError(f"model of type {type(model).__name__} has no tree nodes")
    if weighting not in ("node_mean", "instance_weighted"):
        raise ValueError(f"unknown weighting '{weighting}'")

    d = model.n_features
    if feature_names is None:
        feature_names = tuple(f"f{i}" for i in range(d))
    if len(feature_names) != d:
        raise ValueError("feature_names length must match the model's feature count")

    sums = np.zeros(d)
    weights = np.zeros(d)
    counts = np.zeros(d, dtype=int)
    for node in model.split_nodes():
        w = float(node.n_samples) if weighting == "instance_weighted" else 1.0
        sums[node.feature] += w * _split_decrease(node)
        weights[node.feature] += w
        counts[node.feature] += 1
    importance = np.divide(sums, weights, out=np.zeros(d), where=weights > 0)
    return FeatureRelevanceReport(
        feature_names=tuple(feature_names),
        mean_importance=importance,
        node_counts=counts,
    )


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


def aggregate_relevance(reports: Sequence[FeatureRelevanceReport]) -> FeatureRelevanceReport:
    """Combine per-resample reports into one with rank matrices filled in."""
    if not reports:
        raise ValueError("no relevance reports to aggregate")
    names = reports[0].feature_names
    for report in reports:
        if report.feature_names != names:
            raise ValueError("relevance reports use different feature schemas")
    ranks = np.vstack([rank_descending(report.mean_importance) for report in reports])
    return FeatureRelevanceReport(
        feature_names=names,
        mean_importance=np.vstack([r.mean_importance for r in reports]).mean(axis=0),
        node_counts=np.vstack([r.node_counts for r in reports]).sum(axis=0),
        per_resample_ranks=ranks,
        average_rank=ranks.mean(axis=0),
    )


def average_rank(aggregated: FeatureRelevanceReport) -> list[RankingRow]:
    """One row per feature of an aggregated report, sorted by average rank."""
    rows = [
        RankingRow(feature=name, mean_importance=float(importance), average_rank=float(rank))
        for name, importance, rank in zip(
            aggregated.feature_names, aggregated.mean_importance, aggregated.average_rank
        )
    ]
    rows.sort(key=lambda row: (row.average_rank, row.feature))
    return rows


# ---------------------------------------------------------------------------
# Critical difference
# ---------------------------------------------------------------------------

def _load_q_table() -> dict[float, dict[int, float]]:
    table: dict[float, dict[int, float]] = {0.05: {}, 0.10: {}}
    data = resources.files("grantprod").joinpath("data", "nemenyi_q.tsv").read_text("utf-8")
    for line in data.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        k, q05, q10 = line.split("\t")
        table[0.05][int(k)] = float(q05)
        table[0.10][int(k)] = float(q10)
    return table


_Q_TABLE: dict[float, dict[int, float]] | None = None


def nemenyi_q(k: int, alpha: float = 0.05) -> float:
    global _Q_TABLE
    if _Q_TABLE is None:
        _Q_TABLE = _load_q_table()
    if alpha not in _Q_TABLE:
        raise ValueError(f"alpha {alpha} not tabulated (available: {sorted(_Q_TABLE)})")
    row = _Q_TABLE[alpha]
    if k not in row:
        raise ValueError(f"k={k} outside the tabulated range {min(row)}..{max(row)}")
    return row[k]


def critical_difference(average_ranks: Sequence[float], n_datasets: int) -> float:
    """Nemenyi CD at ``CD_ALPHA``: two features differ iff their average-rank gap exceeds it."""
    k = len(average_ranks)
    if k < 2:
        raise ValueError("critical difference needs at least two compared features")
    if n_datasets < 2:
        raise ValueError("critical difference needs at least two datasets")
    return nemenyi_q(k, CD_ALPHA) * math.sqrt(k * (k + 1) / (6.0 * n_datasets))


# ---------------------------------------------------------------------------
# Exports
# ---------------------------------------------------------------------------

def write_ranking_csv(
    path: str | Path,
    ranking: Sequence[RankingRow],
    cd: float | None,
    header_comment: str | None = None,
) -> None:
    """CSV table: feature, mean importance, average rank, within-CD-of-best flag."""
    best = ranking[0].average_rank if ranking else 0.0
    comments = [header_comment] if header_comment else []
    if cd is not None:
        comments.append(f"critical_difference={cd:.4f}")
    rows = []
    for row in ranking:
        flag = "" if cd is None else str(row.average_rank - best <= cd).lower()
        rows.append((row.feature, f"{row.mean_importance:.6f}", f"{row.average_rank:.4f}", flag))
    header = ("feature", "mean_importance", "average_rank", "within_cd_of_best")
    write_csv(path, comments, header, rows)


def render_rank_diagram(
    ranking: Sequence[RankingRow],
    cd: float | None = None,
    timestamp: str | None = None,
) -> str:
    """SVG rank diagram: horizontal axis = average rank, one marker per feature.

    The best-ranked features (up to ``LABELED_FEATURES``) get text labels with
    leader lines; the optional CD bar shows the significance yardstick.
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
    if cd is not None and span > 0:
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
    cd: float | None = None,
    timestamp: str | None = None,
) -> None:
    Path(path).write_text(render_rank_diagram(ranking, cd, timestamp), encoding="utf-8")
