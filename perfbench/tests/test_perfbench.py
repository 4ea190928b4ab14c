"""Tests of the benchmark itself: inputs, metric names, and a small run of each workload."""

from __future__ import annotations

import dataclasses
import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run as bench  # noqa: E402
from corpus_gen import CorpusSpec, corpus_csv, corpus_stats  # noqa: E402
from spans import layer_metrics, layer_shares  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_same_seed_gives_byte_identical_corpus():
    spec = CorpusSpec(records_per_area=20, words_per_doc=80)
    assert corpus_csv(spec, 5) == corpus_csv(spec, 5)
    assert corpus_csv(spec, 5) != corpus_csv(spec, 6)


def test_corpus_has_fixed_class_counts_and_requested_size():
    spec = CorpusSpec(records_per_area=50, words_per_doc=100)
    text = corpus_csv(spec, 9)
    stats = corpus_stats(spec, 9, text)
    assert stats["records"] == 150
    assert stats["positive_share"] == pytest.approx(0.42)
    assert 90 <= stats["words_per_doc_mean"] <= 110


def test_benchmark_json_follows_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["perfbench"]
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    names = [w["name"] for w in SPEC["workloads"]]
    assert names == list(WORKLOADS)
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    seen = set(names)
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME.match(metric["name"]) and UNIT.match(metric["unit"])
        assert metric["better"] in ("lower", "higher")
        assert metric["name"] not in seen
        seen.add(metric["name"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_span_analysis_names_every_per_layer_metric():
    # cli.main [0, 10] -> cli.cmd_evaluate [1, 9] -> two overlapping cells,
    # each calling one extraction that spends 1 s of its 2 s in textproc.
    spans = [
        (1, "cli.main", 0.0, 10.0, None, "r"),
        (2, "cli.cmd_evaluate", 1.0, 9.0, 1, "r"),
        (3, "ml.cross_validate", 2.0, 6.0, 2, "r"),
        (4, "ml.cross_validate", 4.0, 8.0, 2, "r"),
        (5, "complexity.extract_complexity_vector", 2.0, 4.0, 3, "r"),
        (6, "textproc.analyze", 2.5, 3.5, 5, "r"),
        (7, "complexity.extract_complexity_vector", 4.0, 6.0, 4, "r"),
        (8, "textproc.analyze", 4.0, 5.0, 7, "r"),
    ]
    metrics = layer_metrics(spans, records=2)
    expected = {m["name"] for m in SPEC["per_layer"]} - {"trace_overhead_s"}
    assert set(metrics) == expected
    assert metrics["complexity.extracts_per_record"] == 1.0
    assert metrics["complexity.extract_self_s"] == pytest.approx(2.0)
    assert metrics["cli.self_s"] == pytest.approx(10.0 - 6.0)  # cells cover [2, 8]
    assert metrics["cli.cell_concurrency"] == pytest.approx(0.8)
    # self times: cli 2 + 2, ml 2 + 2, complexity 1 + 1, textproc 1 + 1; the
    # two cells overlap, so the shares sum to more than 1
    assert layer_shares(spans) == pytest.approx(
        {"cli": 0.4, "ml": 0.4, "complexity": 0.2, "textproc": 0.2})


def _small(workload):
    return dataclasses.replace(workload, corpus=CorpusSpec(records_per_area=15, words_per_doc=100))


@pytest.fixture
def work(tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "WORK", tmp_path)
    monkeypatch.setattr(bench, "SETUP_REPEATS", 1)
    return tmp_path


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_smoke_run_of_each_workload(work, name):
    result = bench.run_workload(_small(WORKLOADS[name]), seed=3, seconds=0, trace=False, min_runs=1)
    assert result["problems"] == []
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == bench.SETUP_REPEATS + 1 + bool(WORKLOADS[name].reference_args)
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(entry["value"] > 0 for entry in result["metrics"].values())
    assert set(result["output_digests"]) == set(WORKLOADS[name].outputs)


def test_failed_runs_give_no_metrics(work):
    broken = dataclasses.replace(WORKLOADS["eval-complexity"], args=("evaluate", "--features", "none"))
    result = bench.run_workload(_small(broken), seed=3, seconds=0, trace=False, min_runs=1)
    assert not result["correct"] and result["failed"] == 1
    assert result["metrics"] == {} and result["samples"]["wall_s"] == []


def test_smoke_traced_run_matches_untraced_outputs(work):
    result = bench.run_workload(_small(WORKLOADS["eval-complexity"]), seed=3, seconds=0, trace=True)
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    # three learners plus the feature export each extract every record once
    assert result["metrics"]["complexity.extracts_per_record"]["value"] == 4.0
    assert result["metrics"]["topical.field_tokens_calls"]["value"] == 0
    assert {"cli", "complexity", "ml", "textproc"} <= set(result["layer_shares"])
    assert result["fold_vocabulary_width"] == {}


def test_smoke_traced_tfidf_run_records_fold_vocabularies(work):
    result = bench.run_workload(_small(WORKLOADS["eval-tfidf"]), seed=3, seconds=0, trace=True)
    assert result["correct"] and result["failed"] == 0
    assert result["metrics"]["topical.tokenizations_per_record"]["value"] == 6.0
    assert result["metrics"]["complexity.extract_calls"]["value"] == 0
    width = result["fold_vocabulary_width"]
    assert width["folds"] > 0 and 1 <= width["min"] <= width["max"] <= 1100


@pytest.mark.xfail(raises=ValueError, reason=(
    "known defect: a split between two adjacent floats takes their midpoint, which rounds "
    "to the larger value and leaves one child empty ('empty node'); the relevance "
    "workload is held back until it is fixed, because it hits this on some seeds"))
def test_tree_split_between_adjacent_floats():
    from grantprod.ml import FeatureMatrix, train_decision_tree

    low = 4.9216076867444665  # a noun_sd value seen in a generated corpus
    X = np.array([[low], [np.nextafter(low, np.inf)]])
    train_decision_tree(FeatureMatrix(X, np.array([0, 1])))
