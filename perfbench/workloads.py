"""The benchmark's workloads and the checks on their outputs.

Each workload is one ``grantprod`` command on a corpus generated from the
run's seed.  Workloads that share a ``corpus_key`` read the same corpus file
for a given seed, so their outputs can be compared byte for byte.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

from corpus_gen import AREAS, CorpusSpec

EVAL_OUTPUTS = ("eval_summary.csv", "eval_report.json")


@dataclass(frozen=True)
class Workload:
    name: str
    corpus: CorpusSpec
    corpus_key: str
    args: tuple[str, ...]            # CLI arguments without --input, --out and --seed
    outputs: tuple[str, ...]         # files every run must write
    methods: tuple[str, ...]         # methods expected in each area's results
    # A run with these arguments must write the same ``outputs`` byte for byte.
    reference_args: tuple[str, ...] = ()


def cli_args(args: tuple[str, ...], corpus: str, out: str, seed: int) -> list[str]:
    """Full CLI arguments: a workload's arguments plus its input, output and seed."""
    return [*args, "--input", corpus, "--format", "csv", "--out", out, "--seed", str(seed)]


EVAL_COMPLEXITY = Workload(
    name="eval-complexity",
    corpus=CorpusSpec(records_per_area=24, words_per_doc=200),
    corpus_key="complexity",
    args=("evaluate", "--features", "complexity", "--algo", "bayes,knn,mlp",
          "--folds", "5", "--resamples", "2", "--jobs", "1"),
    outputs=EVAL_OUTPUTS + ("features_complexity.csv",),
    methods=("naive_bayes", "knn", "mlp"),
)

WORKLOADS = {
    w.name: w
    for w in (
        EVAL_COMPLEXITY,
        Workload(
            name="eval-tfidf",
            corpus=CorpusSpec(records_per_area=72, words_per_doc=180),
            corpus_key="tfidf",
            args=("evaluate", "--features", "tfidf", "--top-x", "1100",
                  "--algo", "bayes,knn,svm,mlp", "--folds", "5", "--resamples", "2", "--jobs", "1"),
            outputs=EVAL_OUTPUTS + ("features_tfidf.csv", "vocabulary.tsv"),
            methods=("naive_bayes", "knn", "linear_svm", "mlp"),
        ),
        replace(
            EVAL_COMPLEXITY,
            name="eval-complexity-jobs2",
            args=EVAL_COMPLEXITY.args[:-1] + ("2",),
            reference_args=EVAL_COMPLEXITY.args,
        ),
    )
}


def digests(workload: Workload, out_dir: Path) -> dict[str, str]:
    return {
        name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
        for name in workload.outputs
        if (out_dir / name).is_file()
    }


def _data_rows(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(line for line in handle if not line.startswith("#")))


def _finite(value: str) -> bool:
    try:
        return math.isfinite(float(value))
    except ValueError:
        return False


def _check_eval(workload: Workload, out_dir: Path) -> list[str]:
    problems = []
    rows = _data_rows(out_dir / "eval_summary.csv")
    seen = {(row["dataset"], row["method"]): row for row in rows}
    expected = {(area, method) for area in AREAS for method in workload.methods}
    if set(seen) != expected or len(rows) != len(expected):
        problems.append(f"eval_summary.csv rows {sorted(seen)} != {sorted(expected)}")
    for key, row in seen.items():
        for column in ("mean_f1", "macro_f1", "pooled_f1"):
            if not (_finite(row[column]) and 0.0 <= float(row[column]) <= 1.0):
                problems.append(f"{key} {column} = {row[column]!r} is not in [0, 1]")
        if not _finite(row["p_value"]):
            problems.append(f"{key} p_value = {row['p_value']!r} is not finite")
    report = json.loads((out_dir / "eval_report.json").read_text(encoding="utf-8"))
    if len(report["reports"]) != len(expected):
        problems.append(f"eval_report.json has {len(report['reports'])} reports, not {len(expected)}")
    return problems


def check_outputs(workload: Workload, out_dir: Path) -> list[str]:
    """Everything wrong with one run's outputs; empty when the run is correct."""
    missing = [name for name in workload.outputs if not (out_dir / name).is_file()]
    if missing:
        return [f"missing output(s): {', '.join(missing)}"]
    if (out_dir / "failure_manifest.json").exists():
        return ["failure_manifest.json written: a cell failed"]
    return _check_eval(workload, out_dir)
