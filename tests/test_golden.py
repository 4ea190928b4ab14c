"""Golden-output lock: three CLI runs must reproduce the checked-in files byte for byte.

The fixtures under ``tests/golden/`` pin the determinism contract (one seed,
byte-identical CSV/JSON/SVG).  A change that moves floats on purpose must
regenerate the affected files and say why; regenerate with

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import shutil
import sys
from pathlib import Path

import pytest

from grantprod.cli import EXIT_OK, main

from _synth import mixed_area_corpus, write_corpus_csv

GOLDEN_DIR = Path(__file__).parent / "golden"

# The config echo copies --input verbatim, so every run reads a relative path.
RUNS = {
    "complexity": [
        "evaluate", "--input", "corpus.csv", "--format", "csv",
        "--features", "complexity", "--algo", "bayes,knn,mlp",
        "--folds", "3", "--resamples", "2", "--seed", "42", "--out", "complexity",
    ],
    "tfidf": [
        "evaluate", "--input", "corpus.csv", "--format", "csv",
        "--features", "tfidf", "--top-x", "30", "--algo", "bayes,dtrees,svm",
        "--folds", "3", "--resamples", "2", "--seed", "42", "--out", "tfidf",
    ],
    "relevance": [
        "relevance", "--input", "corpus.csv", "--format", "csv",
        "--resamples", "3", "--trees", "10", "--seed", "42",
        "--no-timestamp", "--out", "relevance",
    ],
}

GOLDEN_FILES = (
    "complexity/eval_summary.csv",
    "complexity/eval_report.json",
    "complexity/features_complexity.csv",
    "tfidf/eval_summary.csv",
    "tfidf/eval_report.json",
    "tfidf/features_tfidf.csv",
    "tfidf/vocabulary.tsv",
    "relevance/relevance.csv",
    "relevance/rank_diagram.svg",
)


def run_golden_commands(work_dir: Path) -> None:
    """Write the corpus into ``work_dir`` and run every command from there."""
    write_corpus_csv(mixed_area_corpus(n=72, seed=7), work_dir / "corpus.csv")
    with pytest.MonkeyPatch.context() as patch:
        patch.chdir(work_dir)
        for name, argv in RUNS.items():
            assert main(argv) == EXIT_OK, name


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    work_dir = tmp_path_factory.mktemp("golden")
    run_golden_commands(work_dir)
    return work_dir


@pytest.mark.parametrize("relative", GOLDEN_FILES)
def test_output_matches_golden(outputs, relative):
    produced = (outputs / relative).read_bytes()
    expected = (GOLDEN_DIR / relative).read_bytes()
    assert produced == expected, f"{relative} differs from tests/golden/{relative}"


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        run_golden_commands(Path(scratch))
        for relative in GOLDEN_FILES:
            target = GOLDEN_DIR / relative
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(Path(scratch) / relative, target)
            print(f"wrote {target}", file=sys.stderr)
