"""Golden-output lock: six CLI runs must reproduce the checked-in files byte for byte.

The fixtures under ``tests/golden/`` pin the determinism contract (one seed,
byte-identical CSV/JSON/SVG).  A change that moves floats on purpose must
regenerate the affected files and say why; regenerate with

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import json
import re
import shutil
import sys
from pathlib import Path

import pytest

import grantprod
from grantprod.cli import EXIT_OK, main

from _synth import mixed_area_corpus, planted_topic_corpus, write_corpus_csv

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
    # One whole-corpus vocabulary for every fold and log(N/N_w) idf.  At
    # --top-x 8 the per-run F1 values move if either flag is dropped.
    "tfidf_global": [
        "evaluate", "--input", "corpus.csv", "--format", "csv",
        "--features", "tfidf", "--fields", "abstract", "--global-vocab",
        "--conventional-idf", "--algo", "bayes,knn", "--top-x", "8",
        "--folds", "3", "--resamples", "2", "--seed", "42", "--out", "tfidf_global",
    ],
    # Weak topic signal on a narrow corpus: every SVM and MLP fit has fewer
    # rows than columns (24 x 27-30), and F1 sits well below 1.0, so
    # predictions lie near the decision threshold where a drift would show.
    "tfidf_lowsignal": [
        "evaluate", "--input", "lowsignal.csv", "--format", "csv",
        "--features", "tfidf", "--top-x", "30", "--algo", "svm,mlp",
        "--folds", "3", "--resamples", "2", "--seed", "42", "--out", "tfidf_lowsignal",
    ],
    # English text with the title, on 48 records per area: every 3-fold SVM
    # and MLP fit has more rows than columns (32 x 18) and takes the primal
    # form.  The cells run in worker processes; the files were written by a
    # --jobs 1 run, and the replay of the echo runs with --jobs 1.
    "complexity_en": [
        "evaluate", "--input", "corpus_en.csv", "--format", "csv",
        "--features", "complexity", "--lang", "en", "--include-title",
        "--algo", "dtrees,svm,mlp", "--folds", "3", "--resamples", "1", "--seed", "42",
        "--jobs", "2", "--out", "complexity_en",
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
    "complexity_en/eval_summary.csv",
    "complexity_en/eval_report.json",
    "complexity_en/features_complexity.csv",
    "tfidf/eval_summary.csv",
    "tfidf/eval_report.json",
    "tfidf/features_tfidf.csv",
    "tfidf/vocabulary.tsv",
    "tfidf_global/eval_summary.csv",
    "tfidf_global/eval_report.json",
    "tfidf_global/features_tfidf.csv",
    "tfidf_global/vocabulary.tsv",
    "tfidf_lowsignal/eval_summary.csv",
    "tfidf_lowsignal/eval_report.json",
    "tfidf_lowsignal/features_tfidf.csv",
    "tfidf_lowsignal/vocabulary.tsv",
    "relevance/relevance.csv",
    "relevance/rank_diagram.svg",
)


def write_corpora(work_dir: Path) -> None:
    """The three input files the runs read, written into ``work_dir``."""
    write_corpus_csv(mixed_area_corpus(n=72, seed=7), work_dir / "corpus.csv")
    write_corpus_csv(mixed_area_corpus(n=144, seed=7), work_dir / "corpus_en.csv")
    lowsignal = planted_topic_corpus(n=36, seed=11, signal_pct=5)
    write_corpus_csv([record for record, _ in lowsignal], work_dir / "lowsignal.csv")


def run_golden_commands(work_dir: Path) -> None:
    """Write the corpora into ``work_dir`` and run every command from there."""
    write_corpora(work_dir)
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


def echo_as_config(output: Path) -> str:
    """The config echo on an output's first line, as ``key = value`` lines."""
    echo = json.loads(output.read_text(encoding="utf-8").splitlines()[0].removeprefix("# "))
    return "".join(
        f"{key} = {json.dumps(value)}\n"
        for key, value in echo.items()
        if key != "tool" and value is not None
    )


def replay(work_dir: Path, command: str, output: Path, out: str) -> None:
    """Run ``command`` again from the echo in ``output``, writing to ``out``."""
    config = work_dir / f"{out}.conf"
    config.write_text(echo_as_config(output), encoding="utf-8")
    assert main([command, "--config", str(config), "--out", out]) == EXIT_OK


ECHO_FILES = {
    "complexity": "eval_summary.csv",
    "complexity_en": "eval_summary.csv",
    "tfidf": "eval_summary.csv",
    "tfidf_global": "eval_summary.csv",
    "tfidf_lowsignal": "eval_summary.csv",
    "relevance": "relevance.csv",
}


@pytest.mark.parametrize("name", RUNS)
def test_echo_replays_the_run(tmp_path, monkeypatch, name):
    write_corpora(tmp_path)
    monkeypatch.chdir(tmp_path)
    replay(tmp_path, RUNS[name][0], GOLDEN_DIR / name / ECHO_FILES[name], "replay")
    for relative in GOLDEN_FILES:
        run, _, filename = relative.partition("/")
        if run == name:
            produced = (tmp_path / "replay" / filename).read_bytes()
            assert produced == (GOLDEN_DIR / relative).read_bytes(), relative


def test_echo_with_lexicon_dir_replays_the_run(tmp_path, monkeypatch):
    write_corpus_csv(mixed_area_corpus(n=72, seed=7), tmp_path / "corpus.csv")
    lexicons = tmp_path / "lexicons"
    shutil.copytree(Path(grantprod.__file__).parent / "data" / "pt", lexicons)
    scores = lexicons / "concreteness.tsv"
    text, changed = re.subn(r"^estudo\t340$", "estudo\t660", scores.read_text(encoding="utf-8"),
                            flags=re.MULTILINE)
    assert changed == 1
    scores.write_text(text, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    argv = ["evaluate", "--input", "corpus.csv", "--format", "csv", "--features", "complexity",
            "--algo", "bayes", "--folds", "2", "--resamples", "1", "--seed", "3"]
    assert main(argv + ["--lexicon-dir", "lexicons", "--out", "custom"]) == EXIT_OK
    assert main(argv + ["--out", "builtin"]) == EXIT_OK
    replay(tmp_path, "evaluate", tmp_path / "custom" / "eval_summary.csv", "replay")

    outputs = ("eval_summary.csv", "eval_report.json", "features_complexity.csv")
    for name in outputs:
        assert (tmp_path / "replay" / name).read_bytes() == (tmp_path / "custom" / name).read_bytes()
    def matrix(run: str) -> list[str]:  # without the echo, which names the lexicon dir
        return (tmp_path / run / "features_complexity.csv").read_text().splitlines()[1:]
    assert matrix("custom") != matrix("builtin")


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        run_golden_commands(Path(scratch))
        for relative in GOLDEN_FILES:
            target = GOLDEN_DIR / relative
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(Path(scratch) / relative, target)
            print(f"wrote {target}", file=sys.stderr)
