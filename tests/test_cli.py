import csv
import inspect
import itertools
import json
import multiprocessing
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import grantprod
from grantprod import cli, ml
from grantprod.cli import (
    EXIT_OK,
    EXIT_VALIDATION,
    RUN_MINIMUMS,
    TOP_X_PRESETS,
    _config_keys,
    main,
    read_config_file,
)

from grantprod.complexity import EmptyDocumentError
from grantprod.corpus import Area, load_corpus
from grantprod.topical import (
    FieldSelector,
    VectorMode,
    field_tokens,
    fit_vocabulary_from_tokens,
    vectorize,
)

from _synth import english_title_corpus, mixed_area_corpus, write_corpus_csv

AREAS = (Area.MED, Area.DENT, Area.VET)  # the areas of mixed_area_corpus
HEADER = "grant_id,title_pt,abstract_pt,area,year,publication_count\n"


@pytest.fixture(scope="module")
def corpus_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("corpus") / "corpus.csv"
    write_corpus_csv(mixed_area_corpus(n=72), path)
    return path


@pytest.fixture(scope="module")
def canonical(tmp_path_factory, corpus_csv):
    out = tmp_path_factory.mktemp("canonical")
    assert main(["ingest", "--input", str(corpus_csv), "--format", "csv",
                 "--out", str(out)]) == EXIT_OK
    return out / "canonical.jsonl"


# ---------------------------------------------------------------------------
# ingest
# ---------------------------------------------------------------------------

def test_ingest_valid_csv(tmp_path, capsys):
    path = tmp_path / "three.csv"
    path.write_text(
        HEADER
        + "2001/00001-1,T1,Resumo um.,MED,2001,0\n"
        + "2001/00002-2,T2,Resumo dois.,DENT,2001,3\n"
        + "2001/00003-3,T3,Resumo tres.,VET,2001,1\n"
    )
    assert main(["ingest", "--input", str(path), "--format", "csv",
                 "--out", str(tmp_path / "o")]) == EXIT_OK
    out = capsys.readouterr().out
    assert "accepted: 3" in out
    lines = (tmp_path / "o" / "canonical.jsonl").read_text().splitlines()
    assert len(lines) == 3


def test_ingest_reports_bad_row(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text(
        HEADER
        + "2001/00001-1,T1,Resumo.,MED,2001,0\n"
        + "2001/00002-2,T2,Resumo.,MED,2001,-1\n"
        + "2001/00003-3,T3,Resumo.,VET,2001,1\n"
        + "2001/00004-4,T4,Resumo.,VET,2001,1,stray,cells\n"
    )
    assert main(["ingest", "--input", str(path), "--format", "csv",
                 "--out", str(tmp_path / "o")]) == EXIT_OK
    out = capsys.readouterr().out
    assert "accepted: 2" in out
    assert "rejected: 2" in out
    assert "publication_count" in out
    assert "row 4: <row>: 8 cells for 6 columns" in out


def test_ingest_missing_column_exits_nonzero(tmp_path, capsys):
    path = tmp_path / "miss.csv"
    path.write_text("grant_id,title_pt,area,year,publication_count\n")
    assert main(["ingest", "--input", str(path), "--format", "csv",
                 "--out", str(tmp_path / "o")]) == EXIT_VALIDATION
    assert "abstract_pt" in capsys.readouterr().err


def test_ingest_repeated_column_exits_nonzero(tmp_path, capsys):
    path = tmp_path / "repeated.csv"
    path.write_text(HEADER[:-1] + ",grant_id\n2001/00001-1,T1,Resumo.,MED,2001,1,2011/00002-2\n")
    assert main(["ingest", "--input", str(path), "--format", "csv",
                 "--out", str(tmp_path / "o")]) == EXIT_VALIDATION
    assert "repeated column(s): grant_id; file rejected" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_ingest_zero_accepted_rows(tmp_path, capsys):
    path = tmp_path / "none.csv"
    path.write_text(HEADER + "bad-id,T,Resumo.,MED,2001,0\n")
    assert main(["ingest", "--input", str(path), "--format", "csv",
                 "--out", str(tmp_path / "o")]) == EXIT_VALIDATION


def test_ingest_unreadable_input(tmp_path):
    assert main(["ingest", "--input", str(tmp_path / "nope.csv"), "--format", "csv",
                 "--out", str(tmp_path / "o")]) == EXIT_VALIDATION


def test_jsonl_count_of_another_type_is_listed_by_ingest_and_fails_the_others(tmp_path, capsys):
    # a publication count of 1.9 or true is neither truncated nor read as 1
    rows = [
        {"grant_id": f"2001/0000{i}-{i}", "title_pt": "T", "abstract_pt": "Resumo.",
         "area": "MED", "year": 2001, "publication_count": count}
        for i, count in enumerate([0, 1.9, True, 2], start=1)
    ]
    path = tmp_path / "c.jsonl"
    lines = [json.dumps(row) for row in rows]
    lines.append(lines[0].replace("00001-1", "00005-5")[:-1] + ', "publication_count": 3}')
    path.write_text("".join(line + "\n" for line in lines))
    assert main(["ingest", "--input", str(path), "--format", "jsonl",
                 "--out", str(tmp_path / "o")]) == EXIT_OK
    out = capsys.readouterr().out
    assert "rejected: 3" in out
    assert "row 2: publication_count: 1.9 is not an integer" in out
    assert "row 3: publication_count: true is not an integer" in out
    assert "row 5: publication_count: key appears more than once" in out
    for argv in (
        ["stats"],
        ["evaluate", "--features", "complexity", "--algo", "bayes", "--folds", "2",
         "--resamples", "1", "--seed", "1", "--out", str(tmp_path / "e")],
        ["relevance", "--seed", "1", "--out", str(tmp_path / "r")],
    ):
        assert main(argv + ["--input", str(path), "--format", "jsonl"]) == EXIT_VALIDATION
        assert "row 2, field 'publication_count'" in capsys.readouterr().err
    assert not (tmp_path / "e").exists() and not (tmp_path / "r").exists()


# ---------------------------------------------------------------------------
# stats
# ---------------------------------------------------------------------------

def test_stats_table(tmp_path, capsys):
    path = tmp_path / "s.csv"
    rows = []
    for i, pubs in enumerate([0, 0, 1, 3]):
        rows.append(f"2002/{70000 + i:05d}-{i},T,Resumo.,MED,2002,{pubs}")
    path.write_text(HEADER + "\n".join(rows) + "\n")
    assert main(["stats", "--input", str(path), "--format", "csv"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "MED    50.0%" in out        # 2 of 4 productive
    assert "2+    25.0%" in out          # only the 3-paper grant
    assert "3+    25.0%" in out
    assert "4+     0.0%" in out


def test_stats_empty_corpus(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text(HEADER)
    assert main(["stats", "--input", str(path), "--format", "csv"]) == EXIT_VALIDATION


def test_stats_rejects_an_out_config_key(canonical, tmp_path, capsys):
    # stats only prints, so it has no output directory to set
    config = tmp_path / "stats.conf"
    config.write_text("out = x\n")
    assert main(["stats", "--input", str(canonical), "--config", str(config)]) == EXIT_VALIDATION
    assert "config key 'out' is not an option of 'stats'" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------

def test_evaluate_requires_seed(canonical, tmp_path, capsys):
    code = main(["evaluate", "--input", str(canonical), "--out", str(tmp_path)])
    assert code == EXIT_VALIDATION
    assert "--seed" in capsys.readouterr().err


def test_evaluate_single_cell(canonical, tmp_path, capsys):
    out = tmp_path / "run"
    code = main([
        "evaluate", "--input", str(canonical), "--features", "tfidf",
        "--top-x", "30", "--algo", "bayes", "--folds", "3", "--resamples", "1",
        "--seed", "5", "--out", str(out),
    ])
    assert code == EXIT_OK
    lines = (out / "eval_summary.csv").read_text().splitlines()
    assert lines[0].startswith("# {")           # config echo
    assert '"seed": 5' in lines[0]
    assert lines[1] == ("dataset,method,mean_f1,sd_f1,macro_f1,pooled_f1,"
                        "p_value,significant_best")
    data_rows = lines[2:]
    assert len(data_rows) == 3                  # one method, three areas
    report = json.loads((out / "eval_report.json").read_text())
    assert report["config"]["seed"] == 5
    assert len(report["reports"]) == 3
    for entry in report["reports"]:
        assert len(entry["per_run_f1"]) == 3    # 1 resample x 3 folds
    assert (out / "vocabulary.tsv").exists()
    matrix_header = (out / "features_tfidf.csv").read_text().splitlines()[1]
    assert matrix_header.startswith("grant_id,")


def test_evaluate_complexity_writes_feature_matrix(canonical, tmp_path):
    out = tmp_path / "runc"
    code = main([
        "evaluate", "--input", str(canonical), "--features", "complexity",
        "--algo", "bayes", "--folds", "3", "--resamples", "1",
        "--seed", "5", "--out", str(out),
    ])
    assert code == EXIT_OK
    header = (out / "features_complexity.csv").read_text().splitlines()[1]
    assert header.startswith("grant_id,sentence_count,")


def test_evaluate_raw_frequency_exports_counts_on_the_corpus_vocabulary(canonical, tmp_path):
    out = tmp_path / "raw"
    code = main([
        "evaluate", "--input", str(canonical), "--features", "tfidf", "--raw-frequency",
        "--top-x", "30", "--algo", "bayes", "--folds", "3", "--resamples", "1",
        "--seed", "5", "--out", str(out),
    ])
    assert code == EXIT_OK
    records = load_corpus(canonical, "jsonl")
    token_lists = [field_tokens(record, FieldSelector.ABSTRACT, "pt") for record in records]
    vocabulary = fit_vocabulary_from_tokens(token_lists, 30)
    expected = vectorize(token_lists, vocabulary, VectorMode.RAW_FREQUENCY)
    header, *rows = (out / "features_tfidf.csv").read_text().splitlines()[1:]
    assert header.split(",") == ["grant_id"] + sorted(vocabulary.entries, key=vocabulary.entries.get)
    assert [row.split(",")[0] for row in rows] == [record.grant_id for record in records]
    exported = [[float(cell) for cell in row.split(",")[1:]] for row in rows]
    assert exported == expected.tolist()
    assert expected.max() > 1  # counts, not weights


# The summary CSV column of each EvalReport field the CSV prints.
SUMMARY_FIELDS = {"mean_f1": "mean_f1", "sd_f1": "sd_f1", "macro_f1": "mean_macro_f1",
                  "pooled_f1": "pooled_f1", "p_value": "p_value"}


def test_summary_rows_and_stdout_are_the_reports_of_the_json(tmp_path, capsys):
    # Two runs: one where every MED/DENT/VET cell ties at F1 1.0 (the first
    # cell is flagged), one whose VET best cell has p > 0.05 (none flagged).
    write_corpus_csv(mixed_area_corpus(n=72), tmp_path / "pt.csv")
    write_corpus_csv(english_title_corpus(n=72, seed=25), tmp_path / "en.csv")
    runs = {
        "tie": ["--input", "pt.csv", "--top-x", "30", "--algo", "bayes,svm"],
        "unflagged": ["--input", "en.csv", "--lang", "en", "--fields", "title+subject",
                      "--raw-frequency", "--algo", "knn,mlp"],
    }
    seen = set()
    for name, argv in runs.items():
        argv = [arg if not arg.endswith(".csv") else str(tmp_path / arg) for arg in argv]
        out = tmp_path / name
        assert main(["evaluate", "--format", "csv", "--features", "tfidf", *argv, "--folds", "3",
                     "--resamples", "2", "--seed", "42", "--out", str(out)]) == EXIT_OK
        printed = capsys.readouterr().out.splitlines()
        with open(out / "eval_summary.csv", newline="", encoding="utf-8") as handle:
            rows = list(csv.DictReader(line for line in handle if not line.startswith("#")))
        reports = json.loads((out / "eval_report.json").read_text(encoding="utf-8"))["reports"]
        by_cell = {(report["dataset"], report["method"]): report for report in reports}
        assert len(by_cell) == len(reports) == len(rows) == len(printed)
        for row, line in zip(rows, printed):
            report = by_cell[row["dataset"], row["method"]]
            for column, key in SUMMARY_FIELDS.items():
                assert row[column] == f"{report[key]:.4f}", (name, row, column)
            assert line.split()[:2] == [row["dataset"], row["method"]]
            assert line.endswith("*significant best*") == (row["significant_best"] == "yes")
        for area in dict.fromkeys(row["dataset"] for row in rows):
            cells = [row for row in rows if row["dataset"] == area]
            f1 = {row["method"]: by_cell[area, row["method"]]["mean_f1"] for row in cells}
            best = max(cells, key=lambda row: f1[row["method"]])  # the first on a tie
            significant = by_cell[area, best["method"]]["p_value"] < 0.05
            flagged = [row for row in cells if row["significant_best"] == "yes"]
            assert flagged == ([best] if significant else []), (name, area)
            tied = list(f1.values()).count(f1[best["method"]]) > 1
            seen.add(("tie" if tied else "best") + ("" if significant else "-unflagged"))
    assert seen >= {"tie", "best", "best-unflagged"}


@pytest.mark.parametrize("features, jobs, areas", [
    ("complexity", "2", AREAS),
    ("tfidf", "2", AREAS),
    ("complexity", "8", (Area.MED,)),  # 2 cells, so 2 workers
], ids=["complexity", "tfidf", "complexity-jobs8-2cells"])
def test_evaluate_jobs_2_matches_jobs_1(tmp_path, features, jobs, areas):
    corpus = tmp_path / "corpus.csv"
    write_corpus_csv([r for r in mixed_area_corpus(n=72) if r.area in areas], corpus)
    family = ["--top-x", "30"] if features == "tfidf" else []
    outputs = {}
    for run in ("1", jobs):
        out = tmp_path / f"jobs{run}"
        code = main([
            "evaluate", "--input", str(corpus), "--format", "csv", "--features", features,
            *family, "--algo", "bayes,knn", "--folds", "3", "--resamples", "2",
            "--seed", "5", "--jobs", run, "--out", str(out),
        ])
        assert code == EXIT_OK
        assert multiprocessing.active_children() == []
        outputs[run] = {path.name: path.read_bytes() for path in out.iterdir()}
    assert len(outputs["1"]) == (4 if features == "tfidf" else 3)
    assert outputs[jobs] == outputs["1"]


def test_evaluate_english_exclusion(tmp_path, capsys):
    # one record lacks the English abstract and is excluded with a count
    path = tmp_path / "en.csv"
    path.write_text(
        "grant_id,title_pt,abstract_pt,title_en,abstract_en,area,year,publication_count\n"
        + "\n".join(
            f"2003/{80000 + i:05d}-{i % 10},T,Resumo bom.,"
            f"T,{'A fine abstract.' if i else ''},MED,2003,{i % 2}"
            for i in range(13)
        )
        + "\n"
    )
    out = tmp_path / "rune"
    code = main([
        "evaluate", "--input", str(path), "--format", "csv", "--lang", "en",
        "--features", "complexity", "--algo", "bayes", "--folds", "2",
        "--resamples", "1", "--seed", "1", "--out", str(out),
    ])
    assert code == EXIT_OK
    assert "excluded 1 record(s)" in capsys.readouterr().out


def test_evaluate_subject_field_excludes_records_without_keywords(tmp_path, capsys):
    # subject is optional: a record without keywords lacks the field, so with
    # none left --fields subject exits 2 before any output, and title+subject
    # keeps the titles
    path = tmp_path / "nosubject.csv"
    write_corpus_csv([replace(r, subject=()) for r in mixed_area_corpus(n=72, seed=7)], path)
    argv = ["evaluate", "--input", str(path), "--format", "csv", "--features", "tfidf",
            "--folds", "3", "--resamples", "2", "--seed", "1"]
    out = tmp_path / "subject"
    code = main(argv + ["--fields", "subject", "--algo", "all", "--out", str(out)])
    assert code == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert "excluded 72 record(s) lacking subject keywords" in captured.out
    assert "every record lacks subject keywords" in captured.err
    assert not out.exists()
    code = main(argv + ["--fields", "title+subject", "--algo", "bayes",
                        "--out", str(tmp_path / "title")])
    assert code == EXIT_OK
    assert "excluded" not in capsys.readouterr().out


@pytest.mark.parametrize("include_title", [False, True])
@pytest.mark.parametrize("fields", sorted(cli.FIELD_CHOICES))
@pytest.mark.parametrize("features", ["complexity", "tfidf"])
def test_english_subset_is_the_records_whose_extraction_succeeds(features, fields, include_title):
    base = mixed_area_corpus(n=1)[0]
    records = [
        replace(base, grant_id=f"2013/{50000 + i:05d}-{i}", title_en=title, abstract_en=abstract)
        for i, (title, abstract) in enumerate(
            itertools.product([None, "Case study"], [None, "A fine abstract."])
        )
    ]
    argv = ["evaluate", "--lang", "en", "--features", features, "--fields", fields, "--seed", "1"]
    args = cli._parse_args(argv + ["--include-title"] * include_title)

    def extracts(record) -> bool:
        try:
            if features == "complexity":
                ml.complexity_rows([record], "en", include_title=include_title)
            else:
                field_tokens(record, cli.FIELD_CHOICES[fields], "en")
        except ValueError:
            return False
        return True

    kept, lacking = cli._readable_subset(records, cli._feature_config(args))
    expected = [record for record in records if extracts(record)]
    assert 0 < len(expected) < len(records) or fields == "subject"
    assert kept == expected
    assert sum(lacking.values()) == len(records) - len(expected)


@pytest.mark.parametrize("publications, folds, counts", [
    ([1] * 8, 2, "0 zero-publication"),          # single-class area
    ([1] * 3 + [0] * 5, 8, "3 productive and 5 zero-publication"),
])
def test_evaluate_area_smaller_than_folds_exits_2(tmp_path, capsys, publications, folds, counts):
    path = tmp_path / "small.csv"
    path.write_text(
        HEADER
        + "\n".join(f"2004/{90000 + i:05d}-{i % 10},T,Resumo bom.,MED,2004,{p}"
                    for i, p in enumerate(publications))
        + "\n"
    )
    out = tmp_path / "runs"
    code = main([
        "evaluate", "--input", str(path), "--format", "csv", "--features",
        "complexity", "--algo", "bayes", "--folds", str(folds), "--resamples", "1",
        "--seed", "1", "--out", str(out),
    ])
    assert code == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "area MED" in err and counts in err and f"--folds {folds}" in err
    assert not out.exists()  # checked before any output or extraction


@pytest.mark.parametrize("algo", [",", " , ,"])
def test_evaluate_without_algorithm_exits_2_before_output(canonical, tmp_path, capsys, algo):
    out = tmp_path / "none"
    code = main(["evaluate", "--input", str(canonical), "--algo", algo, "--folds", "2",
                 "--resamples", "1", "--seed", "1", "--out", str(out)])
    assert code == EXIT_VALIDATION
    assert "--algo selects no algorithm" in capsys.readouterr().err
    assert not out.exists()


LEXICON_DIR = str(Path(cli.__file__).parent / "data" / "pt")  # an existing lexicon directory

@pytest.mark.parametrize("name, text, reason", [
    ("pos_lexicon.tsv", "gato\tnounx\n", "'nounx' is not a valid PosTag"),
    ("concreteness.tsv", "# scores\n\nestudo\tabc\n", "could not convert string to float: 'abc'"),
    ("suffix_rules.tsv", "mente\tadverb\tx\n", "expected 'entry<TAB>value'"),
    ("prepositions.txt", "sobre\tpreposition\n", "expected one word, got 'sobre\tpreposition'"),
    ("function_words.txt", "de fato\n", "expected one word, got 'de fato'"),
])
def test_bad_lexicon_line_exits_2_naming_the_file_and_line(
    canonical, tmp_path, capsys, name, text, reason
):
    lexicons = tmp_path / "lexicons"
    shutil.copytree(LEXICON_DIR, lexicons)
    bad = lexicons / name
    lines = bad.read_text(encoding="utf-8").splitlines(keepends=True)
    bad.write_text("".join(lines[:4]) + text + "".join(lines[4:]), encoding="utf-8")
    line_number = 4 + text.count("\n")
    code = main(["evaluate", "--input", str(canonical), "--features", "complexity",
                 "--lexicon-dir", str(lexicons), "--algo", "bayes", "--folds", "2",
                 "--resamples", "1", "--seed", "1", "--out", str(tmp_path / "run")])
    assert code == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert f"{bad}:{line_number}: " in err and reason in err
    assert not (tmp_path / "run").exists()


# Options a run does not read: --features, the option as flags and as config
# lines, and the error naming it.
UNREAD_OPTIONS = [
    ("tfidf", ["--include-title"], "include_title = true",
     "--include-title does not apply to --features tfidf"),
    ("tfidf", ["--lexicon-dir", LEXICON_DIR], f"lexicon_dir = {LEXICON_DIR}",
     "--lexicon-dir does not apply to --features tfidf"),
    ("complexity", ["--fields", "title"], "fields = title",
     "--fields does not apply to --features complexity"),
    ("complexity", ["--top-x", "7"], "top_x = 7",
     "--top-x does not apply to --features complexity"),
    ("complexity", ["--global-vocab"], "global_vocab = true",
     "--global-vocab does not apply to --features complexity"),
    ("complexity", ["--raw-frequency"], "raw_frequency = yes",
     "--raw-frequency does not apply to --features complexity"),
    ("complexity", ["--conventional-idf"], "conventional_idf = 1",
     "--conventional-idf does not apply to --features complexity"),
    ("tfidf", ["--raw-frequency", "--conventional-idf"],
     "raw_frequency = true\nconventional_idf = true",
     "--conventional-idf does not apply to --raw-frequency"),
]


@pytest.mark.parametrize("features, argv, config, message", [
    pytest.param(features, argv if given_as == "flag" else None, config, message,
                 id=f"{features}-{message.split()[0]}" + ("" if given_as == "flag" else "-config"))
    for given_as in ("flag", "config")
    for features, argv, config, message in UNREAD_OPTIONS
])
def test_flag_of_the_other_family_exits_2_and_names_it(
    canonical, tmp_path, capsys, monkeypatch, features, argv, config, message
):
    cells = []
    monkeypatch.setattr(cli, "cross_validate", lambda *a, **k: cells.append(a))
    if argv is None:
        (tmp_path / "unread.conf").write_text(config + "\n")
        argv = ["--config", str(tmp_path / "unread.conf")]
    out = tmp_path / "other"
    code = main(["evaluate", "--input", str(canonical), "--features", features, *argv,
                 "--algo", "bayes", "--folds", "2", "--resamples", "1", "--seed", "1",
                 "--out", str(out)])
    assert code == EXIT_VALIDATION
    assert message in capsys.readouterr().err
    assert cells == []
    assert not out.exists()


# The evaluate options both feature families read; FAMILY_OPTIONS declares the rest.
SHARED_OPTIONS = {"input", "format", "out", "lang", "resamples", "seed", "features", "algo",
                  "folds", "jobs"}


def test_every_evaluate_option_is_shared_or_declared_under_one_family():
    declared = [key for options in cli.FAMILY_OPTIONS.values() for key in options]
    assert len(declared) == len(set(declared))
    assert not set(declared) & SHARED_OPTIONS
    actions = _config_keys()["evaluate"]
    assert set(declared) | SHARED_OPTIONS == set(actions)
    for options in cli.FAMILY_OPTIONS.values():  # an unset option reads as its declared value
        for key, value in options.items():
            assert actions[key].default in (None, value), key


def test_tfidf_echo_names_the_default_field_and_vocabulary_size(canonical, tmp_path):
    out = tmp_path / "defaults"
    code = main(["evaluate", "--input", str(canonical), "--features", "tfidf", "--algo", "bayes",
                 "--folds", "2", "--resamples", "1", "--seed", "1", "--out", str(out)])
    assert code == EXIT_OK
    echo = json.loads((out / "eval_summary.csv").read_text().splitlines()[0][2:])
    assert (echo["fields"], echo["top_x"]) == ("abstract", 1100)
    assert '"fields": "abstract"' in (out / "features_tfidf.csv").read_text().splitlines()[0]


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_evaluate_failure_manifest(canonical, tmp_path, monkeypatch, jobs):
    # a failing cell does not stop the others; the run flushes and exits 3.
    # The exception's constructor takes a document id, not its message, so
    # a worker process must send back the message, not the exception.
    real = cli.cross_validate

    def fail_knn(labeled, feature_config, algorithm, **kwargs):
        if algorithm == "knn":
            raise EmptyDocumentError(labeled[0][0].area.value)
        return real(labeled, feature_config, algorithm, **kwargs)

    monkeypatch.setattr(cli, "cross_validate", fail_knn)
    out = tmp_path / "runf"
    code = main([
        "evaluate", "--input", str(canonical), "--features", "complexity",
        "--algo", "bayes,knn", "--folds", "2", "--resamples", "1",
        "--seed", "1", "--jobs", jobs, "--out", str(out),
    ])
    assert code == 3
    assert multiprocessing.active_children() == []
    summary = (out / "eval_summary.csv").read_text().splitlines()
    assert [row.split(",")[:2] for row in summary[2:]] == [
        [area.value, "naive_bayes"] for area in AREAS
    ]
    echo = json.loads(summary[0][2:])
    failures = [{"dataset": area.value, "method": "knn",
                 "error": f"document '{area.value}' is empty after normalization"}
                for area in AREAS]
    expected = json.dumps({"config": echo, "failures": failures}, indent=2, sort_keys=True)
    assert (out / "failure_manifest.json").read_text() == expected + "\n"


def test_svm_iteration_cap_fails_its_cells_into_the_manifest(canonical, tmp_path, monkeypatch):
    # a fit that reaches the Newton step cap raises TrainingDivergedError,
    # which fails its cell like any other error
    monkeypatch.setattr(ml, "_NEWTON_MAX_STEPS", 1)
    out = tmp_path / "capped"
    code = main([
        "evaluate", "--input", str(canonical), "--features", "tfidf",
        "--algo", "bayes,svm", "--folds", "2", "--resamples", "1",
        "--seed", "1", "--jobs", "1", "--out", str(out),
    ])
    assert code == 3
    failures = json.loads((out / "failure_manifest.json").read_text())["failures"]
    assert [(f["dataset"], f["method"]) for f in failures] == [
        (area.value, "linear_svm") for area in AREAS
    ]
    assert all("within 1 Newton steps: objective " in f["error"] for f in failures)


def test_killed_worker_fails_its_cells_and_leaves_no_process(canonical, tmp_path, monkeypatch):
    def exit_worker(*args, **kwargs):
        os._exit(1)

    monkeypatch.setattr(cli, "cross_validate", exit_worker)
    out = tmp_path / "killed"
    code = main([
        "evaluate", "--input", str(canonical), "--features", "complexity",
        "--algo", "bayes", "--folds", "2", "--resamples", "1",
        "--seed", "1", "--jobs", "2", "--out", str(out),
    ])
    assert code == 3
    assert multiprocessing.active_children() == []
    manifest = json.loads((out / "failure_manifest.json").read_text())
    assert [(f["dataset"], f["method"]) for f in manifest["failures"]] == [
        (area.value, "naive_bayes") for area in AREAS
    ]


def test_config_file_with_flag_override(canonical, tmp_path):
    config = tmp_path / "run.conf"
    config.write_text(
        "features = tfidf\ntop_x = 30\nalgo = bayes\nfolds = 3\n"
        "resamples = 1\nseed = 5\n"
    )
    out = tmp_path / "runcfg"
    code = main([
        "evaluate", "--input", str(canonical), "--config", str(config),
        "--seed", "9", "--out", str(out),
    ])
    assert code == EXIT_OK
    first = (out / "eval_summary.csv").read_text().splitlines()[0]
    assert '"seed": 9' in first      # flag wins over the config file
    assert '"top_x": 30' in first    # config fills the rest


@pytest.mark.parametrize("flag", [["--seed", "9"], ["--seed=9"], ["--see", "9"]])
def test_flag_in_any_spelling_beats_config_file(canonical, tmp_path, flag):
    config = tmp_path / "rel.conf"
    config.write_text("seed = 5\ntrees = 2\nresamples = 2\n")
    out = tmp_path / "rel"
    code = main(["relevance", "--input", str(canonical), "--config", str(config), *flag,
                 "--no-timestamp", "--out", str(out)])
    assert code == EXIT_OK
    echo = json.loads((out / "relevance.csv").read_text().splitlines()[0][2:])
    assert echo["seed"] == 9
    assert echo["trees"] == 2        # config fills the rest


# Smallest accepted value of each numeric option, with the flag that sets it.
MINIMUMS = [
    ("evaluate", "top_x", "--top-x", 1),
    ("evaluate", "folds", "--folds", 2),
    ("evaluate", "resamples", "--resamples", 1),
    ("evaluate", "jobs", "--jobs", 1),
    ("relevance", "resamples", "--resamples", 2),
    ("relevance", "trees", "--trees", 1),
]


def test_minimums_cover_the_checked_options():
    checked = {(command, key): minimum
               for command, table in RUN_MINIMUMS.items() for key, minimum in table.items()}
    assert checked == {(command, key): minimum for command, key, _, minimum in MINIMUMS}


@pytest.mark.parametrize("given_as", ["flag", "config"])
@pytest.mark.parametrize("command, key, flag, minimum", MINIMUMS)
def test_value_below_minimum_exits_2_and_names_the_flag(
    canonical, tmp_path, capsys, command, key, flag, minimum, given_as
):
    value = str(minimum - 1)
    if given_as == "flag":
        option = [flag, value]
    else:
        config = tmp_path / "low.conf"
        config.write_text(f"{key} = {value}\n")
        option = ["--config", str(config)]
    out = tmp_path / "out"
    code = main([command, "--input", str(canonical), "--seed", "1", *option, "--out", str(out)])
    assert code == EXIT_VALIDATION
    assert f"{flag} must be >= {minimum}" in capsys.readouterr().err
    assert not out.exists()


def test_read_config_file_types(tmp_path):
    path = tmp_path / "c.conf"
    path.write_text("# comment\nseed = 3\nfeatures = 'tfidf'\ninclude_title = true\n")
    values = read_config_file(path)
    assert values == {"seed": 3, "features": "tfidf", "include_title": True}


def test_config_file_byte_order_mark_is_read_as_no_text(tmp_path):
    # Notepad's "UTF-8 with BOM" starts the file with one
    path = tmp_path / "bom.conf"
    path.write_bytes(b"\xef\xbb\xbfseed = 3\ninclude_title = true\n")
    assert read_config_file(path) == {"seed": 3, "include_title": True}


@pytest.mark.parametrize("command, line, key", [
    ("evaluate", "sed = 5", "sed"),  # unknown key
    ("evaluate", "global_vocab = ture", "global_vocab"),  # malformed boolean
    ("relevance", "top_x = 30", "top_x"),  # key of another subcommand
    ("evaluate", "trees = 5", "trees"),
])
def test_bad_config_key_exits_2_and_names_it(canonical, tmp_path, capsys, command, line, key):
    config = tmp_path / "bad.conf"
    config.write_text(line + "\n")
    code = main([command, "--input", str(canonical), "--config", str(config),
                 "--seed", "1", "--out", str(tmp_path / "out")])
    assert code == EXIT_VALIDATION
    assert f"'{key}'" in capsys.readouterr().err


def test_config_file_that_is_not_utf8_exits_2_and_names_it(canonical, tmp_path, capsys):
    config = tmp_path / "latin1.conf"
    config.write_bytes("# configuração\nseed = 1\n".encode("latin-1"))
    code = main(["relevance", "--input", str(canonical), "--config", str(config),
                 "--out", str(tmp_path / "out")])
    assert code == EXIT_VALIDATION
    assert str(config) in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_config_typed_option_reaches_relevance_as_int(canonical, tmp_path):
    config = tmp_path / "rel.conf"
    config.write_text("trees = 5\nresamples = 2\n")
    out = tmp_path / "rel"
    code = main(["relevance", "--input", str(canonical), "--config", str(config),
                 "--seed", "2", "--out", str(out)])
    assert code == EXIT_OK
    assert '"trees": 5,' in (out / "relevance.csv").read_text().splitlines()[0]


def test_config_false_boolean_keeps_timestamp(canonical, tmp_path):
    config = tmp_path / "rel.conf"
    config.write_text("trees = 5\nresamples = 2\nno_timestamp = false\n")
    out = tmp_path / "rel"
    code = main(["relevance", "--input", str(canonical), "--config", str(config),
                 "--seed", "2", "--out", str(out)])
    assert code == EXIT_OK
    assert "<!-- generated " in (out / "rank_diagram.svg").read_text()


def test_shared_config_keys_convert_alike():
    # read_config_file converts a key before the subcommand is known
    seen = {}
    for keys in _config_keys().values():
        for key, action in keys.items():
            shape = (type(action), action.type, action.choices and tuple(action.choices))
            assert seen.setdefault(key, shape) == shape, key


def test_top_x_presets_exposed():
    assert TOP_X_PRESETS == (1100, 7196)


# ---------------------------------------------------------------------------
# relevance
# ---------------------------------------------------------------------------

def test_relevance_outputs(canonical, tmp_path, capsys):
    out = tmp_path / "rel"
    code = main([
        "relevance", "--input", str(canonical), "--resamples", "3",
        "--trees", "15", "--seed", "2", "--no-timestamp", "--out", str(out),
    ])
    assert code == EXIT_OK
    svg = (out / "rank_diagram.svg").read_text()
    assert svg.startswith("<?xml")
    assert "generated" not in svg           # --no-timestamp
    csv_lines = (out / "relevance.csv").read_text().splitlines()
    assert '"seed": 2' in csv_lines[0]
    assert csv_lines[2] == "feature,mean_importance,average_rank,within_cd_of_best"
    assert len(csv_lines) == 3 + 18         # full complexity schema


def test_csv_outputs_end_lines_in_lf(canonical, tmp_path):
    out = tmp_path / "lf"
    for features in ("complexity", "tfidf"):
        assert main([
            "evaluate", "--input", str(canonical), "--features", features,
            "--algo", "bayes", "--folds", "3", "--resamples", "1",
            "--seed", "5", "--out", str(out / features),
        ]) == EXIT_OK
    assert main([
        "relevance", "--input", str(canonical), "--resamples", "2",
        "--trees", "5", "--seed", "5", "--no-timestamp", "--out", str(out / "relevance"),
    ]) == EXIT_OK
    written = sorted(path.relative_to(out).as_posix()
                     for suffix in ("*.csv", "*.tsv") for path in out.rglob(suffix))
    assert written == [
        "complexity/eval_summary.csv", "complexity/features_complexity.csv",
        "relevance/relevance.csv", "tfidf/eval_summary.csv", "tfidf/features_tfidf.csv",
        "tfidf/vocabulary.tsv",
    ]
    for name in written:
        assert b"\r" not in (out / name).read_bytes(), name


def test_relevance_timestamp_present_by_default(canonical, tmp_path):
    out = tmp_path / "rel2"
    assert main([
        "relevance", "--input", str(canonical), "--resamples", "2",
        "--trees", "5", "--seed", "2", "--out", str(out),
    ]) == EXIT_OK
    assert "<!-- generated " in (out / "rank_diagram.svg").read_text()


def test_relevance_requires_seed(canonical, tmp_path):
    assert main(["relevance", "--input", str(canonical),
                 "--out", str(tmp_path)]) == EXIT_VALIDATION


def test_relevance_rejects_zero_trees(canonical, tmp_path, capsys):
    assert main(["relevance", "--input", str(canonical), "--trees", "0",
                 "--seed", "2", "--out", str(tmp_path / "rel0")]) == EXIT_VALIDATION
    assert "--trees" in capsys.readouterr().err
    assert not (tmp_path / "rel0").exists()


@pytest.mark.parametrize("publications, counts", [
    ([1] * 6, "6 productive and 0 zero-publication"),
    ([0] * 5, "0 productive and 5 zero-publication"),
])
def test_relevance_single_class_corpus_exits_2_before_extraction(
    tmp_path, capsys, monkeypatch, publications, counts
):
    path = tmp_path / "one_class.csv"
    path.write_text(
        HEADER
        + "\n".join(f"2004/{90000 + i:05d}-{i % 10},T,Resumo bom.,MED,2004,{p}"
                    for i, p in enumerate(publications))
        + "\n"
    )
    extractions = []
    monkeypatch.setattr(ml, "complexity_rows", lambda *a, **k: extractions.append(a))
    out = tmp_path / "rel"
    code = main(["relevance", "--input", str(path), "--format", "csv", "--seed", "1",
                 "--out", str(out)])
    assert code == EXIT_VALIDATION
    assert counts in capsys.readouterr().err
    assert extractions == []
    assert not out.exists()


def test_relevance_english_exclusion(tmp_path, capsys):
    # one record lacks the English abstract: excluded with a count, as in evaluate
    path = tmp_path / "en.csv"
    path.write_text(
        "grant_id,title_pt,abstract_pt,title_en,abstract_en,area,year,publication_count\n"
        + "\n".join(
            f"2003/{80000 + i:05d}-{i % 10},T,Resumo bom.,"
            f"T,{'A fine abstract.' if i else ''},MED,2003,{i % 2}"
            for i in range(13)
        )
        + "\n"
    )
    out = tmp_path / "rel"
    code = main([
        "relevance", "--input", str(path), "--format", "csv", "--lang", "en",
        "--resamples", "2", "--trees", "3", "--seed", "1", "--no-timestamp",
        "--out", str(out),
    ])
    assert code == EXIT_OK
    assert "excluded 1 record(s) lacking en abstract" in capsys.readouterr().out
    assert (out / "relevance.csv").exists()


def test_relevance_extracts_with_its_language_and_title_setting(tmp_path, monkeypatch):
    path = tmp_path / "en.csv"
    path.write_text(
        "grant_id,title_pt,abstract_pt,title_en,abstract_en,area,year,publication_count\n"
        + "\n".join(f"2003/{80000 + i:05d}-{i % 10},T,Resumo bom.,Case study,"
                    f"A fine abstract.,MED,2003,{i % 2}" for i in range(12))
        + "\n"
    )
    extract = ml.complexity_rows
    settings = []

    def recording(*args, **kwargs):
        bound = inspect.signature(extract).bind(*args, **kwargs)
        bound.apply_defaults()
        settings.append((bound.arguments["language"], bound.arguments["include_title"]))
        return extract(*args, **kwargs)

    monkeypatch.setattr(ml, "complexity_rows", recording)
    code = main(["relevance", "--input", str(path), "--format", "csv", "--lang", "en",
                 "--include-title", "--resamples", "2", "--trees", "3", "--seed", "1",
                 "--no-timestamp", "--out", str(tmp_path / "rel")])
    assert code == EXIT_OK
    assert settings == [("en", True)]


def test_relevance_without_usable_records_exits_2_before_output(tmp_path, capsys):
    path = tmp_path / "en.csv"
    path.write_text(
        "grant_id,title_pt,abstract_pt,title_en,abstract_en,area,year,publication_count\n"
        + "\n".join(f"2003/{80000 + i:05d}-{i % 10},T,Resumo bom.,T,,MED,2003,{i % 2}"
                    for i in range(4))
        + "\n"
    )
    out = tmp_path / "rel"
    code = main(["relevance", "--input", str(path), "--format", "csv", "--lang", "en",
                 "--seed", "1", "--out", str(out)])
    assert code == EXIT_VALIDATION
    assert "no records usable" in capsys.readouterr().err
    assert not out.exists()


def _run_python(script: str) -> list[str]:
    """The stdout lines of ``script`` run in a fresh interpreter that imports this package."""
    source = str(Path(grantprod.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [source, *filter(None, [os.environ.get("PYTHONPATH")])]))
    result = subprocess.run([sys.executable, "-c", script], capture_output=True,
                            text=True, env=env, timeout=300)
    assert result.returncode == 0, result.stderr
    return result.stdout.splitlines()


def test_complexity_evaluate_does_not_load_numpy_ma(canonical, tmp_path):
    # np.nanmedian imports numpy.ma on its first call, which costs a
    # complexity command about 18 ms and 2 MB; no step of the run needs it
    argv = ["evaluate", "--input", str(canonical), "--features", "complexity",
            "--algo", "bayes,knn,mlp", "--folds", "3", "--resamples", "1",
            "--seed", "5", "--out", str(tmp_path / "out")]
    script = (
        "import sys\n"
        "from grantprod.cli import main\n"
        f"code = main({argv!r})\n"
        "print(code, 'numpy.ma' in sys.modules)\n"
    )
    assert _run_python(script)[-1].split() == [str(EXIT_OK), "False"]


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_only_complexity_runs_load_lexicons(canonical, tmp_path, monkeypatch, jobs):
    # tf-idf reads no lexicon, so its runs neither load the six files nor
    # ship a LexiconSet to each worker's task
    loaded = []
    builtin = cli.builtin_lexicons
    monkeypatch.setattr(cli, "builtin_lexicons", lambda lang: loaded.append(lang) or builtin(lang))
    run = ["--input", str(canonical), "--folds", "3", "--resamples", "1", "--seed", "5"]
    assert main(["evaluate", *run, "--features", "tfidf", "--top-x", "30", "--algo", "bayes",
                 "--jobs", jobs, "--out", str(tmp_path / "tfidf")]) == EXIT_OK
    assert loaded == []
    assert main(["evaluate", *run, "--features", "complexity", "--algo", "bayes",
                 "--jobs", jobs, "--out", str(tmp_path / "complexity")]) == EXIT_OK
    assert loaded == ["pt"]


def test_no_command_loads_numpy_random(canonical, corpus_csv, tmp_path):
    # numpy 2 imports numpy.random on first use, which raised a command's
    # peak RSS by about 5 MB; every draw comes from the package's splitmix64
    run = ["--folds", "3", "--resamples", "1", "--seed", "5"]
    runs = [
        ["ingest", "--input", str(corpus_csv), "--format", "csv", "--out", str(tmp_path / "in")],
        ["stats", "--input", str(canonical)],
        ["evaluate", "--input", str(canonical), "--features", "complexity", "--algo", "all",
         *run, "--out", str(tmp_path / "complexity")],
        ["evaluate", "--input", str(canonical), "--features", "tfidf", "--top-x", "30",
         "--algo", "all", *run, "--out", str(tmp_path / "tfidf")],
        ["relevance", "--input", str(canonical), "--resamples", "2", "--trees", "5",
         "--seed", "5", "--no-timestamp", "--out", str(tmp_path / "relevance")],
    ]
    script = (
        "import sys\n"
        "import numpy\n"
        "print('numpy.random' in sys.modules)\n"
        "from grantprod.cli import main\n"
        f"codes = [main(argv) for argv in {runs!r}]\n"
        "print(*codes, 'numpy.random' in sys.modules)\n"
    )
    lines = _run_python(script)
    preloaded, after = lines[0], lines[-1]
    if preloaded == "True":
        pytest.skip("import numpy alone loads numpy.random (numpy < 2)")
    assert after.split() == [str(EXIT_OK)] * len(runs) + ["False"]


def test_package_exports_what_the_readme_imports():
    # the README's "Library use" import runs, and the package exports
    # nothing else (besides __version__)
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library use", 1)[1]
    start = block.index("from grantprod import (")
    statement = block[start:block.index(")", start) + 1]
    namespace = {}
    exec(statement, namespace)
    imported = {name for name in namespace if name != "__builtins__"}
    exported = {name for name, value in vars(grantprod).items()
                if not name.startswith("_") and not inspect.ismodule(value)}
    assert exported == imported


def test_readme_hyperparameter_table_is_default_hyper():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("| learner ", 1)[1].split("\n\n", 1)[0]
    rows = [line.split("|")[1:3] for line in block.splitlines()[2:]]
    table = {name.strip().strip("`"): value.strip().strip("`") for name, value in rows}
    assert table == {name: repr(hyper) for name, hyper in ml.DEFAULT_HYPER.items()}
