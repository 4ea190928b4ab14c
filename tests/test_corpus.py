import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grantprod.corpus import (
    Area,
    CorpusError,
    DuplicateGrantIdError,
    EmptyClassError,
    EmptyCorpusError,
    GrantRecord,
    Label,
    MalformedRowError,
    MissingColumnError,
    balanced_resample,
    derive_label,
    label_records,
    load_corpus,
    productivity_histogram,
    scan_corpus_file,
    stratified_fold_indices,
    write_canonical,
)
from grantprod.ml import _SALT_RESAMPLE
from grantprod.seeds import derive_seed

HEADER = "grant_id,title_pt,abstract_pt,area,year,publication_count\n"


def make_record(i, pubs=0, area=Area.MED):
    return GrantRecord(
        grant_id=f"2006/{50000 + i:05d}-{i % 10}",
        title_pt=f"Titulo {i}",
        abstract_pt=f"Resumo numero {i}.",
        area=area,
        year=2006,
        publication_count=pubs,
    )


def labeled_corpus(n_pos, n_neg):
    records = [make_record(i, pubs=1) for i in range(n_pos)]
    records += [make_record(1000 + i, pubs=0) for i in range(n_neg)]
    return label_records(records)


# ---------------------------------------------------------------------------
# records and loading
# ---------------------------------------------------------------------------

def test_grant_id_pattern_enforced():
    with pytest.raises(ValueError):
        GrantRecord(grant_id="not-an-id", title_pt="t", abstract_pt="a",
                    area=Area.MED, year=2000, publication_count=0)


def test_negative_publication_count_rejected():
    with pytest.raises(ValueError):
        GrantRecord(grant_id="2000/00001-0", title_pt="t", abstract_pt="a",
                    area=Area.MED, year=2000, publication_count=-1)


def test_load_header_only_csv(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text(HEADER)
    assert load_corpus(path, "csv") == []


def test_load_three_rows_preserves_order(tmp_path):
    path = tmp_path / "three.csv"
    path.write_text(
        HEADER
        + "2001/00001-1,T1,Resumo um.,MED,2001,0\n"
        + "2001/00002-2,T2,Resumo dois.,DENT,2001,3\n"
        + "2001/00003-3,T3,Resumo tres.,VET,2001,1\n"
    )
    records = load_corpus(path, "csv")
    assert [r.grant_id for r in records] == ["2001/00001-1", "2001/00002-2", "2001/00003-3"]
    assert records[1].publication_count == 3
    assert records[2].area is Area.VET


def test_negative_count_row_names_field(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(HEADER + '2001/00001-1,T1,Resumo.,MED,2001,-1\n')
    with pytest.raises(MalformedRowError) as excinfo:
        load_corpus(path, "csv")
    assert excinfo.value.field == "publication_count"
    assert excinfo.value.row_number == 1


def test_duplicate_grant_id_rejects_file(tmp_path):
    path = tmp_path / "dup.csv"
    path.write_text(
        HEADER
        + "2001/00001-1,T1,Resumo.,MED,2001,0\n"
        + "2001/00001-1,T2,Resumo.,MED,2001,1\n"
    )
    with pytest.raises(DuplicateGrantIdError):
        load_corpus(path, "csv")
    with pytest.raises(DuplicateGrantIdError):
        scan_corpus_file(path, "csv")


def test_strict_load_raises_at_first_malformed_row_before_later_duplicate(tmp_path):
    path = tmp_path / "bad_then_dup.csv"
    path.write_text(
        HEADER
        + "2001/00001-1,T1,Resumo.,MED,2001,0\n"
        + "2001/00002-2,T2,Resumo.,MED,2001,nope\n"  # bad count
        + "2001/00001-1,T3,Resumo.,MED,2001,1\n"     # duplicate id
    )
    with pytest.raises(MalformedRowError) as excinfo:
        load_corpus(path, "csv")
    assert (excinfo.value.row_number, excinfo.value.field) == (2, "publication_count")
    with pytest.raises(DuplicateGrantIdError) as excinfo:
        scan_corpus_file(path, "csv")  # lenient: row 2 is listed, row 3 still rejects the file
    assert excinfo.value.row_number == 3


def test_missing_required_column(tmp_path):
    path = tmp_path / "miss.csv"
    path.write_text("grant_id,title_pt,area,year,publication_count\n")
    with pytest.raises(MissingColumnError) as excinfo:
        load_corpus(path, "csv")
    assert "abstract_pt" in excinfo.value.columns


@pytest.mark.parametrize("header, row, named", [
    (HEADER[:-1] + ",grant_id", "2001/00001-1,T,Resumo.,MED,2001,1,2011/00002-2", "grant_id"),
    ("year,grant_id,title_pt,abstract_pt,year,area,publication_count,title_pt",
     "2001,2001/00001-1,T,Resumo.,2001,MED,1,T2", "title_pt, year"),
], ids=["one", "two"])
def test_repeated_column_rejects_file(tmp_path, header, row, named):
    # csv.DictReader would keep only the last cell of a repeated column
    path = tmp_path / "repeated.csv"
    path.write_text(header + "\n" + row + "\n")
    for read in (load_corpus, scan_corpus_file):
        with pytest.raises(CorpusError, match=rf"^repeated column\(s\): {named}; file rejected$"):
            read(path, "csv")


JSONL_ROW = {"grant_id": "2001/00001-1", "title_pt": "T", "abstract_pt": "Resumo.",
             "area": "MED", "year": 2001, "publication_count": 0}


@pytest.mark.parametrize("fmt, line, field, reason", [
    # csv.DictReader files the cells past the header under None
    ("csv", "2001/00002-2,T,Resumo.,MED,2001,1,stray,cells", "<row>", "8 cells for 6 columns"),
    ("csv", '2001/00002-2,T,Resumo.,MED,2001,1,""', "<row>", "7 cells for 6 columns"),
    # json.loads keeps the last value of a key named twice, here flipping the label
    ("jsonl",
     json.dumps({**JSONL_ROW, "grant_id": "2001/00002-2"})[:-1] + ', "publication_count": 3}',
     "publication_count", "key appears more than once"),
    # the hook sees every object on the line, so a nested repeat rejects the row too
    ("jsonl",
     json.dumps({**JSONL_ROW, "grant_id": "2001/00002-2"})[:-1] + ', "extra": {"k": 1, "k": 2}}',
     "k", "key appears more than once"),
    ("jsonl", '{"grant_id": "2001/00002-2"', "<line>",
     "invalid JSON: Expecting ',' delimiter: line 1 column 28 (char 27)"),
    ("jsonl", '["2001/00002-2"]', "<line>", "line is not a JSON object"),
], ids=["csv-extra-cells", "csv-empty-extra-cell", "jsonl-repeated-key",
        "jsonl-nested-repeated-key", "jsonl-invalid", "jsonl-array"])
def test_row_that_would_lose_a_cell_or_key_is_rejected(tmp_path, fmt, line, field, reason):
    path = tmp_path / f"c.{fmt}"
    first = HEADER + "2001/00001-1,T,Resumo.,MED,2001,0" if fmt == "csv" else json.dumps(JSONL_ROW)
    path.write_text(first + "\n" + line + "\n")
    with pytest.raises(MalformedRowError) as excinfo:
        load_corpus(path, fmt)
    error = excinfo.value
    assert (error.row_number, error.field, error.reason) == (2, field, reason)
    report = scan_corpus_file(path, fmt)  # lenient: listed, and the other rows still load
    assert [r.grant_id for r in report.records] == ["2001/00001-1"]
    assert report.rejected == [(2, field, reason)]


def test_scan_collects_rejects(tmp_path):
    path = tmp_path / "mixed.csv"
    path.write_text(
        HEADER
        + "2001/00001-1,T1,Resumo.,MED,2001,0\n"
        + "2001/00002-2,T2,,MED,2001,0\n"          # empty abstract
        + "2001/00003-3,T3,Resumo.,MED,2001,nope\n"  # bad count
    )
    report = scan_corpus_file(path, "csv")
    assert len(report.records) == 1
    assert [(row, field) for row, field, _ in report.rejected] == [
        (2, "abstract_pt"), (3, "publication_count")
    ]


def test_jsonl_roundtrip(tmp_path):
    records = [make_record(i, pubs=i % 2, area=Area.DENT) for i in range(4)]
    path = tmp_path / "c.jsonl"
    write_canonical(records, path)
    loaded = load_corpus(path, "jsonl")
    assert loaded == records
    first = json.loads(path.read_text().splitlines()[0])
    assert isinstance(first["subject"], list)


def test_csv_subject_is_semicolon_joined(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text(
        "grant_id,title_pt,abstract_pt,area,year,publication_count,subject\n"
        "2001/00001-1,T,Resumo.,MED,2001,0,alpha;beta\n"
    )
    [record] = load_corpus(path, "csv")
    assert record.subject == ("alpha", "beta")


@pytest.mark.parametrize("fmt, subject", [
    ("csv", '" alpha ; ;beta"'),
    ("jsonl", '[" alpha ", " ", "beta"]'),
    ("csv", '" ; "'),
    ("jsonl", '["", " "]'),
])
def test_blank_subject_keywords_are_dropped(tmp_path, fmt, subject):
    # a record whose keywords are all blank has none, in either format
    path = tmp_path / f"s.{fmt}"
    if fmt == "csv":
        path.write_text(
            "grant_id,title_pt,abstract_pt,area,year,publication_count,subject\n"
            f"2001/00001-1,T,Resumo.,MED,2001,0,{subject}\n"
        )
    else:
        path.write_text(
            '{"grant_id": "2001/00001-1", "title_pt": "T", "abstract_pt": "Resumo.", '
            f'"area": "MED", "year": 2001, "publication_count": 0, "subject": {subject}}}\n'
        )
    [record] = load_corpus(path, fmt)
    assert record.subject == (("alpha", "beta") if "alpha" in subject else ())


@pytest.mark.parametrize("field, value", [
    ("publication_count", 1.9),
    ("publication_count", True),
    ("publication_count", 1.0),
    ("year", 2019.7),
    ("grant_id", 2001),
    ("title_pt", 5),
    ("abstract_pt", ["Resumo."]),
    ("area", 1),
    ("title_en", 7),
    ("abstract_en", {"text": "Summary."}),
    ("subject", ["alpha", 3]),
])
def test_jsonl_value_of_another_type_is_rejected_not_coerced(tmp_path, field, value):
    path = tmp_path / "c.jsonl"
    bad = {**JSONL_ROW, "grant_id": "2001/00002-2", field: value}
    path.write_text(json.dumps(JSONL_ROW) + "\n" + json.dumps(bad) + "\n")
    with pytest.raises(MalformedRowError) as excinfo:
        load_corpus(path, "jsonl")
    assert (excinfo.value.row_number, excinfo.value.field) == (2, field)
    report = scan_corpus_file(path, "jsonl")
    assert [r.grant_id for r in report.records] == ["2001/00001-1"]
    assert [(row, name) for row, name, _ in report.rejected] == [(2, field)]


def test_jsonl_counts_may_be_integer_strings(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text(json.dumps({**JSONL_ROW, "year": "2001", "publication_count": " 3"}) + "\n")
    [record] = load_corpus(path, "jsonl")
    assert (record.year, record.publication_count) == (2001, 3)


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_utf8_byte_order_mark_is_read_as_no_text(tmp_path, fmt):
    # spreadsheet "CSV UTF-8" exports start the file with one
    path = tmp_path / f"bom.{fmt}"
    body = HEADER + "2001/00001-1,T,Resumo.,MED,2001,0\n" if fmt == "csv" else json.dumps(JSONL_ROW) + "\n"
    path.write_bytes(b"\xef\xbb\xbf" + body.encode("utf-8"))
    [record] = load_corpus(path, fmt)
    assert record.grant_id == "2001/00001-1"


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_text_that_is_not_utf8_rejects_the_file_naming_it(tmp_path, fmt):
    path = tmp_path / f"latin1.{fmt}"
    body = (HEADER + "2001/00001-1,T,Resumo técnico.,MED,2001,0\n" if fmt == "csv"
            else json.dumps({**JSONL_ROW, "abstract_pt": "Resumo técnico."}, ensure_ascii=False))
    path.write_bytes(body.encode("latin-1"))
    for load in (load_corpus, scan_corpus_file):
        with pytest.raises(CorpusError, match="not UTF-8") as info:
            load(path, fmt)
        assert str(path) in str(info.value)


# ---------------------------------------------------------------------------
# labels and histogram
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("count,expected", [
    (0, Label.ZERO_PUBLICATIONS),
    (1, Label.PRODUCTIVE),
    (7, Label.PRODUCTIVE),
], ids=lambda value: f"Label.{value.name}" if isinstance(value, Label) else None)
def test_derive_label(count, expected):
    assert derive_label(count) is expected


def test_derive_label_rejects_negative():
    with pytest.raises(ValueError):
        derive_label(-1)


def test_histogram_direct_count():
    records = [make_record(i, pubs=c) for i, c in enumerate([0, 0, 0, 0, 0, 1, 1, 1, 2, 2])]
    table = dict(productivity_histogram(records))
    assert table[2] == pytest.approx(0.2)


def test_histogram_all_zero():
    records = [make_record(i, pubs=0) for i in range(5)]
    assert all(frac == 0.0 for _, frac in productivity_histogram(records))


def test_histogram_boundary():
    records = [make_record(i, pubs=3) for i in range(4)]
    table = dict(productivity_histogram(records))
    assert table[2] == 1.0 and table[3] == 1.0 and table[4] == 0.0


def test_histogram_empty_corpus():
    with pytest.raises(EmptyCorpusError):
        productivity_histogram([])


def test_histogram_monotone_property():
    records = [make_record(i, pubs=i % 9) for i in range(40)]
    fractions = [frac for _, frac in productivity_histogram(records)]
    assert all(a >= b for a, b in zip(fractions, fractions[1:]))


# ---------------------------------------------------------------------------
# balancing
# ---------------------------------------------------------------------------

def resample_labels(labeled, rows):
    return [labeled[i][1] for i in rows]


def test_balanced_resample_counts():
    labeled = labeled_corpus(5, 20)
    rows = balanced_resample(labeled, seed=42)
    labels = resample_labels(labeled, rows)
    assert len(rows) == 10
    assert labels.count(Label.PRODUCTIVE) == 5
    assert labels.count(Label.ZERO_PUBLICATIONS) == 5


def test_balanced_resample_no_sampling_needed():
    labeled = labeled_corpus(5, 5)
    for seed in (0, 1, 99):
        rows = balanced_resample(labeled, seed)
        assert len(rows) == 10
        assert rows == list(range(10))


def test_balanced_resample_determinism_and_variation():
    labeled = labeled_corpus(5, 40)
    first = balanced_resample(labeled, seed=1)
    again = balanced_resample(labeled, seed=1)
    other = balanced_resample(labeled, seed=2)
    assert first == again
    assert first != other


def test_balanced_resample_keeps_every_positive_once():
    labeled = labeled_corpus(7, 30)
    rows = balanced_resample(labeled, seed=5)
    positives = [labeled[i][0].grant_id for i in rows if labeled[i][1] is Label.PRODUCTIVE]
    expected = [record.grant_id for record, label in labeled if label is Label.PRODUCTIVE]
    assert sorted(positives) == sorted(expected)


def test_balanced_resample_role_swap():
    labeled = labeled_corpus(12, 4)
    labels = resample_labels(labeled, balanced_resample(labeled, seed=3))
    assert labels.count(Label.PRODUCTIVE) == 4
    assert labels.count(Label.ZERO_PUBLICATIONS) == 4


def test_balanced_resample_empty_class():
    with pytest.raises(EmptyClassError):
        balanced_resample(label_records([make_record(0, pubs=1)]), seed=0)


@settings(max_examples=40, deadline=None)
@given(n_pos=st.integers(1, 12), n_neg=st.integers(1, 30), seed=st.integers(0, 2**40))
def test_balanced_resample_equal_cardinality_property(n_pos, n_neg, seed):
    labeled = labeled_corpus(n_pos, n_neg)
    rows = balanced_resample(labeled, seed)
    labels = resample_labels(labeled, rows)
    assert labels.count(Label.PRODUCTIVE) == labels.count(Label.ZERO_PUBLICATIONS)
    assert len(set(rows)) == len(rows)


def test_pipeline_resamples():
    # the resamples that cross_validate and relevance_over_resamples evaluate
    labeled = labeled_corpus(4, 16)
    seeds = [derive_seed(8, _SALT_RESAMPLE, r) for r in range(10)]
    resamples = [balanced_resample(labeled, seed) for seed in seeds]
    for rows in resamples:
        labels = resample_labels(labeled, rows)
        assert labels.count(Label.PRODUCTIVE) == labels.count(Label.ZERO_PUBLICATIONS) == 4
    assert balanced_resample(labeled, seeds[0]) == resamples[0]
    assert len({tuple(rows) for rows in resamples}) > 1


# ---------------------------------------------------------------------------
# folds
# ---------------------------------------------------------------------------

def fold_sizes(assignment, k):
    return [sum(1 for f in assignment if f == fold) for fold in range(k)]


def fold_indices(assignment, fold):
    return [i for i, f in enumerate(assignment) if f == fold]


def int_labels(labeled):
    return [label.value for _, label in labeled]


def test_kfold_balanced_20_k10():
    labeled = labeled_corpus(10, 10)
    resample = [labeled[i] for i in balanced_resample(labeled, seed=0)]
    folds = stratified_fold_indices(int_labels(resample), k=10, seed=1)
    assert fold_sizes(folds, 10) == [2] * 10
    labels = [label for _, label in resample]
    for fold in range(10):
        members = [labels[i] for i in fold_indices(folds, fold)]
        assert members.count(Label.PRODUCTIVE) == 1


def test_kfold_leave_one_out():
    labeled = labeled_corpus(10, 10)
    resample = [labeled[i] for i in balanced_resample(labeled, seed=0)]
    folds = stratified_fold_indices(int_labels(resample), k=20, seed=1)
    assert fold_sizes(folds, 20) == [1] * 20


def test_kfold_21_instances():
    labeled = labeled_corpus(11, 10)
    folds = stratified_fold_indices(int_labels(labeled), k=10, seed=4)
    sizes = sorted(fold_sizes(folds, 10))
    assert sizes == [2] * 9 + [3]


def test_kfold_too_small():
    with pytest.raises(ValueError):
        stratified_fold_indices(int_labels(labeled_corpus(2, 2)), k=10, seed=0)


@settings(max_examples=40, deadline=None)
@given(n_pos=st.integers(3, 25), n_neg=st.integers(3, 25),
       k=st.integers(2, 6), seed=st.integers(0, 2**40))
def test_kfold_partition_properties(n_pos, n_neg, k, seed):
    labeled = labeled_corpus(n_pos, n_neg)
    if len(labeled) < k:
        return
    folds = stratified_fold_indices(int_labels(labeled), k=k, seed=seed)
    assert len(folds) == len(labeled)                      # partition: total coverage
    sizes = fold_sizes(folds, k)
    assert sum(sizes) == len(labeled)
    assert max(sizes) - min(sizes) <= 1                    # size skew
    labels = [label for _, label in labeled]
    for fold in range(k):
        pos = sum(1 for i in fold_indices(folds, fold) if labels[i] is Label.PRODUCTIVE)
        # per-class counts differ by at most one across folds (stratification)
        other_pos = [
            sum(1 for i in fold_indices(folds, g) if labels[i] is Label.PRODUCTIVE)
            for g in range(k)
        ]
        assert max(other_pos) - min(other_pos) <= 1


def test_kfold_deterministic():
    labeled = labeled_corpus(9, 9)
    a = stratified_fold_indices(int_labels(labeled), k=3, seed=77)
    b = stratified_fold_indices(int_labels(labeled), k=3, seed=77)
    c = stratified_fold_indices(int_labels(labeled), k=3, seed=78)
    assert a == b
    assert a != c
