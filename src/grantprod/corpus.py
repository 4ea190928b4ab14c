"""Grant corpus ingestion, productivity labeling, balancing, and fold assignment."""

from __future__ import annotations

import csv
import json
import re
from dataclasses import dataclass
from enum import Enum, IntEnum
from pathlib import Path
from typing import Iterable, Sequence

from .seeds import SplitMix64

GRANT_ID_PATTERN = re.compile(r"[0-9]+/[0-9]+-[0-9]")  # matched whole, ASCII digits only
_INTEGER_PATTERN = re.compile(r"\s*[+-]?[0-9]+\s*")  # not int()'s "1_0" or non-ASCII digits

REQUIRED_FIELDS = ("grant_id", "title_pt", "abstract_pt", "area", "year", "publication_count")
_TEXT_FIELDS = ("grant_id", "title_pt", "abstract_pt", "area", "title_en", "abstract_en")

HISTOGRAM_THRESHOLDS = tuple(range(2, 9))
MISSING_VALUE = "missing or empty value"  # the reason a required field is rejected for


class Area(Enum):
    MED = "MED"
    DENT = "DENT"
    VET = "VET"
    OTHER = "OTHER"


class Label(IntEnum):
    ZERO_PUBLICATIONS = 0
    PRODUCTIVE = 1


class CorpusError(Exception):
    """Base class for corpus ingestion and protocol failures."""


class MalformedRowError(CorpusError):
    def __init__(self, row_number: int, field: str, reason: str):
        self.row_number = row_number
        self.field = field
        self.reason = reason
        super().__init__(f"row {row_number}, field '{field}': {reason}")


class DuplicateGrantIdError(CorpusError):
    def __init__(self, grant_id: str, row_number: int):
        self.grant_id = grant_id
        self.row_number = row_number
        super().__init__(f"duplicate grant_id '{grant_id}' at row {row_number}; file rejected")


class MissingColumnError(CorpusError):
    def __init__(self, columns: Sequence[str]):
        self.columns = tuple(columns)
        super().__init__(f"missing required column(s): {', '.join(columns)}")


class EmptyCorpusError(CorpusError):
    pass


class EmptyClassError(CorpusError):
    pass


@dataclass(frozen=True)
class GrantRecord:
    """One funded grant: identifiers, bilingual text fields, and output count."""

    grant_id: str
    title_pt: str
    abstract_pt: str
    area: Area
    year: int
    publication_count: int
    title_en: str | None = None
    abstract_en: str | None = None
    subject: tuple[str, ...] = ()

    def __post_init__(self):
        if not GRANT_ID_PATTERN.fullmatch(self.grant_id):
            raise ValueError(f"grant_id '{self.grant_id}' does not match year/number-digit format")
        if self.publication_count < 0:
            raise ValueError("publication_count must be >= 0")


def derive_label(publication_count: int) -> Label:
    """Zero publications vs at least one."""
    if publication_count < 0:
        raise ValueError("publication_count must be >= 0")
    return Label.PRODUCTIVE if publication_count >= 1 else Label.ZERO_PUBLICATIONS


def label_records(records: Iterable[GrantRecord]) -> list[tuple[GrantRecord, Label]]:
    return [(r, derive_label(r.publication_count)) for r in records]


# ---------------------------------------------------------------------------
# Ingestion
# ---------------------------------------------------------------------------

def _parse_subject(value, fmt: str) -> tuple[str, ...]:
    """The keywords, stripped; blank ones are dropped, so a record may have none."""
    if value is None:
        return ()
    if fmt == "csv":
        value = value.split(";")
    elif not isinstance(value, list):
        raise ValueError("subject must be an array")
    elif not all(isinstance(keyword, str) for keyword in value):
        raise ValueError("subject keywords must be strings")
    keywords = (keyword.strip() for keyword in value)
    return tuple(k for k in keywords if k)


def _integer(mapping: dict, field: str, row_number: int) -> int:
    """A JSON integer, or a string of ASCII digits with an optional sign (CSV gives only strings)."""
    value = mapping[field]
    if isinstance(value, str):
        if not _INTEGER_PATTERN.fullmatch(value):
            raise MalformedRowError(row_number, field, f"'{value}' is not an integer")
        return int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise MalformedRowError(row_number, field, f"{json.dumps(value)} is not an integer")


def _record_from_mapping(mapping: dict, row_number: int, fmt: str) -> GrantRecord:
    """One record from a row; every value is a string, except JSON integers for the counts."""
    if None in mapping:  # csv.DictReader files the cells past the header under None
        columns = len(mapping) - 1
        reason = f"{columns + len(mapping[None])} cells for {columns} columns"
        raise MalformedRowError(row_number, "<row>", reason)
    for field in REQUIRED_FIELDS:
        value = mapping.get(field)
        if value is None or isinstance(value, str) and not value.strip():
            raise MalformedRowError(row_number, field, MISSING_VALUE)
    for field in _TEXT_FIELDS:
        value = mapping.get(field)
        if value is not None and not isinstance(value, str):
            raise MalformedRowError(row_number, field, f"{json.dumps(value)} is not a string")

    grant_id = mapping["grant_id"].strip()
    if not GRANT_ID_PATTERN.fullmatch(grant_id):
        raise MalformedRowError(row_number, "grant_id", f"'{grant_id}' does not match year/number-digit format")

    try:
        area = Area(mapping["area"].strip())
    except ValueError:
        raise MalformedRowError(row_number, "area", f"unknown area '{mapping['area']}'") from None

    year = _integer(mapping, "year", row_number)
    publication_count = _integer(mapping, "publication_count", row_number)
    if publication_count < 0:
        raise MalformedRowError(row_number, "publication_count", "must be >= 0")

    try:
        subject = _parse_subject(mapping.get("subject"), fmt)
    except ValueError as exc:
        raise MalformedRowError(row_number, "subject", str(exc)) from None

    def optional_text(key):
        value = mapping.get(key)
        if value is None:
            return None
        return value.strip() or None

    return GrantRecord(
        grant_id=grant_id,
        title_pt=mapping["title_pt"].strip(),
        abstract_pt=mapping["abstract_pt"].strip(),
        area=area,
        year=year,
        publication_count=publication_count,
        title_en=optional_text("title_en"),
        abstract_en=optional_text("abstract_en"),
        subject=subject,
    )


def _iter_rows(path: Path, fmt: str):
    """Yield (row_number, row) pairs, numbered from 1: a CSV row dict or a non-blank JSONL line."""
    if fmt == "csv":
        with open(path, newline="", encoding="utf-8-sig") as handle:
            reader = csv.DictReader(handle)
            header = reader.fieldnames or []
            missing = [c for c in REQUIRED_FIELDS if c not in header]
            if missing:
                raise MissingColumnError(missing)
            repeated = sorted({c for c in header if header.count(c) > 1})
            if repeated:
                raise CorpusError(f"repeated column(s): {', '.join(repeated)}; file rejected")
            yield from enumerate(reader, start=1)
    elif fmt == "jsonl":
        with open(path, encoding="utf-8-sig") as handle:
            for row_number, line in enumerate(handle, start=1):
                line = line.strip()
                if line:
                    yield row_number, line
    else:
        raise ValueError(f"unknown corpus format '{fmt}' (expected 'csv' or 'jsonl')")


def _distinct_keys(pairs: list) -> dict:
    """The object_pairs_hook of a JSONL row: a key named twice raises KeyError(key)."""
    mapping = dict(pairs)
    if len(mapping) < len(pairs):
        keys = [key for key, _ in pairs]
        raise KeyError(next(key for key in keys if keys.count(key) > 1))
    return mapping


def _json_object(line: str, row_number: int) -> dict:
    """One JSONL line's object; a key named twice in any object on the line raises."""
    try:
        mapping = json.loads(line, object_pairs_hook=_distinct_keys)
    except json.JSONDecodeError as exc:
        raise MalformedRowError(row_number, "<line>", f"invalid JSON: {exc}") from None
    except KeyError as exc:
        raise MalformedRowError(row_number, exc.args[0], "key appears more than once") from None
    if not isinstance(mapping, dict):
        raise MalformedRowError(row_number, "<line>", "line is not a JSON object")
    return mapping


@dataclass
class ValidationReport:
    """Outcome of a lenient scan: accepted records plus rejected rows with reasons."""

    records: list[GrantRecord]
    rejected: list[tuple[int, str, str]]  # (row number, field, reason)


def _read_records(
    path: str | Path, fmt: str, rejected: list[tuple[int, str, str]] | None
) -> list[GrantRecord]:
    """The record loop of both loaders.

    A malformed row raises unless ``rejected`` collects it as (row number,
    field, reason).  A header that lacks or repeats a column always raises,
    and so does a duplicate grant id: duplicated instances would bias
    cross-validation.  Text that is not UTF-8 raises a CorpusError naming
    the file; the file is decoded in chunks, so no row number is known.
    """
    records: list[GrantRecord] = []
    seen: set[str] = set()
    try:
        for row_number, row in _iter_rows(Path(path), fmt):
            try:
                mapping = _json_object(row, row_number) if fmt == "jsonl" else row
                record = _record_from_mapping(mapping, row_number, fmt)
            except MalformedRowError as exc:
                if rejected is None:
                    raise
                rejected.append((exc.row_number, exc.field, exc.reason))
                continue
            if record.grant_id in seen:
                raise DuplicateGrantIdError(record.grant_id, row_number)
            seen.add(record.grant_id)
            records.append(record)
    except UnicodeDecodeError as exc:
        raise CorpusError(f"{path}: not UTF-8 text ({exc.reason})") from None
    return records


def scan_corpus_file(path: str | Path, fmt: str) -> ValidationReport:
    """Lenient ingestion: collect well-formed records, list malformed rows."""
    rejected: list[tuple[int, str, str]] = []
    records = _read_records(path, fmt, rejected)
    return ValidationReport(records=records, rejected=rejected)


def load_corpus(path: str | Path, fmt: str) -> list[GrantRecord]:
    """Strict ingestion: any malformed row raises, naming the row and field."""
    return _read_records(path, fmt, rejected=None)


def record_to_dict(record: GrantRecord) -> dict:
    return {
        "grant_id": record.grant_id,
        "title_pt": record.title_pt,
        "abstract_pt": record.abstract_pt,
        "title_en": record.title_en,
        "abstract_en": record.abstract_en,
        "subject": list(record.subject),
        "area": record.area.value,
        "year": record.year,
        "publication_count": record.publication_count,
    }


def write_canonical(records: Iterable[GrantRecord], path: str | Path) -> None:
    """Write records as canonical JSONL (one object per line, fixed key order)."""
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record_to_dict(record), ensure_ascii=False))
            handle.write("\n")


def write_csv(
    path: str | Path, comments: Iterable[str], header: Sequence[str], rows: Iterable[Sequence]
) -> None:
    """One ``# `` line per comment, then the header and the rows; every line ends in LF."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        for comment in comments:
            handle.write(f"# {comment}\n")
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


# ---------------------------------------------------------------------------
# Dataset statistics
# ---------------------------------------------------------------------------

def productivity_histogram(records: Sequence[GrantRecord]) -> tuple[tuple[int, float], ...]:
    """Fraction of grants with at least n publications, for n in 2..8."""
    if not records:
        raise EmptyCorpusError("productivity histogram of an empty corpus")
    total = len(records)
    return tuple(
        (n, sum(1 for r in records if r.publication_count >= n) / total)
        for n in HISTOGRAM_THRESHOLDS
    )


# ---------------------------------------------------------------------------
# Balancing and folds
# ---------------------------------------------------------------------------

def balanced_resample(labeled: Sequence[tuple[GrantRecord, Label]], seed: int) -> list[int]:
    """Undersample the majority class to equal counts; the kept rows of ``labeled``, sorted.

    Every minority instance is kept; a seeded subset of the majority class of
    the same size is drawn without replacement.  Normally the minority class
    is the productive one; if positives outnumber negatives the roles swap.
    """
    pos = [i for i, (_, label) in enumerate(labeled) if label is Label.PRODUCTIVE]
    neg = [i for i, (_, label) in enumerate(labeled) if label is Label.ZERO_PUBLICATIONS]
    if not pos or not neg:
        raise EmptyClassError("balanced resample requires at least one instance of each class")

    minority, majority = (pos, neg) if len(pos) <= len(neg) else (neg, pos)
    rng = SplitMix64(seed)
    chosen = rng.sample_indices(len(majority), len(minority))
    return sorted(minority + [majority[j] for j in chosen])


def stratified_fold_indices(labels: Sequence[int], k: int, seed: int) -> list[int]:
    """Core stratified assignment over integer labels; returns fold per instance.

    Per class, members are shuffled and dealt into folds so that class counts
    per fold differ by at most one; leftover instances go to the folds with
    the smallest running totals, which bounds overall fold-size skew at one.
    """
    n = len(labels)
    if k < 2:
        raise ValueError("k must be at least 2")
    if n < k:
        raise ValueError(f"dataset of size {n} is smaller than k={k}")

    assignment = [0] * n
    totals = [0] * k
    rng = SplitMix64(seed)
    for cls in sorted(set(labels)):
        members = [i for i, lab in enumerate(labels) if lab == cls]
        rng.shuffle(members)
        base, extra = divmod(len(members), k)
        per_fold = [base] * k
        for fold in sorted(range(k), key=lambda f: (totals[f], f))[:extra]:
            per_fold[fold] += 1
        cursor = 0
        for fold in range(k):
            for i in members[cursor:cursor + per_fold[fold]]:
                assignment[i] = fold
            cursor += per_fold[fold]
            totals[fold] += per_fold[fold]
    return assignment

