"""Frequency and tf-idf document vectors over a truncated vocabulary.

The weighting uses the ratio-of-logs form (f/n_d) * (log N / log N_w).  The
ratio makes the logarithm base immaterial.  Two degenerate points need care:
a word occurring in every document collapses the ratio to exactly 1, and a
word occurring in a single document would divide by log(1) = 0, so the inner
logarithm is smoothed to log(N_w + 1) in that one case only.  The
conventional log(N / N_w) inverse-document-frequency is available behind the
``idf_variant`` switch for comparison.

One kernel builds every vector: ``count_documents`` counts each document's
words once (sparse rows over the word types), ``select_columns`` fits a top-X
vocabulary from integer column sums over some rows and ``vectorize_counts``
scatters the selected columns.  Every fold is built from one area's counts;
the token-list entry points ``fit_vocabulary_from_tokens`` and ``vectorize``
count their own token lists and run the same steps over all rows.
"""

from __future__ import annotations

import math
import unicodedata
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Sequence

import numpy as np

from .corpus import GrantRecord
from .textproc import _TOKEN_RE


class FieldSelector(Enum):
    TITLE = "title"
    SUBJECT = "subject"
    TITLE_PLUS_SUBJECT = "title_plus_subject"
    ABSTRACT = "abstract"


class VectorMode(Enum):
    RAW_FREQUENCY = "raw_frequency"
    TFIDF = "tfidf"


class IdfVariant(Enum):
    LOG_RATIO = "log_ratio"        # (log N) / (log N_w)
    LOG_QUOTIENT = "log_quotient"  # log(N / N_w)


class OutOfVocabularyError(KeyError):
    pass


class MissingFieldError(ValueError):
    """A record lacks the text field a feature family reads; ``field`` names it."""

    def __init__(self, grant_id: str, field: str):
        super().__init__(f"record {grant_id} has no {field}")
        self.field = field


@dataclass(frozen=True)
class Vocabulary:
    """Fitted top-X vocabulary with document frequencies."""

    entries: dict[str, int]      # word -> dense index
    doc_freq: dict[str, int]     # word -> number of documents containing it
    corpus_size: int
    top_x: int

    def __post_init__(self):
        if len(self.entries) > self.top_x:
            raise ValueError("vocabulary exceeds its top_x bound")
        if sorted(self.entries.values()) != list(range(len(self.entries))):
            raise ValueError("vocabulary indices must be dense in [0, size)")
        for word in self.entries:
            n_w = self.doc_freq.get(word, 0)
            if not 1 <= n_w <= self.corpus_size:
                raise ValueError(f"doc_freq for '{word}' outside [1, N]")

    def __len__(self) -> int:
        return len(self.entries)


def _title_and_abstract(record: GrantRecord, language: str) -> tuple[str | None, str | None]:
    if language == "pt":
        return record.title_pt, record.abstract_pt
    return record.title_en, record.abstract_en


def field_text(record: GrantRecord, selector: FieldSelector, language: str = "pt") -> str:
    """Raw text of the selected field (subject keywords space-joined); MissingFieldError if none."""
    if selector is FieldSelector.SUBJECT:
        if not record.subject:
            raise MissingFieldError(record.grant_id, "subject keywords")
        return " ".join(record.subject)
    title, abstract = _title_and_abstract(record, language)
    if selector is FieldSelector.ABSTRACT:
        if abstract is None:
            raise MissingFieldError(record.grant_id, f"{language} abstract")
        return abstract
    if title is None:
        raise MissingFieldError(record.grant_id, f"{language} title")
    if selector is FieldSelector.TITLE_PLUS_SUBJECT:
        return " ".join([title] + list(record.subject))
    return title


def document_text(record: GrantRecord, language: str, include_title: bool) -> tuple[str, ...]:
    """Complexity-feature text: the abstract, after the title when asked for and present.

    ``textproc.analyze`` splits the parts into sentences separately, so no
    sentence spans the title and the abstract.
    """
    abstract = field_text(record, FieldSelector.ABSTRACT, language)
    title, _ = _title_and_abstract(record, language)
    return (title, abstract) if include_title and title else (abstract,)


def field_tokens(record: GrantRecord, selector: FieldSelector, language: str = "pt") -> list[str]:
    """Normalized word tokens of the selected field."""
    return text_tokens(field_text(record, selector, language))


def text_tokens(text: str) -> list[str]:
    """Lowercased word tokens of ``text``: the ``normalized`` words of ``textproc.analyze``.

    The text is NFC-normalized first, as ``analyze`` does, so a decomposed
    accent does not split a word in two.
    """
    text = unicodedata.normalize("NFC", text)
    return [w.lower() for w in _TOKEN_RE.findall(text) if w[0].isalpha()]


def fit_vocabulary_from_tokens(token_lists: Sequence[Sequence[str]], top_x: int) -> Vocabulary:
    """Retain the top_x words by total corpus frequency; ties break lexicographically."""
    counts = count_documents(token_lists)
    return counts.vocabulary(select_columns(counts, range(len(token_lists)), top_x))


def tfidf_weight(
    f_wd: int,
    n_d: int,
    corpus_size: int,
    doc_freq: int,
    idf_variant: IdfVariant = IdfVariant.LOG_RATIO,
) -> float:
    """Weight of a word with in-document frequency f_wd in a document of n_d words."""
    if n_d < 1 or corpus_size < 1:
        raise ValueError("n_d and corpus size must be >= 1")
    if doc_freq == 0:
        raise OutOfVocabularyError("word unseen at fit time")
    if not doc_freq <= corpus_size:
        raise ValueError("doc_freq cannot exceed corpus size")
    if f_wd == 0:
        return 0.0
    tf = f_wd / n_d
    if idf_variant is IdfVariant.LOG_QUOTIENT:
        return tf * math.log(corpus_size / doc_freq)
    if doc_freq == corpus_size:
        return tf  # log N / log N == 1 regardless of base
    inner = math.log(2.0) if doc_freq == 1 else math.log(doc_freq)
    return tf * (math.log(corpus_size) / inner)


def vectorize(
    token_lists: Sequence[Sequence[str]],
    vocabulary: Vocabulary,
    mode: VectorMode = VectorMode.TFIDF,
    idf_variant: IdfVariant = IdfVariant.LOG_RATIO,
) -> np.ndarray:
    """Document-by-word matrix: one row per token list, one column per vocabulary index.

    Cell (d, w) is the count of word w in document d, or in TFIDF mode
    ``tfidf_weight(count, n_d, N, doc_freq[w], idf_variant)``, where n_d counts
    every word token of the document, in vocabulary or not.  The weight is
    computed as (count / n_d) times the per-word factor ``tfidf_weight(1, 1,
    ...)``, which performs the same floating-point operations, so the cells
    equal the scalar formula exactly.  The factor is evaluated once per
    distinct document frequency.  An empty document gives a zero row.  The
    token lists are counted and vectorized by ``vectorize_counts``, as folds are.
    """
    counts = count_documents(token_lists)
    return vectorize_counts(
        counts, range(len(token_lists)), counts.selection(vocabulary), mode, idf_variant
    )


def _idf_factors(doc_freq: np.ndarray, corpus_size: int, idf_variant: IdfVariant) -> np.ndarray:
    """``tfidf_weight(1, 1, N, N_w)`` for each N_w, evaluated once per distinct N_w."""
    distinct, inverse = np.unique(doc_freq, return_inverse=True)
    weights = [tfidf_weight(1, 1, corpus_size, n_w, idf_variant) for n_w in distinct.tolist()]
    return np.array(weights, dtype=float)[inverse]


# ---------------------------------------------------------------------------
# Count once, select columns per fold
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class DocumentCounts:
    """Each document's word counts, in compressed sparse rows over the word types.

    Document d's distinct words are the columns ``indices[indptr[d]:indptr[d + 1]]``
    of ``words`` with the counts ``counts[...]``; ``lengths[d]`` is its token
    count, at least 1.  Only the words a document contains are stored, never
    a dense documents-by-types array.
    """

    words: tuple[str, ...]       # the word types, sorted
    indptr: np.ndarray
    indices: np.ndarray
    counts: np.ndarray
    lengths: np.ndarray

    def entries(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(position in ``rows``, column, count) of every stored count of the given rows."""
        starts = self.indptr[rows]
        sizes = self.indptr[rows + 1] - starts
        owner = np.repeat(np.arange(rows.size), sizes)
        # entry j of the gathered run of row i sits at starts[i] + (j - first[i])
        first = np.cumsum(sizes) - sizes
        flat = np.repeat(starts - first, sizes)
        flat += np.arange(owner.size)
        return owner, self.indices[flat], self.counts[flat]

    def vocabulary(self, selection: ColumnSelection) -> Vocabulary:
        """The selected columns as a ``Vocabulary`` over their words."""
        retained = [self.words[column] for column in selection.columns.tolist()]
        return Vocabulary(
            entries={word: index for index, word in enumerate(retained)},
            doc_freq=dict(zip(retained, selection.doc_freq.tolist())),
            corpus_size=selection.corpus_size,
            top_x=selection.top_x,
        )

    def selection(self, vocabulary: Vocabulary) -> ColumnSelection:
        """Inverse of ``vocabulary``: each index's count column, -1 if no document has the word."""
        column_of = {word: column for column, word in enumerate(self.words)}
        retained = sorted(vocabulary.entries, key=vocabulary.entries.__getitem__)
        return ColumnSelection(
            columns=np.array([column_of.get(word, -1) for word in retained], dtype=np.intp),
            doc_freq=np.array([vocabulary.doc_freq[word] for word in retained], dtype=np.int64),
            corpus_size=vocabulary.corpus_size,
            top_x=vocabulary.top_x,
        )


@dataclass(frozen=True, eq=False)
class ColumnSelection:
    """A top-X vocabulary fitted on some rows of a ``DocumentCounts``, as count columns."""

    columns: np.ndarray          # count column of each vocabulary index, -1 if none
    doc_freq: np.ndarray         # N_w of each vocabulary index
    corpus_size: int             # N, the number of rows fitted on
    top_x: int


def count_documents(token_lists: Sequence[Sequence[str]]) -> DocumentCounts:
    """Count every document's words once; folds are then built by column selection."""
    words = tuple(sorted({word for tokens in token_lists for word in tokens}))
    columns = {word: column for column, word in enumerate(words)}
    indptr, indices, counts = [0], [], []
    for tokens in token_lists:
        counter = Counter(tokens)
        indices.extend(map(columns.__getitem__, counter))
        counts.extend(counter.values())
        indptr.append(len(indices))
    return DocumentCounts(
        words=words,
        indptr=np.array(indptr, dtype=np.intp),
        indices=np.array(indices, dtype=np.intp),
        counts=np.array(counts, dtype=np.int64),
        # an empty document has only zero counts, so dividing it by 1 keeps it zero
        lengths=np.array([max(len(tokens), 1) for tokens in token_lists], dtype=float),
    )


def select_columns(counts: DocumentCounts, rows: Sequence[int], top_x: int) -> ColumnSelection:
    """The top_x words of the given rows by total frequency, from column sums of their counts.

    The sums are integers below 2^53, so float64 holds them exactly.  The
    columns are in lexicographic order, so a stable sort on the negated sums
    breaks ties by word.
    """
    rows = np.asarray(rows, dtype=np.intp)
    if rows.size == 0:
        raise ValueError("cannot fit a vocabulary on an empty corpus")
    if top_x < 1:
        raise ValueError("top_x must be >= 1")
    _, columns, values = counts.entries(rows)
    totals = np.bincount(columns, weights=values, minlength=len(counts.words))
    present = np.flatnonzero(totals)
    kept = present[np.argsort(-totals[present], kind="stable")[:top_x]]
    return ColumnSelection(
        columns=kept,
        doc_freq=np.bincount(columns, minlength=len(counts.words))[kept],
        corpus_size=rows.size,
        top_x=top_x,
    )


def vectorize_counts(
    counts: DocumentCounts,
    rows: Sequence[int],
    selection: ColumnSelection,
    mode: VectorMode = VectorMode.TFIDF,
    idf_variant: IdfVariant = IdfVariant.LOG_RATIO,
) -> np.ndarray:
    """The given rows' document-by-word matrix under the selection's vocabulary.

    The selected columns' counts are scattered into a dense rows-by-vocabulary
    array (words outside the vocabulary are dropped), then divided by n_d and
    multiplied by the per-word factors (see ``vectorize``).
    """
    rows = np.asarray(rows, dtype=np.intp)
    index_of = np.full(len(counts.words), -1, dtype=np.intp)
    present = selection.columns >= 0
    index_of[selection.columns[present]] = np.flatnonzero(present)
    owner, indices, values = counts.entries(rows)
    indices = index_of[indices]  # count column -> vocabulary index; rebinding frees the columns
    kept = indices >= 0
    matrix = np.zeros((rows.size, selection.columns.size))
    matrix[owner[kept], indices[kept]] = values[kept]
    if mode is VectorMode.RAW_FREQUENCY:
        return matrix
    matrix /= counts.lengths[rows][:, None]
    matrix *= _idf_factors(selection.doc_freq, selection.corpus_size, idf_variant)
    return matrix


# ---------------------------------------------------------------------------
# Persistence (UTF-8 TSV: header with N and top_x, then word/index/doc_freq)
# ---------------------------------------------------------------------------

def save_vocabulary(vocabulary: Vocabulary, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f"N={vocabulary.corpus_size}\ttop_x={vocabulary.top_x}\n")
        for word, index in sorted(vocabulary.entries.items(), key=lambda item: item[1]):
            handle.write(f"{word}\t{index}\t{vocabulary.doc_freq[word]}\n")
