"""Frequency and tf-idf document vectors over a truncated vocabulary.

The weighting uses the ratio-of-logs form (f/n_d) * (log N / log N_w).  The
ratio makes the logarithm base immaterial.  Two degenerate points need care:
a word occurring in every document collapses the ratio to exactly 1, and a
word occurring in a single document would divide by log(1) = 0, so the inner
logarithm is smoothed to log(N_w + 1) in that one case only.  The
conventional log(N / N_w) inverse-document-frequency is available behind the
``idf_variant`` switch for comparison.
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
    pass


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
    """Raw text of the selected field; subject keywords are space-joined."""
    if selector is FieldSelector.SUBJECT:
        return " ".join(record.subject)
    title, abstract = _title_and_abstract(record, language)
    if selector is FieldSelector.ABSTRACT:
        if abstract is None:
            raise MissingFieldError(f"record {record.grant_id} has no {language} abstract")
        return abstract
    if title is None:
        raise MissingFieldError(f"record {record.grant_id} has no {language} title")
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
    if not token_lists:
        raise ValueError("cannot fit a vocabulary on an empty corpus")
    if top_x < 1:
        raise ValueError("top_x must be >= 1")
    totals: Counter[str] = Counter()
    documents: Counter[str] = Counter()
    for tokens in token_lists:
        totals.update(tokens)
        documents.update(set(tokens))
    retained = sorted(totals.items(), key=lambda item: (-item[1], item[0]))[:top_x]
    entries = {word: index for index, (word, _) in enumerate(retained)}
    return Vocabulary(
        entries=entries,
        doc_freq={word: documents[word] for word in entries},
        corpus_size=len(token_lists),
        top_x=top_x,
    )


def fit_vocabulary(
    corpus: Sequence[GrantRecord],
    selector: FieldSelector,
    top_x: int,
    language: str = "pt",
) -> Vocabulary:
    if not corpus:
        raise ValueError("cannot fit a vocabulary on an empty corpus")
    return fit_vocabulary_from_tokens(
        [field_tokens(record, selector, language) for record in corpus], top_x
    )


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
    distinct document frequency.  An empty document gives a zero row.
    """
    matrix = np.zeros((len(token_lists), len(vocabulary)))
    for row, tokens in zip(matrix, token_lists):
        for word, count in Counter(tokens).items():
            index = vocabulary.entries.get(word)
            if index is not None:
                row[index] = count
    if mode is VectorMode.RAW_FREQUENCY:
        return matrix
    doc_freqs = [0] * len(vocabulary)
    for word, index in vocabulary.entries.items():
        doc_freqs[index] = vocabulary.doc_freq[word]
    weights = {
        n_w: tfidf_weight(1, 1, vocabulary.corpus_size, n_w, idf_variant)
        for n_w in set(doc_freqs)
    }
    factors = np.array([weights[n_w] for n_w in doc_freqs], dtype=float)
    # an empty document has only zero counts, so dividing it by 1 keeps it zero
    lengths = np.array([max(len(tokens), 1) for tokens in token_lists], dtype=float)
    matrix /= lengths[:, None]
    matrix *= factors
    return matrix


# ---------------------------------------------------------------------------
# Persistence (UTF-8 TSV: header with N and top_x, then word/index/doc_freq)
# ---------------------------------------------------------------------------

def save_vocabulary(vocabulary: Vocabulary, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f"N={vocabulary.corpus_size}\ttop_x={vocabulary.top_x}\n")
        for word, index in sorted(vocabulary.entries.items(), key=lambda item: item[1]):
            handle.write(f"{word}\t{index}\t{vocabulary.doc_freq[word]}\n")
