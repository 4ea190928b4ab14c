"""Lexical-complexity metrics over a tagged document, assembled in a fixed schema.

Degenerate metrics (e.g. concreteness dispersion with fewer than two scored
tokens) are returned as ``None`` rather than imputed here; the evaluation
layer substitutes training-split medians so that no information leaks across
folds.  Standard deviations are population SDs throughout: a document is the
complete population of its own sentences.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, fields
from enum import Enum
from pathlib import Path
from typing import Iterable, Sequence

from .textproc import (
    LexiconSet,
    PosTag,
    TaggedDocument,
    TaggedToken,
    TokenKind,
    analyze,
    builtin_lexicons,
)

BRUNET_EXPONENT = -0.165


class EmptyDocumentError(ValueError):
    def __init__(self, doc_id: str | None = None):
        name = f" '{doc_id}'" if doc_id else ""
        super().__init__(f"document{name} is empty after normalization")


class DiversityClass(Enum):
    FUNCTION_WORD = "function_word"
    PREPOSITION = "preposition"
    PUNCTUATION = "punctuation"


@dataclass(frozen=True)
class ComplexityVector:
    """One document's metrics; the field order is the column order of every matrix."""

    sentence_count: int  # total number of sentences
    word_count: int  # total number of word tokens
    vocabulary_size: int  # number of distinct word types
    adjective_count: int  # word tokens tagged adjective
    adverb_count: int  # word tokens tagged adverb
    verb_count: int  # word tokens tagged verb
    noun_count: int  # word tokens tagged noun
    noun_ratio: float  # nouns over word tokens
    words_per_sentence: float  # mean word tokens per sentence
    logical_operator_count: int  # tokens in the logical-operator lexicon
    function_word_diversity: float | None  # function-word types over vocabulary size
    preposition_diversity: float | None  # preposition types over vocabulary size
    punctuation_diversity: float | None  # punctuation types over vocabulary size
    noun_sd: float | None  # population SD of nouns per sentence
    brunet_index: float | None  # v ** (n ** -0.165)
    mean_noun_phrase: float | None  # noun-phrase chunks per sentence
    concreteness_sd: float | None  # population SD of concreteness scores
    ne_ratio: float | None  # named-entity spans over word tokens

    def as_row(self) -> tuple:
        return tuple(getattr(self, name) for name in COMPLEXITY_SCHEMA)


COMPLEXITY_SCHEMA: tuple[str, ...] = tuple(f.name for f in fields(ComplexityVector))


def _population_sd(values: Sequence[float]) -> float:
    n = len(values)
    mean = sum(values) / n
    return math.sqrt(sum((v - mean) ** 2 for v in values) / n)


def basic_counts(doc: TaggedDocument) -> dict[str, int | float]:
    """The first nine ComplexityVector fields; punctuation is excluded from word_count."""
    words = doc.word_tokens()
    word_count = len(words)
    noun_count = sum(1 for t in words if t.tag is PosTag.NOUN)
    return {
        "sentence_count": doc.sentence_count,
        "word_count": word_count,
        "vocabulary_size": len({t.token.normalized for t in words}),
        "adjective_count": sum(1 for t in words if t.tag is PosTag.ADJECTIVE),
        "adverb_count": sum(1 for t in words if t.tag is PosTag.ADVERB),
        "verb_count": sum(1 for t in words if t.tag is PosTag.VERB),
        "noun_count": noun_count,
        "noun_ratio": noun_count / word_count if word_count else 0.0,
        "words_per_sentence": word_count / doc.sentence_count if doc.sentence_count else 0.0,
    }


def logical_operator_count(doc: TaggedDocument, lexicons: LexiconSet) -> int:
    """Token count (not type count) of logical-operator lexicon hits."""
    return sum(1 for t in doc.word_tokens() if t.token.normalized in lexicons.logical_operators)


def type_diversity(doc: TaggedDocument, selector: DiversityClass) -> float | None:
    """Distinct types of the selected class over the word-type vocabulary size.

    The denominator is the same for all three selectors.  Punctuation types
    are not a subset of the word vocabulary, so that ratio is clamped at 1.0
    to keep the declared [0, 1] range on degenerate inputs.
    """
    words = doc.word_tokens()
    vocabulary_size = len({t.token.normalized for t in words})
    if vocabulary_size == 0:
        return None
    if selector is DiversityClass.FUNCTION_WORD:
        numerator = len({t.token.normalized for t in words if t.is_function_word})
    elif selector is DiversityClass.PREPOSITION:
        numerator = len({t.token.normalized for t in words if t.tag is PosTag.PREPOSITION})
    else:
        numerator = len(
            {t.token.normalized for t in doc.tokens if t.token.kind is TokenKind.PUNCTUATION}
        )
    return min(1.0, numerator / vocabulary_size)


def _per_sentence_counts(doc: TaggedDocument, predicate) -> list[int]:
    counts = [0] * doc.sentence_count
    for t in doc.tokens:
        if predicate(t):
            counts[t.token.sentence_index] += 1
    return counts


def noun_sd(doc: TaggedDocument) -> float | None:
    """Population SD of per-sentence noun counts."""
    if doc.sentence_count == 0:
        return None
    counts = _per_sentence_counts(
        doc, lambda t: t.token.kind is TokenKind.WORD and t.tag is PosTag.NOUN
    )
    return _population_sd(counts)


def brunet_index(word_count: int, vocabulary_size: int) -> float | None:
    """Lexical diversity: v ** (n ** -0.165)."""
    if word_count == 0:
        return None
    if not 1 <= vocabulary_size <= word_count:
        raise ValueError("vocabulary_size must satisfy 1 <= v <= word_count")
    return vocabulary_size ** (word_count ** BRUNET_EXPONENT)


def _sentence_word_runs(doc: TaggedDocument) -> Iterable[list[TaggedToken]]:
    by_sentence: dict[int, list[TaggedToken]] = {}
    for t in doc.tokens:
        by_sentence.setdefault(t.token.sentence_index, []).append(t)
    for index in sorted(by_sentence):
        yield by_sentence[index]


def _chunk_count(tokens: Sequence[TaggedToken], postnominal_adjectives: bool) -> int:
    count = 0
    i = 0
    n = len(tokens)
    while i < n:
        j = i
        if tokens[j].tag is PosTag.DETERMINER:
            j += 1
        while j < n and tokens[j].tag is PosTag.ADJECTIVE:
            j += 1
        k = j
        while k < n and tokens[k].tag is PosTag.NOUN:
            k += 1
        if k > j:
            if postnominal_adjectives:
                while k < n and tokens[k].tag is PosTag.ADJECTIVE:
                    k += 1
            count += 1
            i = k
        else:
            i += 1
    return count


def mean_noun_phrase(doc: TaggedDocument) -> float | None:
    """Noun-phrase chunks per sentence.

    Chunk pattern: determiner? adjective* noun+, with post-nominal adjectives
    also absorbed for Portuguese, where modifiers typically follow the head.
    """
    if doc.sentence_count == 0:
        return None
    postnominal = doc.language == "pt"
    total = sum(_chunk_count(sentence, postnominal) for sentence in _sentence_word_runs(doc))
    return total / doc.sentence_count


def concreteness_sd(doc: TaggedDocument, lexicons: LexiconSet) -> float | None:
    """Population SD of per-token concreteness scores; None below two scored tokens.

    Tokens absent from the norms are skipped, not imputed: a made-up score
    would manufacture signal.
    """
    scores = [
        lexicons.concreteness[t.token.normalized]
        for t in doc.word_tokens()
        if t.token.normalized in lexicons.concreteness
    ]
    if len(scores) < 2:
        return None
    return _population_sd(scores)


def ne_ratio(doc: TaggedDocument) -> float | None:
    """Named-entity spans over word-token count."""
    words = doc.word_tokens()
    if not words:
        return None
    return doc.entity_span_count / len(words)


def extract_complexity_vector(
    text: str,
    language: str = "pt",
    lexicons: LexiconSet | None = None,
    doc_id: str | None = None,
) -> ComplexityVector:
    """Run the text pipeline and compute all metrics in schema order."""
    if lexicons is None:
        lexicons = builtin_lexicons(language)
    if not text or not text.strip():
        raise EmptyDocumentError(doc_id)
    doc = analyze(text, lexicons)
    counts = basic_counts(doc)
    return ComplexityVector(
        **counts,
        logical_operator_count=logical_operator_count(doc, lexicons),
        function_word_diversity=type_diversity(doc, DiversityClass.FUNCTION_WORD),
        preposition_diversity=type_diversity(doc, DiversityClass.PREPOSITION),
        punctuation_diversity=type_diversity(doc, DiversityClass.PUNCTUATION),
        noun_sd=noun_sd(doc),
        brunet_index=brunet_index(counts["word_count"], counts["vocabulary_size"]),
        mean_noun_phrase=mean_noun_phrase(doc),
        concreteness_sd=concreteness_sd(doc, lexicons),
        ne_ratio=ne_ratio(doc),
    )


def write_feature_csv(
    path: str | Path,
    grant_ids: Sequence[str],
    vectors: Sequence[ComplexityVector],
    header_comment: str | None = None,
) -> None:
    """Feature matrix CSV: grant_id column, schema columns, empty cell = missing."""
    if len(grant_ids) != len(vectors):
        raise ValueError("grant_ids and vectors must align")
    with open(path, "w", newline="", encoding="utf-8") as handle:
        if header_comment:
            handle.write(f"# {header_comment}\n")
        writer = csv.writer(handle)
        writer.writerow(("grant_id",) + COMPLEXITY_SCHEMA)
        for grant_id, vector in zip(grant_ids, vectors):
            row: list = [grant_id]
            for value in vector.as_row():
                row.append("" if value is None else repr(value) if isinstance(value, float) else value)
            writer.writerow(row)
