"""Reference definitions of the complexity metrics, one function per metric.

The oracle for the single loop of ``extract_complexity_vector``: each
function reads a ``TaggedDocument`` on its own, so each field of a
``ComplexityVector`` can be checked against an independent computation.
``complexity_vectors`` and ``write_feature_csv`` are the former export,
which wrote one ``ComplexityVector`` per record: the oracle of the matrix
writer ``complexity.write_feature_csv``.
"""

from __future__ import annotations

from enum import Enum
from pathlib import Path
from typing import Iterable, Sequence

from grantprod.complexity import (
    COMPLEXITY_SCHEMA,
    ComplexityVector,
    _population_sd,
    brunet_index,
    extract_complexity_vector,
)
from grantprod.corpus import GrantRecord, write_csv
from grantprod.textproc import (
    LexiconSet,
    PosTag,
    TaggedDocument,
    Token,
    TokenKind,
    analyze,
    builtin_lexicons,
)
from grantprod.topical import document_text

from _textproc_oracle import word_tokens


class DiversityClass(Enum):
    FUNCTION_WORD = "function_word"
    PREPOSITION = "preposition"
    PUNCTUATION = "punctuation"


def basic_counts(doc: TaggedDocument) -> dict[str, int | float | None]:
    """The first nine ComplexityVector fields; punctuation is excluded from word_count."""
    words = word_tokens(doc)
    word_count = len(words)
    noun_count = sum(1 for t in words if t.tag is PosTag.NOUN)
    return {
        "sentence_count": doc.sentence_count,
        "word_count": word_count,
        "vocabulary_size": len({t.normalized for t in words}),
        "adjective_count": sum(1 for t in words if t.tag is PosTag.ADJECTIVE),
        "adverb_count": sum(1 for t in words if t.tag is PosTag.ADVERB),
        "verb_count": sum(1 for t in words if t.tag is PosTag.VERB),
        "noun_count": noun_count,
        "noun_ratio": noun_count / word_count if word_count else None,
        "words_per_sentence": word_count / doc.sentence_count if doc.sentence_count else 0.0,
    }


def logical_operator_count(doc: TaggedDocument, lexicons: LexiconSet) -> int:
    """Token count (not type count) of logical-operator lexicon hits."""
    return sum(1 for t in word_tokens(doc) if t.normalized in lexicons.logical_operators)


def type_diversity(doc: TaggedDocument, selector: DiversityClass) -> float | None:
    """Distinct types of the selected class over the word-type vocabulary size.

    The denominator is the same for all three selectors.  Punctuation types
    are not a subset of the word vocabulary, so that ratio is clamped at 1.0
    to keep the declared [0, 1] range on degenerate inputs.
    """
    words = word_tokens(doc)
    vocabulary_size = len({t.normalized for t in words})
    if vocabulary_size == 0:
        return None
    if selector is DiversityClass.FUNCTION_WORD:
        numerator = len({t.normalized for t in words if t.is_function_word})
    elif selector is DiversityClass.PREPOSITION:
        numerator = len({t.normalized for t in words if t.tag is PosTag.PREPOSITION})
    else:
        numerator = len(
            {t.normalized for t in doc.tokens if t.kind is TokenKind.PUNCTUATION}
        )
    return min(1.0, numerator / vocabulary_size)


def _per_sentence_counts(doc: TaggedDocument, predicate) -> list[int]:
    counts = [0] * doc.sentence_count
    for t in doc.tokens:
        if predicate(t):
            counts[t.sentence_index] += 1
    return counts


def noun_sd(doc: TaggedDocument) -> float | None:
    """Population SD of per-sentence noun counts."""
    if doc.sentence_count == 0:
        return None
    counts = _per_sentence_counts(
        doc, lambda t: t.kind is TokenKind.WORD and t.tag is PosTag.NOUN
    )
    return _population_sd(counts)


def _sentence_word_runs(doc: TaggedDocument) -> Iterable[list[Token]]:
    by_sentence: dict[int, list[Token]] = {}
    for t in doc.tokens:
        by_sentence.setdefault(t.sentence_index, []).append(t)
    for index in sorted(by_sentence):
        yield by_sentence[index]


def _chunk_count(tags: Sequence[PosTag], postnominal_adjectives: bool) -> int:
    """Noun-phrase chunks of one sentence's tags, by a left-to-right scan."""
    count = 0
    i = 0
    n = len(tags)
    while i < n:
        j = i
        if tags[j] is PosTag.DETERMINER:
            j += 1
        while j < n and tags[j] is PosTag.ADJECTIVE:
            j += 1
        k = j
        while k < n and tags[k] is PosTag.NOUN:
            k += 1
        if k > j:
            if postnominal_adjectives:
                while k < n and tags[k] is PosTag.ADJECTIVE:
                    k += 1
            count += 1
            i = k
        else:
            i += 1
    return count


def mean_noun_phrase(doc: TaggedDocument, lexicons: LexiconSet) -> float | None:
    """Noun-phrase chunks per sentence.

    Chunk pattern: determiner? adjective* noun+, with post-nominal adjectives
    also absorbed for Portuguese, where modifiers typically follow the head.
    """
    if doc.sentence_count == 0:
        return None
    postnominal = lexicons.language == "pt"
    total = sum(
        _chunk_count([t.tag for t in sentence], postnominal)
        for sentence in _sentence_word_runs(doc)
    )
    return total / doc.sentence_count


def concreteness_sd(doc: TaggedDocument, lexicons: LexiconSet) -> float | None:
    """Population SD of per-token concreteness scores; None below two scored tokens.

    Tokens absent from the norms are skipped, not imputed: a made-up score
    would manufacture signal.
    """
    scores = [
        lexicons.concreteness[t.normalized]
        for t in word_tokens(doc)
        if t.normalized in lexicons.concreteness
    ]
    if len(scores) < 2:
        return None
    return _population_sd(scores)


def ne_ratio(doc: TaggedDocument) -> float | None:
    """Named-entity spans over word-token count."""
    words = word_tokens(doc)
    if not words:
        return None
    return doc.entity_span_count / len(words)


def reference_vector(text: str, lexicons: LexiconSet) -> ComplexityVector:
    """The metrics of ``text`` composed from the per-metric functions above."""
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
        mean_noun_phrase=mean_noun_phrase(doc, lexicons),
        concreteness_sd=concreteness_sd(doc, lexicons),
        ne_ratio=ne_ratio(doc),
    )


def complexity_vectors(
    records: Sequence[GrantRecord],
    language: str = "pt",
    lexicons: LexiconSet | None = None,
    include_title: bool = False,
) -> list[ComplexityVector]:
    """One complexity vector per record, extracted from its document text."""
    if lexicons is None:
        lexicons = builtin_lexicons(language)
    return [
        extract_complexity_vector(
            document_text(record, language, include_title),
            language=language,
            lexicons=lexicons,
            doc_id=record.grant_id,
        )
        for record in records
    ]


def write_feature_csv(
    path: str | Path,
    grant_ids: Sequence[str],
    vectors: Sequence[ComplexityVector],
    header_comment: str | None = None,
) -> None:
    """Feature matrix CSV: grant_id column, schema columns, empty cell = missing."""
    if len(grant_ids) != len(vectors):
        raise ValueError("grant_ids and vectors must align")
    rows = []
    for grant_id, vector in zip(grant_ids, vectors):
        row: list = [grant_id]
        for value in vector.as_row():
            row.append("" if value is None else repr(value) if isinstance(value, float) else value)
        rows.append(row)
    comments = [header_comment] if header_comment else []
    write_csv(path, comments, ("grant_id",) + COMPLEXITY_SCHEMA, rows)
