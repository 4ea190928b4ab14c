"""Lexical-complexity metrics over a tagged document, assembled in a fixed schema.

Degenerate metrics (e.g. concreteness dispersion with fewer than two scored
tokens) are returned as ``None`` rather than imputed here; the evaluation
layer substitutes training-split medians so that no information leaks across
folds.  Standard deviations are population SDs throughout: a document is the
complete population of its own sentences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path
from typing import TYPE_CHECKING, Sequence, get_type_hints

from .corpus import write_csv
from .textproc import (
    LexiconSet,
    PosTag,
    TokenKind,
    _TOKEN_RE,
    builtin_lexicons,
    split_sentences,
)

if TYPE_CHECKING:  # imported here first, numpy raised evaluate's peak RSS by 0.8 MB
    import numpy as np

BRUNET_EXPONENT = -0.165


class EmptyDocumentError(ValueError):
    def __init__(self, doc_id: str | None = None):
        name = f" '{doc_id}'" if doc_id else ""
        super().__init__(f"document{name} is empty after normalization")


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
    noun_ratio: float | None  # nouns over word tokens
    words_per_sentence: float  # mean word tokens per sentence
    logical_operator_count: int  # tokens in the logical-operator lexicon
    function_word_diversity: float | None  # function-word types over vocabulary size
    preposition_diversity: float | None  # preposition types over vocabulary size
    punctuation_diversity: float | None  # punctuation types over vocabulary size
    noun_sd: float  # population SD of nouns per sentence
    brunet_index: float | None  # v ** (n ** -0.165)
    mean_noun_phrase: float  # noun phrases (maximal noun runs) per sentence
    concreteness_sd: float | None  # population SD of concreteness scores
    ne_ratio: float | None  # named-entity spans over word tokens

    def as_row(self) -> tuple:
        return tuple(getattr(self, name) for name in COMPLEXITY_SCHEMA)


COMPLEXITY_SCHEMA: tuple[str, ...] = tuple(f.name for f in fields(ComplexityVector))


def _population_sd(values: Sequence[float]) -> float:
    n = len(values)
    mean = sum(values) / n
    return math.sqrt(sum((v - mean) ** 2 for v in values) / n)


def brunet_index(word_count: int, vocabulary_size: int) -> float | None:
    """Lexical diversity: v ** (n ** -0.165)."""
    if word_count == 0:
        return None
    if not 1 <= vocabulary_size <= word_count:
        raise ValueError("vocabulary_size must satisfy 1 <= v <= word_count")
    return vocabulary_size ** (word_count ** BRUNET_EXPONENT)


def extract_complexity_vector(
    text: str | Sequence[str],
    language: str = "pt",
    lexicons: LexiconSet | None = None,
    doc_id: str | None = None,
) -> ComplexityVector:
    """Split the text into sentences and compute all metrics in one walk over its tokens.

    Counts and ratios are over word tokens; punctuation counts only towards
    punctuation diversity.  The three diversities share the word-type
    vocabulary as denominator, and the punctuation ratio is clamped at 1.0
    because punctuation types are not a subset of it.  A noun phrase is a
    maximal run of nouns within a sentence: a determiner? adjective* noun+
    chunk, with or without post-nominal adjectives, holds exactly one such
    run, so both chunkings give the same count.  Words absent from the
    concreteness norms are skipped, not imputed: a made-up score would
    manufacture signal.  ``text`` may be a sequence of parts, each split
    into sentences separately.  Named-entity spans follow the rule of
    ``textproc.analyze``, which builds the same tokens as ``Token`` tuples.
    """
    if lexicons is None:
        lexicons = builtin_lexicons(language)
    parts = [text] if isinstance(text, str) else text
    sentences = [sentence for part in parts for sentence in split_sentences(part)]
    if not sentences:  # a sentence is stripped text, so it holds a token
        raise EmptyDocumentError(doc_id)
    word_tags: list[PosTag] = []
    vocabulary: set[str] = set()
    function_types: set[str] = set()
    preposition_types: set[str] = set()
    punctuation_types: set[str] = set()
    operators = 0
    noun_runs = 0
    spans = 0
    nouns_per_sentence = [0] * len(sentences)
    scores: list[float] = []
    word, punctuation = TokenKind.WORD, TokenKind.PUNCTUATION
    noun, preposition = PosTag.NOUN, PosTag.PREPOSITION
    logical_operators = lexicons.logical_operators
    concreteness = lexicons.concreteness.get
    surfaces, classify = lexicons._surfaces, lexicons.classify
    for index, sentence in enumerate(sentences):
        after_first_word = False
        previous_marked = False
        previous_noun = False
        for surface in _TOKEN_RE.findall(sentence):
            normalized, kind, tag, is_function, acronym, capitalized = (
                surfaces.get(surface) or classify(surface)
            )
            marked = acronym or (after_first_word and capitalized)
            if marked and not previous_marked:
                spans += 1
            previous_marked = marked
            if kind is not word:
                previous_noun = False
                if kind is punctuation:
                    punctuation_types.add(normalized)
                continue
            after_first_word = True
            word_tags.append(tag)
            vocabulary.add(normalized)
            if is_function:
                function_types.add(normalized)
            if tag is noun:
                if not previous_noun:
                    noun_runs += 1
                previous_noun = True
                nouns_per_sentence[index] += 1
            else:
                previous_noun = False
                if tag is preposition:
                    preposition_types.add(normalized)
            if normalized in logical_operators:
                operators += 1
            score = concreteness(normalized)
            if score is not None:
                scores.append(score)

    word_count = len(word_tags)
    vocabulary_size = len(vocabulary)
    noun_count = word_tags.count(PosTag.NOUN)

    def diversity(types: set[str]) -> float | None:
        return min(1.0, len(types) / vocabulary_size) if vocabulary_size else None

    return ComplexityVector(
        sentence_count=len(sentences),
        word_count=word_count,
        vocabulary_size=vocabulary_size,
        adjective_count=word_tags.count(PosTag.ADJECTIVE),
        adverb_count=word_tags.count(PosTag.ADVERB),
        verb_count=word_tags.count(PosTag.VERB),
        noun_count=noun_count,
        noun_ratio=noun_count / word_count if word_count else None,
        words_per_sentence=word_count / len(sentences),
        logical_operator_count=operators,
        function_word_diversity=diversity(function_types),
        preposition_diversity=diversity(preposition_types),
        punctuation_diversity=diversity(punctuation_types),
        noun_sd=_population_sd(nouns_per_sentence),
        brunet_index=brunet_index(word_count, vocabulary_size),
        mean_noun_phrase=noun_runs / len(sentences),
        concreteness_sd=_population_sd(scores) if len(scores) >= 2 else None,
        ne_ratio=spans / word_count if word_count else None,
    )


def write_feature_csv(
    path: str | Path,
    grant_ids: Sequence[str],
    matrix: np.ndarray,
    header_comment: str | None = None,
) -> None:
    """Feature matrix CSV: grant_id column, schema columns, empty cell = missing.

    ``matrix`` is as ``ml.complexity_rows`` returns it, NaN where a metric is
    missing; fields declared int are written as integers, others by ``repr``.
    """
    if len(grant_ids) != len(matrix):
        raise ValueError("grant_ids and matrix rows must align")
    declared = get_type_hints(ComplexityVector)
    counts = [declared[name] is int for name in COMPLEXITY_SCHEMA]
    rows = (
        [grant_id] + ["" if math.isnan(value) else int(value) if count else repr(value)
                      for value, count in zip(row, counts)]
        for grant_id, row in zip(grant_ids, matrix.tolist())
    )
    comments = [header_comment] if header_comment else []
    write_csv(path, comments, ("grant_id",) + COMPLEXITY_SCHEMA, rows)
