"""Reference tf-idf code: the token-list loops the count kernel in ``topical`` replaces.

``fit_vocabulary_from_tokens`` sums word frequencies with ``Counter`` over
the token lists and sorts every word type; ``vectorize`` counts each token
list again and fills the matrix row by row.  ``topical`` builds both from one
``DocumentCounts`` (``select_columns``, ``vectorize_counts``).  The fitted
vocabulary here is a plain ``Fitted`` tuple; the properties in
``test_topical.py`` check that ``topical.Vocabulary`` has equal fields, words
in the same index order, and that the matrices are bit-for-bit equal.
"""

from __future__ import annotations

from collections import Counter
from typing import NamedTuple, Sequence

import numpy as np

from grantprod.topical import IdfVariant, VectorMode, tfidf_weight


class Fitted(NamedTuple):
    """A fitted vocabulary's reference fields."""

    words: tuple[str, ...]       # in index order
    doc_freq: tuple[int, ...]    # N_w of each index
    corpus_size: int
    top_x: int


def fit_vocabulary_from_tokens(token_lists: Sequence[Sequence[str]], top_x: int) -> Fitted:
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
    words = tuple(word for word, _ in retained)
    return Fitted(
        words=words,
        doc_freq=tuple(documents[word] for word in words),
        corpus_size=len(token_lists),
        top_x=top_x,
    )


def vectorize(
    token_lists: Sequence[Sequence[str]],
    vocabulary: Fitted,
    mode: VectorMode = VectorMode.TFIDF,
    idf_variant: IdfVariant = IdfVariant.LOG_RATIO,
) -> np.ndarray:
    """Document-by-word matrix: one row per token list, one column per vocabulary index."""
    index_of = {word: index for index, word in enumerate(vocabulary.words)}
    matrix = np.zeros((len(token_lists), len(vocabulary.words)))
    for row, tokens in zip(matrix, token_lists):
        for word, count in Counter(tokens).items():
            index = index_of.get(word)
            if index is not None:
                row[index] = count
    if mode is VectorMode.RAW_FREQUENCY:
        return matrix
    matrix /= _document_lengths(token_lists)[:, None]
    matrix *= _idf_factors(vocabulary.doc_freq, vocabulary.corpus_size, idf_variant)
    return matrix


def _document_lengths(token_lists: Sequence[Sequence[str]]) -> np.ndarray:
    # an empty document has only zero counts, so dividing it by 1 keeps it zero
    return np.array([max(len(tokens), 1) for tokens in token_lists], dtype=float)


def _idf_factors(doc_freqs: Sequence[int], corpus_size: int, idf_variant: IdfVariant) -> np.ndarray:
    """``tfidf_weight(1, 1, N, N_w)`` for each N_w, evaluated once per distinct N_w."""
    weights = {n_w: tfidf_weight(1, 1, corpus_size, n_w, idf_variant) for n_w in set(doc_freqs)}
    return np.array([weights[n_w] for n_w in doc_freqs], dtype=float)
