"""Reference tf-idf code: the token-list loops the count kernel in ``topical`` replaces.

``fit_vocabulary_from_tokens`` sums word frequencies with ``Counter`` over
the token lists and sorts every word type; ``vectorize`` counts each token
list again and fills the matrix row by row.  ``topical`` builds both from one
``DocumentCounts`` (``select_columns``, ``vectorize_counts``).  The properties
in ``test_topical.py`` check that the two give equal ``Vocabulary`` fields
and entry order and bit-for-bit equal matrices.
"""

from __future__ import annotations

from collections import Counter
from typing import Sequence

import numpy as np

from grantprod.topical import IdfVariant, VectorMode, Vocabulary, tfidf_weight


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


def vectorize(
    token_lists: Sequence[Sequence[str]],
    vocabulary: Vocabulary,
    mode: VectorMode = VectorMode.TFIDF,
    idf_variant: IdfVariant = IdfVariant.LOG_RATIO,
) -> np.ndarray:
    """Document-by-word matrix: one row per token list, one column per vocabulary index."""
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
    matrix /= _document_lengths(token_lists)[:, None]
    matrix *= _idf_factors(doc_freqs, vocabulary.corpus_size, idf_variant)
    return matrix


def _document_lengths(token_lists: Sequence[Sequence[str]]) -> np.ndarray:
    # an empty document has only zero counts, so dividing it by 1 keeps it zero
    return np.array([max(len(tokens), 1) for tokens in token_lists], dtype=float)


def _idf_factors(doc_freqs: list[int], corpus_size: int, idf_variant: IdfVariant) -> np.ndarray:
    """``tfidf_weight(1, 1, N, N_w)`` for each N_w, evaluated once per distinct N_w."""
    weights = {n_w: tfidf_weight(1, 1, corpus_size, n_w, idf_variant) for n_w in set(doc_freqs)}
    return np.array([weights[n_w] for n_w in doc_freqs], dtype=float)
