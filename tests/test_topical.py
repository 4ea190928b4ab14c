import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import _topical_oracle as oracle
from _textproc_oracle import word_tokens
from grantprod.corpus import Area, GrantRecord
from grantprod.ml import tfidf_fold_matrices
from grantprod.textproc import analyze, builtin_lexicons
from grantprod.topical import (
    FieldSelector,
    IdfVariant,
    MissingFieldError,
    OutOfVocabularyError,
    VectorMode,
    Vocabulary,
    count_documents,
    field_text,
    field_tokens,
    fit_vocabulary_from_tokens,
    save_vocabulary,
    select_columns,
    text_tokens,
    tfidf_weight,
    vectorize,
    vectorize_counts,
)


def record(i=0, **overrides):
    base = dict(
        grant_id=f"2002/{60000 + i:05d}-{i % 10}",
        title_pt="Estudo de gatos",
        abstract_pt="O gato dorme na casa.",
        area=Area.MED,
        year=2002,
        publication_count=0,
        subject=("felinos", "sono"),
        title_en="Cat study",
        abstract_en="The cat sleeps at home.",
    )
    base.update(overrides)
    return GrantRecord(**base)


# ---------------------------------------------------------------------------
# field selection
# ---------------------------------------------------------------------------

def test_field_selectors():
    r = record()
    assert field_text(r, FieldSelector.TITLE) == "Estudo de gatos"
    assert field_text(r, FieldSelector.SUBJECT) == "felinos sono"
    assert field_text(r, FieldSelector.TITLE_PLUS_SUBJECT) == "Estudo de gatos felinos sono"
    assert field_text(r, FieldSelector.ABSTRACT) == "O gato dorme na casa."
    assert field_text(r, FieldSelector.ABSTRACT, "en") == "The cat sleeps at home."


def test_missing_english_field():
    r = record(abstract_en=None)
    with pytest.raises(MissingFieldError):
        field_text(r, FieldSelector.ABSTRACT, "en")


def test_field_tokens_are_normalized_words():
    assert field_tokens(record(), FieldSelector.ABSTRACT) == ["o", "gato", "dorme", "na", "casa"]


# ---------------------------------------------------------------------------
# vocabulary fitting
# ---------------------------------------------------------------------------

def test_top_x_truncation():
    tokens = [["a", "a", "b"], ["a", "b", "c"]]
    vocab = fit_vocabulary_from_tokens(tokens, top_x=2)
    assert vocab.words == ("a", "b")  # c is least frequent
    assert vocab.corpus_size == 2 and len(vocab) == 2
    assert vocab.doc_freq.tolist() == [2, 2]


def test_tie_broken_lexicographically():
    tokens = [["b", "c", "a"]]
    vocab = fit_vocabulary_from_tokens(tokens, top_x=2)
    assert vocab.words == ("a", "b")  # all freq 1; smallest words retained


def test_fit_over_records():
    corpus = [record(i, abstract_pt=text) for i, text in
              enumerate(["gato gato rua", "gato casa", "casa rua gato"])]
    token_lists = [field_tokens(r, FieldSelector.ABSTRACT) for r in corpus]
    vocab = fit_vocabulary_from_tokens(token_lists, top_x=10)
    assert vocab.words == ("gato", "casa", "rua")  # most frequent gets the first index
    assert vocab.doc_freq.tolist() == [3, 2, 2]
    assert vocab.corpus_size == 3


def test_fit_rejects_empty_and_bad_top_x():
    with pytest.raises(ValueError):
        fit_vocabulary_from_tokens([], 5)
    with pytest.raises(ValueError):
        fit_vocabulary_from_tokens([["a"]], 0)


# ---------------------------------------------------------------------------
# the weighting formula
# ---------------------------------------------------------------------------

def test_zero_frequency_is_zero():
    assert tfidf_weight(0, 10, 100, 5) == 0.0


def test_every_document_word_collapses_to_tf():
    # log N / log N == 1, so the weight is exactly f / n_d
    assert tfidf_weight(3, 12, 7, 7) == 3 / 12
    assert tfidf_weight(1, 1, 1, 1) == 1.0  # single-document corpus included


def test_direct_evaluation():
    # ratio of logs is base-invariant: log(100)/log(10) = 2 in any base
    assert tfidf_weight(2, 10, 100, 10) == pytest.approx(0.4, abs=1e-15)
    expected = 0.2 * (math.log(100) / math.log(9))
    assert tfidf_weight(2, 10, 100, 9) == pytest.approx(expected, abs=1e-15)


def test_singleton_word_guard():
    # N_w = 1 would divide by log(1) = 0; the inner log is smoothed to log 2
    expected = 0.5 * (math.log(40) / math.log(2))
    assert tfidf_weight(2, 4, 40, 1) == pytest.approx(expected, abs=1e-15)


def test_out_of_vocabulary_signalled():
    with pytest.raises(OutOfVocabularyError):
        tfidf_weight(1, 5, 10, 0)


def test_conventional_variant():
    assert tfidf_weight(2, 10, 100, 10, IdfVariant.LOG_QUOTIENT) == pytest.approx(
        0.2 * math.log(10), abs=1e-15
    )
    assert tfidf_weight(2, 10, 100, 100, IdfVariant.LOG_QUOTIENT) == 0.0


@settings(max_examples=100, deadline=None)
@given(f=st.integers(1, 50), n_d=st.integers(50, 500),
       n=st.integers(2, 5000), n_w=st.integers(1, 5000))
def test_base_invariance_property(f, n_d, n, n_w):
    if n_w > n:
        return
    value = tfidf_weight(f, n_d, n, n_w)
    # re-evaluate with explicit base-10 and base-2 logarithms
    inner = n_w + 1 if n_w == 1 else n_w
    if n_w == n:
        for base_log in (math.log10, math.log2):
            assert value == f / n_d
    else:
        for base_log in (math.log10, math.log2):
            expected = (f / n_d) * (base_log(n) / base_log(inner))
            assert value == pytest.approx(expected, rel=1e-12)


def test_monotone_non_increasing_in_doc_freq():
    n = 50
    weights = [tfidf_weight(3, 30, n, n_w) for n_w in range(2, n + 1)]
    assert all(a >= b - 1e-15 for a, b in zip(weights, weights[1:]))


# ---------------------------------------------------------------------------
# vectorization
# ---------------------------------------------------------------------------

def test_no_in_vocabulary_words():
    vocab = fit_vocabulary_from_tokens([["a", "b"]], 10)
    assert not vectorize([["z", "q"]], vocab)[0].any()


def test_raw_frequency_mode():
    vocab = fit_vocabulary_from_tokens([["a", "b"]], 10)
    row = vectorize([["a", "a", "a", "q"]], vocab, VectorMode.RAW_FREQUENCY)[0]
    assert [(i, w) for i, w in enumerate(row) if w] == [(vocab.words.index("a"), 3.0)]


def test_tfidf_against_hand_evaluation():
    # two-document toy corpus evaluated by hand with the ratio-of-logs form
    docs = [["a", "b", "a"], ["b", "c"]]
    vocab = fit_vocabulary_from_tokens(docs, 10)
    dense = vectorize(docs[:1], vocab)[0]
    # a: f=2, n_d=3, N=2, N_w=1 -> (2/3) * log(2)/log(2) = 2/3
    assert dense[vocab.words.index("a")] == pytest.approx(2 / 3)
    # b: f=1, n_d=3, N_w=N=2 -> 1/3 exactly
    assert dense[vocab.words.index("b")] == pytest.approx(1 / 3)
    assert dense[vocab.words.index("c")] == 0.0


def test_document_length_counts_oov_tokens():
    docs = [["a"], ["a", "b"]]
    vocab = fit_vocabulary_from_tokens(docs, 1)  # only "a" retained
    row = vectorize([["a", "zzz", "zzz", "zzz"]], vocab)[0]
    # n_d = 4 though three tokens are out of vocabulary
    assert row[0] == pytest.approx(tfidf_weight(1, 4, 2, 2))


def test_fit_corpus_never_out_of_vocabulary():
    docs = [["a", "b"], ["c"], ["a", "c", "d"]]
    vocab = fit_vocabulary_from_tokens(docs, 3)
    vectorize(docs, vocab)  # must not raise


_TWO_DOCS = dict(docs=[["a", "b", "b"], ["a", "c"]], unseen=[], top_x=10, mode=VectorMode.TFIDF)


@settings(max_examples=300, deadline=None)
@given(
    docs=st.lists(st.lists(st.sampled_from("abcdef"), max_size=10), min_size=1, max_size=6),
    unseen=st.lists(st.lists(st.sampled_from("abxyz"), max_size=10), max_size=3),
    top_x=st.integers(1, 6),
    mode=st.sampled_from(VectorMode),
    variant=st.sampled_from(IdfVariant),
)
# "a" is in every document (N_w == N), "b" and "c" in one (N_w == 1)
@example(**_TWO_DOCS, variant=IdfVariant.LOG_RATIO)
@example(**_TWO_DOCS, variant=IdfVariant.LOG_QUOTIENT)
def test_vectorize_cells_equal_scalar_formula(docs, unseen, top_x, mode, variant):
    vocab = fit_vocabulary_from_tokens(docs, top_x)
    queries = [[]] + docs + unseen  # an empty document, the fit corpus, out-of-vocabulary words
    matrix = vectorize(queries, vocab, mode, variant)
    assert matrix.shape == (len(queries), len(vocab))
    for row, tokens in zip(matrix, queries):
        counts = Counter(tokens)
        for index, (word, n_w) in enumerate(zip(vocab.words, vocab.doc_freq.tolist())):
            if mode is VectorMode.RAW_FREQUENCY or not tokens:  # an empty document: zero row
                expected = float(counts[word])
            else:
                expected = tfidf_weight(counts[word], len(tokens), vocab.corpus_size, n_w, variant)
            assert row[index] == expected


# ---------------------------------------------------------------------------
# counted folds: the count kernel against the token-list oracle
# ---------------------------------------------------------------------------

def assert_same_vocabulary(got: Vocabulary, want: oracle.Fitted, counts=None) -> None:
    """``got`` has the oracle's fields; with ``counts``, each index names its word's column."""
    fields = (got.words, tuple(got.doc_freq.tolist()), got.corpus_size, got.top_x)
    assert oracle.Fitted(*fields) == want
    assert got.columns.shape == got.doc_freq.shape == (len(got),)
    if counts is not None:
        assert [counts.words[column] for column in got.columns.tolist()] == list(got.words)


def token_list_fold(docs, train, test, top_x, mode, variant, per_fold):
    """The fold as fitted and vectorized from token lists by the oracle."""
    fit_rows = train if per_fold else range(len(docs))
    vocab = oracle.fit_vocabulary_from_tokens([docs[i] for i in fit_rows], top_x)
    return (
        oracle.vectorize([docs[i] for i in train], vocab, mode, variant),
        oracle.vectorize([docs[i] for i in test], vocab, mode, variant),
        vocab,
    )


@st.composite
def folds(draw):
    """Documents over a four-letter alphabet (so frequencies tie), some empty, and a split."""
    docs = draw(st.lists(st.lists(st.sampled_from("abcd"), max_size=8), min_size=1, max_size=8))
    order = draw(st.permutations(range(len(docs))))
    cut = draw(st.integers(1, len(docs)))
    return docs, list(order[:cut]), list(order[cut:])


_ALL_EMPTY = ([[], []], [1], [0])


@settings(max_examples=500, deadline=None)
@given(
    fold=folds(),
    top_x=st.integers(1, 6),
    mode=st.sampled_from(VectorMode),
    variant=st.sampled_from(IdfVariant),
    per_fold=st.booleans(),
)
@example(fold=_ALL_EMPTY, top_x=1, mode=VectorMode.TFIDF, variant=IdfVariant.LOG_RATIO, per_fold=True)
def test_counted_fold_equals_token_list_fold(fold, top_x, mode, variant, per_fold):
    docs, train, test = fold
    counts = count_documents(docs)
    vocabulary = None if per_fold else select_columns(counts, range(len(docs)), top_x)
    got = tfidf_fold_matrices(counts, train, test, top_x, mode, variant, vocabulary)
    want = token_list_fold(docs, train, test, top_x, mode, variant, per_fold)
    assert got[0].shape == want[0].shape and np.array_equal(got[0], want[0])
    assert got[1].shape == want[1].shape and np.array_equal(got[1], want[1])
    if vocabulary is None:
        vocabulary = select_columns(counts, train, top_x)
    assert_same_vocabulary(vocabulary, want[2], counts)


@pytest.mark.parametrize("rows, top_x, message", [
    ([], 5, "empty corpus"),
    ([0], 0, "top_x must be >= 1"),
    ([0], -1, "top_x must be >= 1"),
])
def test_column_selection_keeps_the_fit_guards(rows, top_x, message):
    docs = [["a", "b"], ["b"]]
    with pytest.raises(ValueError, match=message):
        oracle.fit_vocabulary_from_tokens([docs[i] for i in rows], top_x)
    with pytest.raises(ValueError, match=message):
        fit_vocabulary_from_tokens([docs[i] for i in rows], top_x)
    with pytest.raises(ValueError, match=message):
        select_columns(count_documents(docs), rows, top_x)
    with pytest.raises(ValueError, match=message):
        tfidf_fold_matrices(count_documents(docs), rows, [1], top_x)


def test_all_empty_training_documents_give_zero_width_matrices():
    docs = [[], [], ["a", "b"]]
    counts = count_documents(docs)
    train, test = tfidf_fold_matrices(counts, [0, 1], [2], top_x=5)
    vocab = select_columns(counts, [0, 1], 5)
    assert train.shape == (2, 0) and test.shape == (1, 0)
    assert len(vocab) == 0 and vocab.corpus_size == 2
    assert_same_vocabulary(vocab, oracle.fit_vocabulary_from_tokens(docs[:2], 5), counts)


def test_test_only_words_are_dropped_but_counted_in_n_d():
    docs = [["a", "b", "a"], ["b"], ["a", "zzz", "zzz", "b"]]
    counts = count_documents(docs)
    _, test = tfidf_fold_matrices(counts, [0, 1], [2], top_x=5)
    vocab = select_columns(counts, [0, 1], 5)
    assert "zzz" not in vocab.words and test.shape == (1, 2)
    want = oracle.fit_vocabulary_from_tokens(docs[:2], 5)
    assert np.array_equal(test, oracle.vectorize(docs[2:], want))
    assert test[0, vocab.words.index("b")] == tfidf_weight(1, 4, 2, 2)


def test_document_counts_store_only_the_words_each_document_has():
    # 60 documents of 30 tokens and 20 distinct words each, over a few hundred word types
    docs = [[f"w{(i * 37 + (j % 20) ** 2) % 700}" for j in range(30)] for i in range(60)]
    docs += [[], field_tokens(record(), FieldSelector.ABSTRACT)]
    counts = count_documents(docs)
    distinct = sum(len(set(tokens)) for tokens in docs)
    assert counts.indices.size == counts.counts.size == distinct
    assert distinct * 10 < len(docs) * len(counts.words)  # a dense array would be 10x larger
    assert counts.words == tuple(sorted({word for tokens in docs for word in tokens}))
    assert counts.indptr.tolist()[-1] == distinct and counts.indptr.size == len(docs) + 1
    assert counts.counts.sum() == sum(len(tokens) for tokens in docs)
    assert np.array_equal(counts.lengths, [max(len(tokens), 1) for tokens in docs])


def test_wide_ties_break_by_word():
    # hundreds of tied columns: a sort that is stable only on short arrays fails here
    docs = [[f"t{(i * 7 + j) % 300:03d}" for j in range(20)] for i in range(45)]
    docs[0] += ["t299"] * 3
    counts = count_documents(docs)
    for top_x in (1, 150, 299, 400):
        vocab = oracle.fit_vocabulary_from_tokens(docs[:40], top_x)
        assert_same_vocabulary(select_columns(counts, range(40), top_x), vocab, counts)


def test_rows_may_repeat_and_come_in_any_order():
    docs = [["a", "b"], ["b", "c", "c"], [], ["a"]]
    counts = count_documents(docs)
    rows = [3, 1, 1, 0, 2]
    vocabulary = select_columns(counts, rows, 3)
    vocab = oracle.fit_vocabulary_from_tokens([docs[i] for i in rows], 3)
    assert_same_vocabulary(vocabulary, vocab, counts)
    assert np.array_equal(
        vectorize_counts(counts, rows, vocabulary), oracle.vectorize([docs[i] for i in rows], vocab)
    )


@st.composite
def vocabularies_and_queries(draw):
    """A fit corpus and query lists that share only some words with it, some empty."""
    docs = draw(st.lists(st.lists(st.sampled_from("abcdef"), max_size=8), min_size=1, max_size=8))
    queries = draw(st.lists(st.lists(st.sampled_from("adefxyz"), max_size=8), max_size=6))
    return docs, queries


# "b" and "c" are in the vocabulary and in no query: their columns are -1
_DISJOINT = ([["a", "b", "c"], ["b"]], [["a", "x"], []])


@settings(max_examples=500, deadline=None)
@given(
    corpus=vocabularies_and_queries(),
    top_x=st.integers(1, 7),
    mode=st.sampled_from(VectorMode),
    variant=st.sampled_from(IdfVariant),
)
@example(corpus=_DISJOINT, top_x=3, mode=VectorMode.TFIDF, variant=IdfVariant.LOG_RATIO)
@example(corpus=(_DISJOINT[0], []), top_x=3, mode=VectorMode.TFIDF, variant=IdfVariant.LOG_RATIO)
def test_token_list_entry_points_equal_the_oracle(corpus, top_x, mode, variant):
    # fit_vocabulary_from_tokens and vectorize run the count kernel on their own
    # token lists; the queries have words outside the vocabulary, the vocabulary
    # words that no query has, and both may hold empty documents
    docs, queries = corpus
    vocab = fit_vocabulary_from_tokens(docs, top_x)
    want = oracle.fit_vocabulary_from_tokens(docs, top_x)
    assert_same_vocabulary(vocab, want, count_documents(docs))
    for token_lists in (docs, queries):
        got = vectorize(token_lists, vocab, mode, variant)
        expected = oracle.vectorize(token_lists, want, mode, variant)
        assert got.shape == expected.shape and np.array_equal(got, expected)


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

def load_vocabulary(path) -> oracle.Fitted:
    """Read a vocabulary written by ``save_vocabulary``; its indices must run 0, 1, ..."""
    lines = path.read_text(encoding="utf-8").splitlines()
    header = dict(part.split("=", 1) for part in lines[0].split("\t"))
    rows = [line.split("\t") for line in lines[1:]]
    assert [int(index) for _, index, _ in rows] == list(range(len(rows)))
    return oracle.Fitted(
        words=tuple(word for word, _, _ in rows),
        doc_freq=tuple(int(n_w) for _, _, n_w in rows),
        corpus_size=int(header["N"]),
        top_x=int(header["top_x"]),
    )


def test_vocabulary_roundtrip(tmp_path):
    docs = [["gato", "casa"], ["gato"]]
    vocab = fit_vocabulary_from_tokens(docs, 5)
    path = tmp_path / "vocab.tsv"
    save_vocabulary(vocab, path)
    assert_same_vocabulary(vocab, load_vocabulary(path))
    assert load_vocabulary(path) == oracle.fit_vocabulary_from_tokens(docs, 5)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines == ["N=2\ttop_x=5", "gato\t0\t2", "casa\t1\t1"]


PT_LEXICONS = builtin_lexicons("pt")

# Letters with and without case, digits of other scripts, superscripts,
# vulgar fractions, underscores, combining marks, hyphens and separators.
TOKEN_TEXT = st.text(
    alphabet=st.sampled_from(list("aZçÃéßİΣσжЖ中ـ٣²½_\u0301\u0327-.,;!? \n\t09")),
    max_size=60,
)
TOKEN_PIECES = st.sampled_from([
    "anti-inflamatório", "pós-graduação", "3.5", "1,234.56", "2,7", "10", "x²", "½",
    "snake_case", "e\u0301", "\u0301a", "-foo", "foo-", "a--b", "USP", "São Paulo",
])


@settings(max_examples=300, deadline=None)
@given(text=st.one_of(TOKEN_TEXT, st.lists(TOKEN_PIECES | TOKEN_TEXT).map(" ".join)))
def test_text_tokens_equals_tokenize_words(text):
    words = word_tokens(analyze(text, PT_LEXICONS))
    assert text_tokens(text) == [t.normalized for t in words]


def test_decomposed_accent_is_the_same_word():
    assert text_tokens("cafe\u0301 café") == ["café", "café"]
