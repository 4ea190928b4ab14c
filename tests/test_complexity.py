import math
import tempfile
from dataclasses import fields
from pathlib import Path
from typing import get_args, get_type_hints

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grantprod.complexity import (
    COMPLEXITY_SCHEMA,
    ComplexityVector,
    EmptyDocumentError,
    brunet_index,
    extract_complexity_vector,
    write_feature_csv,
)
from grantprod.corpus import Area, GrantRecord
from grantprod.ml import complexity_rows
from grantprod.textproc import LexiconSet, PosTag, analyze, builtin_lexicons

import _complexity_oracle as oracle
from _complexity_oracle import (
    DiversityClass,
    _chunk_count,
    basic_counts,
    concreteness_sd,
    logical_operator_count,
    mean_noun_phrase,
    ne_ratio,
    noun_sd,
    reference_vector,
    type_diversity,
)


@pytest.fixture(scope="module")
def pt():
    return builtin_lexicons("pt")


def doc(text, lexicons):
    return analyze(text, lexicons)


def test_schema_is_the_vector_fields():
    assert COMPLEXITY_SCHEMA == tuple(f.name for f in fields(ComplexityVector))
    assert len(COMPLEXITY_SCHEMA) == 18


# ---------------------------------------------------------------------------
# basic counts
# ---------------------------------------------------------------------------

def test_toy_sentence_counts(pt):
    counts = basic_counts(doc("O gato dorme.", pt))
    assert counts["sentence_count"] == 1
    assert counts["word_count"] == 3
    assert counts["verb_count"] == 1
    assert counts["noun_count"] == 1
    assert counts["vocabulary_size"] == 3
    assert counts["words_per_sentence"] == 3.0


def test_empty_document_all_zero(pt):
    counts = basic_counts(doc("", pt))
    assert counts["sentence_count"] == 0
    assert counts["word_count"] == 0
    assert counts["words_per_sentence"] == 0.0
    assert counts["noun_ratio"] is None


def test_doubled_text_doubles_counts_except_vocabulary(pt):
    single = basic_counts(doc("O gato dorme.", pt))
    double = basic_counts(doc("O gato dorme. O gato dorme.", pt))
    assert double["sentence_count"] == 2 * single["sentence_count"]
    assert double["word_count"] == 2 * single["word_count"]
    assert double["verb_count"] == 2 * single["verb_count"]
    assert double["noun_count"] == 2 * single["noun_count"]
    assert double["vocabulary_size"] == single["vocabulary_size"]


# ---------------------------------------------------------------------------
# logical operators
# ---------------------------------------------------------------------------

def test_operator_token_count(pt):
    assert logical_operator_count(doc("se A ou B ou C", pt), pt) == 3


def test_no_operators(pt):
    assert logical_operator_count(doc("O gato dorme.", pt), pt) == 0


def test_token_not_type_count(pt):
    assert logical_operator_count(doc("ou ou", pt), pt) == 2


# ---------------------------------------------------------------------------
# diversities
# ---------------------------------------------------------------------------

def test_preposition_diversity_hand_enumeration(pt):
    document = doc("gato de casa de rua", pt)
    # preposition types {de}, vocabulary {gato, de, casa, rua}
    assert type_diversity(document, DiversityClass.PREPOSITION) == pytest.approx(0.25)


def test_all_function_words_ceiling(pt):
    document = doc("de para com", pt)
    assert type_diversity(document, DiversityClass.FUNCTION_WORD) == 1.0


def test_no_punctuation_is_zero(pt):
    assert type_diversity(doc("gato casa rua", pt), DiversityClass.PUNCTUATION) == 0.0


def test_empty_document_diversity_missing(pt):
    assert type_diversity(doc("", pt), DiversityClass.FUNCTION_WORD) is None


def test_punctuation_diversity_clamped(pt):
    # degenerate input: more punctuation types than word types
    document = doc("a . , ; !", pt)
    assert type_diversity(document, DiversityClass.PUNCTUATION) == 1.0


# ---------------------------------------------------------------------------
# noun SD
# ---------------------------------------------------------------------------

def test_single_sentence_sd_zero(pt):
    assert noun_sd(doc("O gato dorme.", pt)) == 0.0


def test_constant_noun_counts(pt):
    text = "O gato dorme. O gato dorme. O gato dorme."
    assert noun_sd(doc(text, pt)) == 0.0


def test_noun_counts_one_and_three(pt):
    document = doc("O gato dorme. O gato vê a casa na rua.", pt)
    per_sentence = [1, 3]  # hand-tagged oracle
    mean = sum(per_sentence) / 2
    expected = math.sqrt(sum((c - mean) ** 2 for c in per_sentence) / 2)
    assert noun_sd(document) == pytest.approx(expected)
    assert expected == 1.0


def test_zero_sentences_missing(pt):
    assert noun_sd(doc("", pt)) is None


# ---------------------------------------------------------------------------
# Brunet index
# ---------------------------------------------------------------------------

def test_brunet_collapse_points():
    assert brunet_index(1, 1) == 1.0
    assert brunet_index(50, 1) == 1.0


def test_brunet_frozen_oracle():
    # v ** (n ** -0.165) evaluated independently at high precision
    assert brunet_index(1000, 100) == pytest.approx(4.362937804062961, abs=1e-12)


def test_brunet_missing_and_invalid():
    assert brunet_index(0, 0) is None
    with pytest.raises(ValueError):
        brunet_index(5, 6)
    with pytest.raises(ValueError):
        brunet_index(5, 0)


@settings(max_examples=80, deadline=None)
@given(n=st.integers(2, 5000), v=st.integers(2, 100))
def test_brunet_monotonicity(n, v):
    if v > n:
        return
    if v + 1 <= n:
        assert brunet_index(n, v + 1) > brunet_index(n, v)  # increasing in v
    assert brunet_index(n + 1, v) < brunet_index(n, v)      # decreasing in n


# ---------------------------------------------------------------------------
# noun phrases
# ---------------------------------------------------------------------------

def test_single_np(pt):
    assert mean_noun_phrase(doc("O gato dorme.", pt), pt) == 1.0


def test_no_nps(pt):
    assert mean_noun_phrase(doc("Ele corre e dorme.", pt), pt) == 0.0


def test_mean_over_two_sentences(pt):
    # 1 chunk, then 3 chunks: [O gato] ... [O gato] [a casa] [rua]
    document = doc("O gato dorme. O gato vê a casa na rua.", pt)
    assert mean_noun_phrase(document, pt) == 2.0


def test_noun_phrase_ends_at_a_sentence_break_without_punctuation(pt):
    # a title without a final period is a sentence of its own, so its last
    # noun and the abstract's first noun are two phrases, not one run
    parts = ("O gato", "Gato dorme.")
    assert mean_noun_phrase(doc(parts, pt), pt) == 1.0
    vector = extract_complexity_vector(parts, "pt", pt)
    assert (vector.sentence_count, vector.mean_noun_phrase) == (2, 1.0)


@pytest.mark.parametrize("language", ["pt", "en"])
def test_postnominal_adjective_gives_the_same_count_in_pt_and_en(language):
    # One tagging under either language: the pt chunks [O gato preto] and
    # [O gato preto] [cão] absorb the adjective, the en chunks [O gato] and
    # [O gato] [preto cão] do not; both count 1 and 2 phrases.
    lexicons = LexiconSet(
        language=language,
        function_words=frozenset({"o", "e"}),
        prepositions=frozenset(),
        logical_operators=frozenset({"e"}),
        pos_lexicon={"o": PosTag.DETERMINER, "gato": PosTag.NOUN, "cão": PosTag.NOUN,
                     "preto": PosTag.ADJECTIVE, "dorme": PosTag.VERB},
        suffix_rules=(),
        concreteness={},
    )
    text = "O gato preto dorme. O gato preto cão dorme."
    assert mean_noun_phrase(doc(text, lexicons), lexicons) == 1.5
    assert extract_complexity_vector(text, language, lexicons).mean_noun_phrase == 1.5


CHUNK_TAGS = [PosTag.DETERMINER, PosTag.ADJECTIVE, PosTag.NOUN, PosTag.VERB,
              PosTag.PREPOSITION, PosTag.PUNCTUATION, PosTag.NUMBER]


@settings(max_examples=400, deadline=None)
@given(
    sentences=st.lists(st.lists(st.sampled_from(CHUNK_TAGS), max_size=12), max_size=6),
    postnominal=st.booleans(),
)
def test_noun_phrase_chunks_are_noun_runs(sentences, postnominal):
    # each chunk, with or without post-nominal adjectives, holds one maximal
    # noun run, which is what extract_complexity_vector counts
    runs = sum(
        1
        for tags in sentences
        for i, tag in enumerate(tags)
        if tag is PosTag.NOUN and (i == 0 or tags[i - 1] is not PosTag.NOUN)
    )
    assert sum(_chunk_count(tags, postnominal) for tags in sentences) == runs


# ---------------------------------------------------------------------------
# concreteness
# ---------------------------------------------------------------------------

def custom_lexicon(concreteness):
    return LexiconSet(
        language="pt",
        function_words=frozenset({"o", "de"}),
        prepositions=frozenset({"de"}),
        logical_operators=frozenset({"e"}),
        pos_lexicon={"o": PosTag.DETERMINER, "de": PosTag.PREPOSITION},
        suffix_rules=(),
        concreteness=concreteness,
    )


def test_concreteness_sd_by_definition():
    lex = custom_lexicon({"gato": 300.0, "rua": 500.0})
    assert concreteness_sd(doc("gato rua", lex), lex) == pytest.approx(100.0)


def test_concreteness_constant_scores():
    lex = custom_lexicon({"gato": 400.0, "rua": 400.0})
    assert concreteness_sd(doc("gato rua gato", lex), lex) == 0.0


def test_concreteness_missing_without_scored_tokens():
    lex = custom_lexicon({"gato": 400.0})
    assert concreteness_sd(doc("casa rua", lex), lex) is None      # none scored
    assert concreteness_sd(doc("gato casa", lex), lex) is None     # single scored token


# ---------------------------------------------------------------------------
# NE ratio
# ---------------------------------------------------------------------------

def test_ne_ratio_no_entities(pt):
    assert ne_ratio(doc("o gato dorme", pt)) == 0.0


def test_ne_ratio_spans_over_words(pt):
    document = doc("USP e UNICAMP colaboram", pt)
    assert document.entity_span_count == 2
    assert ne_ratio(document) == pytest.approx(0.5)


def test_ne_ratio_missing_for_empty(pt):
    assert ne_ratio(doc("", pt)) is None


# ---------------------------------------------------------------------------
# composed extraction
# ---------------------------------------------------------------------------

GOLDEN_TEXT = (
    "O presente projeto avalia o efeito do tratamento em ratos. "
    "Os resultados preliminares indicam melhora significativa. "
    "Estudamos amostras no Laboratório de Análises da USP."
)

# produced once by the composed pipeline over the builtin pt lexicons, frozen
GOLDEN_VECTOR = ComplexityVector(
    sentence_count=3,
    word_count=24,
    vocabulary_size=23,
    adjective_count=2,
    adverb_count=0,
    verb_count=3,
    noun_count=11,
    noun_ratio=0.4583333333333333,
    words_per_sentence=8.0,
    logical_operator_count=0,
    function_word_diversity=0.30434782608695654,
    preposition_diversity=0.21739130434782608,
    punctuation_diversity=0.043478260869565216,
    noun_sd=0.4714045207910317,
    brunet_index=6.397906594996703,
    mean_noun_phrase=3.3333333333333335,
    concreteness_sd=101.9803902718557,
    ne_ratio=0.125,
)


def test_golden_vector(pt):
    assert extract_complexity_vector(GOLDEN_TEXT, "pt", pt) == GOLDEN_VECTOR


def test_composition_equals_individual_operations(pt):
    text = "O gato preto dorme na casa. A rua é grande e o cão corre."
    vector = extract_complexity_vector(text, "pt", pt)
    document = doc(text, pt)
    counts = basic_counts(document)
    assert vector.sentence_count == counts["sentence_count"]
    assert vector.word_count == counts["word_count"]
    assert vector.vocabulary_size == counts["vocabulary_size"]
    assert vector.noun_ratio == counts["noun_ratio"]
    assert vector.logical_operator_count == logical_operator_count(document, pt)
    assert vector.function_word_diversity == type_diversity(document, DiversityClass.FUNCTION_WORD)
    assert vector.preposition_diversity == type_diversity(document, DiversityClass.PREPOSITION)
    assert vector.punctuation_diversity == type_diversity(document, DiversityClass.PUNCTUATION)
    assert vector.noun_sd == noun_sd(document)
    assert vector.brunet_index == brunet_index(counts["word_count"], counts["vocabulary_size"])
    assert vector.mean_noun_phrase == mean_noun_phrase(document, pt)
    assert vector.concreteness_sd == concreteness_sd(document, pt)
    assert vector.ne_ratio == ne_ratio(document)


def test_duplicated_text_decreases_brunet(pt):
    text = "O gato preto dorme na casa da rua."
    single = extract_complexity_vector(text, "pt", pt)
    double = extract_complexity_vector(text + " " + text, "pt", pt)
    # v fixed, n doubled: beta = v ** (n ** -0.165) strictly decreases
    assert double.vocabulary_size == single.vocabulary_size
    assert double.brunet_index < single.brunet_index


def test_empty_text_raises_naming_the_record(pt):
    with pytest.raises(EmptyDocumentError) as excinfo:
        extract_complexity_vector("   ", "pt", pt, doc_id="2001/00001-1")
    assert "2001/00001-1" in str(excinfo.value)


def test_document_without_words_has_no_noun_ratio(pt):
    vector = extract_complexity_vector("2020 , 45 .", "pt", pt)
    assert vector.word_count == 0
    assert vector.noun_ratio is None
    assert vector.ne_ratio is None and vector.brunet_index is None
    assert reference_vector("2020 , 45 .", pt) == vector


def test_sentence_permutation_invariance(pt):
    a = "O gato preto dorme na casa. Estudamos a USP e ratos. A rua é grande."
    b = "A rua é grande. O gato preto dorme na casa. Estudamos a USP e ratos."
    assert extract_complexity_vector(a, "pt", pt) == extract_complexity_vector(b, "pt", pt)


word_bank = st.sampled_from(
    ["o", "gato", "de", "casa", "rua", "e", "ou", "se", "USP", "correm", "grande", "10"]
)


@settings(max_examples=60, deadline=None)
@given(words=st.lists(word_bank, min_size=1, max_size=40))
def test_metric_ranges_property(words):
    pt_lex = builtin_lexicons("pt")
    vector = extract_complexity_vector(" ".join(words) + ".", "pt", pt_lex)
    for value in (vector.function_word_diversity, vector.preposition_diversity,
                  vector.punctuation_diversity, vector.ne_ratio):
        if value is not None:
            assert 0.0 <= value <= 1.0
    for value in (vector.noun_sd, vector.concreteness_sd):
        if value is not None:
            assert value >= 0.0
    assert vector.vocabulary_size <= vector.word_count


LEXICONS = {language: builtin_lexicons(language) for language in ("pt", "en")}


def _piece_bank(lexicons):
    """Lexicon words, suffix-rule and unknown words, and the awkward inputs."""
    words = sorted(
        set(lexicons.pos_lexicon) | set(lexicons.concreteness)
        | lexicons.function_words | lexicons.logical_operators
    )
    return words + ["zorb" + suffix for suffix, _ in lexicons.suffix_rules] + [
        "zyxwvut", "anti-inflamatório", "USP", "FAPESP", "DNA", "NIH", "10", "3.5",
        "2,7", "1999", ",", ";", ":", "(", ")", "%", "/", "Dr.", "Prof.", "et al.",
        "e.g.", "i.e.", "etc.", "Fig.", "cf.", "São Paulo", "Instituto Butantan",
        "Universidade Federal de Minas Gerais", "New York", ".", "!", "?", "...",
        ". ...", "!!", "?!", ". ; .",
    ]


PIECES = {language: _piece_bank(lexicons) for language, lexicons in LEXICONS.items()}
CASES = (str, str.title, str.upper)


@st.composite
def pt_en_texts(draw, languages=tuple(sorted(LEXICONS))):
    language = draw(st.sampled_from(languages))
    pieces = draw(st.lists(
        st.tuples(st.sampled_from(PIECES[language]), st.sampled_from(CASES)),
        min_size=1, max_size=60,
    ))
    text = " ".join(case(piece) for piece, case in pieces)
    if draw(st.booleans()):
        text += draw(st.text(alphabet="abcéã XYZ.,!?-0", max_size=30))
    return language, text


@settings(max_examples=200, deadline=None)
@given(sample=pt_en_texts())
def test_one_pass_vector_equals_per_metric_oracle(sample):
    language, text = sample
    lexicons = LEXICONS[language]
    if not text.strip():
        return
    assert_fields_equal(extract_complexity_vector(text, language, lexicons),
                        reference_vector(text, lexicons))


def assert_fields_equal(vector, expected):
    for name in COMPLEXITY_SCHEMA:
        got, want = getattr(vector, name), getattr(expected, name)
        if want is None:
            assert got is None, name
        else:
            assert type(got) is type(want) and got == want, (name, got, want)


# The walk keeps its own sentence index, first-word flag, noun run and
# entity span; the oracle reads them from analyze's tokens.
BOUNDARY_DOCUMENTS = [
    # a title ending in a noun, and an abstract opening with a capitalized noun
    ("Estudo de ratos", "Ratos da USP dormem na casa."),
    # a sentence of punctuation only between two sentences of nouns
    "Estudamos ratos! ; . Ratos dormem.",
    # entity spans at a sentence end and at a part end, each followed by another
    ("Projeto da UNICAMP", "FAPESP financia o estudo da USP. Instituto Butantan colabora."),
    "Avaliamos a USP. FAPESP avalia o NIH",
]


@pytest.mark.parametrize("text", BOUNDARY_DOCUMENTS, ids=[
    "title-abstract", "punctuation-sentence", "entity-at-part-end", "entity-at-sentence-end"])
def test_walk_equals_per_metric_oracle_across_sentence_and_part_ends(pt, text):
    assert_fields_equal(extract_complexity_vector(text, "pt", pt), reference_vector(text, pt))


def test_numbers_and_punctuation_leave_every_optional_metric_missing(pt):
    text = ("2020", "3.5 ; (10) !")
    vector = extract_complexity_vector(text, "pt", pt)
    assert_fields_equal(vector, reference_vector(text, pt))
    assert {name for name in COMPLEXITY_SCHEMA if getattr(vector, name) is None} == OPTIONAL_COLUMNS


def test_whitespace_parts_raise_naming_the_record(pt):
    with pytest.raises(EmptyDocumentError, match="2001/00001-1"):
        extract_complexity_vector((" ", "\n\t "), "pt", pt, doc_id="2001/00001-1")


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------

def as_matrix(vectors) -> np.ndarray:
    """The vectors' rows with NaN for None, as ``ml.complexity_rows`` builds them."""
    rows = [[np.nan if v is None else float(v) for v in vector.as_row()] for vector in vectors]
    return np.array(rows, dtype=float).reshape(len(rows), len(COMPLEXITY_SCHEMA))


def test_feature_csv_missing_as_empty_cell(tmp_path, pt):
    matrix = as_matrix([extract_complexity_vector("O gato dorme.", "pt", pt)])
    path = tmp_path / "features.csv"
    write_feature_csv(path, ["2001/00001-1"], matrix, header_comment="cfg")
    lines = path.read_text().splitlines()
    assert lines[0] == "# cfg"
    assert lines[1].split(",")[:2] == ["grant_id", "sentence_count"]
    row = lines[2].split(",")
    # concreteness_sd is missing for this toy document -> empty cell
    index = 1 + COMPLEXITY_SCHEMA.index("concreteness_sd")
    assert row[index] == ""


OPTIONAL_COLUMNS = {
    name for name, hint in get_type_hints(ComplexityVector).items() if type(None) in get_args(hint)
}
# A text with no word leaves every ratio, diversity, brunet_index, ne_ratio
# and concreteness_sd missing; one with fewer than two scored words leaves
# concreteness_sd missing.  noun_sd and mean_noun_phrase are never missing:
# a document with a token has a sentence.
SPARSE_TEXTS = ("2020.", "42 ; 3.5 !", "(10)", "O gato dorme.", "The cat sleeps.")


def both_feature_csvs(ids, matrix, vectors) -> tuple[bytes, bytes]:
    """The matrix writer's file and the vector oracle's, with the same comment."""
    with tempfile.TemporaryDirectory() as scratch:
        written, expected = Path(scratch) / "matrix.csv", Path(scratch) / "vectors.csv"
        write_feature_csv(written, ids, matrix, header_comment="cfg")
        oracle.write_feature_csv(expected, ids, vectors, header_comment="cfg")
        return written.read_bytes(), expected.read_bytes()


def feature_records(texts: list[tuple[str, str]]) -> list[GrantRecord]:
    """One record per (title, abstract) pair, the same text in both languages."""
    return [
        GrantRecord(grant_id=f"2001/{i:05d}-1", title_pt=title, abstract_pt=abstract,
                    title_en=title, abstract_en=abstract, area=Area.MED, year=2001,
                    publication_count=i % 2)
        for i, (title, abstract) in enumerate(texts)
    ]


@st.composite
def feature_documents(draw):
    language = draw(st.sampled_from(sorted(LEXICONS)))
    text = st.one_of(st.sampled_from(SPARSE_TEXTS), pt_en_texts((language,)).map(lambda s: s[1]))
    pairs = draw(st.lists(st.tuples(text, text), min_size=1, max_size=5))
    return language, draw(st.booleans()), feature_records(pairs)


@settings(max_examples=100, deadline=None)
@given(sample=feature_documents())
def test_matrix_writer_equals_vector_oracle_on_documents(sample):
    language, include_title, records = sample
    lexicons = LEXICONS[language]
    ids = [record.grant_id for record in records]
    matrix = complexity_rows(records, language, lexicons, include_title)
    vectors = oracle.complexity_vectors(records, language, lexicons, include_title)
    written, expected = both_feature_csvs(ids, matrix, vectors)
    assert written == expected


@pytest.mark.parametrize("include_title", [False, True])
@pytest.mark.parametrize("language", sorted(LEXICONS))
def test_sparse_documents_leave_every_optional_column_missing(language, include_title):
    records = feature_records([(text, text) for text in SPARSE_TEXTS])
    lexicons = LEXICONS[language]
    matrix = complexity_rows(records, language, lexicons, include_title)
    vectors = oracle.complexity_vectors(records, language, lexicons, include_title)
    missing = {COMPLEXITY_SCHEMA[j] for j in np.flatnonzero(np.isnan(matrix).any(axis=0))}
    assert missing == OPTIONAL_COLUMNS
    written, expected = both_feature_csvs([r.grant_id for r in records], matrix, vectors)
    assert written == expected


def field_values(kind: str):
    """Values of a ComplexityVector field declared ``kind``."""
    if kind == "int":
        return st.integers(0, 2**53)  # each exact as a float
    finite = st.floats(allow_nan=False, allow_infinity=False)
    return st.one_of(st.none(), finite) if "None" in kind else finite


VECTOR_FIELDS = {f.name: field_values(f.type) for f in fields(ComplexityVector)}


@settings(max_examples=100, deadline=None)
@given(vectors=st.lists(st.fixed_dictionaries(VECTOR_FIELDS).map(lambda v: ComplexityVector(**v)),
                        min_size=1, max_size=4))
def test_matrix_writer_equals_vector_oracle_on_any_vectors(vectors):
    # every column declared ``| None`` can be None here
    ids = [f"2001/{i:05d}-1" for i in range(len(vectors))]
    written, expected = both_feature_csvs(ids, as_matrix(vectors), vectors)
    assert written == expected


@settings(max_examples=60, deadline=None)
@given(sample=pt_en_texts(), others=st.lists(pt_en_texts(), max_size=6))
def test_vector_is_the_same_with_a_fresh_or_a_warm_memo(sample, others):
    language, text = sample
    if not text.strip():
        return
    # each walk over the tokens reads the memo entries the other one leaves
    by_analyze, by_extract = builtin_lexicons(language), builtin_lexicons(language)
    for _, other in others:
        for variant in (other, other.upper()):
            analyze(variant, by_analyze)
            extract_complexity_vector(variant, language, by_extract)
    fresh = extract_complexity_vector(text, language, builtin_lexicons(language))
    assert extract_complexity_vector(text, language, by_analyze) == fresh
    assert extract_complexity_vector(text, language, by_extract) == fresh
    assert analyze(text, by_extract) == analyze(text, builtin_lexicons(language))
