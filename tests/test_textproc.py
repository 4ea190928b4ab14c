import re
import sys
import unicodedata

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grantprod import textproc
from grantprod.textproc import (
    ABBREVIATIONS,
    CLOSED_CLASS_TAGS,
    SUPPORTED_LANGUAGES,
    LexiconSet,
    PosTag,
    Token,
    TokenKind,
    analyze,
    builtin_lexicons,
    load_lexicons,
    split_sentences,
)
from grantprod.topical import text_tokens

import _textproc_oracle as oracle


@pytest.fixture(scope="module")
def pt():
    return builtin_lexicons("pt")


@pytest.fixture(scope="module")
def en():
    return builtin_lexicons("en")


# ---------------------------------------------------------------------------
# sentences
# ---------------------------------------------------------------------------

def test_empty_text():
    assert split_sentences("") == []
    assert split_sentences("   \n ") == []


def test_two_terminal_periods():
    assert split_sentences("A b. C d.") == ["A b.", "C d."]


def test_abbreviation_does_not_split():
    assert split_sentences("O Dr. Silva estuda. Fim.") == ["O Dr. Silva estuda.", "Fim."]
    assert split_sentences("Usamos e.g. Ratos. Fim.") == ["Usamos e.g. Ratos.", "Fim."]
    assert split_sentences("Ver et al. Depois veio. Fim.") == ["Ver et al. Depois veio.", "Fim."]


def test_exclamation_and_question_always_split():
    assert split_sentences("Sim! funciona? talvez.") == ["Sim!", "funciona?", "talvez."]


def test_word_content_reconstructs(pt):
    text = "O gato dorme. O cão corre! E agora?"
    doc = analyze(text, pt)
    assert doc.sentence_count == len(split_sentences(text)) == 3
    assert [t.normalized for t in oracle.word_tokens(doc)] == text_tokens(text)


def char_loop_split(text):
    """split_sentences as a scan over every character (the reference)."""
    text = unicodedata.normalize("NFC", text).strip()
    sentences, start, i, n = [], 0, 0, len(text)
    while i < n:
        ch = text[i]
        if ch not in ".!?":
            i += 1
            continue
        j = i + 1
        while j < n and text[j] in ".!?":
            j += 1
        k = j
        while k < n and text[k].isspace():
            k += 1
        at_end = k >= n
        split_here = False
        if k > j or at_end:
            if ch in "!?":
                split_here = True
            elif not oracle.abbreviation_before(text, j - 1):
                split_here = at_end or text[k].isupper() or text[k].isdigit() or text[k] in "\"'«(¿¡["
        if split_here:
            if text[start:j].strip():
                sentences.append(text[start:j].strip())
            start = k
        i = j
    if text[start:].strip():
        sentences.append(text[start:].strip())
    return sentences


@settings(max_examples=300, deadline=None)
@given(text=st.lists(st.sampled_from([
    "a", "Ab", "dr.", "Dr.", "et al.", "e.g.", "etc.", "3.5", "10", ".", "..", "!", "?!",
    " ", "  ", "\n", "(", "«", "¿", "'", "É", "e\u0301", "x",
])).map("".join))
def test_split_sentences_equals_character_scan(text):
    assert split_sentences(text) == char_loop_split(text)


# Characters whose lowercase is longer (İ), is ASCII (Kelvin sign) or
# depends on what precedes it (final sigma), placed next to abbreviations.
AWKWARD_CASING = ["İ", "\u212a", "Σ", "ΑΣ", "ς", "ß", "ﬁ", "e\u0301"]
ABBREVIATION_PIECES = [
    *ABBREVIATIONS, *map(str.upper, ABBREVIATIONS), *map(str.title, ABBREVIATIONS),
    *textproc._OPENERS, *AWKWARD_CASING, " ", "\n", "\u00a0", ".", "..", "x",
    "uma frase longa sem ponto ",
]


def test_abbreviation_at_the_start_and_after_each_opener():
    for abbrev in ABBREVIATIONS:
        for case in (str, str.upper, str.title):
            for before in ("", *textproc._OPENERS, " ", "\n", "x", *AWKWARD_CASING):
                for head in ("", "palavra " * 4):
                    text = head + before + case(abbrev)
                    end = len(text) - 1
                    assert textproc._abbreviation_before(text, end) == (
                        oracle.abbreviation_before(text, end)
                    ), text


@settings(max_examples=300, deadline=None)
@given(pieces=st.lists(st.sampled_from(ABBREVIATION_PIECES), max_size=30))
def test_bounded_abbreviation_check_equals_full_prefix(pieces):
    text = "".join(pieces)
    for i, char in enumerate(text):
        if char == ".":
            assert textproc._abbreviation_before(text, i) == oracle.abbreviation_before(text, i)


# ---------------------------------------------------------------------------
# tokens
# ---------------------------------------------------------------------------

def test_tokenize_words_and_punctuation(pt):
    tokens = analyze("gato, cão.", pt).tokens
    assert [(t.surface, t.kind) for t in tokens] == [
        ("gato", TokenKind.WORD),
        (",", TokenKind.PUNCTUATION),
        ("cão", TokenKind.WORD),
        (".", TokenKind.PUNCTUATION),
    ]
    assert [t.sentence_index for t in tokens] == [0, 0, 0, 0]


def test_hyphenated_compound_is_one_token(pt):
    tokens = analyze("anti-inflamatório", pt).tokens
    assert len(tokens) == 1
    assert tokens[0].kind is TokenKind.WORD
    assert tokens[0].normalized == "anti-inflamatório"


def test_digit_runs_are_number_tokens(pt):
    tokens = analyze("10 ratos", pt).tokens
    assert [(t.surface, t.kind) for t in tokens] == [
        ("10", TokenKind.NUMBER),
        ("ratos", TokenKind.WORD),
    ]


def test_normalized_is_lowercase(pt):
    for token in analyze("Gato CÃO Rua", pt).tokens:
        assert token.normalized == token.surface.lower()


# ---------------------------------------------------------------------------
# tagging
# ---------------------------------------------------------------------------

def test_closed_class_lexicon_hit(pt):
    [tagged] = analyze("de", pt).tokens
    assert tagged.tag is PosTag.PREPOSITION
    assert tagged.is_function_word


def test_punctuation_tag(pt):
    [tagged] = analyze(",", pt).tokens
    assert tagged.tag is PosTag.PUNCTUATION
    assert not tagged.is_function_word


def test_mente_suffix_rule(pt):
    assert "rapidamente" not in pt.pos_lexicon  # forces the suffix path
    [tagged] = analyze("rapidamente", pt).tokens
    assert tagged.tag is PosTag.ADVERB


def test_unknown_word_defaults_to_noun(pt):
    [tagged] = analyze("zyxwvut", pt).tokens
    assert tagged.tag is PosTag.NOUN


def test_english_suffixes(en):
    tags = {t.normalized: t.tag for t in analyze("quickly recombination", en).tokens}
    assert tags["quickly"] is PosTag.ADVERB
    assert tags["recombination"] is PosTag.NOUN


def test_tag_coverage_property(pt):
    text = "O gato, 10 ratos e o cão anti-inflamatório correm!"
    tokens = analyze(text, pt).tokens
    assert len(tokens) == len(textproc._TOKEN_RE.findall(text))
    assert all(isinstance(t.tag, PosTag) for t in tokens)


# ---------------------------------------------------------------------------
# named entities
# ---------------------------------------------------------------------------

def test_acronym_marked(pt):
    doc = analyze("Nós estudamos a USP.", pt)
    marked = [t.surface for t in doc.tokens if t.is_named_entity]
    assert marked == ["USP"]
    assert doc.entity_span_count == 1


def test_sentence_initial_capital_not_marked(pt):
    doc = analyze("Este projeto estuda gatos.", pt)
    assert not any(t.is_named_entity for t in doc.tokens)


def test_contiguity_spans(pt):
    doc = analyze("Trabalhamos na Universidade de São Paulo.", pt)
    marked = [t.surface for t in doc.tokens if t.is_named_entity]
    assert marked == ["Universidade", "São", "Paulo"]
    # lowercase "de" splits the run into {Universidade} and {São Paulo}
    assert doc.entity_span_count == 2


def test_punctuation_never_entity(pt):
    doc = analyze("USP, UNICAMP.", pt)
    assert doc.entity_span_count == 2
    for item in doc.tokens:
        if item.kind is TokenKind.PUNCTUATION:
            assert not item.is_named_entity


# ---------------------------------------------------------------------------
# lexicon sets
# ---------------------------------------------------------------------------

def test_builtin_lexicon_invariants(pt, en):
    for lex in (pt, en):
        assert lex.prepositions <= lex.function_words
        assert lex.logical_operators
        assert all(w == w.lower() for w in lex.pos_lexicon)
        assert all(100 <= s <= 700 for s in lex.concreteness.values())


def test_logical_operator_lexicons(pt, en):
    assert pt.logical_operators == frozenset({"e", "ou", "se", "não", "caso"})
    assert en.logical_operators == frozenset({"and", "or", "if", "not", "unless"})


def test_lexicon_set_validation():
    with pytest.raises(ValueError):
        LexiconSet(
            language="pt",
            function_words=frozenset({"a"}),
            prepositions=frozenset({"de"}),  # not a subset
            logical_operators=frozenset({"e"}),
            pos_lexicon={},
            suffix_rules=(),
            concreteness={},
        )
    with pytest.raises(ValueError):
        LexiconSet(
            language="pt",
            function_words=frozenset({"de"}),
            prepositions=frozenset({"de"}),
            logical_operators=frozenset(),  # must be non-empty
            pos_lexicon={},
            suffix_rules=(),
            concreteness={},
        )


def test_custom_lexicon_files_roundtrip(tmp_path):
    (tmp_path / "function_words.txt").write_text("o\na\n", encoding="utf-8")
    (tmp_path / "prepositions.txt").write_text("de\n", encoding="utf-8")
    (tmp_path / "logical_operators.txt").write_text("e\nou\n", encoding="utf-8")
    (tmp_path / "pos_lexicon.tsv").write_text("gato\tnoun\nde\tpreposition\n", encoding="utf-8")
    (tmp_path / "suffix_rules.tsv").write_text("mente\tadverb\n", encoding="utf-8")
    (tmp_path / "concreteness.tsv").write_text("gato\t620\n", encoding="utf-8")
    lex = load_lexicons(tmp_path, "pt")
    assert lex.pos_lexicon["gato"] is PosTag.NOUN
    assert "de" in lex.function_words  # prepositions merged in
    assert lex.concreteness["gato"] == 620.0


# Each custom lexicon file, its first entry non-ASCII so that a Latin-1 copy
# of the file is not UTF-8.
LEXICON_FILES = {
    "function_words.txt": "à\no\n",
    "prepositions.txt": "após\nde\n",
    "logical_operators.txt": "não\ne\n",
    "pos_lexicon.tsv": "ação\tnoun\n",
    "suffix_rules.tsv": "ção\tnoun\n",
    "concreteness.tsv": "pé\t620\n",
}


@pytest.mark.parametrize("name", LEXICON_FILES)
def test_lexicon_byte_order_mark_is_read_as_no_text(tmp_path, name):
    plain, marked = tmp_path / "plain", tmp_path / "marked"
    for directory in (plain, marked):
        directory.mkdir()
        for file, text in LEXICON_FILES.items():
            start = "\ufeff" if directory is marked and file == name else ""
            (directory / file).write_text(start + text, encoding="utf-8")
    assert load_lexicons(marked, "pt") == load_lexicons(plain, "pt")


@pytest.mark.parametrize("name", LEXICON_FILES)
def test_lexicon_file_that_is_not_utf8_names_the_file(tmp_path, name):
    for file, text in LEXICON_FILES.items():
        (tmp_path / file).write_text(text, encoding="latin-1" if file == name else "utf-8")
    with pytest.raises(ValueError, match=re.escape(str(tmp_path / name))):
        load_lexicons(tmp_path, "pt")


# ---------------------------------------------------------------------------
# surface memo
# ---------------------------------------------------------------------------

def uncached_classification(surface, lexicons):
    """The memo entry of ``surface``, computed from the rules alone."""
    first, normalized = surface[0], surface.lower()
    if first.isdigit():
        return (normalized, TokenKind.NUMBER, PosTag.NUMBER, False, False, False)
    if not first.isalpha():
        return (normalized, TokenKind.PUNCTUATION, PosTag.PUNCTUATION, False, False, False)
    tag, is_function = oracle.word_class(normalized, lexicons)
    acronym = len(surface) >= 2 and surface.isalpha() and surface.isupper()
    return (normalized, TokenKind.WORD, tag, is_function, acronym, first.isupper())


def test_word_class_of_every_lexicon_word_equals_uncached_rule(pt, en):
    for lex in (pt, en):
        for word in lex.pos_lexicon:
            assert lex.word_class(word) == oracle.word_class(word, lex)
            assert lex.classify(word)[2:4] == oracle.word_class(word, lex)
            assert lex.classify(word)[2:4] == oracle.word_class(word, lex)  # memo


@settings(max_examples=150, deadline=None)
@given(
    stem=st.text(alphabet="abcdeilmnorstuçãéíó-", min_size=0, max_size=10),
    rule=st.integers(0, 200),
    language=st.sampled_from(["pt", "en"]),
)
def test_word_class_of_generated_words_equals_uncached_rule(stem, rule, language):
    lex = builtin_lexicons(language)
    suffix = lex.suffix_rules[rule % len(lex.suffix_rules)][0] if rule < 100 else ""
    word = stem + suffix
    if not word:
        return
    assert lex.word_class(word) == oracle.word_class(word, lex)
    for surface in (word.title(), word.upper(), word):  # cased forms first
        assert lex.classify(surface) == uncached_classification(surface, lex)
        assert lex.classify(surface) == uncached_classification(surface, lex)


suffix_rule_lists = st.lists(
    st.tuples(st.text(alphabet="aemnt", max_size=4), st.sampled_from(list(PosTag))), max_size=12
)


@settings(max_examples=300, deadline=None)
@given(
    stem=st.text(alphabet="aemnt", max_size=6),
    rule=st.integers(0, 200),
    rules=st.one_of(st.sampled_from(SUPPORTED_LANGUAGES), suffix_rule_lists),
)
def test_suffix_index_equals_scan_over_the_rules(stem, rule, rules):
    # builtin rules, or short overlapping ones from a small alphabet, with
    # repeated suffixes and the empty suffix among them
    if isinstance(rules, str):
        rules = builtin_lexicons(rules).suffix_rules
    lex = LexiconSet(language="pt", function_words=frozenset(), prepositions=frozenset(),
                     logical_operators=frozenset({"e"}), pos_lexicon={}, suffix_rules=tuple(rules),
                     concreteness={})
    suffix = rules[rule % len(rules)][0] if rules and rule < 100 else ""
    word = stem + suffix
    assert textproc._suffix_tag(word, lex._suffix_index) == oracle.suffix_tag(word, rules)


def test_lowercasing_keeps_what_the_memo_relies_on():
    # classify takes a cased word's class from its lowercase form's entry:
    # lowercasing must keep a leading letter a letter and be idempotent
    for code in range(sys.maxunicode + 1):
        char = chr(code)
        if char.isalpha():
            lower = char.lower()
            assert lower[0].isalpha() and lower.lower() == lower, hex(code)


def test_suffix_rules_run_once_per_word_type(monkeypatch):
    calls = []

    def counting(word, rules):
        calls.append(word)
        return real(word, rules)

    real = textproc._suffix_tag
    monkeypatch.setattr(textproc, "_suffix_tag", counting)
    lex = builtin_lexicons("pt")
    text = "Zorbamente estuda rapidamente. Rapidamente zorbamente zorbamente corre!"
    first = analyze(text, lex)
    assert analyze(text, lex) == first
    assert calls and len(calls) == len(set(calls))
    assert sorted(calls) == sorted({
        t.normalized for t in oracle.word_tokens(first) if t.normalized not in lex.pos_lexicon
    })
    other = builtin_lexicons("pt")  # a second set fills its own cache
    analyze(text, other)
    assert len(calls) == 2 * len(set(calls))


def test_lexicon_sets_do_not_share_a_cache(pt, en, tmp_path):
    (tmp_path / "function_words.txt").write_text("o\n", encoding="utf-8")
    (tmp_path / "prepositions.txt").write_text("de\n", encoding="utf-8")
    (tmp_path / "logical_operators.txt").write_text("e\n", encoding="utf-8")
    (tmp_path / "pos_lexicon.tsv").write_text("rapidamente\tverb\n", encoding="utf-8")
    (tmp_path / "suffix_rules.tsv").write_text("ly\tadjective\n", encoding="utf-8")
    (tmp_path / "concreteness.tsv").write_text("gato\t620\n", encoding="utf-8")
    custom = load_lexicons(tmp_path, "pt")
    assert pt.classify("rapidamente")[2:4] == (PosTag.ADVERB, False)
    assert custom.classify("rapidamente")[2:4] == (PosTag.VERB, False)
    assert en.classify("quickly")[2:4] == (PosTag.ADVERB, False)
    assert custom.classify("quickly")[2:4] == (PosTag.ADJECTIVE, False)
    assert pt.classify("de")[2:4] == (PosTag.PREPOSITION, True)
    assert en.classify("de")[2:4] == oracle.word_class("de", en)
    assert custom.classify("de")[2:4] == (PosTag.NOUN, True)  # function word by its list
    assert len({id(pt._surfaces), id(en._surfaces), id(custom._surfaces)}) == 3


def test_lexicon_sets_from_same_files_compare_equal(tmp_path):
    (tmp_path / "function_words.txt").write_text("o\n", encoding="utf-8")
    (tmp_path / "prepositions.txt").write_text("de\n", encoding="utf-8")
    (tmp_path / "logical_operators.txt").write_text("e\n", encoding="utf-8")
    (tmp_path / "pos_lexicon.tsv").write_text("gato\tnoun\n", encoding="utf-8")
    (tmp_path / "suffix_rules.tsv").write_text("mente\tadverb\n", encoding="utf-8")
    (tmp_path / "concreteness.tsv").write_text("gato\t620\n", encoding="utf-8")
    a, b = load_lexicons(tmp_path, "pt"), load_lexicons(tmp_path, "pt")
    a.classify("Rapidamente")
    assert a == b
    assert repr(a) == repr(b)
    warm = builtin_lexicons("en")
    warm.classify("quickly")
    assert warm == builtin_lexicons("en")


# ---------------------------------------------------------------------------
# pipeline properties
# ---------------------------------------------------------------------------

text_strategy = st.text(
    alphabet="abcdeíãé ABC.,!?-10",
    min_size=0,
    max_size=120,
)


@settings(max_examples=60, deadline=None)
@given(text=text_strategy)
def test_pipeline_determinism_and_coverage(text):
    pt = builtin_lexicons("pt")
    first = analyze(text, pt)
    second = analyze(text, pt)
    assert first == second
    words_before = [w for s in split_sentences(text) for w in text_tokens(s)]
    words_after = [t.normalized for t in oracle.word_tokens(first)]
    assert words_before == words_after  # word count invariant through the pipeline


@settings(max_examples=60, deadline=None)
@given(text=text_strategy)
def test_function_word_consistency(text):
    pt = builtin_lexicons("pt")
    for item in analyze(text, pt).tokens:
        if item.is_function_word:
            assert item.tag in CLOSED_CLASS_TAGS or item.normalized in pt.function_words


# ---------------------------------------------------------------------------
# one-pass analyze against the four-stage pipeline
# ---------------------------------------------------------------------------

LEXICONS = {language: builtin_lexicons(language) for language in SUPPORTED_LANGUAGES}

# Letters with and without case, other scripts, superscripts, fractions,
# underscores, combining marks, hyphens, terminators and separators.
wide_text_strategy = st.text(
    alphabet=st.sampled_from(list("aZçÃéßİΣσжЖ中٣²½_\u0301-.,;!?( \n09")),
    max_size=60,
)
PIECES = [
    "o", "gato", "de", "e", "estuda", "rapidamente", "the", "and", "of", "quickly",
    "zyxwvut", "USP", "FAPESP", "DNA", "NIH", "A", "São Paulo", "Instituto Butantan",
    "Universidade de São Paulo", "New York", "anti-inflamatório", "pós-graduação",
    "-foo", "a--b", "10", "3.5", "2,7", "1999", "x²", "²", "½", "Dr.", "Prof.",
    "et al.", "e.g.", "etc.", "Fig.", "e\u0301", "İ", "ß", ",", ";", "(", "«", ".",
    "!", "?", "...", "?!",
]
CASES = (str, str.title, str.upper, str.lower)
piece_text = st.lists(
    st.tuples(st.sampled_from(PIECES), st.sampled_from(CASES)), max_size=25
).map(lambda pieces: " ".join(case(piece) for piece, case in pieces))


@settings(max_examples=300, deadline=None)
@given(text=st.one_of(
    text_strategy,
    wide_text_strategy,
    piece_text,
    st.tuples(piece_text, piece_text),
))
@pytest.mark.parametrize("language", SUPPORTED_LANGUAGES)
def test_one_pass_tokens_equal_four_stage_pipeline(language, text):
    lexicons = LEXICONS[language]
    doc = analyze(text, lexicons)
    expected = oracle.analyze(text, lexicons)
    assert all(type(t) is Token for t in doc.tokens)
    assert list(doc.tokens) == oracle.flat_tokens(expected)
    assert doc.sentence_count == expected.sentence_count
    assert doc.entity_span_count == expected.entity_span_count


@settings(max_examples=40, deadline=None)
@given(texts=st.lists(st.one_of(piece_text, wide_text_strategy), min_size=1, max_size=8))
@pytest.mark.parametrize("language", SUPPORTED_LANGUAGES)
def test_memo_state_changes_no_tokens(language, texts):
    forward, backward = builtin_lexicons(language), builtin_lexicons(language)
    in_order = [analyze(text, forward) for text in texts]
    reversed_order = [analyze(text, backward) for text in reversed(texts)][::-1]
    assert in_order == reversed_order
    for lexicons, docs in ((forward, in_order), (backward, reversed_order)):
        assert {t.surface for doc in docs for t in doc.tokens} <= set(lexicons._surfaces)
        for surface, entry in lexicons._surfaces.items():
            assert entry == uncached_classification(surface, lexicons), surface
