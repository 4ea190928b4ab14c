"""Lexicon-driven text processing: sentences, tokens, coarse POS tags, NE marks.

Everything here is rule-based and deterministic on purpose: the downstream
metrics only need coarse word-class counts, and a statistical tagger would
make runs irreproducible across environments.  Closed-class lexicons carry
most of the weight; unknown words fall back to suffix rules and finally to
the content-word default (noun).
"""

from __future__ import annotations

import re
import unicodedata
from dataclasses import dataclass, field
from enum import Enum
from importlib import resources
from pathlib import Path
from typing import NamedTuple, Sequence


class TokenKind(Enum):
    WORD = "word"
    PUNCTUATION = "punctuation"
    NUMBER = "number"


class PosTag(Enum):
    NOUN = "noun"
    VERB = "verb"
    ADJECTIVE = "adjective"
    ADVERB = "adverb"
    PREPOSITION = "preposition"
    PRONOUN = "pronoun"
    DETERMINER = "determiner"
    CONJUNCTION = "conjunction"
    INTERJECTION = "interjection"
    PUNCTUATION = "punctuation"
    NUMBER = "number"
    OTHER = "other"


CLOSED_CLASS_TAGS = frozenset(
    {PosTag.PREPOSITION, PosTag.PRONOUN, PosTag.DETERMINER, PosTag.CONJUNCTION}
)

SUPPORTED_LANGUAGES = ("pt", "en")

# Trailing abbreviations that must not terminate a sentence.  Matched
# case-insensitively against the text ending at the period.
ABBREVIATIONS = (
    "dr.", "dra.", "sr.", "sra.", "prof.", "profa.", "et al.", "al.",
    "e.g.", "i.e.", "etc.", "cf.", "vs.", "no.", "fig.", "eq.", "ca.", "approx.",
)


class SurfaceClass(NamedTuple):
    """The fields of a token that its surface decides, whatever its sentence."""

    normalized: str
    kind: TokenKind
    tag: PosTag
    is_function_word: bool
    is_acronym: bool  # all-caps word of length >= 2
    is_capitalized: bool  # word whose first letter is uppercase


class Token(NamedTuple):
    """One match of the token pattern, tagged and marked in its sentence."""

    surface: str
    normalized: str
    kind: TokenKind
    sentence_index: int
    tag: PosTag
    is_function_word: bool
    is_named_entity: bool


@dataclass(frozen=True)
class LexiconSet:
    """Closed-class word lists, POS lexicon, suffix rules, concreteness norms.

    Invariants: prepositions are a subset of the function words, the logical
    operator list is non-empty, all keys are lowercase, and concreteness
    scores live on the 100-700 norm scale.
    """

    language: str
    function_words: frozenset[str]
    prepositions: frozenset[str]
    logical_operators: frozenset[str]
    pos_lexicon: dict[str, PosTag]
    suffix_rules: tuple[tuple[str, PosTag], ...]
    concreteness: dict[str, float]
    # token surface -> its SurfaceClass, filled by classify
    _surfaces: dict[str, SurfaceClass] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    # suffix length (ascending) -> suffix -> (file position, tag) of its earliest rule
    _suffix_index: dict[int, dict[str, tuple[int, PosTag]]] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self):
        if self.language not in SUPPORTED_LANGUAGES:
            raise ValueError(f"unsupported language '{self.language}'")
        if not self.prepositions <= self.function_words:
            raise ValueError("prepositions must be a subset of function_words")
        if not self.logical_operators:
            raise ValueError("logical_operators must be non-empty")
        for group in (self.function_words, self.prepositions, self.logical_operators):
            for word in group:
                if word != word.lower():
                    raise ValueError(f"lexicon entry '{word}' is not lowercase")
        for word in self.pos_lexicon:
            if word != word.lower():
                raise ValueError(f"pos lexicon entry '{word}' is not lowercase")
        for word, score in self.concreteness.items():
            if word != word.lower():
                raise ValueError(f"concreteness entry '{word}' is not lowercase")
            if not 100.0 <= score <= 700.0:
                raise ValueError(f"concreteness score for '{word}' outside [100, 700]")
        index: dict = {}
        for position, (suffix, tag) in enumerate(self.suffix_rules):
            index.setdefault(len(suffix), {}).setdefault(suffix, (position, tag))
        object.__setattr__(self, "_suffix_index", dict(sorted(index.items())))

    def word_class(self, word: str) -> tuple[PosTag, bool]:
        """Tag and function-word flag of a normalized word token.

        The tag comes from the POS lexicon, then the suffix rules in file
        order, then the noun default.
        """
        tag = self.pos_lexicon.get(word)
        if tag is None:
            tag = _suffix_tag(word, self._suffix_index)
        if tag is None:
            tag = PosTag.NOUN
        return tag, tag in CLOSED_CLASS_TAGS or word in self.function_words

    def classify(self, surface: str) -> SurfaceClass:
        """What a token's surface alone decides, computed once per surface.

        A token is a number, a word or a punctuation mark by its first
        character.  A word's tag and flag are ``word_class`` of its
        lowercase form, and a cased word shares the entry of that form, so
        the rule runs once per normalized word.  Numbers and punctuation
        carry their own tag and are never acronyms or capitalized.
        """
        cached = self._surfaces.get(surface)
        if cached is not None:
            return cached
        first = surface[0]
        normalized = surface.lower()
        if first.isdigit():
            kind, tag, is_function = TokenKind.NUMBER, PosTag.NUMBER, False
        elif first.isalpha():
            kind = TokenKind.WORD
            if normalized == surface:
                tag, is_function = self.word_class(normalized)
            else:  # lowercasing is idempotent and keeps a leading letter a letter
                tag, is_function = self.classify(normalized)[2:4]
        else:
            kind, tag, is_function = TokenKind.PUNCTUATION, PosTag.PUNCTUATION, False
        word = kind is TokenKind.WORD
        acronym = word and len(surface) >= 2 and surface.isalpha() and surface.isupper()
        cached = SurfaceClass(normalized, kind, tag, is_function, acronym, word and first.isupper())
        self._surfaces[surface] = cached
        return cached


def _suffix_tag(word: str, index: dict[int, dict[str, tuple[int, PosTag]]]) -> PosTag | None:
    """The tag of the first rule, in file order, whose suffix is a proper suffix of ``word``.

    One dict probe per suffix length shorter than the word, in place of a
    scan over every rule.
    """
    first = None
    for length, rules in index.items():
        if length >= len(word):
            break
        hit = rules.get(word[len(word) - length:])
        if hit is not None and (first is None or hit[0] < first[0]):
            first = hit
    return None if first is None else first[1]


# ---------------------------------------------------------------------------
# Sentence splitting
# ---------------------------------------------------------------------------

_OPENERS = "\"'«(¿¡["
_TERMINATOR_RUN_RE = re.compile(r"[.!?]+")


# Lowercasing never shortens a string, so the lowercased tail of this many
# characters holds the longest abbreviation and the character before it.
_ABBREVIATION_WINDOW = max(map(len, ABBREVIATIONS)) + 1


def _abbreviation_before(text: str, period_index: int) -> bool:
    end = period_index + 1
    tail = text[max(0, end - _ABBREVIATION_WINDOW) : end].lower()
    if not tail.endswith(ABBREVIATIONS):
        return False
    for abbrev in ABBREVIATIONS:
        if tail.endswith(abbrev):
            start = len(tail) - len(abbrev)
            if start == 0 or tail[start - 1].isspace() or tail[start - 1] in _OPENERS:
                return True
    return False


def split_sentences(text: str) -> list[str]:
    """Split NFC-normalized text into sentences.

    '!' and '?' always terminate.  A '.' terminates only when it does not
    close a known abbreviation and the next non-space character looks like a
    sentence opener (uppercase letter, digit, or opening quote/bracket).
    """
    text = unicodedata.normalize("NFC", text).strip()
    if not text:
        return []

    sentences: list[str] = []
    start = 0
    n = len(text)
    for run in _TERMINATOR_RUN_RE.finditer(text):
        i, j = run.span()
        ch = text[i]
        k = j
        while k < n and text[k].isspace():
            k += 1
        at_end = k >= n
        followed_by_space = k > j or at_end

        split_here = False
        if followed_by_space:
            if ch in "!?":
                split_here = True
            elif not _abbreviation_before(text, j - 1):
                split_here = at_end or text[k].isupper() or text[k].isdigit() or text[k] in _OPENERS

        if split_here:
            sentence = text[start:j].strip()
            if sentence:
                sentences.append(sentence)
            start = k

    tail = text[start:].strip()
    if tail:
        sentences.append(tail)
    return sentences


# ---------------------------------------------------------------------------
# Document pipeline
# ---------------------------------------------------------------------------

# Numbers first (so "3.5" stays whole), then words with internal hyphens,
# then any remaining non-space character as punctuation.
_TOKEN_RE = re.compile(r"\d+(?:[.,]\d+)*|[^\W\d_]+(?:-[^\W\d_]+)*|\S", re.UNICODE)


@dataclass(frozen=True)
class TaggedDocument:
    """Output of the full pipeline over one text."""

    sentence_count: int
    tokens: tuple[Token, ...]
    entity_span_count: int

    def word_tokens(self) -> list[Token]:
        return [t for t in self.tokens if t.kind is TokenKind.WORD]


def analyze(text: str | Sequence[str], lexicons: LexiconSet) -> TaggedDocument:
    """Split one document into sentences and build every token in one pass.

    A document given as a sequence of parts (a title and an abstract) is
    split into sentences part by part, so no sentence spans two parts.
    Each match of the token pattern takes its normalized form, kind, tag
    and function-word flag from ``LexiconSet.classify``, which computes
    them once per surface.  A word is a named entity iff it is an all-caps
    acronym (length >= 2), or it is capitalized and not the first word of
    its sentence.
    Adjacent marked tokens of one sentence form a single span; any unmarked
    token in between, including a lowercase connective, splits the span.
    """
    parts = [text] if isinstance(text, str) else text
    sentences = [sentence for part in parts for sentence in split_sentences(part)]
    surfaces = lexicons._surfaces
    classify = lexicons.classify
    word = TokenKind.WORD
    tokens: list[Token] = []
    append = tokens.append
    spans = 0
    for index, sentence in enumerate(sentences):
        after_first_word = False
        previous_marked = False
        for surface in _TOKEN_RE.findall(sentence):
            normalized, kind, tag, is_function, acronym, capitalized = (
                surfaces.get(surface) or classify(surface)
            )
            marked = acronym or (after_first_word and capitalized)
            if kind is word:
                after_first_word = True
            if marked and not previous_marked:
                spans += 1
            previous_marked = marked
            append(tuple.__new__(Token, (surface, normalized, kind, index, tag, is_function, marked)))
    return TaggedDocument(
        sentence_count=len(sentences),
        tokens=tuple(tokens),
        entity_span_count=spans,
    )


# ---------------------------------------------------------------------------
# Lexicon files
# ---------------------------------------------------------------------------
#
# Plain-text formats, one entry per line, UTF-8:
#   word lists            word
#   pos lexicon           word<TAB>tag
#   suffix rules          suffix<TAB>tag     (tried in file order)
#   concreteness norms    word<TAB>score     (score on the 100-700 scale)

def _read_lines(path: Path) -> list[str]:
    lines = []
    for raw in path.read_text(encoding="utf-8").splitlines():
        line = raw.strip()
        if line and not line.startswith("#"):
            lines.append(line)
    return lines


def load_wordlist(path: str | Path) -> frozenset[str]:
    return frozenset(unicodedata.normalize("NFC", line.lower()) for line in _read_lines(Path(path)))


def _split_tab(line: str, path: Path) -> tuple[str, str]:
    parts = line.split("\t")
    if len(parts) != 2:
        raise ValueError(f"{path}: expected 'entry<TAB>value', got '{line}'")
    return parts[0], parts[1]


def load_pos_lexicon(path: str | Path) -> dict[str, PosTag]:
    path = Path(path)
    lexicon: dict[str, PosTag] = {}
    for line in _read_lines(path):
        word, tag = _split_tab(line, path)
        lexicon[unicodedata.normalize("NFC", word.lower())] = PosTag(tag)
    return lexicon


def load_suffix_rules(path: str | Path) -> tuple[tuple[str, PosTag], ...]:
    path = Path(path)
    rules = []
    for line in _read_lines(path):
        suffix, tag = _split_tab(line, path)
        rules.append((unicodedata.normalize("NFC", suffix.lower()), PosTag(tag)))
    return tuple(rules)


def load_concreteness(path: str | Path) -> dict[str, float]:
    path = Path(path)
    scores: dict[str, float] = {}
    for line in _read_lines(path):
        word, value = _split_tab(line, path)
        scores[unicodedata.normalize("NFC", word.lower())] = float(value)
    return scores


_LEXICON_FILES = {
    "function_words": "function_words.txt",
    "prepositions": "prepositions.txt",
    "logical_operators": "logical_operators.txt",
    "pos_lexicon": "pos_lexicon.tsv",
    "suffix_rules": "suffix_rules.tsv",
    "concreteness": "concreteness.tsv",
}


def load_lexicons(directory: str | Path, language: str) -> LexiconSet:
    """Load a LexiconSet from a directory holding the six fixed-name files."""
    directory = Path(directory)
    prepositions = load_wordlist(directory / _LEXICON_FILES["prepositions"])
    function_words = load_wordlist(directory / _LEXICON_FILES["function_words"]) | prepositions
    return LexiconSet(
        language=language,
        function_words=frozenset(function_words),
        prepositions=prepositions,
        logical_operators=load_wordlist(directory / _LEXICON_FILES["logical_operators"]),
        pos_lexicon=load_pos_lexicon(directory / _LEXICON_FILES["pos_lexicon"]),
        suffix_rules=load_suffix_rules(directory / _LEXICON_FILES["suffix_rules"]),
        concreteness=load_concreteness(directory / _LEXICON_FILES["concreteness"]),
    )


def builtin_lexicons(language: str) -> LexiconSet:
    """The lexicons bundled with the package (pt and en)."""
    if language not in SUPPORTED_LANGUAGES:
        raise ValueError(f"no builtin lexicons for language '{language}'")
    root = resources.files("grantprod").joinpath("data", language)
    with resources.as_file(root) as directory:
        return load_lexicons(directory, language)
