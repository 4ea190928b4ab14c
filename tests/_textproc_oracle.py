"""The four-stage text pipeline that ``textproc.analyze`` replaces.

The oracle for the one-pass ``analyze``: sentences are tokenized, the tokens
tagged, and the tagged tokens marked for named entities, each stage building
its own objects.  ``flat_tokens`` turns its output into the 7-tuples that
``textproc.Token`` holds, so the two token streams compare with ``==``.
``abbreviation_before`` is the sentence splitter's abbreviation check over
the whole text before the period, and ``suffix_tag`` the scan over every
suffix rule that ``textproc._suffix_tag``'s index replaces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from grantprod.textproc import (
    _OPENERS,
    _TOKEN_RE,
    ABBREVIATIONS,
    CLOSED_CLASS_TAGS,
    LexiconSet,
    PosTag,
    TokenKind,
    split_sentences,
)


def word_tokens(doc) -> list:
    """The word tokens of a ``textproc.analyze`` document, in order."""
    return [t for t in doc.tokens if t.kind is TokenKind.WORD]


def abbreviation_before(text: str, period_index: int) -> bool:
    """Whether the period at ``period_index`` closes a known abbreviation.

    The whole text up to the period is lowercased, the reference for the
    bounded window of ``textproc._abbreviation_before``.
    """
    prefix = text[: period_index + 1].lower()
    for abbrev in ABBREVIATIONS:
        if prefix.endswith(abbrev):
            start = len(prefix) - len(abbrev)
            if start == 0 or prefix[start - 1].isspace() or prefix[start - 1] in _OPENERS:
                return True
    return False


def suffix_tag(word: str, rules: Sequence[tuple[str, PosTag]]) -> PosTag | None:
    """The tag of the first rule in file order whose suffix ends ``word`` and is shorter than it."""
    for suffix, tag in rules:
        if len(word) > len(suffix) and word.endswith(suffix):
            return tag
    return None


def word_class(word: str, lexicons: LexiconSet) -> tuple[PosTag, bool]:
    """Tag (lexicon, then the suffix scan, then noun) and function-word flag of a word."""
    tag = lexicons.pos_lexicon.get(word)
    if tag is None:
        tag = suffix_tag(word, lexicons.suffix_rules)
    if tag is None:
        tag = PosTag.NOUN
    return tag, tag in CLOSED_CLASS_TAGS or word in lexicons.function_words


@dataclass(frozen=True)
class Token:
    surface: str
    normalized: str
    kind: TokenKind
    sentence_index: int
    position_in_sentence: int


@dataclass(frozen=True)
class TaggedToken:
    token: Token
    tag: PosTag
    is_function_word: bool
    is_named_entity: bool = False


def tokenize(sentence: str, sentence_index: int = 0) -> list[Token]:
    """Split one sentence into word/number/punctuation tokens."""
    tokens: list[Token] = []
    for position, surface in enumerate(_TOKEN_RE.findall(sentence)):
        first = surface[0]
        if first.isdigit():
            kind = TokenKind.NUMBER
        elif first.isalpha():
            kind = TokenKind.WORD
        else:
            kind = TokenKind.PUNCTUATION
        tokens.append(Token(surface, surface.lower(), kind, sentence_index, position))
    return tokens


def tag_pos(tokens: Sequence[Token], lexicons: LexiconSet) -> list[TaggedToken]:
    """Assign exactly one tag per token: lexicon, then suffix rules, then noun."""
    tagged: list[TaggedToken] = []
    for token in tokens:
        if token.kind is TokenKind.WORD:
            tag, is_function = word_class(token.normalized, lexicons)
        elif token.kind is TokenKind.PUNCTUATION:
            tag, is_function = PosTag.PUNCTUATION, False
        else:
            tag, is_function = PosTag.NUMBER, False
        tagged.append(TaggedToken(token, tag, is_function))
    return tagged


def detect_named_entities(tagged: Sequence[TaggedToken]) -> tuple[list[TaggedToken], int]:
    """Mark NE word tokens and count contiguous marked spans.

    A word token is marked iff it is an all-caps acronym (length >= 2), or it
    is capitalized and not the first word token of its sentence.  Contiguous
    marked tokens (adjacent positions in one sentence) form a single span;
    any unmarked token in between, including lowercase connectives, splits
    the span.
    """
    first_word_position: dict[int, int] = {}
    marked: list[TaggedToken] = []
    spans = 0
    previous: Token | None = None
    for item in tagged:
        tok = item.token
        flag = False
        if tok.kind is TokenKind.WORD:
            surface = tok.surface
            first = first_word_position.setdefault(tok.sentence_index, tok.position_in_sentence)
            acronym = len(surface) >= 2 and surface.isalpha() and surface.isupper()
            capitalized = surface[0].isalpha() and surface[0].isupper()
            flag = acronym or (capitalized and first != tok.position_in_sentence)
        if flag != item.is_named_entity:
            item = TaggedToken(tok, item.tag, item.is_function_word, flag)
        marked.append(item)
        if flag:
            contiguous = (
                previous is not None
                and previous.sentence_index == tok.sentence_index
                and previous.position_in_sentence == tok.position_in_sentence - 1
            )
            if not contiguous:
                spans += 1
            previous = tok
        else:
            previous = None
    return marked, spans


@dataclass(frozen=True)
class TaggedDocument:
    """Output of the full pipeline over one text."""

    sentence_count: int
    tokens: tuple[TaggedToken, ...]
    entity_span_count: int

    def word_tokens(self) -> list[TaggedToken]:
        return [t for t in self.tokens if t.token.kind is TokenKind.WORD]


def analyze(text: str | Sequence[str], lexicons: LexiconSet) -> TaggedDocument:
    """Run split -> tokenize -> tag -> NE detection over one document.

    A document given as a sequence of parts (a title and an abstract) is
    split into sentences part by part, so no sentence spans two parts.
    """
    parts = [text] if isinstance(text, str) else text
    sentences = [sentence for part in parts for sentence in split_sentences(part)]
    tokens: list[Token] = []
    for index, sentence in enumerate(sentences):
        tokens.extend(tokenize(sentence, index))
    tagged = tag_pos(tokens, lexicons)
    tagged, spans = detect_named_entities(tagged)
    return TaggedDocument(
        sentence_count=len(sentences),
        tokens=tuple(tagged),
        entity_span_count=spans,
    )


def flat_tokens(doc: TaggedDocument) -> list[tuple]:
    """Each tagged token as (surface, normalized, kind, sentence_index, tag,
    is_function_word, is_named_entity)."""
    return [
        (t.token.surface, t.token.normalized, t.token.kind, t.token.sentence_index,
         t.tag, t.is_function_word, t.is_named_entity)
        for t in doc.tokens
    ]
