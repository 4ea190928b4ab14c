"""Seeded synthetic grant corpora for the benchmark.

The corpora are built to look like real abstracts to the parts of the
pipeline whose cost depends on the text, and to carry almost no label
signal, so learners and trees behave as they do on real, hard data:

* a Zipf-like vocabulary of a few thousand invented Portuguese-looking
  types, most of them unknown to the bundled lexicons, so they reach the
  suffix-rule tagger (some end in a rule's suffix, most match no rule);
* real function words, prepositions, logical operators and concrete nouns,
  so the lexicon-backed metrics are defined;
* varied sentence lengths and breaks (``.``, ``?``, ``!``, ``;``, commas,
  abbreviations such as ``et al.``), numbers and parentheses;
* a few capitalized names and acronyms mid-sentence, so named-entity
  detection marks spans;
* labels drawn independently of the text except for a faint planted
  signal, with a fixed positive share per area so every balanced resample
  and stratified fold can be built for every seed.

Only the standard library is used, so the corpus for a seed does not depend
on the program under test.  The same arguments give a byte-identical file.
"""

from __future__ import annotations

import csv
import io
import random
from dataclasses import dataclass

AREAS = ("MED", "DENT", "VET")
COLUMNS = ("grant_id", "title_pt", "abstract_pt", "title_en", "abstract_en",
           "subject", "area", "year", "publication_count")

FUNCTION_WORDS = (
    "o", "a", "os", "as", "de", "do", "da", "dos", "das", "em", "no", "na",
    "nos", "nas", "para", "por", "com", "sem", "sobre", "entre", "um", "uma",
    "que", "e", "ou", "se", "não", "como", "mais", "ao", "pelo", "pela",
    "este", "esta", "cada", "também", "ainda", "quando", "porque", "caso",
)
CONCRETE_WORDS = (
    "célula", "proteína", "gene", "sangue", "dente", "osso", "pele", "paciente",
    "hospital", "amostra", "laboratório", "animal", "planta", "vírus", "bactéria",
    "teoria", "conceito", "método", "análise", "processo", "efeito", "modelo",
)
PROPER_NAMES = (
    "Brasil", "Paulo", "Campinas", "Ribeirão", "Botucatu", "Santos",
    "FAPESP", "USP", "UNESP", "SUS", "DNA", "RNA", "OMS", "CNPq",
)
ABBREVIATED = ("et al.", "Dr.", "Profa.", "cf.", "fig.", "ca.")

_ONSETS = ("b", "c", "d", "f", "g", "l", "m", "n", "p", "r", "s", "t", "v",
           "br", "cr", "pr", "tr", "ch", "lh", "nh", "gr", "pl", "qu")
_VOWELS = ("a", "e", "i", "o", "u", "a", "e", "o", "ã", "é", "ó", "í")
_CODAS = ("", "", "", "", "r", "s", "n", "l")
# Endings that match a Portuguese suffix rule (adverb, noun, adjective,
# verb); words without one fall through every rule to the default tag.
_SUFFIXES = ("mente", "ção", "ções", "dade", "agem", "ismo", "logia", "ável",
             "ível", "oso", "osa", "ico", "ica", "ando", "endo", "aram")

CONTENT_TYPES = 3000
ZIPF_EXPONENT = 1.05
FUNCTION_SHARE = 0.38
NAME_SHARE = 0.02
POSITIVE_SHARE = 0.42
SIGNAL_TYPES = 40
SIGNAL_RATE = (0.010, 0.022)  # (negative, positive) per content word


@dataclass(frozen=True)
class CorpusSpec:
    """Size of one workload's corpus; the seed is supplied separately."""

    records_per_area: int
    words_per_doc: int


def _invent_word(rng: random.Random) -> str:
    syllables = rng.choice((2, 2, 3, 3, 3, 4))
    word = "".join(rng.choice(_ONSETS) + rng.choice(_VOWELS) for _ in range(syllables))
    if rng.random() < 0.3:
        return word + rng.choice(_SUFFIXES)
    return word + rng.choice(_CODAS)


def _vocabulary(rng: random.Random) -> list[str]:
    reserved = set(FUNCTION_WORDS) | set(CONCRETE_WORDS)
    words: list[str] = []
    seen: set[str] = set()
    while len(words) < CONTENT_TYPES:
        word = _invent_word(rng)
        if word not in seen and word not in reserved:
            seen.add(word)
            words.append(word)
    # concrete nouns sit among the frequent types so concreteness is defined
    for rank, word in enumerate(CONCRETE_WORDS):
        words.insert(3 + 7 * rank, word)
    return words


class _Writer:
    """Draws words and sentences for one corpus from one PRNG."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.vocabulary = _vocabulary(rng)
        weights = [1.0 / (rank + 2.7) ** ZIPF_EXPONENT for rank in range(len(self.vocabulary))]
        total = 0.0
        self.cum_weights = []
        for weight in weights:
            total += weight
            self.cum_weights.append(total)
        # the signal words come from the middle of the frequency range
        self.signal = self.vocabulary[200:200 + SIGNAL_TYPES]

    def content_word(self, signal_rate: float) -> str:
        rng = self.rng
        if rng.random() < signal_rate:
            return rng.choice(self.signal)
        return rng.choices(self.vocabulary, cum_weights=self.cum_weights)[0]

    def word(self, signal_rate: float) -> str:
        rng = self.rng
        roll = rng.random()
        if roll < NAME_SHARE:
            return rng.choice(PROPER_NAMES)
        if roll < NAME_SHARE + FUNCTION_SHARE:
            return rng.choice(FUNCTION_WORDS)
        return self.content_word(signal_rate)

    def sentence(self, length: int, signal_rate: float) -> str:
        rng = self.rng
        words = [self.word(signal_rate) for _ in range(length)]
        words[0] = words[0][0].upper() + words[0][1:]
        for i in range(2, length - 1):
            roll = rng.random()
            if roll < 0.06:
                words[i] += ","
            elif roll < 0.075:
                words[i] = f"{rng.randrange(2, 500)},{rng.randrange(10)}"
            elif roll < 0.085:
                words[i] = rng.choice(ABBREVIATED)
            elif roll < 0.092:
                words[i] = f"({words[i]})"
        end = rng.choices((".", "?", "!", ";"), weights=(88, 4, 2, 6))[0]
        return " ".join(words) + end

    def text(self, n_words: int, signal_rate: float) -> str:
        sentences = []
        remaining = n_words
        while remaining > 0:
            length = min(remaining, max(3, int(self.rng.gauss(17, 7))))
            sentences.append(self.sentence(max(length, 2), signal_rate))
            remaining -= length
        return " ".join(sentences)


def generate_rows(spec: CorpusSpec, seed: int) -> list[dict]:
    """Corpus rows in file order: areas interleaved, ids unique."""
    rng = random.Random(seed)
    writer = _Writer(rng)
    rows = []
    for area_index, area in enumerate(AREAS):
        n = spec.records_per_area
        n_positive = round(n * POSITIVE_SHARE)
        labels = [True] * n_positive + [False] * (n - n_positive)
        rng.shuffle(labels)
        for i, positive in enumerate(labels):
            rate = SIGNAL_RATE[positive]
            length = max(8, int(spec.words_per_doc * rng.uniform(0.7, 1.3)))
            year = rng.randrange(2005, 2016)
            serial = area_index * 10000 + i
            rows.append({
                "grant_id": f"{year}/{serial:05d}-{rng.randrange(10)}",
                "title_pt": writer.sentence(rng.randrange(4, 11), rate).rstrip(".?!;"),
                "abstract_pt": writer.text(length, rate),
                "title_en": "",
                "abstract_en": "",
                "subject": ";".join(writer.content_word(0.0) for _ in range(rng.randrange(1, 4))),
                "area": area,
                "year": year,
                "publication_count": rng.randrange(1, 9) if positive else 0,
            })
    order = list(range(len(rows)))
    rng.shuffle(order)
    return [rows[i] for i in order]


def corpus_csv(spec: CorpusSpec, seed: int) -> str:
    """The corpus as CSV text (header, then one row per grant)."""
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=COLUMNS, lineterminator="\n")
    writer.writeheader()
    writer.writerows(generate_rows(spec, seed))
    return buffer.getvalue()


def corpus_stats(spec: CorpusSpec, seed: int, text: str) -> dict:
    """What a result records about the input it was measured on."""
    rows = list(csv.DictReader(io.StringIO(text)))
    words = [len(row["abstract_pt"].split()) for row in rows]
    return {
        "seed": seed,
        "records": len(rows),
        "records_per_area": spec.records_per_area,
        "words_per_doc_target": spec.words_per_doc,
        "words_per_doc_mean": sum(words) / len(words),
        "positive_share": sum(int(row["publication_count"]) > 0 for row in rows) / len(rows),
    }
