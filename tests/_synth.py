"""Synthetic corpora shared across tests.

Everything is generated through the package's own portable PRNG so tests are
bit-stable across platforms and runs.
"""

from __future__ import annotations

import csv
from pathlib import Path

from grantprod.corpus import Area, GrantRecord, Label
from grantprod.seeds import SplitMix64, derive_seed

POSITIVE_TOPIC = ["gene", "terapia", "clinico", "celula", "proteina", "molecular", "receptor", "tumor"]
NEGATIVE_TOPIC = ["esmalte", "dentina", "oclusao", "implante", "ortodontia", "periodontal", "canal", "resina"]
FILLER = ["estudo", "projeto", "analise", "avaliacao", "pacientes", "grupo", "metodo",
          "resultados", "efeito", "tratamento", "amostra", "dados", "processo", "modelo"]


def planted_topic_corpus(n=400, seed=11, signal_pct=55, words_per_doc=25,
                         area=Area.MED) -> list[tuple[GrantRecord, Label]]:
    """Balanced corpus whose class-conditional word distributions differ."""
    rng = SplitMix64(seed)
    labeled = []
    for i in range(n):
        positive = i % 2 == 0
        topic = POSITIVE_TOPIC if positive else NEGATIVE_TOPIC
        words = [
            topic[rng.randbelow(len(topic))]
            if rng.randbelow(100) < signal_pct
            else FILLER[rng.randbelow(len(FILLER))]
            for _ in range(words_per_doc)
        ]
        record = GrantRecord(
            grant_id=f"2010/{10000 + i:05d}-{i % 10}",
            title_pt="Projeto de pesquisa",
            abstract_pt=" ".join(words) + ".",
            title_en="Research project",
            abstract_en=" ".join(words) + ".",
            subject=("biologia", "saude"),
            area=area,
            year=2010,
            publication_count=1 if positive else 0,
        )
        labeled.append((record, Label.PRODUCTIVE if positive else Label.ZERO_PUBLICATIONS))
    return labeled


def shuffled_labels(labeled, seed):
    """Same records, labels permuted: the empirical null."""
    labels = [label for _, label in labeled]
    rng = SplitMix64(seed)
    rng.shuffle(labels)
    return [(record, label) for (record, _), label in zip(labeled, labels)]


def planted_ne_corpus(n=160, seed=3) -> list[tuple[GrantRecord, Label]]:
    """Corpus where ne_ratio is the only complexity feature separating classes.

    All records share one base abstract; productive records capitalize a few
    mid-sentence words (named-entity marks), which leaves every other metric
    untouched because tagging works on lowercased forms.
    """
    rng = SplitMix64(seed)
    base = ("o estudo avalia o efeito do tratamento em pacientes do grupo e "
            "analisa dados de amostras em modelos de processo").split()
    labeled = []
    for i in range(n):
        positive = i % 2 == 0
        words = list(base)
        if positive:
            eligible = [j for j in range(1, len(words)) if len(words[j]) > 2]
            for _ in range(2 + rng.randbelow(4)):
                j = eligible[rng.randbelow(len(eligible))]
                words[j] = words[j].capitalize()
        record = GrantRecord(
            grant_id=f"2012/{30000 + i:05d}-{i % 10}",
            title_pt="projeto",
            abstract_pt=" ".join(words) + ".",
            area=Area.VET,
            year=2012,
            publication_count=1 if positive else 0,
        )
        labeled.append((record, Label.PRODUCTIVE if positive else Label.ZERO_PUBLICATIONS))
    return labeled


def mixed_area_corpus(n=144, seed=7) -> list[GrantRecord]:
    """Topic-planted corpus spread over MED, DENT and VET for CLI runs."""
    rng = SplitMix64(seed)
    records = []
    for i in range(n):
        positive = i % 2 == 0
        topic = POSITIVE_TOPIC if positive else NEGATIVE_TOPIC
        words = [
            topic[rng.randbelow(len(topic))]
            if rng.randbelow(100) < 50
            else FILLER[rng.randbelow(8)]
            for _ in range(20)
        ]
        records.append(GrantRecord(
            grant_id=f"2013/{40000 + i:05d}-{i % 10}",
            title_pt="Estudo de caso",
            abstract_pt=" ".join(words) + ".",
            title_en="Case study",
            abstract_en=" ".join(words) + ".",
            subject=("biologia", "saude"),
            area=[Area.MED, Area.DENT, Area.VET][i % 3],
            year=2013,
            publication_count=2 if positive else 0,
        ))
    return records


SYLLABLES = ["ba", "ce", "di", "fo", "gu", "la", "me", "ni", "po", "ru", "sa", "te", "vi", "zo"]
FUNCTION_WORDS = ["o", "a", "de", "do", "da", "em", "para", "com", "que", "e"]


def wide_vocabulary_corpus(n=60, seed=17, words_per_doc=150,
                           signal_pct=5) -> list[tuple[GrantRecord, Label]]:
    """Balanced corpus of long abstracts over a vocabulary far wider than the corpus.

    Each word is a class topic word with probability ``signal_pct`` %, a
    function word with probability 40% minus that, and otherwise one of 784
    invented three-syllable words, the lower-ranked ones more often (the
    smaller of two uniform ranks).  A tf-idf training fold then has several
    hundred columns for a few dozen rows, and each entry is small.
    """
    rng = SplitMix64(seed)
    vocabulary = [a + b + c for a in SYLLABLES for b in SYLLABLES for c in SYLLABLES[:4]]
    labeled = []
    for i in range(n):
        positive = i % 2 == 0
        topic = POSITIVE_TOPIC if positive else NEGATIVE_TOPIC
        words = []
        for _ in range(words_per_doc):
            draw = rng.randbelow(100)
            if draw < signal_pct:
                words.append(topic[rng.randbelow(len(topic))])
            elif draw < 40:
                words.append(FUNCTION_WORDS[rng.randbelow(len(FUNCTION_WORDS))])
            else:
                rank = min(rng.randbelow(len(vocabulary)), rng.randbelow(len(vocabulary)))
                words.append(vocabulary[rank])
        record = GrantRecord(
            grant_id=f"2015/{70000 + i:05d}-{i % 10}",
            title_pt="Projeto",
            abstract_pt=" ".join(words) + ".",
            area=Area.MED,
            year=2015,
            publication_count=1 if positive else 0,
        )
        labeled.append((record, Label.PRODUCTIVE if positive else Label.ZERO_PUBLICATIONS))
    return labeled


POSITIVE_TOPIC_EN = ["gene", "therapy", "clinical", "cell", "protein", "molecular", "receptor", "tumor"]
NEGATIVE_TOPIC_EN = ["enamel", "dentin", "occlusion", "implant", "orthodontics", "periodontal",
                     "canal", "resin"]
FILLER_EN = ["study", "project", "analysis", "evaluation", "patients", "group", "method", "effect"]
POSITIVE_SUBJECTS = ["genetics", "oncology", "immunology", "pharmacology"]
NEGATIVE_SUBJECTS = ["dentistry", "prosthodontics", "endodontics", "radiology"]


def english_title_corpus(n=72, seed=13) -> list[GrantRecord]:
    """Corpus over MED, DENT and VET whose English titles and subject lists vary.

    A title has 3-6 words, each a word of the record's class topic with
    probability 40% and filler otherwise; a record has 1-3 subjects, each
    from its class's list with probability 70% and from the other's
    otherwise.  The abstracts are fixed, so only titles and subjects carry
    signal.
    """
    rng = SplitMix64(seed)
    records = []
    for i in range(n):
        positive = i % 2 == 0
        topic = POSITIVE_TOPIC_EN if positive else NEGATIVE_TOPIC_EN
        own, other = ((POSITIVE_SUBJECTS, NEGATIVE_SUBJECTS) if positive
                      else (NEGATIVE_SUBJECTS, POSITIVE_SUBJECTS))
        title = [
            topic[rng.randbelow(len(topic))]
            if rng.randbelow(100) < 40
            else FILLER_EN[rng.randbelow(len(FILLER_EN))]
            for _ in range(3 + rng.randbelow(4))
        ]
        subjects = [
            (own if rng.randbelow(100) < 70 else other)[rng.randbelow(4)]
            for _ in range(1 + rng.randbelow(3))
        ]
        records.append(GrantRecord(
            grant_id=f"2014/{60000 + i:05d}-{i % 10}",
            title_pt="Estudo de caso",
            abstract_pt="Resumo do projeto.",
            title_en=" ".join(title).capitalize(),
            abstract_en="Project abstract.",
            subject=tuple(subjects),
            area=[Area.MED, Area.DENT, Area.VET][i % 3],
            year=2014,
            publication_count=1 if positive else 0,
        ))
    return records


def write_corpus_csv(records, path: Path) -> None:
    columns = ["grant_id", "title_pt", "abstract_pt", "title_en", "abstract_en",
               "subject", "area", "year", "publication_count"]
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.DictWriter(handle, fieldnames=columns)
        writer.writeheader()
        for record in records:
            writer.writerow({
                "grant_id": record.grant_id,
                "title_pt": record.title_pt,
                "abstract_pt": record.abstract_pt,
                "title_en": record.title_en or "",
                "abstract_en": record.abstract_en or "",
                "subject": ";".join(record.subject),
                "area": record.area.value,
                "year": record.year,
                "publication_count": record.publication_count,
            })
