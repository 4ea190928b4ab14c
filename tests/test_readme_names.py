"""Every dotted grantprod name the README gives in backticks must exist.

The README names functions, classes, fields and constants as ``module.name``
(``topical.select_columns``) or ``Class.attr`` (``LexiconSet.classify``).
A name whose first part is a grantprod module, or a class one of them
defines, must resolve in the package, so a renamed or deleted name cannot
stay in the documentation.  File names (``relevance.csv``) and the
benchmark's metric names (``ml.fit_s.mlp``) are not Python names and are
skipped.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import json
import pkgutil
import re
from pathlib import Path

import pytest

import grantprod

ROOT = Path(__file__).resolve().parent.parent
FILE_SUFFIXES = {"py", "json", "jsonl", "csv", "tsv", "txt", "md", "svg", "toml", "conf"}
DOTTED = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+")

MODULES = {
    info.name: importlib.import_module(f"grantprod.{info.name}")
    for info in pkgutil.iter_modules(grantprod.__path__)
    if not info.name.startswith("_")
}
CLASSES = {
    name: value
    for module in MODULES.values()
    for name, value in vars(module).items()
    if inspect.isclass(value) and value.__module__ == module.__name__
}


def metric_names() -> set[str]:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {metric["name"] for key in ("end_to_end", "per_layer") for metric in benchmark[key]}


def readme_names(text: str) -> list[str]:
    """The dotted grantprod names that open an inline code span, in README order."""
    text = re.sub(r"^```.*?^```", "", text, flags=re.S | re.M)  # fenced blocks
    skip = metric_names()
    names = []
    for span in re.findall(r"`([^`]+)`", text):
        match = DOTTED.match(span)
        if match is None or match.group() in skip:
            continue
        name = match.group().removeprefix("grantprod.")
        head, *_, last = name.split(".")
        if last in FILE_SUFFIXES and match.end() == len(span):
            continue
        if (head in MODULES or head in CLASSES) and name not in names:
            names.append(name)
    return names


def resolves(name: str) -> bool:
    """Whether each part of ``name`` is an attribute, or a dataclass field, of the one before."""
    head, *path = name.split(".")
    value = MODULES.get(head) or CLASSES[head]
    for attr in path:
        if hasattr(value, attr):
            value = getattr(value, attr)
        elif dataclasses.is_dataclass(value) and attr in {f.name for f in dataclasses.fields(value)}:
            value = None  # a field without a class-level default; nothing follows it
        else:
            return False
    return True


NAMES = readme_names((ROOT / "README.md").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", NAMES)
def test_readme_name_resolves(name):
    assert resolves(name), f"README names `{name}`, which grantprod does not define"


def test_the_check_reads_names_and_skips_files_and_metrics():
    assert len(NAMES) >= 30
    assert {"topical.select_columns", "ml.TreeModel.trees", "LexiconSet.classify"} <= set(NAMES)
    sample = ("`relevance.csv`, `ml.fit_s.mlp`, `np.bincount`, `tests/_trainer_oracle.py`, "
              "`topical.vectorize(token_lists,\nvocabulary)`, `grantprod.ml.Tree`, "
              "`DocumentCounts.selection(vocabulary)`, `Vocabulary.words`\n"
              "```python\nfrom grantprod import nothing_here\nml.not_checked\n```\n")
    assert readme_names(sample) == [
        "topical.vectorize", "ml.Tree", "DocumentCounts.selection", "Vocabulary.words",
    ]
    assert [resolves(name) for name in readme_names(sample)] == [True, True, False, True]
    assert not resolves("topical.ColumnSelection") and not resolves("ml.TreeModel.nodes")
