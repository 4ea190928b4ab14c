"""The span names the benchmark's per-layer metrics read must exist in grantprod.

``perfbench/spans.py`` wraps every public function of the traced modules and
every model ``predict`` in a span, and its metrics look the spans up by
name.  A renamed or deleted function leaves no span, so its metric would
read 0 without an error; this test reads the names from the script's source
(it does not edit or run it) and checks each against the package.
"""

from __future__ import annotations

import ast
import importlib
import inspect
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
SPAN_SET_METHODS = {"calls", "total", "module_self"}


def _module_constants(tree: ast.Module) -> dict[str, object]:
    """The literal values of the script's module-level assignments."""
    constants = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name):
                try:
                    constants[target.id] = ast.literal_eval(node.value)
                except ValueError:  # not a literal, e.g. frozenset({...})
                    pass
    return constants


def metric_span_names() -> set[str]:
    """Every span name the metrics read; the UNTRACED set is not among them."""
    tree = ast.parse(SPANS.read_text(encoding="utf-8"))
    constants = _module_constants(tree)
    names = set(constants["TRAINERS"])
    names |= {constants[key] for key in ("COMMAND_SPAN", "CELL_SPAN", "VOCABULARY_SPAN")}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in SPAN_SET_METHODS
                and isinstance(node.func.value, ast.Name) and node.func.value.id == "ss"):
            # other arguments are loop variables over TRAINERS, added above,
            # and the *predict_names of whichever predict spans were recorded
            for arg in node.args:
                if isinstance(arg, ast.Constant):
                    names.add(arg.value)
                elif isinstance(arg, ast.Name) and arg.id in constants:
                    names.add(constants[arg.id])
    return names


def is_traced(name: str) -> bool:
    """Whether the tracer wraps ``name``: a public function or a model's ``predict``."""
    short, *path = name.split(".")
    module = importlib.import_module(f"grantprod.{short}")
    if len(path) == 2 and path[1] == "predict":
        cls = getattr(module, path[0], None)
        return inspect.isclass(cls) and "predict" in vars(cls)
    value = getattr(module, path[0], None)
    return (
        len(path) == 1
        and not path[0].startswith("_")
        and inspect.isfunction(value)
        and value.__module__ == module.__name__
    )


def test_metric_span_names_are_read_from_the_script():
    names = metric_span_names()
    assert {"cli.main", "ml.cross_validate", "ml.train_mlp", "ml.select_knn_k",
            "complexity.extract_complexity_vector", "relevance.write_rank_diagram"} <= names
    assert all(isinstance(name, str) for name in names)


@pytest.mark.parametrize("name", sorted(metric_span_names()))
def test_metric_span_is_a_traced_grantprod_function(name):
    assert is_traced(name), f"perfbench/spans.py reads span '{name}', which nothing records"
