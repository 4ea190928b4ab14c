"""Traced in-process run of the grantprod CLI, and the per-layer metrics.

Run as a script, this wraps the public functions of each grantprod module
(and the ``predict`` method of each model class) in a span recorder, calls
``grantprod.cli.main`` with the given arguments, and writes the spans to a
JSON file when the command returns::

    python3 perfbench/spans.py --spans out.json --run-id r1 -- evaluate --input ...

The modules import each other's functions with ``from .x import y``, so a
wrapper is installed in every namespace that holds the original function,
not only in the module that defines it.  The program itself is unchanged.

``layer_metrics`` turns the spans of one run into the per-layer metrics
named in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from statistics import median

MODULES = ("corpus", "textproc", "complexity", "topical", "ml", "relevance", "cli")

# Called once per vocabulary word of a document or once per tree node: a
# span each would cost more than the work it measures and swamp the trace.
UNTRACED = frozenset({
    "topical.tfidf_weight",
    "relevance.gini_from_counts",
    "relevance.gini_impurity",
    "relevance.impurity_decrease",
})

TRAINERS = {
    "ml.train_decision_tree": "dtree",
    "ml.train_random_forest": "random_forest",
    "ml.train_knn": "knn",
    "ml.train_naive_bayes": "naive_bayes",
    "ml.train_linear_svm": "linear_svm",
    "ml.train_mlp": "mlp",
}
COMMAND_SPAN = "cli.main"
CELL_SPAN = "ml.cross_validate"
VOCABULARY_SPAN = "topical.fit_vocabulary_from_tokens"


class Tracer:
    """Spans kept in memory: (id, name, start, end, parent id or None, run id).

    ``vocabulary_widths`` holds the size of every vocabulary fitted: whether
    the fold vocabularies reach ``--top-x`` decides the tf-idf matrix width.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple[int, str, float, float, int | None, str]] = []
        self.vocabulary_widths: list[int] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[int] = self._stack()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _adopted_parent(self) -> int | None:
        # A pool worker starts with an empty stack; its work belongs to the
        # span the main thread is inside while it waits for the pool.
        try:
            return self._main_stack[-1]
        except IndexError:
            return None

    def wrap(self, name: str, function):
        @functools.wraps(function)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else self._adopted_parent()
            span_id = next(self._ids)
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append((span_id, name, start, end, parent, self.run_id))
            if name == VOCABULARY_SPAN:
                self.vocabulary_widths.append(len(result))
            return result

        return traced


def install(tracer: Tracer) -> None:
    """Wrap every public function and model ``predict`` of the traced modules."""
    modules = {name: importlib.import_module(f"grantprod.{name}") for name in MODULES}
    namespaces = list(modules.values()) + [importlib.import_module("grantprod")]
    for short, module in modules.items():
        for attr, value in list(vars(module).items()):
            if getattr(value, "__module__", None) != module.__name__:
                continue
            if inspect.isclass(value) and "predict" in vars(value):
                value.predict = tracer.wrap(f"{short}.{attr}.predict", value.predict)
            elif inspect.isfunction(value) and not attr.startswith("_"):
                name = f"{short}.{attr}"
                if name in UNTRACED:
                    continue
                wrapper = tracer.wrap(name, value)
                for namespace in namespaces:
                    if getattr(namespace, attr, None) is value:
                        setattr(namespace, attr, wrapper)


# ---------------------------------------------------------------------------
# Span analysis
# ---------------------------------------------------------------------------

def _covered(intervals: list[tuple[float, float]], start: float, end: float) -> float:
    """Length of the union of the intervals, clipped to [start, end]."""
    total = 0.0
    cursor = start
    for a, b in sorted(intervals):
        a, b = max(a, cursor), min(b, end)
        if b > a:
            total += b - a
            cursor = b
    return total


class SpanSet:
    """Index over the spans of one run."""

    def __init__(self, spans):
        self.by_id = {s[0]: s for s in spans}
        self.by_name: dict[str, list[tuple]] = defaultdict(list)
        self.children: dict[int, list[tuple]] = defaultdict(list)
        for span in spans:
            self.by_name[span[1]].append(span)
            if span[4] is not None:
                self.children[span[4]].append(span)

    def calls(self, *names: str) -> int:
        return sum(len(self.by_name.get(name, ())) for name in names)

    def total(self, *names: str) -> float:
        return sum((s[3] - s[2] for name in names for s in self.by_name.get(name, ())), 0.0)

    def module_self(self, name: str) -> float:
        """Time the named spans spent in their own module's code.

        A span's duration minus the union of the intervals of its nearest
        descendants in other modules; descendants in the same module count
        as the module's own time.
        """
        total = 0.0
        for span in self.by_name.get(name, ()):
            module = span[1].split(".")[0]
            foreign = []
            pending = list(self.children.get(span[0], ()))
            while pending:
                child = pending.pop()
                if child[1].split(".")[0] == module:
                    pending.extend(self.children.get(child[0], ()))
                else:
                    foreign.append((child[2], child[3]))
            total += (span[3] - span[2]) - _covered(foreign, span[2], span[3])
        return total


def layer_metrics(spans, records: int) -> dict[str, float]:
    """Per-layer metrics of one traced run (values only; units live in BENCHMARK.json)."""
    ss = SpanSet(spans)
    command_wall = ss.total(COMMAND_SPAN)
    predict_names = [name for name in ss.by_name if name.endswith(".predict")]
    metrics = {
        "complexity.extract_calls": ss.calls("complexity.extract_complexity_vector"),
        "complexity.extracts_per_record": ss.calls("complexity.extract_complexity_vector") / records,
        "complexity.extract_self_s": ss.module_self("complexity.extract_complexity_vector"),
        "textproc.analyze_s": ss.total("textproc.analyze"),
        "textproc.analyze_calls": ss.calls("textproc.analyze"),
        "topical.field_tokens_calls": ss.calls("topical.field_tokens"),
        "topical.tokenizations_per_record": ss.calls("topical.field_tokens") / records,
        "topical.field_tokens_s": ss.total("topical.field_tokens"),
        "topical.vocab_fit_s": ss.total("topical.fit_vocabulary_from_tokens"),
        "topical.vectorize_calls": ss.calls("topical.vectorize"),
        "topical.vectorize_s": ss.total("topical.vectorize"),
        "ml.fold_build_s": ss.total("ml.tfidf_fold_matrices"),
    }
    for trainer, algorithm in TRAINERS.items():
        metrics[f"ml.fit_s.{algorithm}"] = ss.total(trainer)
        metrics[f"ml.fit_calls.{algorithm}"] = ss.calls(trainer)
    metrics.update({
        "ml.predict_s": ss.total(*predict_names),
        "ml.knn_select_s": ss.total("ml.select_knn_k"),
        "relevance.feature_importance_s": ss.total("relevance.feature_importance"),
        "relevance.rank_s": ss.total(
            "relevance.average_rank", "relevance.aggregate_relevance", "relevance.critical_difference"
        ),
        "relevance.write_s": ss.total("relevance.write_ranking_csv", "relevance.write_rank_diagram"),
        "corpus.load_s": ss.total("corpus.load_corpus"),
        "corpus.resample_s": ss.total("corpus.balanced_resample", "corpus.stratified_fold_indices"),
        "cli.self_s": ss.module_self(COMMAND_SPAN),
        "cli.cell_concurrency": ss.total(CELL_SPAN) / command_wall if command_wall else 0.0,
    })
    return metrics


def layer_shares(spans) -> dict[str, float]:
    """Each module's share of the command's wall time, from span self times.

    A span's self time is its duration minus the union of its children's
    intervals.  Work in pool threads overlaps, so the shares of a concurrent
    run can sum to more than 1.
    """
    ss = SpanSet(spans)
    command_wall = ss.total(COMMAND_SPAN)
    shares: dict[str, float] = defaultdict(float)
    for span in ss.by_id.values():
        children = [(c[2], c[3]) for c in ss.children.get(span[0], ())]
        self_s = (span[3] - span[2]) - _covered(children, span[2], span[3])
        shares[span[1].split(".")[0]] += self_s / command_wall
    return dict(sorted(shares.items()))


def median_metrics(runs: list[dict[str, float]]) -> dict[str, float]:
    return {name: median(run[name] for run in runs) for name in runs[0]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True, help="JSON file the spans are written to")
    parser.add_argument("--run-id", required=True)
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    tracer = Tracer(args.run_id)
    install(tracer)
    cli = importlib.import_module("grantprod.cli")
    code = cli.main(cli_args)
    fields = ["id", "name", "start", "end", "parent", "run_id"]
    Path(args.spans).write_text(json.dumps({"fields": fields, "spans": tracer.spans,
                                            "vocabulary_widths": tracer.vocabulary_widths}))
    return code


if __name__ == "__main__":
    sys.exit(main())
