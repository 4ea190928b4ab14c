"""Command-line pipeline: ingest, stats, evaluate, relevance.

Exit codes: 0 success, 2 validation failure (bad input or configuration),
3 runtime failure.  All randomness flows from --seed.  The parsed options are
the run configuration; every CSV and JSON output of evaluate and relevance
carries them as a config echo, which replays the run through --config.
"""

from __future__ import annotations

import argparse
import json
import sys
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .corpus import (
    MISSING_VALUE,
    Area,
    CorpusError,
    GrantRecord,
    Label,
    ValidationReport,
    derive_label,
    label_records,
    load_corpus,
    productivity_histogram,
    scan_corpus_file,
    write_canonical,
    write_csv,
)
from .ml import (
    ComplexityFeatures,
    EvalReport,
    ForestHyper,
    TfidfFeatures,
    cross_validate,
    relevance_over_resamples,
)
from .relevance import write_rank_diagram, write_ranking_csv
from .textproc import SUPPORTED_LANGUAGES, LexiconSet, builtin_lexicons, load_lexicons
from .topical import FieldSelector, IdfVariant, MissingFieldError, VectorMode

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_RUNTIME = 3

TOP_X_PRESETS = (1100, 7196)

FIELD_CHOICES = {
    "title": FieldSelector.TITLE,
    "subject": FieldSelector.SUBJECT,
    "title+subject": FieldSelector.TITLE_PLUS_SUBJECT,
    "abstract": FieldSelector.ABSTRACT,
}

# Reported method groups: 'dtrees' covers both tree-based learners.
ALGO_CHOICES = {
    "dtrees": ("dtree", "random_forest"),
    "svm": ("linear_svm",),
    "knn": ("knn",),
    "bayes": ("naive_bayes",),
    "mlp": ("mlp",),
}


class CliValidationError(Exception):
    pass


# Smallest value of each numeric option of the subcommands that run the
# resample protocol; both also require --seed.
RUN_MINIMUMS = {
    "evaluate": {"top_x": 1, "folds": 2, "resamples": 1, "jobs": 1},
    "relevance": {"resamples": 2, "trees": 1},
}

# The evaluate options that only one feature family reads, each with the value
# it reads when the option is unset (None); both families read every other
# option.  A run rejects each option of the other family that is neither None
# nor False.
FAMILY_OPTIONS = {
    "complexity": {"include_title": False, "lexicon_dir": None},
    "tfidf": {"fields": "abstract", "top_x": 1100, "global_vocab": False,
              "raw_frequency": False, "conventional_idf": False},
}

# Parsed options left out of the config echo: the subcommand is named by the
# output files, and where a run writes, how many cells it runs at once and
# which file supplied its options do not change a byte of its results.
_UNECHOED = ("command", "out", "config", "jobs")


# ---------------------------------------------------------------------------
# Config file (key = value lines mirroring the long flags; flags win)
# ---------------------------------------------------------------------------

_BOOLEAN_WORDS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


def _subcommands(parser: argparse.ArgumentParser) -> dict[str, argparse.ArgumentParser]:
    [subparsers] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return subparsers.choices


def _config_keys() -> dict[str, dict[str, argparse.Action]]:
    """Per subcommand, each config key (a long flag's dest) and the flag's action."""
    return {
        command: {
            action.dest: action
            for action in sub._actions
            if action.option_strings and action.dest not in ("help", "config")
        }
        for command, sub in _subcommands(build_parser()).items()
    }


def _convert_config_value(key: str, value: str, action: argparse.Action):
    if isinstance(action, argparse._StoreTrueAction):
        if value.lower() not in _BOOLEAN_WORDS:
            raise CliValidationError(
                f"config value for '{key}' is not a boolean (true/false/yes/no/1/0): {value!r}"
            )
        return _BOOLEAN_WORDS[value.lower()]
    try:
        converted = action.type(value) if action.type else value
    except ValueError:
        raise CliValidationError(f"config value for '{key}' is invalid: {value!r}") from None
    if action.choices is not None and converted not in action.choices:
        raise CliValidationError(
            f"config value for '{key}' must be one of {', '.join(map(str, action.choices))}: {value!r}"
        )
    return converted


def read_config_file(path: str | Path) -> dict:
    """Typed key = value pairs; each key's type comes from the flag of the same name."""
    # subcommands declare a shared flag alike, so the key's action fixes its type
    actions = {key: action for keys in _config_keys().values() for key, action in keys.items()}
    values: dict = {}
    lines: dict[str, int] = {}  # the line that set each key
    for number, raw in enumerate(Path(path).read_text(encoding="utf-8-sig").splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise CliValidationError(f"config line without '=': {line!r}")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        if key not in actions:
            raise CliValidationError(f"unknown config key '{key}'")
        if key in lines:
            raise CliValidationError(f"config key '{key}' on line {number} repeats line {lines[key]}")
        lines[key] = number
        value = value.strip()
        if len(value) >= 2 and value[0] == value[-1] and value[0] in "\"'":
            value = value[1:-1]  # one pair of matching quotes; any other quote is kept
        values[key] = _convert_config_value(key, value, actions[key])
    return values


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def _add_common_io(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--input", help="corpus file")
    parser.add_argument("--format", choices=("csv", "jsonl"), default="jsonl")
    parser.add_argument("--config", help="key = value file mirroring the flags; flags win")


def _add_common_run(parser: argparse.ArgumentParser) -> None:
    """Options of the subcommands that extract complexity features over balanced resamples."""
    parser.add_argument("--lang", choices=SUPPORTED_LANGUAGES, default="pt")
    parser.add_argument("--resamples", type=int, default=10)
    parser.add_argument("--seed", type=int, default=None, help="base seed (required; no clock default)")
    parser.add_argument("--include-title", action="store_true",
                        help="concatenate title with abstract for complexity features")
    parser.add_argument("--lexicon-dir", help="directory with custom lexicon files")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="grantprod", description=__doc__)
    parser.add_argument("--version", action="version", version=f"grantprod {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_ingest = sub.add_parser("ingest", help="validate a corpus file and write canonical JSONL")
    _add_common_io(p_ingest)

    p_stats = sub.add_parser("stats", help="per-area productivity statistics")
    _add_common_io(p_stats)

    p_eval = sub.add_parser("evaluate", help="run the resample x k-fold evaluation grid")
    _add_common_io(p_eval)
    _add_common_run(p_eval)
    p_eval.add_argument("--fields", choices=sorted(FIELD_CHOICES),
                        help="tf-idf text field (default abstract)")
    p_eval.add_argument("--features", choices=("complexity", "tfidf"), default="complexity")
    p_eval.add_argument("--top-x", dest="top_x", type=int, help=f"tf-idf vocabulary "
                        f"truncation (default 1100); presets {TOP_X_PRESETS} or any positive N")
    p_eval.add_argument("--algo", default="dtrees",
                        help="comma-separated subset of dtrees,svm,knn,bayes,mlp or 'all'")
    p_eval.add_argument("--folds", type=int, default=10)
    p_eval.add_argument("--jobs", type=int, default=1,
                        help="evaluation cells run at once in forked worker processes")
    p_eval.add_argument("--global-vocab", action="store_true",
                        help="fit the tf-idf vocabulary once on the whole corpus instead of per fold")
    p_eval.add_argument("--raw-frequency", action="store_true",
                        help="raw word counts instead of tf-idf weights")
    p_eval.add_argument("--conventional-idf", action="store_true",
                        help="log(N/N_w) inverse document frequency instead of the ratio form")

    p_rel = sub.add_parser("relevance", help="Gini feature relevance over balanced resamples")
    _add_common_io(p_rel)
    _add_common_run(p_rel)
    p_rel.add_argument("--trees", type=int, default=100)
    p_rel.add_argument("--weighting", choices=("node_mean", "instance_weighted"),
                       default="node_mean")
    p_rel.add_argument("--no-timestamp", action="store_true",
                       help="omit the timestamp header from the SVG diagram")

    for writer in (p_ingest, p_eval, p_rel):  # stats only prints
        writer.add_argument("--out", default="out", help="output directory")
    return parser


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """The run configuration: flags over the --config file over the flag defaults.

    The config values become the subcommand's defaults and argv is parsed
    again, so a flag wins in every spelling argparse accepts (``--seed 9``,
    ``--seed=9``, the abbreviation ``--see 9``).
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.config:
        try:
            values = read_config_file(args.config)
        except (OSError, UnicodeDecodeError) as exc:
            raise CliValidationError(f"cannot read config file {args.config}: {exc}") from None
        subparser = _subcommands(parser)[args.command]
        keys = _config_keys()[args.command]
        for key in values:
            if key not in keys:
                raise CliValidationError(f"config key '{key}' is not an option of '{args.command}'")
        subparser.set_defaults(**values)
        args = parser.parse_args(argv)
    return args


def _echo(args: argparse.Namespace) -> dict:
    """The tool and every option of the run, keyed by config key.

    Without ``tool`` and null values, its pairs are a --config file that
    replays the run.
    """
    options = {key: value for key, value in vars(args).items() if key not in _UNECHOED}
    return {"tool": f"grantprod {__version__}", **options}


def _preflight(args: argparse.Namespace) -> tuple[ValidationReport, LexiconSet | None]:
    """Every check that needs no extraction or output; raises CliValidationError.

    ``ingest`` reads the corpus leniently and reports the rejected rows
    itself; the other subcommands read it strictly and need a record.  Only
    ``relevance`` and complexity ``evaluate`` extract, and load lexicons.
    """
    if not args.input:
        raise CliValidationError("--input is required")
    minimums = RUN_MINIMUMS.get(args.command)
    if minimums is not None:
        if args.seed is None:
            raise CliValidationError("--seed is required (runs never default to the clock)")
        for key, minimum in minimums.items():
            if getattr(args, key) is not None and getattr(args, key) < minimum:
                raise CliValidationError(f"--{key.replace('_', '-')} must be >= {minimum}")
    if args.command == "evaluate":  # an option the run does not read is an error
        unread = [key for family, keys in FAMILY_OPTIONS.items() if family != args.features
                  for key in keys if getattr(args, key) not in (None, False)]
        if unread:
            raise CliValidationError(
                f"--{unread[0].replace('_', '-')} does not apply to --features {args.features}")
        if args.raw_frequency and args.conventional_idf:
            raise CliValidationError("--conventional-idf does not apply to --raw-frequency")
        for key, default in FAMILY_OPTIONS[args.features].items():
            if getattr(args, key) is None:  # the echo shows the value the family reads
                setattr(args, key, default)
    lexicons = None
    try:
        if args.command == "ingest":
            corpus = scan_corpus_file(args.input, args.format)
        else:
            corpus = ValidationReport(load_corpus(args.input, args.format), rejected=[])
            if not corpus.records:
                raise CliValidationError("empty corpus")
        if args.command == "relevance" or getattr(args, "features", None) == "complexity":
            lexicons = (
                load_lexicons(args.lexicon_dir, args.lang)
                if args.lexicon_dir
                else builtin_lexicons(args.lang)
            )
    except (OSError, CorpusError, ValueError) as exc:
        raise CliValidationError(str(exc)) from None
    return corpus, lexicons


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_ingest(args, report: ValidationReport, lexicons: None) -> int:
    # records with an empty Portuguese abstract never reach feature extraction
    empty_abstract = sum(1 for _, field, reason in report.rejected
                         if field == "abstract_pt" and reason == MISSING_VALUE)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    canonical = out_dir / "canonical.jsonl"
    write_canonical(report.records, canonical)

    print(f"accepted: {len(report.records)}")
    print(f"rejected: {len(report.rejected)}")
    if empty_abstract:
        print(f"warning: {empty_abstract} record(s) rejected for empty abstract_pt")
    for row_number, field, reason in report.rejected:
        print(f"  row {row_number}: {field}: {reason}")
    print(f"canonical corpus: {canonical}")
    if not report.records:
        print("error: zero accepted rows", file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_OK


def cmd_stats(args, corpus: ValidationReport, lexicons: None) -> int:
    records = corpus.records
    areas = [area for area in Area if any(r.area is area for r in records)]
    print("positive-class percentage (at least one publication):")
    for area in areas:
        area_records = [r for r in records if r.area is area]
        positive, _ = _class_counts(area_records)
        print(f"  {area.value:5s} {100.0 * positive / len(area_records):5.1f}%  (n={len(area_records)})")

    print()
    print("fraction of grants with at least n papers:")
    header = "  #P   " + "  ".join(f"{area.value:>6s}" for area in areas)
    print(header)
    histograms = [productivity_histogram([r for r in records if r.area is area]) for area in areas]
    for row in zip(*histograms):  # one (n, fraction) pair per area, all of the same n
        n = row[0][0]
        print(f"  {n}+   " + "  ".join(f"{100.0 * fraction:5.1f}%" for _, fraction in row))
    return EXIT_OK


def _parse_algos(value: str) -> tuple[str, ...]:
    names = [s.strip() for s in value.split(",") if s.strip()]
    if "all" in names:
        names = list(ALGO_CHOICES)
    algorithms: list[str] = []
    for name in names:
        if name not in ALGO_CHOICES:
            raise CliValidationError(
                f"unknown algorithm '{name}' (expected {', '.join(ALGO_CHOICES)} or all)"
            )
        algorithms.extend(ALGO_CHOICES[name])
    if not algorithms:
        raise CliValidationError("--algo selects no algorithm")
    return tuple(dict.fromkeys(algorithms))


def _readable_subset(records: list[GrantRecord], feature_config) -> tuple[list, dict[str, int]]:
    """The records whose selected text exists, and how many others lack each optional field."""
    kept, lacking = [], {}
    for record in records:
        try:
            feature_config.text(record)
        except MissingFieldError as error:
            lacking[error.field] = lacking.get(error.field, 0) + 1
        else:
            kept.append(record)
    return kept, lacking


def _usable_records(records: list[GrantRecord], feature_config) -> list[GrantRecord]:
    """The readable subset, with the exclusions reported; none usable is an input error."""
    kept, lacking = _readable_subset(records, feature_config)
    for field, excluded in lacking.items():
        print(f"excluded {excluded} record(s) lacking {field}")
    if not kept:
        raise CliValidationError(f"no records usable: every record lacks {' or '.join(lacking)}")
    return kept


def _feature_config(args):
    """The feature family of a run whose family options ``_preflight`` has resolved."""
    if args.features == "complexity":
        return ComplexityFeatures(language=args.lang, include_title=args.include_title)
    return TfidfFeatures(
        language=args.lang,
        selector=FIELD_CHOICES[args.fields],
        top_x=args.top_x,
        mode=VectorMode.RAW_FREQUENCY if args.raw_frequency else VectorMode.TFIDF,
        idf_variant=IdfVariant.LOG_QUOTIENT if args.conventional_idf else IdfVariant.LOG_RATIO,
        per_fold_vocabulary=not args.global_vocab,
    )


def _write_summary_csv(path: Path, scored: list[tuple], echo: dict) -> None:
    columns = ("dataset", "method", "mean_f1", "sd_f1", "macro_f1", "pooled_f1", "p_value",
               "significant_best")
    write_csv(path, [json.dumps(echo, sort_keys=True)], columns, (
        [area.value, algorithm]
        + [f"{value:.4f}" for value in (report.mean_f1, report.sd_f1, report.mean_macro_f1,
                                        report.pooled_f1, report.p_value)]
        + ["yes" if significant else ""]
        for area, algorithm, report, significant in scored
    ))


def _class_counts(records: list[GrantRecord]) -> tuple[int, int]:
    """Productive and zero-publication record counts."""
    pos = sum(1 for r in records if derive_label(r.publication_count) is Label.PRODUCTIVE)
    return pos, len(records) - pos


def _run_cell(records, feature_config, algorithm, folds, resamples, seed,
              lexicons) -> EvalReport | str:
    """One (area, algorithm) cell over the area's records: its report, or why it failed.

    A failure comes back as its message, which crosses a process boundary
    whatever the arguments of the exception's constructor.
    """
    try:
        return cross_validate(label_records(records), feature_config, algorithm, k=folds,
                              n_resamples=resamples, base_seed=seed, lexicons=lexicons)
    except Exception as exc:
        return str(exc)


def _run_cells_in_workers(tasks: list[tuple], jobs: int) -> list[EvalReport | str]:
    """``_run_cell`` of each task, on up to ``jobs`` forked worker processes, in task order.

    Forked workers start with the parent's imports, where a spawned one would
    import numpy and grantprod again.  Forking is safe here: the command
    starts no thread of its own (OpenBLAS stops its pool around a fork),
    and the executor forks every worker at the first submit, before it
    starts its own threads.  The pool is shut down before this returns or
    raises, cancelling the cells not yet started, so no worker outlives the
    command.
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(max_workers=min(jobs, len(tasks)),
                               mp_context=multiprocessing.get_context("fork"))
    try:
        futures = [pool.submit(_run_cell, *task) for task in tasks]
        outcomes = []
        for future in futures:
            try:
                outcomes.append(future.result())
            except Exception as exc:  # the pool failed, not the cell (a killed worker)
                outcomes.append(str(exc))
        return outcomes
    finally:
        pool.shutdown(cancel_futures=True)


def cmd_evaluate(args, corpus: ValidationReport, lexicons: LexiconSet | None) -> int:
    algorithms = _parse_algos(args.algo)
    feature_config = _feature_config(args)
    records = _usable_records(corpus.records, feature_config)

    areas = [area for area in Area if any(r.area is area for r in records)]
    area_records = {area: [r for r in records if r.area is area] for area in areas}
    for area in areas:  # every balanced resample must fill --folds folds
        pos, neg = _class_counts(area_records[area])
        if 2 * min(pos, neg) < args.folds:
            raise CliValidationError(
                f"area {area.value} has {pos} productive and {neg} zero-publication "
                f"record(s): its balanced set of {2 * min(pos, neg)} is smaller than "
                f"--folds {args.folds}"
            )

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    echo = _echo(args)
    cells = [(area, algorithm) for area in areas for algorithm in algorithms]
    tasks = [
        (area_records[area], feature_config, algorithm, args.folds, args.resamples, args.seed,
         lexicons)
        for area, algorithm in cells
    ]
    if args.jobs == 1:
        outcomes = [_run_cell(*task) for task in tasks]
    else:
        outcomes = _run_cells_in_workers(tasks, args.jobs)

    results: list[tuple[Area, str, EvalReport]] = []
    failures: list[dict] = []
    # in cell order; a failure flushes the rest
    for (area, algorithm), outcome in zip(cells, outcomes):
        if isinstance(outcome, str):
            failures.append({"dataset": area.value, "method": algorithm, "error": outcome})
        else:
            results.append((area, algorithm, outcome))

    # best cell per dataset (the first on a tie) is flagged when significant at alpha = 0.05
    best: dict[Area, EvalReport] = {}
    for area, _, report in results:
        if area not in best or report.mean_f1 > best[area].mean_f1:
            best[area] = report
    scored = [(area, algorithm, report, report is best[area] and report.p_value < 0.05)
              for area, algorithm, report in results]

    _write_summary_csv(out_dir / "eval_summary.csv", scored, echo)
    full = {
        "config": echo,
        "reports": [
            {"dataset": area.value, "method": algorithm, **report.to_dict()}
            for area, algorithm, report, _ in sorted(
                scored, key=lambda cell: (cell[0].value, cell[1])
            )
        ],
    }
    (out_dir / "eval_report.json").write_text(
        json.dumps(full, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    try:
        feature_config.export(records, lexicons, out_dir, json.dumps(echo, sort_keys=True))
    except Exception as exc:
        failures.append({"dataset": "*", "method": "feature_export", "error": str(exc)})

    for area, algorithm, report, significant in scored:
        flag = "  *significant best*" if significant else ""
        print(f"{area.value:5s} {algorithm:14s} F1 {report.mean_f1:.4f} "
              f"± {report.sd_f1:.4f}  p={report.p_value:.4f}{flag}")

    if failures:
        (out_dir / "failure_manifest.json").write_text(
            json.dumps({"config": echo, "failures": failures}, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"error: {len(failures)} cell(s) failed; see failure_manifest.json", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


def cmd_relevance(args, corpus: ValidationReport, lexicons: LexiconSet) -> int:
    features = ComplexityFeatures(language=args.lang, include_title=args.include_title)
    records = _usable_records(corpus.records, features)
    pos, neg = _class_counts(records)
    if not pos or not neg:  # every balanced resample needs both classes
        raise CliValidationError(
            f"corpus has {pos} productive and {neg} zero-publication record(s): "
            "relevance needs at least one of each"
        )

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    ranking, cd, _ = relevance_over_resamples(
        label_records(records),
        features,
        lexicons=lexicons,
        n_resamples=args.resamples,
        base_seed=args.seed,
        forest_hyper=ForestHyper(n_trees=args.trees),
        weighting=args.weighting,
    )

    write_ranking_csv(out_dir / "relevance.csv", ranking, cd,
                      header_comment=json.dumps(_echo(args), sort_keys=True))
    timestamp = None if args.no_timestamp else datetime.now(timezone.utc).isoformat()
    write_rank_diagram(out_dir / "rank_diagram.svg", ranking, cd, timestamp=timestamp)

    print(f"critical difference (alpha=0.05, n={args.resamples}): {cd:.4f}")
    for row in ranking[:5]:
        print(f"  {row.average_rank:6.2f}  {row.feature}")
    print(f"wrote {out_dir / 'relevance.csv'} and {out_dir / 'rank_diagram.svg'}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    handlers = {
        "ingest": cmd_ingest,
        "stats": cmd_stats,
        "evaluate": cmd_evaluate,
        "relevance": cmd_relevance,
    }
    try:
        args = _parse_args(list(sys.argv[1:] if argv is None else argv))
        corpus, lexicons = _preflight(args)
        return handlers[args.command](args, corpus, lexicons)
    except CliValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except Exception as exc:  # anything unexpected is a runtime failure
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
