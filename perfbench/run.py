"""grantprod benchmark: generate a workload's corpus, run the CLI, check, report.

    python3 perfbench/run.py --workload eval-complexity --seed 3 --seconds 15 --trace 0
    python3 perfbench/run.py              # every workload, seed 1, untraced

With ``--trace 0`` each run of the command is a fresh ``python3 -m grantprod``
process, timed from spawn to exit; the end-to-end metrics are medians over
the runs made in ``--seconds`` seconds (at least three).  With ``--trace 1``
untraced runs alternate with traced in-process runs (see ``spans.py``) and
the per-layer metrics are medians over the traced runs.  Every run's outputs
are checked and their sha256 digests compared with the first run's; a run
that fails a check counts in ``failed`` and gives no samples.  With fewer
than three passing runs no metrics are reported.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  A fuller record (samples, output
digests, corpus sizes, versions) goes to ``.bench_work/results/``.  Every
file the benchmark writes is under ``.bench_work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path
from statistics import median

sys.path.insert(0, str(Path(__file__).resolve().parent))

from corpus_gen import corpus_csv, corpus_stats  # noqa: E402
from spans import layer_metrics, layer_shares, median_metrics  # noqa: E402
from workloads import WORKLOADS, Workload, check_outputs, cli_args, digests  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

MIN_RUNS = 3
SETUP_REPEATS = 9
CHILD_TIMEOUT_S = 150.0
SETUP_CODE = (
    "import sys, grantprod\n"
    "from grantprod.corpus import load_corpus\n"
    "from grantprod.textproc import builtin_lexicons\n"
    "builtin_lexicons('pt')\n"
    "load_corpus(sys.argv[1], 'csv')\n"
)


class ChildRun:
    """Outcome of one child process: exit code, wall time, peak RSS, log."""

    def __init__(self, argv: list[str], log: Path):
        log.parent.mkdir(parents=True, exist_ok=True)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
        )
        with open(log, "wb") as handle:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=handle, stderr=subprocess.STDOUT)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
                timer.join()
            self.wall_s = time.perf_counter() - start
        proc.returncode = self.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_mb = usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux
        self.log = log

    def tail(self, lines: int = 5) -> str:
        return "\n".join(self.log.read_text(errors="replace").splitlines()[-lines:])


def _rel(path: Path) -> str:
    # Outputs echo the input path, so paths are given relative to the
    # checkout: digests then do not depend on where the checkout lives.
    return os.path.relpath(path, ROOT)


def write_corpus(workload: Workload, seed: int) -> tuple[Path, dict]:
    path = WORK / "corpus" / f"{workload.corpus_key}-seed{seed}.csv"
    text = corpus_csv(workload.corpus, seed)
    path.parent.mkdir(parents=True, exist_ok=True)
    if not path.is_file() or path.read_text(encoding="utf-8") != text:
        path.write_text(text, encoding="utf-8")
    return path, corpus_stats(workload.corpus, seed, text)


class RunSet:
    """The runs of one workload at one seed, and what their checks found."""

    def __init__(self, workload: Workload, seed: int, corpus: Path):
        self.workload = workload
        self.seed = seed
        self.corpus = corpus
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reference_digests: dict[str, str] | None = None
        self.count = 0

    def _record(self, ok: bool, problems: list[str]) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.extend(problems)

    def _paths(self, tag: str) -> tuple[Path, Path]:
        self.count += 1
        stem = f"{self.workload.name}-seed{self.seed}-{self.count:03d}-{tag}"
        out = WORK / "out" / stem
        shutil.rmtree(out, ignore_errors=True)
        return out, WORK / "logs" / f"{stem}.log"

    def _judge(self, child: ChildRun, out: Path) -> dict:
        problems = []
        found = {}
        if child.returncode != 0:
            problems.append(f"exit code {child.returncode}: {child.tail()}")
        else:
            problems = check_outputs(self.workload, out)
            found = digests(self.workload, out)
            if self.reference_digests is None:
                self.reference_digests = found
            if found != self.reference_digests:
                problems.append(f"output digests {found} differ from {self.reference_digests}")
        self._record(not problems, [f"{out.name}: {p}" for p in problems])
        if not problems:
            shutil.rmtree(out)  # checked and digested; failed runs keep theirs
        return {"wall_s": child.wall_s, "peak_rss_mb": child.peak_rss_mb, "ok": not problems}

    def cli(self, args: tuple[str, ...] | None = None) -> dict:
        out, log = self._paths("cli")
        argv = [sys.executable, "-m", "grantprod",
                *cli_args(args or self.workload.args, _rel(self.corpus), _rel(out), self.seed)]
        return self._judge(ChildRun(argv, log), out)

    def traced(self, records: int) -> dict:
        out, log = self._paths("traced")
        spans_path = WORK / "traces" / f"{out.name}.json"
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        argv = [sys.executable, str(HERE / "spans.py"), "--spans", _rel(spans_path),
                "--run-id", out.name, "--",
                *cli_args(self.workload.args, _rel(self.corpus), _rel(out), self.seed)]
        run = self._judge(ChildRun(argv, log), out)
        if run["ok"]:
            trace = json.loads(spans_path.read_text(encoding="utf-8"))
            run["layers"] = layer_metrics(trace["spans"], records)
            run["shares"] = layer_shares(trace["spans"])
            widths = trace["vocabulary_widths"]
            run["vocabulary"] = {"folds": len(widths), "min": min(widths),
                                 "median": median(widths), "max": max(widths)} if widths else {}
        return run

    def setup(self) -> list[float]:
        """Wall times of the set-up runs that exited 0."""
        walls = []
        for _ in range(SETUP_REPEATS):
            _, log = self._paths("setup")
            child = ChildRun([sys.executable, "-c", SETUP_CODE, _rel(self.corpus)], log)
            problems = [] if child.returncode == 0 else [f"setup exit code {child.returncode}: {child.tail()}"]
            self._record(not problems, problems)
            if not problems:
                walls.append(child.wall_s)
        return walls


def _metric_entries(kind: str, values: dict[str, float]) -> dict:
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in SPEC[kind]}


def _timed_loop(seconds: float, min_runs: int, done: list):
    """Yield until ``seconds`` are used up and at least ``min_runs`` are done.

    A new iteration starts only if one more, as long as the mean one so
    far, still fits in the time left, so a run ends near ``seconds``
    instead of overrunning it by up to one iteration.
    """
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if len(done) >= min_runs and elapsed * (len(done) + 1) / len(done) > seconds:
            return
        yield


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool,
                 min_runs: int = MIN_RUNS) -> dict:
    """Measure one workload at one seed; the returned dict is the result record."""
    corpus, stats = write_corpus(workload, seed)
    runset = RunSet(workload, seed, corpus)
    records = stats["records"]
    extra: dict = {}

    if not trace:
        setup_walls = runset.setup()
        if workload.reference_args:
            # the first checked run sets the digests every later run must match
            runset.cli(workload.reference_args)
        runs = []
        for _ in _timed_loop(seconds, min_runs, runs):
            runs.append(runset.cli())
        good = [r for r in runs if r["ok"]]
        walls = [r["wall_s"] for r in good]
        samples = {"wall_s": walls, "setup_s": setup_walls,
                   "peak_rss_mb": [r["peak_rss_mb"] for r in good]}
        metrics = {}
        if len(good) >= min_runs and setup_walls:
            metrics = _metric_entries("end_to_end", {
                "wall_s": median(walls),
                "records_per_s": median(records / w for w in walls),
                "setup_s": median(setup_walls),
                "peak_rss_mb": median(samples["peak_rss_mb"]),
            })
    else:
        untraced, traced = [], []
        for _ in _timed_loop(seconds, 1, traced):
            untraced.append(runset.cli())
            traced.append(runset.traced(records))
        good_untraced = [r["wall_s"] for r in untraced if r["ok"]]
        good_traced = [r for r in traced if r["ok"]]
        layer_runs = [r["layers"] for r in good_traced]
        samples = {"untraced_wall_s": good_untraced,
                   "traced_wall_s": [r["wall_s"] for r in good_traced],
                   "layers": layer_runs}
        metrics = {}
        if layer_runs and good_untraced:
            values = median_metrics(layer_runs)
            values["trace_overhead_s"] = median(samples["traced_wall_s"]) - median(good_untraced)
            metrics = _metric_entries("per_layer", values)
            extra = {"layer_shares": median_metrics([r["shares"] for r in good_traced]),
                     "fold_vocabulary_width": median_metrics([r["vocabulary"] for r in good_traced])}

    return {
        "workload": workload.name,
        "trace": int(trace),
        "correct": runset.failed == 0 and bool(metrics),
        "attempted": runset.attempted,
        "failed": runset.failed,
        "error_rate": runset.failed / runset.attempted,
        "problems": runset.problems,
        "metrics": metrics,
        "samples": samples,
        "corpus": {**stats, "file": _rel(corpus)},
        "command": ["python3", "-m", "grantprod",
                    *cli_args(workload.args, _rel(corpus), "<out>", seed)],
        "output_digests": runset.reference_digests,
        **extra,
        "stamp": stamp(seed),
    }


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None  # an exported checkout; git would search the parent directories
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def stamp(seed: int) -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "seeds": {"corpus": seed, "cli": seed},
    }


def report(result: dict) -> None:
    print(f"== {result['workload']} (seed {result['stamp']['seeds']['corpus']}, "
          f"{result['corpus']['records']} records, trace {result['trace']})")
    for name, entry in result["metrics"].items():
        print(f"  {name:34s} {entry['value']:>14.6g} {entry['unit']}")
    shares = result.get("layer_shares")
    if shares:
        print("  share of command time (self):", ", ".join(f"{k} {v:.2f}" for k, v in shares.items()))
    vocabulary = result.get("fold_vocabulary_width")
    if vocabulary:
        print(f"  fold vocabulary width: median {vocabulary['median']:g}, "
              f"min {vocabulary['min']:g}, max {vocabulary['max']:g} over {vocabulary['folds']:g} fits")
    print(f"  {'error_rate':34s} {result['error_rate']:>14.6g} "
          f"({result['failed']} of {result['attempted']} runs failed)")
    for problem in result["problems"]:
        print(f"  FAILED {problem}", file=sys.stderr)


def save(result: dict, seed: int) -> Path:
    path = WORK / "results" / f"{result['workload']}-seed{seed}-trace{result['trace']}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="grantprod end-to-end and per-layer benchmark")
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind as on Ctrl-C, so the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not (ROOT / "src" / "grantprod" / "__init__.py").is_file():
        print(f"error: no grantprod sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        result = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        report(result)
        print(f"  results: {_rel(save(result, args.seed))}")
        results.append(result)

    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    summary = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
