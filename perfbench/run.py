"""monorders benchmark: runs one workload in this process and prints its metrics.

    python3 perfbench/run.py --workload census-sweep --seed 1 --seconds 12 --trace 0

Run from the root of a checkout; ``monorders`` is imported from its ``src/``.
Each query goes through ``monorders.cli.main(argv)`` in this process with
stdout captured, one query at a time (a closed loop with one client).

A run sets up (import, seeded inputs, level files) several times, runs the
query list once untimed through the correctness gate, then repeats the list
for ``--seconds``.  With ``--trace 0`` it reports the end-to-end metrics;
with ``--trace 1`` it alternates untraced and traced passes and reports the
per-layer metrics.  The last line of stdout is the JSON result; the line
before it is the run record (machine, Python, commit, sample counts).

Exit status: 0 when every output was correct, 1 when an output was wrong or
a traced function was never reached where it must be, 2 when the benchmark
cannot run at all (for example when the checkout has no ``src/monorders``).
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

from checks import digest, problems
from speed import REFERENCE_S, SpeedTracker
from tracer import COUNT_NAMES, Tracer
from workloads import SEEDLESS, WORKLOADS, build_queries

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

DEFAULT_SEED = 0
SETUP_REPEATS = 9
# The p90 is reported only from at least 100 samples (ten beyond it), so a
# trace-0 run keeps going past --seconds until it has that many.
MIN_SAMPLES = 100


class BenchmarkError(Exception):
    """The benchmark cannot run in this directory."""


def import_monorders():
    """Fresh import of monorders from this checkout's src/, never an installed copy."""
    init = SRC / "monorders" / "__init__.py"
    if not init.is_file():
        raise BenchmarkError(f"no monorders package under {SRC}")
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "monorders" or n.startswith("monorders.")]:
        del sys.modules[name]
    pkg = importlib.import_module("monorders")
    importlib.import_module("monorders.cli")
    if Path(pkg.__file__).resolve() != init.resolve():
        raise BenchmarkError(f"monorders imported from {pkg.__file__}, not from {SRC}")
    return pkg


def setup(workload, seed, workdir, speed):
    """Import, seeded input generation and level-file writing, SETUP_REPEATS times.

    Returns the package, the queries and each repetition's (start, seconds).
    """
    times = []
    for _ in range(SETUP_REPEATS):
        speed.calibrate()
        start = perf_counter()
        pkg = import_monorders()
        queries = build_queries(workload, seed, workdir)
        times.append((start, perf_counter() - start))
    speed.calibrate()
    return pkg, queries, times


def run_query(argv, speed=None):
    """(exit code, stdout, stderr, start, seconds) of one in-process CLI call.

    Time the speed tracker spent in reference work during the call is not counted.
    """
    cli = sys.modules["monorders.cli"]
    out, err = io.StringIO(), io.StringIO()
    busy = speed.busy if speed else 0.0
    with redirect_stdout(out), redirect_stderr(err):
        start = perf_counter()
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crash is a failed query, not a crashed benchmark
            code = f"exception {exc!r}"
        elapsed = perf_counter() - start - ((speed.busy if speed else 0.0) - busy)
    return code, out.getvalue(), err.getvalue(), start, elapsed


class Session:
    """The query list of one run with its gate digests; counts attempts and failures."""

    def __init__(self, queries, speed):
        self.queries = queries
        self.speed = speed
        self.gate_digests = []
        self.gate_failed = set()
        self.attempted = 0
        self.failed = 0

    def gate(self, pkg, expected):
        """Run each query once, untimed, through the checks; return the problems found."""
        failures = {}
        if expected is not None and len(expected) != len(self.queries):
            failures["query list"] = [f"{len(self.queries)} queries, {len(expected)} recorded digests"]
        for index, query in enumerate(self.queries):
            code, stdout, stderr, _, _ = run_query(query.argv)
            self.gate_digests.append(digest(code, stdout))
            found = problems(query, code, stdout, pkg.canonical_form, pkg.LevelMatrix)
            if expected is not None and index < len(expected) and expected[index] != self.gate_digests[-1]:
                found.append("stdout or exit code differs from the recorded digest")
            if found:
                failures[query.qid] = found + ([stderr.strip()] if stderr.strip() else [])
                self.gate_failed.add(index)
        self.attempted += len(self.queries)
        self.failed += len(self.gate_failed)
        return failures

    def run_pass(self, tracer=None):
        """Raw and reference-scaled latencies of one pass over the query list.

        Traced passes calibrate only between queries, so that no reference
        work lands inside a span.
        """
        timings, outputs = [], []
        with self.speed.sampling() if tracer is None else nullcontext():
            for index, query in enumerate(self.queries):
                self.speed.maybe_calibrate()
                if tracer is not None:
                    tracer.query = index
                code, stdout, _, start, elapsed = run_query(query.argv, self.speed)
                timings.append((start, elapsed))
                outputs.append((code, stdout))
        self.speed.calibrate()
        self.attempted += len(outputs)
        # a query that failed the gate fails on every pass; any other must repeat its gate output
        self.failed += sum(index in self.gate_failed or digest(code, stdout) != self.gate_digests[index]
                           for index, (code, stdout) in enumerate(outputs))
        raw = [elapsed for _, elapsed in timings]
        scaled = [elapsed * self.speed.scale(start, start + elapsed) for start, elapsed in timings]
        return raw, scaled


def load_expected(workload, seed):
    if workload not in SEEDLESS and seed != DEFAULT_SEED:
        return None
    data = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))
    return data["digests"][workload]


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit():
    """Commit of the checkout, read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest():
    """sha256 over the measured package's files, to identify it where .git is absent."""
    h = hashlib.sha256()
    package = SRC / "monorders"
    for path in sorted(p for p in package.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        h.update(str(path.relative_to(package)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def declared_metrics(kind):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def timing_metrics(pass_latencies, setup_seconds):
    latencies = [t for lats in pass_latencies for t in lats]
    return {
        "wall_s": statistics.median(sum(lats) for lats in pass_latencies),
        "query_p50_ms": statistics.median(latencies) * 1000,
        "query_p90_ms": statistics.quantiles(latencies, n=10, method="inclusive")[8] * 1000,
        "setup_s": statistics.median(setup_seconds),
    }


def end_to_end(session, seconds, setup_times):
    raw_passes, scaled_passes = [], []
    start = perf_counter()
    while perf_counter() - start < seconds or len(raw_passes) * len(session.queries) < MIN_SAMPLES:
        raw, scaled = session.run_pass()
        raw_passes.append(raw)
        scaled_passes.append(scaled)
    setup_raw = [elapsed for _, elapsed in setup_times]
    setup_scaled = [elapsed * session.speed.scale(s, s + elapsed) for s, elapsed in setup_times]
    metrics = timing_metrics(scaled_passes, setup_scaled)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    record = {
        "passes": len(raw_passes),
        "query_samples": len(raw_passes) * len(session.queries),
        "setup_samples": len(setup_times),
        "unscaled": timing_metrics(raw_passes, setup_raw),
        "speed_factor_median": statistics.median(REFERENCE_S / d for d in session.speed.durations),
    }
    return metrics, record


def per_layer(session, seconds, layers, trace_path):
    tracer = Tracer(layers["functions"])
    untraced, traced = [], []
    start = perf_counter()
    while not traced or perf_counter() - start < seconds:
        # alternate which side of the pair goes first, so drift hits both alike
        for with_trace in (False, True) if len(traced) % 2 == 0 else (True, False):
            if with_trace:
                tracer.begin_pass()
                tracer.install()
                try:
                    traced.append(sum(session.run_pass(tracer)[1]))
                finally:
                    tracer.uninstall()
            else:
                untraced.append(sum(session.run_pass()[1]))

    summaries = [tracer.summarize(spans) for spans, _ in tracer.passes]
    calls, _, _, dedupe_calls = summaries[0]
    counts = tracer.passes[0][1]
    metrics = {}
    for fid, name in enumerate(tracer.targets):
        metrics[f"{name}.calls"] = calls[fid]
        metrics[f"{name}.total_s"] = statistics.median(s[1][fid] for s in summaries)
        metrics[f"{name}.self_s"] = statistics.median(s[2][fid] for s in summaries)
    for name in COUNT_NAMES:
        metrics[name] = counts[name]
    classes = counts["census.classes"]
    metrics["census.dedupe_calls_per_class"] = dedupe_calls / classes if classes else 0.0
    metrics["trace_overhead_ratio"] = statistics.median(traced) / statistics.median(untraced)
    tracer.write(trace_path, [q.qid for q in session.queries])
    record = {"passes": len(untraced) + len(traced), "traced_passes": len(traced),
              "spans_per_pass": [len(spans) for spans, _ in tracer.passes],
              "trace_file": str(trace_path.relative_to(ROOT))}
    return metrics, record, [name for fid, name in enumerate(tracer.targets) if calls[fid] == 0]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    os.environ.pop("MONORDERS_BUDGET", None)
    workdir = OUT / f"levels-{os.getpid()}"
    speed = SpeedTracker()
    try:
        pkg, queries, setup_times = setup(args.workload, args.seed, workdir, speed)
        session = Session(queries, speed)
        failures = session.gate(pkg, load_expected(args.workload, args.seed))
        if args.trace:
            layers = json.loads((HERE / "layers.json").read_text(encoding="utf-8"))
            trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json.gz"
            values, record, never_called = per_layer(session, args.seconds, layers, trace_path)
            unreached = [name for name in never_called
                         if args.workload in layers["functions"][name]["reached_on"]]
            kind = "per_layer"
        else:
            values, record = end_to_end(session, args.seconds, setup_times)
            unreached = []
            kind = "end_to_end"
        units = declared_metrics(kind)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if set(values) != set(units):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(values) ^ set(units))}")
    for qid, found in failures.items():
        print(f"FAILED {qid}: {'; '.join(found)}", file=sys.stderr)
    for name in unreached:
        print(f"FAILED trace: {name} recorded no calls on {args.workload}", file=sys.stderr)
    record.update({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(), "git_commit": git_commit(), "source_sha256": source_digest(),
        "failed_ratio": session.failed / session.attempted,
    })
    correct = session.failed == 0 and not failures and not unreached
    print(json.dumps({"run_record": record}))
    print(json.dumps({
        "correct": correct,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
