"""The ethica benchmark: three closed-loop workloads, every answer checked.

Run from the repository root:

    python3 bench/run.py --workload table --seed 1 --seconds 40 --trace 0

One benchmark process runs one child process at a time.  ``--trace 0`` reports
the end-to-end metrics of untraced runs; ``--trace 1`` alternates untraced
and traced passes and reports the per-module metrics.  The last line of
stdout is one JSON object; progress and a summary go to stderr.  See
bench/README.md for the workloads, the metrics and a measured baseline.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import select
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
EXPECTED = BENCH / "expected.json"

WORKLOADS = ("table", "propv-ascent", "models")
# The least number of fresh interpreters timed for setup_s, and the
# export-axioms runs timed for cli.startup_s; medians of these are reported.
IMPORT_SAMPLES = 9
STARTUP_SAMPLES = 5
# Passes run for --seconds, and at least this many.
MIN_PASSES = 2
MODEL_TIMEOUT_S = 60.0

IMPORT_PROBE = ("import time; start = time.perf_counter(); import ethica; "
                "print(repr(time.perf_counter() - start))")
TRACE_MARK = "BENCH-TRACE "
STATS_LINE = re.compile(r"stats:(?: \w+=\d+)+")


@dataclass(frozen=True)
class CliOp:
    """One CLI invocation with its expected answer's key and its timeout."""
    name: str
    argv: tuple[str, ...]
    timeout_s: float


TABLE_OPS = (
    CliOp("experiment-all",
          ("experiment", "run", "all", "--workers", "1", "--json"), 60.0),
    CliOp("table", ("table", "--workers", "1"), 60.0),
    CliOp("probe", ("probe", "full-register", "--max-things", "3",
                    "--workers", "1"), 60.0),
)
PROPV_OPS = (
    CliOp("propv-ascent", ("entail", "--premises", "PSRSubstance",
                           "--target", "PropV_allshared",
                           "--max-things", "8", "--workers", "2"), 100.0),
)
STARTUP_OP = CliOp("export-axioms", ("export-axioms",), 30.0)
CLI_OPS = {"table": TABLE_OPS, "propv-ascent": PROPV_OPS}

# Metrics whose values are deterministic counts; two traced passes of one
# workload must give them exactly.
LAYER_COUNTS = (
    "grounding.premise_clauses", "grounding.max_clauses",
    "search.propagations", "search.conflicts", "search.decisions",
    "search.branches", "search.pruned", "experiments.directions",
    "corpus.verifications", "logic.evaluations",
)


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("ETHICA_NODE_BUDGET", None)
    return env


@dataclass
class Child:
    code: int
    stdout: str
    stderr: str
    wall_s: float
    rss_mb: float
    timed_out: bool


def run_child(args, timeout_s: float) -> Child:
    """Run `python3 -S ARGS` from the repository root and wait for it.

    ethica has no dependencies, so `-S` keeps whatever .pth start-up hooks
    the Python installation has out of the figures.  Peak memory is the
    child's own ru_maxrss from wait4; past the timeout the child is killed
    and reported as timed out.
    """
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-S", *args], cwd=ROOT, env=child_env(),
                            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    streams = {}
    readers = [threading.Thread(target=lambda key=key, pipe=pipe:
                                streams.__setitem__(key, pipe.read()))
               for key, pipe in (("out", proc.stdout), ("err", proc.stderr))]
    for reader in readers:
        reader.start()
    timed_out = False
    pidfd = os.pidfd_open(proc.pid)
    try:
        # The pidfd turns readable when the child exits, before it is
        # reaped, so a kill here can never reach a recycled pid.
        if not select.select([pidfd], [], [], timeout_s)[0]:
            timed_out = True
            proc.kill()
    finally:
        if not timed_out and not select.select([pidfd], [], [], 0)[0]:
            proc.kill()  # interrupted while waiting: leave nothing running
        os.close(pidfd)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    wall_s = time.perf_counter() - start
    for reader in readers:
        reader.join()
    proc.stdout.close()
    proc.stderr.close()
    return Child(proc.returncode, streams["out"].decode(),
                 streams["err"].decode(), wall_s, usage.ru_maxrss / 1024,
                 timed_out)


def import_seconds() -> float:
    child = run_child(("-c", IMPORT_PROBE), 30.0)
    if child.code != 0 or child.timed_out:
        raise SystemExit(f"error: `import ethica` failed:\n{child.stderr}")
    return float(child.stdout)


# ---------------------------------------------------------------------------
# Checking answers
# ---------------------------------------------------------------------------

def load_expected() -> dict:
    """Per CLI operation: its arguments, exit code and stdout lines."""
    with open(EXPECTED, encoding="utf-8") as handle:
        expected = json.load(handle)
    for answer in expected.values():
        answer["stdout"] = "\n".join(answer["stdout"]) + "\n"
    return expected


def _add_counts(counts: dict, items) -> None:
    for key, value in items:
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            raise ValueError(f"counter {key}={value!r} is not a count")
        counts[key] = counts.get(key, 0) + value


def normalise(stdout: str):
    """The part of a CLI output compared with the expected answer, and the
    search counters parsed out of it.

    Counters (`stats:` lines, `"stats"` objects in JSON reports) are left
    out of the comparison: a correct solver change moves them but not the
    verdicts or the least counter-model.  A malformed counter raises
    ValueError.
    """
    counts: dict = {}
    if stdout.startswith(("[", "{")):
        docs = json.loads(stdout)
        for doc in docs if isinstance(docs, list) else [docs]:
            _add_counts(counts, doc.pop("stats", {}).items())
        return docs, counts
    kept = []
    for line in stdout.splitlines():
        if line.startswith("stats:"):
            if not STATS_LINE.fullmatch(line):
                raise ValueError(f"malformed counter line {line!r}")
            _add_counts(counts, ((key, int(value)) for key, value
                                 in re.findall(r"(\w+)=(\d+)", line)))
        else:
            kept.append(line)
    return kept, counts


def check_cli(name: str, code: int, stdout: str, expected: dict) -> list[str]:
    """Every mismatch between one CLI result and its expected answer: the
    exit code, and the verdicts, counter-models and outcome labels in its
    output."""
    want = expected[name]
    errors = []
    if code != want["exit"]:
        errors.append(f"{name}: exit code {code}, expected {want['exit']}")
    try:
        got = normalise(stdout)[0]
    except ValueError as err:  # json.JSONDecodeError is a ValueError
        return errors + [f"{name}: unreadable output: {err}"]
    if got != normalise(want["stdout"])[0]:
        errors.append(f"{name}: output differs from the expected answer")
    return errors


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------

@dataclass
class Pass:
    seconds: float = 0.0
    rss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    traces: list = field(default_factory=list)


def _timeout(name: str, child: Child) -> list[str]:
    return [f"{name}: killed after its timeout"] if child.timed_out else []


def _record(result: Pass, errors: list[str]) -> None:
    result.attempted += 1
    result.failed += bool(errors)
    result.errors.extend(errors)


def run_cli_op(op: CliOp, traced: bool, expected: dict, result: Pass) -> float:
    args = ("bench/child.py", "cli", *op.argv) if traced else ("-m", "ethica", *op.argv)
    child = run_child(args, op.timeout_s)
    result.rss_mb = max(result.rss_mb, child.rss_mb)
    errors = _timeout(op.name, child) or \
        check_cli(op.name, child.code, child.stdout, expected)
    if traced and not errors:
        last = child.stderr.rstrip("\n").rpartition("\n")[2]
        if last.startswith(TRACE_MARK):
            result.traces.append(json.loads(last[len(TRACE_MARK):]))
        else:
            errors.append(f"{op.name}: no trace on stderr")
    _record(result, errors)
    return child.wall_s


def run_pass(workload: str, seed: int, index: int, traced: bool,
             expected: dict) -> Pass:
    result = Pass()
    if workload in CLI_OPS:
        result.seconds = sum(run_cli_op(op, traced, expected, result)
                             for op in CLI_OPS[workload])
        return result
    child = run_child(("bench/child.py", "model", str(seed), str(index),
                       "1" if traced else "0"), MODEL_TIMEOUT_S)
    result.rss_mb = child.rss_mb
    result.seconds = child.wall_s
    errors = _timeout(f"model {index}", child)
    if not errors and child.code != 0:
        errors = [f"model {index}: exit code {child.code}: {child.stderr[-500:]}"]
    if not errors:
        report = json.loads(child.stdout)
        errors = [f"model {index}: {error}" for error in report["errors"]]
        result.seconds = report["op_s"]
        result.traces = [report["trace"]] if traced else []
    _record(result, errors)
    return result


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def merge_traces(traces: list[dict]) -> dict:
    spans: dict = {}
    counts: dict = {}
    for trace in traces:
        for name, values in trace["spans"].items():
            spans[name] = [a + b for a, b in zip(spans.get(name, [0, 0, 0]), values)]
        for name, value in trace["counts"].items():
            counts[name] = counts.get(name, 0) + value
    return {"spans": spans, "counts": counts,
            "max_clauses": max((t["max_clauses"] for t in traces), default=0)}


def layer_metrics(traces: list[dict]) -> dict[str, float]:
    """Per-module metrics of one traced pass, from its children's traces."""
    trace = merge_traces(traces)
    spans, counts = trace["spans"], trace["counts"]

    def total(name):
        return spans.get(name, [0.0, 0.0, 0])[0]

    def calls(name):
        return spans.get(name, [0.0, 0.0, 0])[2]

    premise_ground_s = total("grounding.premise_ground")
    ground_s = premise_ground_s + total("grounding.ground")
    clauses = counts.get("grounding.premise_clauses", 0) + \
        counts.get("grounding.evg_clauses", 0)
    entail_s = total("search.entail")
    self_s = entail_s - premise_ground_s if entail_s else 0.0
    propagations = counts.get("search.propagations", 0)
    conflicts = counts.get("search.conflicts", 0)
    decisions = counts.get("search.decisions", 0)
    return {
        "grounding.premise_ground_s": premise_ground_s,
        "grounding.premise_clauses": counts.get("grounding.premise_clauses", 0),
        "grounding.evg_s": total("grounding.evg"),
        "grounding.max_clauses": trace["max_clauses"],
        "grounding.clauses_per_s": clauses / ground_s if ground_s else 0.0,
        "search.entail_s": entail_s,
        "search.self_s": self_s,
        "search.propagations": propagations,
        "search.conflicts": conflicts,
        "search.decisions": decisions,
        "search.propagations_per_s": propagations / self_s if self_s > 0 else 0.0,
        "search.conflict_ratio": conflicts / decisions if decisions else 0.0,
        "search.branches": counts.get("search.branches", 0),
        "search.pruned": counts.get("search.pruned", 0),
        "search.canonical_form_s": total("search.canonical_form"),
        "experiments.run_s": total("experiments.run"),
        "experiments.self_s": spans.get("experiments.run", [0.0, 0.0, 0])[1],
        "experiments.directions": counts.get("experiments.directions", 0),
        "corpus.verify_s": total("corpus.verify"),
        "corpus.verifications": calls("corpus.verify"),
        "logic.evaluate_s": total("logic.evaluate"),
        "logic.evaluations": calls("logic.evaluate"),
        "dsl.roundtrip_s": total("dsl.roundtrip"),
    }


def _units() -> dict[str, str]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    return {metric["name"]: metric["unit"]
            for metric in spec["end_to_end"] + spec["per_layer"]}


def startup_seconds(expected: dict, result: Pass) -> float:
    """Median wall time of `ethica export-axioms`, each run checked."""
    walls = []
    for _ in range(STARTUP_SAMPLES):
        child = run_child(("-m", "ethica", *STARTUP_OP.argv), STARTUP_OP.timeout_s)
        _record(result, _timeout(STARTUP_OP.name, child) or
                check_cli(STARTUP_OP.name, child.code, child.stdout, expected))
        walls.append(child.wall_s)
    return statistics.median(walls)


def run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    expected = load_expected()
    import_seconds()  # warm-up: compiles the package's bytecode once
    startup = Pass()
    if trace:
        startup_s = startup_seconds(expected, startup)

    # The host's speed drifts over tens of seconds, so the import samples
    # are spread over the run, one before each pass, rather than taken in
    # one burst.  A pass starts only if it is due to end mostly in time.
    imports: list[float] = []
    passes: list[tuple[bool, Pass]] = []
    deadline = time.perf_counter() + seconds
    index = 0
    last_s = 0.0
    while index < MIN_PASSES or time.perf_counter() + last_s / 2 < deadline:
        started = time.perf_counter()
        if not trace:
            imports.append(import_seconds())
        traced = trace and index % 2 == 1
        passes.append((traced, run_pass(workload, seed, index, traced, expected)))
        last_s = time.perf_counter() - started
        index += 1
    while not trace and len(imports) < IMPORT_SAMPLES:
        imports.append(import_seconds())
    everything = [startup] + [result for _, result in passes]
    attempted = sum(result.attempted for result in everything)
    failed = sum(result.failed for result in everything)
    errors = [error for result in everything for error in result.errors]

    plain = [result for traced, result in passes if not traced]
    pass_s = statistics.median(result.seconds for result in plain)
    if not trace:
        metrics = {
            "pass_s": pass_s,
            "setup_s": statistics.median(imports),
            "peak_rss_mb": statistics.median(result.rss_mb for result in plain),
            "ok_ratio": (attempted - failed) / attempted,
        }
    else:
        traced_passes = [result for traced, result in passes if traced]
        per_pass = [layer_metrics(result.traces) for result in traced_passes
                    if not result.errors]
        metrics = {name: statistics.median(values[name] for values in per_pass)
                   if per_pass else 0.0 for name in layer_metrics([])}
        for name in LAYER_COUNTS:
            if len({values[name] for values in per_pass}) > 1:
                errors.append(f"{name} differs between traced passes")
        metrics["cli.startup_s"] = startup_s
        metrics["trace.overhead_s"] = statistics.median(
            result.seconds for result in traced_passes) - pass_s
    print(f"{workload}: {len(plain)} untraced and {len(passes) - len(plain)} "
          f"traced passes, {attempted} operations, {failed} failed",
          file=sys.stderr)
    for error in errors[:20]:
        print(f"  {error}", file=sys.stderr)
    units = _units()
    return {"correct": not errors, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "ethica" / "__init__.py").is_file():
        print(f"error: no ethica sources under {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    print(json.dumps(run(args.workload, args.seed, args.seconds,
                         bool(args.trace))))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
