"""Tests of the benchmark itself.

Run from the repository root:

    python3 -m pytest bench/test_bench.py
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import child  # noqa: E402
import run  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.fixture(scope="module")
def expected():
    return run.load_expected()


def test_same_seed_gives_byte_identical_model_inputs():
    first = child.model_input(7, 3)
    again = child.model_input(7, 3)
    assert first[0].encode() == again[0].encode()
    assert first[1] == again[1]
    assert child.model_input(8, 3)[0] != first[0]
    assert child.model_input(7, 4)[0] != first[0]


def test_expected_answers_cover_exactly_the_operations(expected):
    ops = run.TABLE_OPS + run.PROPV_OPS + (run.STARTUP_OP,)
    assert {name: answer["argv"] for name, answer in expected.items()} == \
        {op.name: list(op.argv) for op in ops}


def test_checker_accepts_the_expected_answers(expected):
    for name, answer in expected.items():
        assert run.check_cli(name, answer["exit"], answer["stdout"], expected) == []


@pytest.mark.parametrize("name, right, wrong", [
    ("probe", "Refuted(size=2)", "Refuted(size=3)"),
    ("propv-ascent", "NoCounterexampleUpTo(8)", "NoCounterexampleUpTo(7)"),
    ("table", "Decomposition only", "Full irreducibility"),
    ("experiment-all", '"verdict": "no_counterexample"', '"verdict": "refuted"'),
    ("probe", "(t0,t1) (t1,t0)", "(t0,t1) (t0,t0)"),
])
def test_checker_rejects_one_wrong_answer(expected, name, right, wrong):
    stdout = expected[name]["stdout"]
    assert right in stdout
    changed = stdout.replace(right, wrong, 1)
    assert run.check_cli(name, 0, changed, expected)


def test_checker_rejects_a_wrong_exit_code(expected):
    assert run.check_cli("table", 1, expected["table"]["stdout"], expected)


def test_counters_are_parsed_but_not_compared(expected):
    stdout = expected["probe"]["stdout"]
    moved = re.sub(r"propagations=\d+", "propagations=999999", stdout)
    assert run.check_cli("probe", 0, moved, expected) == []
    assert run.normalise(moved)[1]["propagations"] == 999999
    malformed = re.sub(r"propagations=\d+", "propagations=many", stdout)
    assert run.check_cli("probe", 0, malformed, expected)

    report = json.loads(expected["experiment-all"]["stdout"])
    report[0]["stats"]["conflicts"] += 1
    assert run.check_cli("experiment-all", 0, json.dumps(report), expected) == []


def test_metric_names_are_well_formed_and_all_reported():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    metrics = spec["end_to_end"] + spec["per_layer"]
    names = [entry["name"] for entry in metrics + spec["workloads"]]
    assert all(NAME.fullmatch(name) for name in names)
    assert len(names) == len(set(names))
    assert set(run.layer_metrics([])) | {"cli.startup_s", "trace.overhead_s"} == \
        {entry["name"] for entry in spec["per_layer"]}
    assert set(run.LAYER_COUNTS) <= set(run.layer_metrics([]))
    assert {entry["name"] for entry in spec["workloads"]} == set(run.WORKLOADS)


@pytest.mark.parametrize("workload", ["table", "models"])
def test_two_traced_runs_give_the_same_counts(expected, workload):
    counts = []
    for _ in range(2):
        result = run.run_pass(workload, seed=5, index=0, traced=True,
                              expected=expected)
        assert result.errors == []
        metrics = run.layer_metrics(result.traces)
        counts.append({name: metrics[name] for name in run.LAYER_COUNTS})
    assert counts[0] == counts[1]
    if workload == "models":
        assert counts[0]["grounding.max_clauses"] == 40960
        assert counts[0]["search.propagations"] == 0


def test_an_operation_past_its_timeout_is_killed():
    result = run.run_child(("-c", "import time; time.sleep(60)"), 0.5)
    assert result.timed_out
    assert result.code != 0
    assert result.wall_s < 10


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "table", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
