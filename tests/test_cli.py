"""The command-line driver: subcommands, exit codes, output contracts."""

import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

import ethica
from ethica import cli, registry, search
from ethica.cli import main
from ethica.dsl import serialize_model
from ethica.experiments import REPORT_SCHEMA

from oracles import reference_parser


GOLDEN = Path(__file__).parent / "golden"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_corpus_a12_confirmed(capsys):
    code, out, _ = run_cli(capsys, "verify", "corpus:A12CounterModel",
                           "--premises", "PSRSubstance", "--target", "A12")
    assert code == 0
    assert "confirmed" in out
    assert "(s1, s2, a_shared)" in out


def test_verify_premise_failure_exits_one(capsys):
    code, out, _ = run_cli(capsys, "verify", "corpus:A15CounterModel",
                           "--premises", "PSRPlenitude", "--target", "A15")
    assert code == 1
    assert "premise-failure(A26)" in out


def test_verify_model_file(tmp_path, capsys, a12):
    path = tmp_path / "m.model"
    path.write_text(serialize_model(a12.model))
    code, out, _ = run_cli(capsys, "verify", str(path),
                           "--premises", "A22", "--target", "A12")
    assert code == 0
    assert "confirmed" in out


def test_verify_json_output(capsys):
    code, out, _ = run_cli(capsys, "verify", "corpus:A12CounterModel",
                           "--premises", "PSRSubstance", "--target", "A12",
                           "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "confirmed"
    assert ["s1", "s2", "a_shared"] in doc["witnesses"]


def test_verify_bad_model_file_exits_two(tmp_path, capsys):
    path = tmp_path / "bad.model"
    path.write_text("model m\nthings x\npred nosuch: x\n")
    code, _, err = run_cli(capsys, "verify", str(path),
                           "--premises", "A22", "--target", "A12")
    assert code == 2
    assert "unknown predicate" in err


def test_verify_unknown_corpus_exits_two(capsys):
    code, _, err = run_cli(capsys, "verify", "corpus:NoSuchModel",
                           "--premises", "A22", "--target", "A12")
    assert code == 2
    assert "unknown corpus model" in err


# ---------------------------------------------------------------------------
# search / entail
# ---------------------------------------------------------------------------

def test_search_refutation_prints_model(capsys):
    code, out, _ = run_cli(capsys, "search", "--premises", "PSRSubstance",
                           "--target", "A12", "--max-things", "4")
    assert code == 0
    assert "Refuted(size=2)" in out
    assert "model countermodel" in out


def test_entail_reports_verdict_only(capsys):
    code, out, _ = run_cli(capsys, "entail", "--premises", "PSRPlenitude",
                           "--target", "A15", "--max-things", "3")
    assert code == 0
    assert out.strip() == "NoCounterexampleUpTo(3)"


def test_search_stats_line_pins_the_counters(capsys, monkeypatch):
    # The counters are deterministic: decisions, assignments, branches
    # skipped as non-representatives of their orbit, branches solved.
    # Padding settles 3 things; the walk over every size solves it too.
    for stats in ("candidates=280 propagations=1823 pruned=63 branches=10",
                  "candidates=349 propagations=2500 pruned=85 branches=15"):
        code, out, _ = run_cli(capsys, "search", "--premises", "PSRPlenitude",
                               "--target", "A15", "--max-things", "4")
        assert code == 0
        assert out.splitlines()[:2] == ["NoCounterexampleUpTo(4)",
                                        "stats: " + stats]
        monkeypatch.setattr(search, "_paddable", lambda formula: False)


SIZE_LIST = {"type": "array", "items": {
    "type": "array", "items": {"type": "integer", "minimum": 0},
    "minItems": 2, "maxItems": 2}}


def test_search_json_validates_direction_schema(capsys):
    direction_schema = dict(REPORT_SCHEMA["properties"]["forward"])
    direction_schema["properties"] = dict(direction_schema["properties"])
    direction_schema["properties"]["stats"] = {
        "type": "object",
        "required": ["sizes_exhausted", "sizes_padded"],
        "properties": {"sizes_exhausted": SIZE_LIST,
                       "sizes_padded": SIZE_LIST}}
    code, out, _ = run_cli(capsys, "search", "--premises", "PSRSubstance",
                           "--target", "A12", "--max-things", "2", "--json")
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, direction_schema)
    assert doc["verdict"] == "refuted"
    assert doc["stats"]["sizes_padded"] == []
    # The sizes that padding settles are named, and not solved.
    code, out, _ = run_cli(capsys, "search", "--premises", "PSRSubstance",
                           "--target", "PropV_allshared", "--max-things", "8",
                           "--json")
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, direction_schema)
    assert doc["stats"]["sizes_exhausted"] == [[1, 0], [2, 0], [4, 0], [8, 0]]
    assert doc["stats"]["sizes_padded"] == [[3, 0], [5, 0], [6, 0], [7, 0]]


def test_search_unknown_axiom_exits_two(capsys):
    code, _, err = run_cli(capsys, "search", "--premises", "A99",
                           "--target", "A12")
    assert code == 2
    assert "unknown axiom id" in err


OUT_OF_RANGE_ARGVS = [
    ["entail", "--premises", "A24", "--target", "A14", "--max-things", "0"],
    ["entail", "--premises", "A24", "--target", "A14", "--workers", "0"],
    ["probe", "full-register", "--max-things", "0"],
    ["probe", "full-register", "--workers", "-3"],
    ["experiment", "run", "A14_demote", "--workers", "0"],
    ["table", "--workers", "0"],
    ["entail", "--premises", "A24", "--target", "A14", "--max-worlds", "-1"],
]

# An empty selector is a usage error, never "no premises".
EMPTY_PREMISES_ARGVS = [
    ["verify", "corpus:A12CounterModel", "--premises", "", "--target", "A12"],
    ["search", "--premises", ",,", "--target", "A12"],
]


def test_usage_error_exits_two(capsys, monkeypatch):
    assert main(["search", "--premises", "A22"]) == 2  # missing --target
    capsys.readouterr()
    # Out-of-range values are rejected, never replaced by a default.
    for argv in OUT_OF_RANGE_ARGVS:
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert "must be >= " in err, argv
    for argv in EMPTY_PREMISES_ARGVS:
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert "error: --premises names no axiom" in err, argv
    for budget, message in (("0", "node_budget must be >= 1"),
                            ("-1", "node_budget must be >= 1"),
                            ("abc", "ETHICA_NODE_BUDGET")):
        monkeypatch.setenv("ETHICA_NODE_BUDGET", budget)
        code, out, err = run_cli(capsys, "entail", "--premises", "A24",
                                 "--target", "A14", "--max-things", "2")
        assert (code, out) == (2, ""), budget
        assert message in err, budget


def test_non_integer_workers_exits_two_without_traceback(capsys):
    code, out, err = run_cli(capsys, "search", "--premises", "PSRSubstance",
                             "--target", "A12", "--workers", "abc")
    assert (code, out) == (2, "")
    assert err.endswith("argument --workers: invalid int value: 'abc'\n")
    assert "Traceback" not in err


def test_node_budget_env_exits_three(capsys, monkeypatch):
    monkeypatch.setenv("ETHICA_NODE_BUDGET", "5")
    for argv in (("entail", "--premises", "PSRSubstance",
                  "--target", "PropV_allshared", "--max-things", "4"),
                 ("table",),
                 ("experiment", "run", "all")):
        code, _, err = run_cli(capsys, *argv)
        assert code == 3, argv
        assert err.startswith("error: node budget"), argv


def test_failed_recheck_exits_one_without_traceback(capsys, monkeypatch):
    # An evaluator that rejects every model makes each returned
    # counter-model fail the re-check; the CLI reports an internal error.
    from ethica import search
    monkeypatch.setattr(search, "evaluate", lambda formula, model: False)
    for argv in (("entail", "--premises", "PSRSubstance", "--target", "A12"),
                 ("table",),
                 ("experiment", "run", "all")):
        code, _, err = run_cli(capsys, *argv)
        assert code == 1, argv
        assert err.startswith("error: internal error: "), argv
        assert "Traceback" not in err, argv


def _out_of_memory(*args, **kwargs):
    raise MemoryError()


def test_out_of_memory_exits_three_without_traceback(capsys, monkeypatch):
    # A search that runs out of memory is a resource limit, like the node
    # budget; the table must not wrap it in its own error.  The CLI runs
    # experiments through ``experiments.run_experiment``.
    from ethica import cli, experiments
    monkeypatch.setattr(cli, "entails_bounded", _out_of_memory)
    monkeypatch.setattr(experiments, "entails_bounded", _out_of_memory)
    monkeypatch.setattr(experiments, "run_experiment", _out_of_memory)
    for argv in (("entail", "--premises", "PSRSubstance",
                  "--target", "PropV_allshared", "--max-things", "4"),
                 ("search", "--premises", "PSRSubstance", "--target", "A12"),
                 ("probe", "full-register"),
                 ("table",),
                 ("experiment", "run", "all")):
        code, out, err = run_cli(capsys, *argv)
        assert code == 3, argv
        assert err.startswith("error: out of memory"), argv
        assert "Traceback" not in err and "table aborted" not in err, argv
        assert out == "", argv


def test_interrupt_exits_130_without_traceback(capsys, monkeypatch):
    from ethica import cli

    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt()
    monkeypatch.setattr(cli, "entails_bounded", interrupted)
    code, out, err = run_cli(capsys, "entail", "--premises", "PSRSubstance",
                             "--target", "A12", "--workers", "2")
    assert (code, out, err) == (130, "", "error: interrupted\n")
    assert "Traceback" not in err


def test_search_output_is_identical_across_worker_counts(capsys):
    for argv in (("search", "--premises", "PSRPlenitude", "--target", "A15",
                  "--max-things", "5"),
                 ("search", "--premises", "PSRSubstance", "--target", "A12",
                  "--max-things", "6", "--json"),
                 ("entail", "--premises", "A23,A18,A3m", "--target", "A13",
                  "--max-things", "4", "--max-worlds", "3"),
                 ("probe", "full-register", "--json")):
        first = run_cli(capsys, *argv, "--workers", "1")
        assert first[0] == 0
        for workers in ("2", "3"):
            assert run_cli(capsys, *argv, "--workers", workers) == first, argv


def _raising(error):
    def run(*args, **kwargs):
        raise error
    return run


def test_experiment_errors_exit_alike_from_table_and_experiment(
        capsys, monkeypatch):
    # The table reports an experiment's error as the experiment command
    # does: a malformed search is an input error, an outcome the verdicts
    # do not determine an internal one.
    from ethica import experiments
    from ethica.experiments import InsufficientEvidenceError
    from ethica.search import SearchError
    for error, code, message in (
            (SearchError("bad request"), 2, "error: bad request\n"),
            (InsufficientEvidenceError("no evidence"), 1,
             "error: internal error: no evidence\n")):
        monkeypatch.setattr(experiments, "run_experiment", _raising(error))
        for argv in (("table",), ("experiment", "run", "all")):
            assert run_cli(capsys, *argv) == (code, "", message), argv


def test_experiment_expectation_mismatch_exits_one(capsys, monkeypatch,
                                                   mismatched_spec):
    from ethica import experiments
    monkeypatch.setattr(experiments, "bundled_experiments",
                        lambda node_budget: {"wrong": mismatched_spec})
    code, out, err = run_cli(capsys, "experiment", "run", "wrong")
    assert (code, err) == (1, "")
    assert [line for line in out.splitlines() if "EXPECTATION" in line] == [
        "  EXPECTATION MISMATCH forward: expected refuted, got no_counterexample",
        "  EXPECTATION MISMATCH corpus check: target-not-falsified"]


def test_no_prune_flag(capsys):
    code, out, _ = run_cli(capsys, "entail", "--premises", "A24",
                           "--target", "A14", "--max-things", "3", "--no-prune")
    assert code == 0
    assert "NoCounterexampleUpTo(3)" in out


# ---------------------------------------------------------------------------
# experiment / table / probe / export
# ---------------------------------------------------------------------------

def test_experiment_run_single(capsys):
    code, out, _ = run_cli(capsys, "experiment", "run", "A14_demote")
    assert code == 0
    assert "EqualStrengthTranslation" in out
    assert "expectations: ok" in out


def test_experiment_run_all_json_validates(capsys):
    code, out, _ = run_cli(capsys, "experiment", "run", "all", "--json")
    assert code == 0
    docs = json.loads(out)
    assert isinstance(docs, list) and len(docs) == 7
    for doc in docs:
        jsonschema.validate(doc, REPORT_SCHEMA)


def test_experiment_unknown_name_exits_two(capsys):
    code, _, err = run_cli(capsys, "experiment", "run", "A99_demote")
    assert code == 2
    assert "unknown experiment" in err


def test_experiment_strict_claims_suppresses_labels(capsys):
    code, out, _ = run_cli(capsys, "experiment", "run", "A14_demote",
                           "--strict-claims")
    assert code == 0
    assert "outcome:" not in out
    assert "NoCounterexampleUpTo" in out


def test_table_markdown_and_exit(capsys):
    code, out, _ = run_cli(capsys, "table")
    assert code == 0
    assert out.startswith("| Axiom | Demote premises | Outcome |")
    assert "Decomposition only" in out


def test_table_byte_identical_across_invocations(capsys):
    _, first, _ = run_cli(capsys, "table")
    _, second, _ = run_cli(capsys, "table")
    assert first == second


def test_table_is_identical_across_worker_counts(capsys):
    # --workers sets only how many processes solve a search's sizes.
    assert run_cli(capsys, "table", "--workers", "1") == \
        run_cli(capsys, "table", "--workers", "3")


def test_table_json(capsys):
    code, out, _ = run_cli(capsys, "table", "--json")
    assert code == 0
    doc = json.loads(out)
    assert [row["axiom"] for row in doc["rows"]] == ["A12", "A13", "A14", "A15"]


def test_probe_full_register(capsys):
    code, out, _ = run_cli(capsys, "probe", "full-register", "--max-things", "3")
    assert code == 0
    assert "full-register probe" in out
    assert "no expected verdict" in out
    if "Refuted" in out:
        assert "verifier cross-check: confirmed" in out


def test_export_axioms_json(capsys):
    code, out, _ = run_cli(capsys, "export-axioms", "--json")
    assert code == 0
    entries = {entry["id"]: entry for entry in json.loads(out)}
    assert "A12" in entries and "A22" in entries and "PropV_allshared" in entries
    assert entries["A22"]["section"] == "PSRCandidate"
    assert entries["A12"]["formula"].startswith("∀s1 s2 a.")
    assert all("citation" in entry for entry in entries.values())


def test_export_axioms_parses_no_formula(capsys, monkeypatch):
    # The catalogue prints each entry's display text, so the command reads
    # the rows without parsing them.
    def refuse(text):
        raise AssertionError(f"parsed {text!r}")

    monkeypatch.setattr(registry, "parse_formula", refuse)
    monkeypatch.setattr(registry, "_ENTRIES", {})
    for argv in (("export-axioms",), ("export-axioms", "--json")):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert "PropV_allshared" in out


@pytest.mark.parametrize("argv, golden", [
    (("export-axioms",), "export-axioms.txt"),
    (("experiment", "run", "all"), "experiment-run-all.txt"),
    (("export-axioms", "--json"), "export-axioms.json"),
])
def test_text_report_is_byte_identical_to_its_golden_file(capsys, argv, golden):
    # The golden files hold the reports as ethica prints them; change one
    # only together with a change to the report it pins.
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out.encode("utf-8") == (GOLDEN / golden).read_bytes()


@pytest.mark.parametrize("argv, golden", [
    (("experiment", "run", "all", "--json"),
     "experiment-run-all.stats-free.json"),
    (("search", "--premises", "A13,A18,A3m", "--target", "A23",
      "--max-things", "3", "--json"), "search-A23-from-A13-A18-A3m.stats-free.json"),
])
def test_json_report_without_its_counters_is_its_golden_file(
        capsys, argv, golden):
    # bench/run.py compares a JSON report with each document's "stats"
    # object removed, since correct solver changes move the counters; the
    # golden files hold the reports in that form, dumped as the CLI dumps.
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    docs = json.loads(out)
    for doc in docs if isinstance(docs, list) else [docs]:
        doc.pop("stats")
    text = json.dumps(docs, indent=2, sort_keys=True) + "\n"
    assert text.encode("utf-8") == (GOLDEN / golden).read_bytes()


def test_cli_import_loads_no_dataclasses_typing_or_inspect():
    # Importing these (and building dataclass methods) was most of the
    # CLI's start-up time; a fresh interpreter must not load them.
    source_root = os.path.dirname(os.path.dirname(ethica.__file__))
    probe = ("import sys, ethica.cli; print(sorted(set(sys.modules) & "
             "{'dataclasses', 'typing', 'inspect'}))")
    child = subprocess.run([sys.executable, "-S", "-c", probe],
                           capture_output=True, text=True,
                           env={**os.environ, "PYTHONPATH": source_root})
    assert child.returncode == 0, child.stderr
    assert child.stdout == "[]\n"


def test_cli_import_does_not_load_json():
    # Only --json output needs json; the other commands skip loading it.
    source_root = os.path.dirname(os.path.dirname(ethica.__file__))
    probe = "import sys, ethica.cli; print('json' in sys.modules)"
    child = subprocess.run([sys.executable, "-S", "-c", probe],
                           capture_output=True, text=True,
                           env={**os.environ, "PYTHONPATH": source_root})
    assert child.returncode == 0, child.stderr
    assert child.stdout == "False\n"


def test_cli_byte_identity_across_processes():
    # A fresh process per invocation: no shared caches, and the search path
    # (model rendering included) must still come out byte-identical.
    argv = [sys.executable, "-m", "ethica", "search", "--premises",
            "PSRSubstance", "--target", "A12", "--max-things", "3"]
    # The children import the package this test imported.
    env = {**os.environ,
           "PYTHONPATH": os.path.dirname(os.path.dirname(ethica.__file__))}
    first = subprocess.run(argv, capture_output=True, text=True, env=env)
    second = subprocess.run(argv, capture_output=True, text=True, env=env)
    assert first.returncode == 0, first.stderr
    assert "Refuted(size=2)" in first.stdout
    assert first.stdout == second.stdout


# ---------------------------------------------------------------------------
# argument parsing, against the argparse parser it replaced
# ---------------------------------------------------------------------------

# Every command and option, spelled out, after "=", abbreviated, reordered
# and repeated.
VALID_ARGVS = [
    ["verify", "corpus:A12CounterModel", "--premises", "PSRSubstance",
     "--target", "A12"],
    ["verify", "--json", "--target=A12", "m.model", "--premises=A22"],
    ["verify", "--prem", "A22", "--tar=A12", "--js", "m.model"],
    ["verify", "--premises", "A22", "--target", "A12", "--", "m.model"],
    ["verify", "--premises", "A22", "--target", "A12", "m.model", "--"],
    ["verify", "-", "--premises", "A22", "--target", "A12"],
    ["search", "--premises", "PSRPlenitude", "--target", "A15",
     "--max-things", "3", "--max-worlds", "2", "--no-prune", "--workers",
     "2", "--json"],
    ["search", "--premises=A24", "--target=A14", "--max-things=3",
     "--max-worlds=0", "--workers=2"],
    ["search", "--pr", "A24", "--ta", "A14", "--max-t", "3", "--max-w=1",
     "--no", "--w", "3", "--j"],
    ["search", "--json", "--max-things", "2", "--target", "A12",
     "--premises", "A22", "--max-things", "4"],
    ["search", "--premises", "-x y", "--target", "A12"],
    ["entail", "--premises", "A1", "--target", "A14", "--premises", "A24",
     "--workers", "2", "--workers=3", "--no-prune", "--no-prune"],
    ["entail", "--target", "PropV_allshared", "--premises", "PSRSubstance",
     "--max-things", "8", "--workers", "2"],
    ["entail", "--premises", "A24", "--target", "A14", "--max-worlds", "-1",
     "--max-things", "-0"],
    ["experiment", "run", "all"],
    ["experiment", "run", "--json", "A14_demote", "--workers=2",
     "--strict-claims"],
    ["experiment", "run", "--str", "--wor", "1", "--js", "all"],
    ["experiment", "run", "--", "all"],
    ["table"],
    ["table", "--workers", "2", "--json", "--strict-claims"],
    ["table", "--s", "--w=2", "--j"],
    ["probe", "full-register"],
    ["probe", "--max-things", "3", "full-register", "--workers", "-3"],
    ["probe", "full-register", "--max-t=2", "--max-w", "1", "--no",
     "--json"],
    ["export-axioms"],
    ["export-axioms", "--json", "--j"],
]

HELP_ARGVS = [
    ["-h"], ["--help"], ["--he"], ["-h", "nosuch"], ["experiment", "-h"],
    ["experiment", "run", "--help"], ["search", "--premises", "A22", "-h"],
    ["table", "-hh"], ["probe", "--h", "nosuch"],
]

# Each error argparse reports, at each level of the command words.
INVALID_ARGVS = [
    [],
    ["experiment"],
    ["experiment", "run"],
    ["verify"],
    ["probe"],
    ["search", "--premises", "A22"],
    ["search", "--premises", "A22", "--target", "A12", "--workers", "abc"],
    ["search", "--premises", "A22", "--target", "A12", "--max-things="],
    ["search", "--premises", "A22", "--target", "A12", "--max-t", "2.5"],
    ["probe", "full-register", "--workers", "-.5"],
    ["search", "--premises", "--target", "A12"],
    ["search", "--target", "A12", "--premises"],
    ["verify", "m", "--premises", "-x", "--target", "A12"],
    ["verify", "m", "--premises", "--", "A22", "--target", "A12"],
    ["verify", "m", "--", "--premises", "A22", "--target", "A12"],
    ["table", "foo"],
    ["table", "--"],
    ["table", "--foo=1", "bar", "--json"],
    ["--json", "table"],
    ["-x", "table", "-y"],
    ["verify", "m", "n", "--premises", "A22", "--target", "A12"],
    ["experiment", "--x", "run", "all", "--y"],
    ["foo"],
    ["--"],
    ["--", "table"],
    ["-3", "table"],
    ["experiment", "foo"],
    ["probe", "nosuch"],
    ["search", "--max", "3"],
    ["search", "--premises", "A22", "--target", "A12", "--max=3"],
    ["table", "--=x"],
    ["table", "--json=yes"],
    ["entail", "--no-prune=", "--premises", "A22", "--target", "A12"],
    ["table", "-hx"],
    ["table", "-h="],
    ["--help=x"],
]


def parsed(parse, argv, capsys):
    """(0, the argument values) or (exit code, the last line of stderr)."""
    try:
        values = parse(argv)
    except SystemExit as exit_:
        return exit_.code, capsys.readouterr().err.splitlines()[-1:]
    return 0, values


def reference_values(argv):
    values = vars(reference_parser().parse_args(argv))
    del values["func"]
    return values


@pytest.mark.parametrize("argv", VALID_ARGVS + HELP_ARGVS + INVALID_ARGVS)
def test_the_command_table_reads_argv_as_argparse_did(capsys, argv):
    # The same values; the same exit code, and the same error line
    # (``prog: error: message``) for a usage error.  Help text differs.
    expected = parsed(reference_values, argv, capsys)
    got = parsed(lambda argv: vars(cli.parse_args(argv)[1]), argv, capsys)
    if argv in HELP_ARGVS:
        assert got[0] == expected[0] == 0
    else:
        assert got == expected
        assert got[0] == (2 if argv in INVALID_ARGVS else 0)


def test_help_lists_each_command_and_its_arguments(capsys):
    assert main(["-h"]) == 0
    out = capsys.readouterr().out
    for name in cli.COMMANDS:
        assert f"  ethica {name} [-h]" in out
    assert main(["search", "--help"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: ethica search [-h] --premises PREMISES ")
    for option in ("--premises PREMISES", "--target TARGET", "--max-things K",
                   "--max-worlds W", "--no-prune", "--workers N", "--json"):
        assert f"\n  {option}\n" in out

