"""Command-line driver: verification, search, experiments, table, probe,
and axiom export.

Exit codes: 0 all attached expectations held; 1 an expectation or
verification failed, or an internal error: a returned model failed the
evaluator re-check, or an experiment's verdicts left its outcome
undetermined; 2 usage or input error; 3 resource limit exceeded:
the node budget ran out, or the process ran out of memory; 130
interrupted (Ctrl-C).
Output is deterministic: identical invocations produce byte-identical
reports (elapsed times never appear in them).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Sequence

from .corpus import VerificationReport, corpus_model, verify
from .dsl import parse_model, serialize_model
from .experiments import (PROBE_PREMISES, Direction, InsufficientEvidenceError,
                          bundled_experiments, conjecture_probe_full_register,
                          describe_experiment, direction_json,
                          reducibility_table, run_experiment)
from .logic import LogicError
from .registry import BUNDLES, RegistryError, axiom, axiom_ids
from .search import (DEFAULT_NODE_BUDGET, NoCounterexampleUpTo, RecheckError,
                     Refuted, ResourceLimitExceeded, SearchConfig, SearchStats,
                     entails_bounded)

EXIT_OK = 0
EXIT_EXPECTATION_FAILED = 1
EXIT_USAGE = 2
EXIT_RESOURCE_LIMIT = 3
EXIT_INTERRUPTED = 130

NODE_BUDGET_ENV = "ETHICA_NODE_BUDGET"


def _parse_selector(text: str):
    """``--premises``: a bundle name, or a comma-separated list of axiom
    ids.  A value naming no axiom is an error, never "no premises"."""
    tokens = [token.strip() for token in text.split(",") if token.strip()]
    if not tokens:
        raise ValueError("--premises names no axiom")
    if len(tokens) == 1 and tokens[0] in BUNDLES:
        return tokens[0]
    return tokens


def _node_budget() -> int:
    budget_text = os.environ.get(NODE_BUDGET_ENV)
    if not budget_text:
        return DEFAULT_NODE_BUDGET
    try:
        return int(budget_text)
    except ValueError:
        raise ValueError(f"{NODE_BUDGET_ENV} must be an integer, "
                         f"got {budget_text!r}") from None


def _worker_count(text: str) -> int:
    """``--workers``: the processes a search may solve its sizes in."""
    try:
        count = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if count < 1:
        raise argparse.ArgumentTypeError("workers must be >= 1")
    return count


def _search_config(args, default_things: int = 4) -> SearchConfig:
    things = default_things if args.max_things is None else args.max_things
    return SearchConfig(
        max_thing_size=things,
        max_world_size=args.max_worlds,
        pruning="none" if args.no_prune else "canonical",
        node_budget=_node_budget(),
    )


def _load_model(ref: str):
    """A `corpus:NAME` reference or a model DSL file path."""
    if ref.startswith("corpus:"):
        return corpus_model(ref[len("corpus:"):])
    with open(ref, encoding="utf-8") as handle:
        return parse_model(handle.read())


def _emit(text: str) -> None:
    sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _emit_json(doc) -> None:
    _emit(json.dumps(doc, indent=2, sort_keys=True))


def _direction_doc(premises, target: str, verdict, config: SearchConfig) -> dict:
    doc = direction_json(Direction(premises, target), verdict, config)
    doc["stats"] = verdict.stats.to_json_dict()
    return doc


def _stats_line(stats: SearchStats) -> str:
    return (f"stats: candidates={stats.candidates_visited} "
            f"propagations={stats.propagations} "
            f"pruned={stats.pruned_subtrees} "
            f"branches={stats.branches_total}")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_verify(args) -> int:
    model = _load_model(args.model)
    report = verify(model, _parse_selector(args.premises), args.target)
    if args.json:
        _emit_json(report.to_json_dict())
    else:
        _emit(_render_verification(report))
    return EXIT_OK if report.confirmed else EXIT_EXPECTATION_FAILED


def _render_verification(report: VerificationReport) -> str:
    lines = [f"model {report.model_name}"]
    for axiom_id, value in report.premise_values:
        lines.append(f"  premise {axiom_id}: {'true' if value else 'false'}")
    lines.append(f"  target {report.target_id}: "
                 f"{'true' if report.target_value else 'false'}")
    if report.witnesses:
        rendered = ", ".join("(" + ", ".join(w) + ")" for w in report.witnesses)
        lines.append(f"  witnesses: {rendered}")
    if report.fidelity_flags:
        lines.append("  fidelity flags: " + ", ".join(report.fidelity_flags))
    lines.append(f"verdict: {report.verdict}")
    return "\n".join(lines)


def _cmd_search(args, verdict_only: bool = False) -> int:
    premises = _parse_selector(args.premises)
    config = _search_config(args)
    verdict = entails_bounded(premises, args.target, config, args.workers)
    if args.json:
        _emit_json(_direction_doc(premises, args.target, verdict, config))
        return EXIT_OK
    lines = [verdict.describe()]
    if isinstance(verdict, Refuted) and not verdict_only:
        lines.append("model:")
        lines.append(serialize_model(verdict.model).rstrip("\n"))
    if not verdict_only:
        stats = verdict.stats
        lines.append(_stats_line(stats))
        if isinstance(verdict, NoCounterexampleUpTo):
            lines.append("note: no counterexample within support "
                         f"{{{', '.join(stats.support)}}} up to the stated bound; "
                         "this is not a claim of unbounded validity")
    _emit("\n".join(lines))
    return EXIT_OK


def _cmd_experiment(args) -> int:
    specs = bundled_experiments(_node_budget())
    if args.name == "all":
        chosen = list(specs.values())
    elif args.name in specs:
        chosen = [specs[args.name]]
    else:
        raise RegistryError(
            f"unknown experiment {args.name!r}; known: {', '.join(specs)}, all")
    ok = True
    docs = []
    for spec in chosen:
        result = run_experiment(spec, args.workers)
        ok = ok and result.expectation_ok
        if args.json:
            docs.append(result.to_json_dict())
        else:
            _emit(describe_experiment(result, strict_claims=args.strict_claims))
    if args.json:
        _emit_json(docs if len(docs) > 1 else docs[0])
    return EXIT_OK if ok else EXIT_EXPECTATION_FAILED


def _cmd_table(args) -> int:
    table = reducibility_table(_node_budget(), args.workers)
    if args.json:
        _emit_json(table.to_json_dict())
    else:
        _emit(table.markdown(strict_claims=args.strict_claims))
    return EXIT_OK if table.all_expectations_ok else EXIT_EXPECTATION_FAILED


def _cmd_probe(args) -> int:
    config = _search_config(args, default_things=3)
    verdict = conjecture_probe_full_register(config, args.workers)
    if args.json:
        _emit_json(_direction_doc(list(PROBE_PREMISES), "A12", verdict, config))
        return EXIT_OK
    lines = [f"full-register probe: {{{', '.join(PROBE_PREMISES)}}} |= A12 ?",
             verdict.describe()]
    if isinstance(verdict, Refuted):
        report = verify(verdict.model, list(PROBE_PREMISES), "A12")
        lines.append("model:")
        lines.append(serialize_model(verdict.model).rstrip("\n"))
        lines.append(f"verifier cross-check: {report.verdict}")
    lines.append(_stats_line(verdict.stats))
    lines.append("note: no expected verdict is attached to this probe")
    _emit("\n".join(lines))
    return EXIT_OK


def _cmd_export_axioms(args) -> int:
    entries = [axiom(axiom_id) for axiom_id in axiom_ids()]
    if args.json:
        _emit_json([
            {
                "id": entry.id,
                "section": entry.section.value,
                "citation": entry.citation,
                "status": entry.status,
                "formula": entry.display,
            }
            for entry in entries])
    else:
        lines = []
        for entry in entries:
            lines.append(f"{entry.id} [{entry.section.value}] ({entry.status})")
            lines.append(f"  {entry.display}")
            lines.append(f"  citation: {entry.citation}")
        _emit("\n".join(lines))
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ethica",
        description="Finite-model workbench for the Ethica Pars I register")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_workers_flag(p):
        p.add_argument("--workers", type=_worker_count, default=1, metavar="N",
                       help="solve a search's sizes in up to N processes "
                            "(default 1); results do not depend on N")

    def add_search_flags(p, with_target=True):
        if with_target:
            p.add_argument("--premises", required=True,
                           help="bundle name or comma-separated axiom ids")
            p.add_argument("--target", required=True, help="axiom id")
        p.add_argument("--max-things", type=int, default=None, metavar="K")
        p.add_argument("--max-worlds", type=int, default=None, metavar="W")
        p.add_argument("--no-prune", action="store_true",
                       help="disable canonical symmetry pruning")
        add_workers_flag(p)
        p.add_argument("--json", action="store_true")

    p_verify = sub.add_parser("verify", help="check a model against premises "
                                             "and a falsification target")
    p_verify.add_argument("model", help="model DSL file or corpus:NAME")
    p_verify.add_argument("--premises", required=True)
    p_verify.add_argument("--target", required=True)
    p_verify.add_argument("--json", action="store_true")
    p_verify.set_defaults(func=_cmd_verify)

    p_search = sub.add_parser("search", help="bounded counter-model search")
    add_search_flags(p_search)
    p_search.set_defaults(func=_cmd_search)

    p_entail = sub.add_parser("entail", help="bounded entailment "
                                             "(search reporting the verdict only)")
    add_search_flags(p_entail)
    p_entail.set_defaults(func=lambda args: _cmd_search(args, verdict_only=True))

    p_exp = sub.add_parser("experiment", help="run bundled demote experiments")
    exp_sub = p_exp.add_subparsers(dest="experiment_command", required=True)
    p_run = exp_sub.add_parser("run")
    p_run.add_argument("name", help="experiment name or 'all'")
    add_workers_flag(p_run)
    p_run.add_argument("--json", action="store_true")
    p_run.add_argument("--strict-claims", action="store_true",
                       help="print verdicts only, no narrative labels")
    p_run.set_defaults(func=_cmd_experiment)

    p_table = sub.add_parser("table", help="the four-axiom reducibility table")
    add_workers_flag(p_table)
    p_table.add_argument("--json", action="store_true")
    p_table.add_argument("--strict-claims", action="store_true")
    p_table.set_defaults(func=_cmd_table)

    p_probe = sub.add_parser("probe", help="open conjecture probes")
    p_probe.add_argument("kind", choices=["full-register"])
    add_search_flags(p_probe, with_target=False)
    p_probe.set_defaults(func=_cmd_probe)

    p_export = sub.add_parser("export-axioms", help="export the axiom catalogue")
    p_export.add_argument("--json", action="store_true")
    p_export.set_defaults(func=_cmd_export_axioms)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_:
        return exit_.code if isinstance(exit_.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except ResourceLimitExceeded as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_RESOURCE_LIMIT
    except MemoryError:
        print("error: out of memory; smaller bounds need less",
              file=sys.stderr)
        return EXIT_RESOURCE_LIMIT
    except RecheckError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_EXPECTATION_FAILED
    except InsufficientEvidenceError as err:
        # The bundled experiments always carry enough evidence; a verdict
        # bundle that does not is a defect of ethica, like a failed re-check.
        print(f"error: internal error: {err}", file=sys.stderr)
        return EXIT_EXPECTATION_FAILED
    except (LogicError, RegistryError, LookupError, OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except KeyboardInterrupt:
        # The search has killed and reaped its workers on the way out.
        print("error: interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED


if __name__ == "__main__":
    raise SystemExit(main())
