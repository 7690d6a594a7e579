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

``COMMANDS`` is the one statement of the command-line grammar: each
command's words, handler, help line and arguments.  ``parse_args`` reads a
command line against it by argparse's rules (unique prefixes of options,
``--opt value`` and ``--opt=value``, options and positionals in any order,
the last of a repeated option winning), and ``-h`` prints it.
"""

from __future__ import annotations

import os
import sys
from collections.abc import Sequence
from types import SimpleNamespace

from .logic import LogicError
from .registry import BUNDLES, RegistryError, axiom_ids, catalogue_row
from .search import (DEFAULT_NODE_BUDGET, InsufficientEvidenceError,
                     NoCounterexampleUpTo, RecheckError, Refuted,
                     ResourceLimitExceeded, SearchConfig, SearchStats,
                     entails_bounded)

# ``corpus``, ``dsl`` and ``experiments`` are imported in the subcommands
# that use them, so that ``entail``, ``search`` and ``export-axioms`` do not
# compile them.  ``verify`` and ``run_experiment`` are called as attributes
# of ``experiments``, so that replacing them there (as ``bench/child.py``'s
# traced runs do) reaches every call.

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
        from .corpus import corpus_model
        return corpus_model(ref[len("corpus:"):])
    from .dsl import parse_model
    with open(ref, encoding="utf-8") as handle:
        return parse_model(handle.read())


def _emit(text: str) -> None:
    sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _emit_json(doc) -> None:
    # Imported here, so that a command without --json does not load it.
    import json
    _emit(json.dumps(doc, indent=2, sort_keys=True))


def _direction_doc(premises, target: str, verdict, config: SearchConfig) -> dict:
    from .experiments import Direction, direction_json
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
    from . import experiments
    model = _load_model(args.model)
    report = experiments.verify(model, _parse_selector(args.premises),
                                args.target)
    if args.json:
        _emit_json(report.to_json_dict())
    else:
        _emit(_render_verification(report))
    return EXIT_OK if report.confirmed else EXIT_EXPECTATION_FAILED


def _render_verification(report) -> str:
    """A ``corpus.VerificationReport`` as text."""
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
        from .dsl import serialize_model
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
    from . import experiments
    specs = experiments.bundled_experiments(_node_budget())
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
        result = experiments.run_experiment(spec, args.workers)
        ok = ok and result.expectation_ok
        if args.json:
            docs.append(result.to_json_dict())
        else:
            _emit(experiments.describe_experiment(
                result, strict_claims=args.strict_claims))
    if args.json:
        _emit_json(docs if len(docs) > 1 else docs[0])
    return EXIT_OK if ok else EXIT_EXPECTATION_FAILED


def _cmd_table(args) -> int:
    from . import experiments
    table = experiments.reducibility_table(_node_budget(), args.workers)
    if args.json:
        _emit_json(table.to_json_dict())
    else:
        _emit(table.markdown(strict_claims=args.strict_claims))
    return EXIT_OK if table.all_expectations_ok else EXIT_EXPECTATION_FAILED


def _cmd_probe(args) -> int:
    from . import experiments
    premises = list(experiments.PROBE_PREMISES)
    config = _search_config(args, default_things=3)
    verdict = experiments.conjecture_probe_full_register(config, args.workers)
    if args.json:
        _emit_json(_direction_doc(premises, "A12", verdict, config))
        return EXIT_OK
    lines = [f"full-register probe: {{{', '.join(premises)}}} |= A12 ?",
             verdict.describe()]
    if isinstance(verdict, Refuted):
        from .dsl import serialize_model
        report = experiments.verify(verdict.model, premises, "A12")
        lines.append("model:")
        lines.append(serialize_model(verdict.model).rstrip("\n"))
        lines.append(f"verifier cross-check: {report.verdict}")
    lines.append(_stats_line(verdict.stats))
    lines.append("note: no expected verdict is attached to this probe")
    _emit("\n".join(lines))
    return EXIT_OK


def _cmd_export_axioms(args) -> int:
    rows = [catalogue_row(axiom_id) for axiom_id in axiom_ids()]
    if args.json:
        _emit_json([
            {
                "id": axiom_id,
                "section": section.value,
                "citation": citation,
                "status": status,
                "formula": display,
            }
            for axiom_id, section, status, display, citation in rows])
    else:
        lines = []
        for axiom_id, section, status, display, citation in rows:
            lines.append(f"{axiom_id} [{section.value}] ({status})")
            lines.append(f"  {display}")
            lines.append(f"  citation: {citation}")
        _emit("\n".join(lines))
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

class _Argument:
    """One argument of a command.  A name starting with ``-`` is an option,
    any other a positional, which is required.  ``kind`` is ``bool`` for a
    flag, else the type the value converts to (``int`` or ``str``)."""

    def __init__(self, name, kind=str, default=None, metavar=None, help="",
                 required=False, choices=None):
        self.name, self.kind, self.help, self.choices = name, kind, help, choices
        self.dest = name.lstrip("-").replace("-", "_")
        self.default = False if kind is bool else default
        self.required = required or name[0] != "-"
        if name[0] != "-":
            self.label = "{" + ",".join(choices) + "}" if choices else name
        else:
            self.label = name if kind is bool else \
                f"{name} {metavar or self.dest.upper()}"
        self.usage = self.label if self.required else f"[{self.label}]"


_HELP = _Argument("-h/--help", bool, help="show this help and exit")
_JSON = _Argument("--json", bool)
_WORKERS = _Argument("--workers", int, 1, "N",
                     "solve a search's sizes in up to N processes "
                     "(default 1); results do not depend on N")
_SEARCH = (_Argument("--premises", required=True,
                     help="bundle name or comma-separated axiom ids"),
           _Argument("--target", required=True, help="axiom id"))
_BOUNDS = (_Argument("--max-things", int, metavar="K"),
           _Argument("--max-worlds", int, metavar="W"),
           _Argument("--no-prune", bool,
                     help="disable canonical symmetry pruning"),
           _WORKERS, _JSON)
_STRICT = _Argument("--strict-claims", bool,
                    help="print verdicts only, no narrative labels")

DESCRIPTION = "Finite-model workbench for the Ethica Pars I register"

# The command-line grammar: the words of each command, its handler, its help
# line and its arguments in argparse's order.  Parsing, usage and -h read it.
COMMANDS = {
    "verify": (_cmd_verify, "check a model against premises and a "
               "falsification target",
               (_Argument("model", help="model DSL file or corpus:NAME"),
                *_SEARCH, _JSON)),
    "search": (_cmd_search, "bounded counter-model search",
               (*_SEARCH, *_BOUNDS)),
    "entail": (lambda args: _cmd_search(args, verdict_only=True),
               "bounded entailment (search reporting the verdict only)",
               (*_SEARCH, *_BOUNDS)),
    "experiment run": (_cmd_experiment, "run bundled demote experiments",
                       (_Argument("name", help="experiment name or 'all'"),
                        _WORKERS, _JSON, _STRICT)),
    "table": (_cmd_table, "the four-axiom reducibility table",
              (_WORKERS, _JSON, _STRICT)),
    "probe": (_cmd_probe, "open conjecture probes",
              (_Argument("kind", choices=("full-register",)), *_BOUNDS)),
    "export-axioms": (_cmd_export_axioms, "export the axiom catalogue",
                      (_JSON,)),
}


def _below(path: list[str]) -> list[str]:
    """The commands whose words start with ``path``."""
    return [name for name in COMMANDS if name.split()[:len(path)] == path]


def _arguments(path: list[str]) -> tuple[_Argument, ...]:
    """The arguments after the words ``path``: a command's, or the next
    command word."""
    if " ".join(path) in COMMANDS:
        return COMMANDS[" ".join(path)][2]
    words = dict.fromkeys(name.split()[len(path)] for name in _below(path))
    return (_Argument("_".join([*path, "command"]), choices=list(words)),)


def _usage(path: list[str]) -> str:
    more = [] if " ".join(path) in COMMANDS else ["..."]
    return " ".join(["ethica", *path, "[-h]",
                     *(argument.usage for argument in _arguments(path)), *more])


def _help(path: list[str]) -> str:
    """A command's arguments, or the usage of every command below
    ``path``, each with its help line."""
    key = " ".join(path)
    if key in COMMANDS:
        text, rows = COMMANDS[key][1], [(argument.label, argument.help) for
                                        argument in (_HELP, *COMMANDS[key][2])]
    else:
        text, rows = DESCRIPTION, [(_usage(name.split()), COMMANDS[name][1])
                                   for name in _below(path)]
    return "\n".join([f"usage: {_usage(path)}", "", text, ""] + [
        f"  {label}" + (f"\n      {line}" if line else "")
        for label, line in rows]) + "\n"


def _fail(path: list[str], message: str):
    """A usage error: the usage line and argparse's message; exits 2."""
    sys.stderr.write(f"usage: {_usage(path)}\n"
                     f"{' '.join(['ethica', *path])}: error: {message}\n")
    raise SystemExit(EXIT_USAGE)


def _classify(path, options, arg):
    """How argparse reads one argument: None for a positional, else the
    option it names (None if unknown), the option's string, and the value
    the argument carries (None if it carries none)."""
    if arg[:1] != "-":
        return None
    if arg in options:
        return options[arg], arg, None
    if len(arg) == 1:
        return None
    prefix, eq, value = arg.partition("=")
    if eq and prefix in options:
        return options[prefix], prefix, value
    if arg[1] == "-":  # a long option, or a unique prefix of one
        matches = [(options[o], o, value if eq else None) for o in options
                   if o.startswith(prefix)]
    else:  # a short option may carry its value: -hVALUE
        matches = [(options[o], o, arg[2:] if o == arg[:2] else None)
                   for o in options if o == arg[:2] or o.startswith(arg)]
    if len(matches) > 1:
        _fail(path, f"ambiguous option: {arg} could match "
                    f"{', '.join(o for _, o, _ in matches)}")
    if matches:
        return matches[0]
    # A negative number (argparse's ``^-\d+$|^-\d*\.\d+$``, where ``$`` also
    # matches before a final newline) or a text with a space is positional.
    whole, dot, fraction = arg[1:].removesuffix("\n").partition(".")
    if (whole.isdecimal() or dot and not whole) and \
            (fraction.isdecimal() or not dot) or " " in arg:
        return None
    return None, arg, None


def _value(path, argument: _Argument, text):
    if argument.kind is int:
        try:
            return int(text)
        except ValueError:
            _fail(path, f"argument {argument.name}: invalid int value: "
                        f"{text!r}")
    if argument.choices and text not in argument.choices:
        _fail(path, f"argument {argument.name}: invalid choice: {text!r} "
                    f"(choose from {', '.join(map(repr, argument.choices))})")
    return text


def _parse(path: list[str], argv: list[str], values: dict, extras: list):
    """Read ``argv``, the arguments after the words ``path``, into
    ``values`` and ``extras`` (the unrecognized ones) as argparse did, and
    return the handler of the command they select.  Options and positionals
    come in any order, an option's value follows it or its ``=``, the last
    value of a repeated option wins, and all after ``--`` is positional.
    A usage error or -h exits."""
    arguments = _arguments(path)
    command = COMMANDS.get(" ".join(path))
    if command:
        values.update((argument.dest, argument.default)
                      for argument in arguments)
    options = {"-h": _HELP, "--help": _HELP}
    options.update((argument.name, argument) for argument in arguments
                   if argument.name[0] == "-")
    positionals = [argument for argument in arguments
                   if argument.name[0] != "-"]
    kinds = []
    for arg in argv:
        kinds.append(None if "--" in kinds else "--" if arg == "--" else
                     _classify(path, options, arg))
    seen = set()
    i = 0
    while i < len(argv):
        kind = kinds[i]
        i += 1
        if kind is None or kind == "--":
            if not positionals or kind == "--" and i == len(argv):
                extras.append(argv[i - 1])
                continue
            argument = positionals.pop()
            if not command:  # a command word takes the rest, "--" too
                values[argument.dest] = _value(path, argument, argv[i - 1])
                return _parse([*path, argv[i - 1]], argv[i:], values, extras)
            # "-- value" and "value --" both give the value.
            i += kind == "--"
            text = argv[i - 1]
            i += i < len(argv) and kinds[i] == "--"
        else:
            argument, name, text = kind
            if argument is None:
                extras.append(name)
                continue
            if argument.kind is bool:
                if name == "-h" and text:
                    text = text.lstrip("h") or None  # -hh is -h twice
                if text is not None:
                    _fail(path, f"argument {argument.name}: ignored explicit "
                                f"argument {text!r}")
                if argument is _HELP:
                    sys.stdout.write(_help(path))
                    raise SystemExit(EXIT_OK)
                text = True
            elif text is None:
                if i == len(argv) or kinds[i] is not None:
                    _fail(path, f"argument {argument.name}: expected one "
                                "argument")
                text = argv[i]
                i += 1
        values[argument.dest] = _value(path, argument, text)
        seen.add(argument)
    missing = [argument.name for argument in arguments
               if argument.required and argument not in seen]
    if missing:
        _fail(path, "the following arguments are required: "
                    + ", ".join(missing))
    return command[0]


def parse_args(argv: Sequence[str]):
    """The handler of the command ``argv`` names, and its argument values;
    a usage error or -h raises SystemExit with the exit code."""
    values: dict = {}
    extras: list = []
    handler = _parse([], list(argv), values, extras)
    if extras:
        _fail([], "unrecognized arguments: " + " ".join(extras))
    return handler, SimpleNamespace(**values)


def main(argv: Sequence[str] | None = None) -> int:
    try:
        handler, args = parse_args(sys.argv[1:] if argv is None else argv)
    except SystemExit as exit_:
        return exit_.code
    try:
        return handler(args)
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
