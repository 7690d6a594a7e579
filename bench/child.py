"""Code that runs inside the benchmark's child processes.

Usage (from the repository root, with ``src`` on PYTHONPATH):

    python3 bench/child.py cli ARG...           # traced `ethica ARG...`
    python3 bench/child.py model SEED INDEX TRACE

``cli`` runs the CLI in-process with timing wrappers around the public
functions the CLI and the experiments module call (``run_experiment``,
``entails_bounded``, ``verify``); its stdout is the CLI's own stdout, and the
trace goes to stderr as the last line, after ``TRACE_MARK``.  ``model`` checks
one seeded random model through the library API and prints its result as one
JSON line.  No source file of the package is changed by either.
"""

from __future__ import annotations

import functools
import itertools
import json
import random
import sys
import time
from collections import defaultdict

TRACE_MARK = "BENCH-TRACE "

MODEL_THINGS = ("t0", "t1", "t2", "t3")
MODEL_WORLDS = ("w0", "w1")
VERIFY_PREMISES = "PSRPlenitude"
VERIFY_TARGET = "A15"


class Tracer:
    """Aggregated spans: total time, self time (total minus nested spans)
    and call count per span name, plus named counts."""

    def __init__(self):
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.max_clauses = 0
        self._children: list[float] = []

    def span(self, name, fn, *args, **kwargs):
        self._children.append(0.0)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            nested = self._children.pop()
            self.total[name] += elapsed
            self.self_time[name] += elapsed - nested
            self.calls[name] += 1
            if self._children:
                self._children[-1] += elapsed

    def wrap(self, name, fn, on_result=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self.span(name, fn, *args, **kwargs)
            if on_result is not None:
                on_result(args, result)
            return result
        return wrapper

    def count_clauses(self, constraints, key: str) -> None:
        self.counts[key] += len(constraints.clauses)
        self.max_clauses = max(self.max_clauses, len(constraints.clauses))

    def to_json(self) -> dict:
        return {"spans": {name: [self.total[name], self.self_time[name],
                                 self.calls[name]] for name in self.total},
                "counts": dict(self.counts),
                "max_clauses": self.max_clauses}


def _untraced(name, fn, *args, **kwargs):
    return fn(*args, **kwargs)


# ---------------------------------------------------------------------------
# Traced CLI
# ---------------------------------------------------------------------------

def visited_sizes(verdict) -> tuple[tuple[int, int], ...]:
    """Every (things, worlds) size the search grounded its premises at."""
    from ethica import Refuted
    sizes = verdict.stats.sizes_exhausted
    if isinstance(verdict, Refuted):
        sizes += ((verdict.thing_size, verdict.world_size),)
    return sizes


def trace_cli(argv: list[str]) -> int:
    from ethica import axiom_set, cli, experiments, ground
    tracer = Tracer()
    searches = []

    def on_entail(args, verdict):
        searches.append((args[0], verdict))
        stats = verdict.stats
        tracer.counts["search.propagations"] += stats.propagations
        tracer.counts["search.conflicts"] += stats.conflicts
        tracer.counts["search.decisions"] += stats.candidates_visited
        tracer.counts["search.branches"] += stats.branches_total
        tracer.counts["search.pruned"] += stats.pruned_subtrees

    def on_experiment(args, result):
        tracer.counts["experiments.directions"] += len(result.verdicts)

    entail = tracer.wrap("search.entail", experiments.entails_bounded, on_entail)
    verify = tracer.wrap("corpus.verify", experiments.verify)
    run = tracer.wrap("experiments.run", experiments.run_experiment, on_experiment)
    for module in (cli, experiments):
        module.entails_bounded = entail
        module.verify = verify
        module.run_experiment = run

    code = cli.main(argv)
    sys.stdout.flush()

    # The search grounds its premises through private code, so the premise
    # grounding cost is measured here, after the run: ground() on the same
    # premises at every size each search visited.
    for premises, verdict in searches:
        formulas = [entry.formula for entry in axiom_set(premises)]
        for n_things, n_worlds in visited_sizes(verdict):
            things = tuple(f"t{i}" for i in range(n_things))
            worlds = tuple(f"w{i}" for i in range(n_worlds))
            for formula in formulas:
                constraints = tracer.span(
                    "grounding.premise_ground", ground, formula, things,
                    worlds, support=verdict.stats.support)
                tracer.count_clauses(constraints, "grounding.premise_clauses")
    print(TRACE_MARK + json.dumps(tracer.to_json()), file=sys.stderr)
    return code


# ---------------------------------------------------------------------------
# Seeded random models
# ---------------------------------------------------------------------------

def model_rng(seed: int, index: int) -> random.Random:
    return random.Random(f"ethica-bench-models:{seed}:{index}")


def random_model(rng: random.Random):
    """A model over 4 things and 2 worlds with every signature predicate's
    table drawn row by row with probability 1/2."""
    from ethica import ETHICA_SIGNATURE, FiniteModel, Sort
    tables = {}
    for decl in ETHICA_SIGNATURE:
        universes = [MODEL_THINGS if sort is Sort.THING else MODEL_WORLDS
                     for sort in decl.argument_sorts]
        tables[decl.name] = [row for row in itertools.product(*universes)
                             if rng.random() < 0.5]
    return FiniteModel("random", MODEL_THINGS, MODEL_WORLDS, tables)


def model_input(seed: int, index: int) -> tuple[str, dict]:
    """The serialised model for (seed, index) and the sort-respecting
    relabeling used to check canonical_form."""
    from ethica import serialize_model
    rng = model_rng(seed, index)
    text = serialize_model(random_model(rng))
    mapping = {}
    for universe in (MODEL_THINGS, MODEL_WORLDS):
        image = list(universe)
        rng.shuffle(image)
        mapping.update(zip(universe, image))
    return text, mapping


def relabel(model, mapping: dict):
    from ethica import FiniteModel
    tables = {name: [tuple(mapping[label] for label in row) for row in rows]
              for name, rows in model.tables.items()}
    return FiniteModel(model.name, model.things, model.worlds, tables)


def expected_verdict(truth: dict) -> str:
    """The verdict verify() must give for PSRPlenitude (A25, A26) against
    A15, from the evaluator's truth values; A15 is universal, so a false A15
    always has a falsifying witness."""
    for premise in ("A25", "A26"):
        if not truth[premise]:
            return f"premise-failure({premise})"
    return "target-not-falsified" if truth[VERIFY_TARGET] else "confirmed"


def check_model(seed: int, index: int, traced: bool) -> dict:
    from ethica import (axiom, axiom_ids, canonical_form, evaluate,
                        evaluate_via_grounding, grounding, parse_model,
                        serialize_model, verify)
    tracer = Tracer() if traced else None
    span = tracer.span if traced else _untraced
    if traced:
        grounding.ground = tracer.wrap(
            "grounding.ground", grounding.ground,
            lambda args, result: tracer.count_clauses(result, "grounding.evg_clauses"))
    text, mapping = model_input(seed, index)
    formulas = [(axiom_id, axiom(axiom_id).formula) for axiom_id in axiom_ids()]
    errors = []

    start = time.perf_counter()
    model = span("dsl.roundtrip", parse_model, text)
    if span("dsl.roundtrip", serialize_model, model) != text:
        errors.append("serialize(parse(text)) != text")
    report = span("corpus.verify", verify, model, VERIFY_PREMISES, VERIFY_TARGET)
    truth = {}
    for axiom_id, formula in formulas:
        truth[axiom_id] = span("logic.evaluate", evaluate, formula, model)
        via_grounding = span("grounding.evg", evaluate_via_grounding, formula, model)
        if via_grounding != truth[axiom_id]:
            errors.append(f"{axiom_id}: evaluate={truth[axiom_id]} "
                          f"evaluate_via_grounding={via_grounding}")
    canonical = span("search.canonical_form", canonical_form, model)
    canonical_relabeled = span("search.canonical_form", canonical_form,
                               relabel(model, mapping))
    op_s = time.perf_counter() - start

    if report.verdict != expected_verdict(truth):
        errors.append(f"verify: {report.verdict}, expected {expected_verdict(truth)}")
    if canonical != canonical_relabeled:
        errors.append("canonical_form differs on a relabeled copy")
    if canonical_form(canonical) != canonical:
        errors.append("canonical_form is not idempotent")
    result = {"errors": errors, "op_s": op_s}
    if traced:
        result["trace"] = tracer.to_json()
    return result


def main(argv: list[str]) -> int:
    mode, args = argv[0], argv[1:]
    if mode == "cli":
        return trace_cli(args)
    if mode == "model":
        seed, index, traced = int(args[0]), int(args[1]), args[2] == "1"
        print(json.dumps(check_model(seed, index, traced)))
        return 0
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
