"""Named demote experiments and the five-way outcome taxonomy.

A demote experiment asks whether a catalogued target axiom follows, up to a
finite bound, from a weaker premise family.  Outcomes are classified purely
from verdict evidence; rendered labels always carry their tested-premises
and bound qualifier so that bounded claims are never read as unbounded ones.
Non-derivability is only ever reported with a concrete refuting model
attached; there is no declared-irreducible result kind.
"""

from __future__ import annotations

from collections.abc import Sequence
from enum import Enum

from .corpus import VerificationReport, corpus_model, verify
from .logic import FiniteModel, FrozenDict, Value
from .registry import resolve_selector
from .search import (DEFAULT_NODE_BUDGET, STATS_COUNTERS, EntailmentVerdict,
                     InsufficientEvidenceError, NoCounterexampleUpTo, Refuted,
                     SearchConfig, entails_bounded)


class OutcomeClass(Enum):
    FULL_REDUCTION = "FullReduction"
    EQUAL_STRENGTH_TRANSLATION = "EqualStrengthTranslation"
    PARTIAL_REDUCTION = "PartialReduction"
    DECOMPOSITION_ONLY = "DecompositionOnly"
    FULL_IRREDUCIBILITY = "FullIrreducibility"


OUTCOME_LABELS = {
    OutcomeClass.FULL_REDUCTION: "Full reduction",
    OutcomeClass.EQUAL_STRENGTH_TRANSLATION: "Equal-strength translation",
    OutcomeClass.PARTIAL_REDUCTION: "Partial reduction; full irreducible",
    OutcomeClass.DECOMPOSITION_ONLY: "Decomposition only",
    OutcomeClass.FULL_IRREDUCIBILITY: "Full irreducibility",
}


def classify_outcome(forward: EntailmentVerdict,
                     backward: EntailmentVerdict | None = None,
                     restricted_form: EntailmentVerdict | None = None,
                     subset_verdicts: Sequence[EntailmentVerdict] = (),
                     converse_open: bool = False) -> OutcomeClass:
    """Assign an outcome class from verdict evidence.

    Rules: a refuted forward with a surviving restricted form is a partial
    reduction, without one it is full irreducibility against the tested
    premises.  A surviving forward is an equal-strength translation when the
    backward direction also survives (or is explicitly recorded as an open
    question), a full reduction when the backward direction is refuted, and
    decomposition-only when some proper premise subset is refuted.
    """
    if forward.is_refuted:
        if restricted_form is not None and not restricted_form.is_refuted:
            return OutcomeClass.PARTIAL_REDUCTION
        return OutcomeClass.FULL_IRREDUCIBILITY
    if backward is not None:
        if backward.is_refuted:
            return OutcomeClass.FULL_REDUCTION
        return OutcomeClass.EQUAL_STRENGTH_TRANSLATION
    if any(verdict.is_refuted for verdict in subset_verdicts):
        return OutcomeClass.DECOMPOSITION_ONLY
    if converse_open:
        return OutcomeClass.EQUAL_STRENGTH_TRANSLATION
    raise InsufficientEvidenceError(
        "forward survived but no backward, subset, or open-converse evidence "
        "is available")


# ---------------------------------------------------------------------------
# Experiment fixtures
# ---------------------------------------------------------------------------

class Direction(Value):
    __slots__ = ("premises", "target")

    @property
    def premise_ids(self) -> tuple[str, ...]:
        return resolve_selector(self.premises)


class CorpusCheck(Value):
    __slots__ = ("corpus_name", "premises", "target")


class ExperimentSpec(Value):
    """``expectation`` maps verdict keys to "refuted" or
    "no_counterexample"; it is kept as a read-only ``FrozenDict``."""

    __slots__ = ("name", "forward", "config", "backward", "restricted_form",
                 "subsets", "corpus_check", "converse_open", "expectation",
                 "extra_caveats")

    def __init__(self, name: str, forward: Direction, config: SearchConfig,
                 backward: Direction | None = None,
                 restricted_form: Direction | None = None,
                 subsets: tuple[Direction, ...] = (),
                 corpus_check: CorpusCheck | None = None,
                 converse_open: bool = False,
                 expectation: dict | None = None,
                 extra_caveats: tuple[str, ...] = ()):
        super().__init__(name, forward, config, backward, restricted_form,
                         subsets, corpus_check, converse_open,
                         None if expectation is None else FrozenDict(expectation),
                         extra_caveats)

    def directions(self) -> list[tuple[str, Direction]]:
        """The (verdict-key, direction) pairs in report order."""
        pairs = [("forward", self.forward)]
        if self.backward is not None:
            pairs.append(("backward", self.backward))
        if self.restricted_form is not None:
            pairs.append(("restricted_form", self.restricted_form))
        pairs.extend(("subset:" + ",".join(direction.premise_ids), direction)
                     for direction in self.subsets)
        return pairs


class ExperimentResult(Value):
    """One experiment's verdicts and classification; ``verdicts`` is kept
    as a read-only ``FrozenDict``."""

    __slots__ = ("spec", "verdicts", "outcome", "caveats", "fidelity_flags",
                 "corpus_report", "expectation_failures")

    def __init__(self, spec: ExperimentSpec, verdicts: dict,
                 outcome: OutcomeClass, caveats: tuple[str, ...],
                 fidelity_flags: tuple[str, ...],
                 corpus_report: VerificationReport | None,
                 expectation_failures: tuple[str, ...]):
        super().__init__(spec, FrozenDict(verdicts), outcome, caveats,
                         fidelity_flags, corpus_report, expectation_failures)

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def expectation_ok(self) -> bool:
        return not self.expectation_failures

    @property
    def outcome_label(self) -> str:
        return OUTCOME_LABELS[self.outcome]

    def to_json_dict(self) -> dict:
        directions = {
            key: direction_json(direction, self.verdicts[key], self.spec.config)
            for key, direction in self.spec.directions()}
        doc = {
            "name": self.spec.name,
            "forward": directions.pop("forward"),
            "outcome": self.outcome.value,
            "caveats": list(self.caveats),
            "fidelity_flags": list(self.fidelity_flags),
            "stats": _combined_stats(self.verdicts.values()),
            "expectation_failures": list(self.expectation_failures),
        }
        if "backward" in directions:
            doc["backward"] = directions.pop("backward")
        if directions:
            doc["auxiliary"] = directions
        if self.corpus_report is not None:
            doc["corpus_check"] = self.corpus_report.to_json_dict()
        return doc


def _verdict_kind(verdict: EntailmentVerdict) -> str:
    return "refuted" if verdict.is_refuted else "no_counterexample"


def _model_json(model: FiniteModel) -> dict:
    return {
        "name": model.name,
        "things": list(model.things),
        "worlds": list(model.worlds),
        "tables": {pred: sorted(list(row) for row in table)
                   for pred, table in sorted(model.tables.items())},
    }


def direction_json(direction: Direction, verdict: EntailmentVerdict,
                   config: SearchConfig) -> dict:
    if isinstance(verdict, NoCounterexampleUpTo):
        bound = {"things": verdict.thing_bound, "worlds": verdict.world_bound}
    else:
        bound = {"things": config.max_thing_size,
                 "worlds": verdict.world_size}
    doc = {
        "premises": list(direction.premise_ids),
        "target": direction.target,
        "verdict": _verdict_kind(verdict),
        "bound": bound,
    }
    if isinstance(verdict, Refuted):
        doc["size"] = {"things": verdict.thing_size, "worlds": verdict.world_size}
        doc["model"] = _model_json(verdict.model)
    return doc


def _combined_stats(verdicts) -> dict:
    return {name: sum(getattr(verdict.stats, name) for verdict in verdicts)
            for name in STATS_COUNTERS}


def bundled_experiments(node_budget: int = DEFAULT_NODE_BUDGET
                        ) -> dict[str, ExperimentSpec]:
    """The immutable experiment fixtures, keyed by name."""

    def config(things, worlds=None):
        return SearchConfig(max_thing_size=things, max_world_size=worlds,
                            node_budget=node_budget)

    specs = [
        ExperimentSpec(
            name="A12_demote",
            forward=Direction("PSRSubstance", "A12"),
            restricted_form=Direction("PSRSubstance", "PropV_allshared"),
            corpus_check=CorpusCheck("A12CounterModel", "PSRSubstance", "A12"),
            config=config(4),
            expectation={"forward": "refuted",
                         "restricted_form": "no_counterexample"},
        ),
        ExperimentSpec(
            name="A13_demote",
            forward=Direction(("A23", "A18", "A3m"), "A13"),
            converse_open=True,
            config=config(3, 2),
            expectation={"forward": "no_counterexample"},
            extra_caveats=("bridge set {A18, A3m} decided here; converse open",),
        ),
        ExperimentSpec(
            # The open converse of A13_demote; no expected verdict is
            # attached, the search reports whatever it finds.
            name="A13_converse",
            forward=Direction(("A13", "A18", "A3m"), "A23"),
            config=config(3, 2),
            extra_caveats=("open converse direction of A13_demote; "
                           "no expected verdict",),
        ),
        ExperimentSpec(
            name="A14_demote",
            forward=Direction("PSREssencePerception", "A14"),
            backward=Direction(("A14",), "A24"),
            config=config(4),
            expectation={"forward": "no_counterexample",
                         "backward": "no_counterexample"},
            extra_caveats=("trivial redescription: the candidate restates the "
                           "target with Attribute unfolded",),
        ),
        ExperimentSpec(
            name="A15_demote",
            forward=Direction("PSRPlenitude", "A15"),
            subsets=(Direction(("A25",), "A15"),),
            corpus_check=CorpusCheck("A15CounterModel", ("A25",), "A15"),
            config=config(3),
            expectation={"forward": "no_counterexample", "subset:A25": "refuted"},
        ),
        ExperimentSpec(
            name="A15_plenitude_only",
            forward=Direction(("A25",), "A15"),
            corpus_check=CorpusCheck("A15CounterModel", ("A25",), "A15"),
            config=config(3),
            expectation={"forward": "refuted"},
            extra_caveats=("component experiment: this refutation is the "
                           "subset evidence inside A15_demote",),
        ),
        ExperimentSpec(
            name="A22_from_A12_A14",
            forward=Direction(("A12", "A14"), "A22"),
            subsets=(Direction(("A12",), "A22"),),
            config=config(4),
            expectation={"forward": "no_counterexample", "subset:A12": "refuted"},
        ),
    ]
    return {spec.name: spec for spec in specs}


# ---------------------------------------------------------------------------
# Running experiments
# ---------------------------------------------------------------------------

def run_experiment(spec: ExperimentSpec, workers: int = 1) -> ExperimentResult:
    """Execute every direction of the experiment, classify, and flag any
    regression-expectation mismatch (flagged, never hidden).  ``workers`` is
    ``entails_bounded``'s."""
    directions = spec.directions()
    verdicts = {key: entails_bounded(direction.premises, direction.target,
                                     spec.config, workers)
                for key, direction in directions}

    corpus_report = None
    fidelity_flags: tuple[str, ...] = ()
    if spec.corpus_check is not None:
        member = corpus_model(spec.corpus_check.corpus_name)
        corpus_report = verify(member, spec.corpus_check.premises,
                               spec.corpus_check.target)
        fidelity_flags = member.fidelity_flags

    outcome = classify_outcome(
        forward=verdicts["forward"],
        backward=verdicts.get("backward"),
        restricted_form=verdicts.get("restricted_form"),
        subset_verdicts=[verdicts[key] for key, direction in directions
                         if direction in spec.subsets],
        converse_open=spec.converse_open,
    )

    failures = []
    for key, expected in (spec.expectation or {}).items():
        actual = _verdict_kind(verdicts[key])
        if actual != expected:
            failures.append(f"{key}: expected {expected}, got {actual}")
    if corpus_report is not None and not corpus_report.confirmed:
        failures.append(f"corpus check: {corpus_report.verdict}")

    caveats = (_bound_caveat(spec, verdicts["forward"]),) + spec.extra_caveats
    return ExperimentResult(
        spec=spec,
        verdicts=verdicts,
        outcome=outcome,
        caveats=caveats,
        fidelity_flags=fidelity_flags,
        corpus_report=corpus_report,
        expectation_failures=tuple(failures),
    )


def _bound_caveat(spec: ExperimentSpec, forward: EntailmentVerdict) -> str:
    ids = ", ".join(spec.forward.premise_ids)
    caveat = f"within tested premises {{{ids}}} and bound things <= " \
             f"{spec.config.max_thing_size}"
    worlds = forward.world_bound if isinstance(forward, NoCounterexampleUpTo) \
        else forward.world_size
    if worlds:
        caveat += f", worlds <= {worlds}"
    return caveat


def describe_experiment(result: ExperimentResult, strict_claims: bool = False) -> str:
    """Human-readable report; with strict_claims only verdicts are printed."""
    lines = [f"experiment {result.name}"]
    for key, direction in result.spec.directions():
        verdict = result.verdicts[key]
        ids = ", ".join(direction.premise_ids)
        lines.append(f"  {key}: {{{ids}}} |= {direction.target} ? "
                     f"{verdict.describe()}")
    if result.corpus_report is not None:
        lines.append(f"  corpus check {result.corpus_report.model_name}: "
                     f"{result.corpus_report.verdict}")
    if not strict_claims:
        lines.append(f"  outcome: {result.outcome.value} [{result.outcome_label}]")
        for caveat in result.caveats:
            lines.append(f"  caveat: {caveat}")
        if result.fidelity_flags:
            lines.append("  fidelity flags: " + ", ".join(result.fidelity_flags))
    if result.expectation_failures:
        for failure in result.expectation_failures:
            lines.append(f"  EXPECTATION MISMATCH {failure}")
    else:
        lines.append("  expectations: ok" if result.spec.expectation
                     else "  expectations: none attached")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# The reducibility table
# ---------------------------------------------------------------------------

_TABLE_ROWS = (
    ("A12", "A12_demote", "PSRSubstance (A22)"),
    ("A13", "A13_demote", "PSRSelfCause (A23) + bridges {A18, A3m}"),
    ("A14", "A14_demote", "PSREssencePerception (A24)"),
    ("A15", "A15_demote", "PSRPlenitude (A25 + A26)"),
)


class ReducibilityTable(Value):
    __slots__ = ("results",)

    @property
    def all_expectations_ok(self) -> bool:
        return all(result.expectation_ok for result in self.results)

    def markdown(self, strict_claims: bool = False) -> str:
        lines = ["| Axiom | Demote premises | Outcome |",
                 "| --- | --- | --- |"]
        for (axiom_id, _, premises), result in zip(_TABLE_ROWS, self.results):
            if strict_claims:
                cell = result.verdicts["forward"].describe()
            else:
                cell = f"{result.outcome_label} ({'; '.join(result.caveats)})"
            lines.append(f"| {axiom_id} | {premises} | {cell} |")
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        return {
            "rows": [
                {
                    "axiom": axiom_id,
                    "premises": premises,
                    "outcome": result.outcome_label,
                    "outcome_class": result.outcome.value,
                    "experiment": result.to_json_dict(),
                }
                for (axiom_id, _, premises), result in zip(_TABLE_ROWS, self.results)
            ]
        }


def reducibility_table(node_budget: int = DEFAULT_NODE_BUDGET,
                       workers: int = 1) -> ReducibilityTable:
    """Run the four bundled demote experiments and assemble the table.

    An error of any experiment aborts the assembly and propagates as it is,
    so the table fails exactly as ``run_experiment`` does.
    """
    specs = bundled_experiments(node_budget)
    return ReducibilityTable(tuple(run_experiment(specs[spec_name], workers)
                                   for _, spec_name, _ in _TABLE_ROWS))


# ---------------------------------------------------------------------------
# The full-register conjecture probe
# ---------------------------------------------------------------------------

PROBE_PREMISES = ("A1", "A1e", "A8", "A9", "A10", "A11", "A22")


def conjecture_probe_full_register(config: SearchConfig | None = None,
                                   workers: int = 1) -> EntailmentVerdict:
    """Search for a counter-model to A12 under the full Section I bridge set
    plus substance distinguishability.  No expected verdict is attached:
    the question is open, and the report states whatever the search finds.
    """
    return entails_bounded(list(PROBE_PREMISES), "A12",
                           config or SearchConfig(max_thing_size=3), workers)


# ---------------------------------------------------------------------------
# JSON report schema
# ---------------------------------------------------------------------------

_DIRECTION_SCHEMA = {
    "type": "object",
    "required": ["premises", "target", "verdict", "bound"],
    "additionalProperties": False,
    "properties": {
        "premises": {"type": "array", "items": {"type": "string"}},
        "target": {"type": "string"},
        "verdict": {"enum": ["refuted", "no_counterexample"]},
        "bound": {
            "type": "object",
            "required": ["things", "worlds"],
            "properties": {"things": {"type": "integer"},
                           "worlds": {"type": "integer"}},
        },
        "size": {"type": "object"},
        "model": {
            "type": "object",
            "required": ["name", "things", "worlds", "tables"],
            "properties": {
                "name": {"type": "string"},
                "things": {"type": "array", "items": {"type": "string"}},
                "worlds": {"type": "array", "items": {"type": "string"}},
                "tables": {"type": "object"},
            },
        },
    },
}

REPORT_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "required": ["name", "forward", "outcome", "caveats", "fidelity_flags", "stats"],
    "additionalProperties": False,
    "properties": {
        "name": {"type": "string"},
        "forward": _DIRECTION_SCHEMA,
        "backward": _DIRECTION_SCHEMA,
        "auxiliary": {"type": "object", "additionalProperties": _DIRECTION_SCHEMA},
        "outcome": {"enum": [outcome.value for outcome in OutcomeClass]},
        "caveats": {"type": "array", "items": {"type": "string"}},
        "fidelity_flags": {"type": "array", "items": {"type": "string"}},
        "corpus_check": {"type": "object"},
        "expectation_failures": {"type": "array", "items": {"type": "string"}},
        "stats": {"type": "object"},
    },
}
