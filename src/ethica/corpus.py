"""The catalogued counter-models and the model-against-axioms verifier.

Both corpus models carry two deliberate fidelity caveats, surfaced as flags
in every report: the eternal-essence table is uniformly true (F1), and the
three-category ontology of substance/attribute/mode is collapsed into a
substance vs non-substance split (F2).  The tables themselves live in
``data/<name>.model`` and are parsed on demand.
"""

from __future__ import annotations

import itertools
import os
from .dsl import parse_model
from .logic import (EvaluationError, FiniteModel, ForAll, Formula, Value,
                    evaluate, quantifier_prefix)
from .registry import Selector, axiom_set

FIDELITY_UNIFORM_ETERNAL_ESSENCE = "F1-uniform-eternal-essence"
FIDELITY_TWO_CATEGORY_COLLAPSE = "F2-two-category-collapse"


class CorpusModel(Value):
    __slots__ = ("name", "model", "fidelity_flags")

    def __init__(self, name: str, model: FiniteModel,
                 fidelity_flags: tuple[str, ...]):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "model", model)
        object.__setattr__(self, "fidelity_flags", fidelity_flags)


def _load(name: str) -> CorpusModel:
    """The corpus model parsed from its ``data/<name>.model`` file."""
    path = os.path.join(os.path.dirname(__file__), "data", f"{name}.model")
    with open(path, encoding="utf-8") as handle:
        model = parse_model(handle.read())
    return CorpusModel(
        name=name,
        model=model,
        fidelity_flags=(FIDELITY_UNIFORM_ETERNAL_ESSENCE,
                        FIDELITY_TWO_CATEGORY_COLLAPSE),
    )


def a12_counter_model() -> CorpusModel:
    """Four elements: two substances sharing one attribute, plus a
    discriminator attribute held by the first substance only.

    Satisfies substance distinguishability (A22) while falsifying the
    substance-identity-by-shared-attribute axiom (A12).
    """
    return _load("A12CounterModel")


def a15_counter_model() -> CorpusModel:
    """Three elements: two gods, one of which holds an extra attribute.

    Satisfies plenitude (A25) while falsifying the attribute-universality
    axiom (A15); hosting two gods, it falsifies god uniqueness (A26).
    """
    return _load("A15CounterModel")


_CORPUS = {
    "A12CounterModel": a12_counter_model,
    "A15CounterModel": a15_counter_model,
}


def corpus_model(name: str) -> CorpusModel:
    try:
        return _CORPUS[name]()
    except KeyError:
        raise LookupError(f"unknown corpus model {name!r}; "
                          f"known: {', '.join(_CORPUS)}") from None


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------

VERDICT_CONFIRMED = "confirmed"
VERDICT_TARGET_NOT_FALSIFIED = "target-not-falsified"


class VerificationReport(Value):
    """Outcome of checking a model against a premise set and a falsification
    target: every premise must hold and the target must fail, with explicit
    witness tuples for the target's outermost universal block."""

    __slots__ = ("model_name", "premise_values", "target_id", "target_value",
                 "witnesses", "fidelity_flags", "verdict", "failing_premise")

    def __init__(self, model_name: str,
                 premise_values: tuple[tuple[str, bool], ...], target_id: str,
                 target_value: bool, witnesses: tuple[tuple[str, ...], ...],
                 fidelity_flags: tuple[str, ...], verdict: str,
                 failing_premise: str | None = None):
        object.__setattr__(self, "model_name", model_name)
        object.__setattr__(self, "premise_values", premise_values)
        object.__setattr__(self, "target_id", target_id)
        object.__setattr__(self, "target_value", target_value)
        object.__setattr__(self, "witnesses", witnesses)
        object.__setattr__(self, "fidelity_flags", fidelity_flags)
        object.__setattr__(self, "verdict", verdict)
        object.__setattr__(self, "failing_premise", failing_premise)

    @property
    def confirmed(self) -> bool:
        return self.verdict == VERDICT_CONFIRMED

    def to_json_dict(self) -> dict:
        return {
            "model": self.model_name,
            "premises": {axiom_id: value for axiom_id, value in self.premise_values},
            "target": self.target_id,
            "target_value": self.target_value,
            "witnesses": [list(w) for w in self.witnesses],
            "fidelity_flags": list(self.fidelity_flags),
            "verdict": self.verdict,
        }


def falsifying_witnesses(formula: Formula, model: FiniteModel) -> tuple[tuple[str, ...], ...]:
    """All tuples for the outermost universal block whose matrix evaluates
    false, in universe order."""
    block, matrix = quantifier_prefix(formula, ForAll)
    universes = []
    for _, sort in block:
        universe = model.universe(sort)
        if not universe:
            raise EvaluationError(
                "quantification over World on a model with no world universe")
        universes.append(universe)
    found = []
    for combo in itertools.product(*universes):
        env = {var: (sort, label)
               for (var, sort), label in zip(block, combo)}
        if not evaluate(matrix, model, env):
            found.append(combo)
    return tuple(found)


def verify(model: FiniteModel | CorpusModel, premises: Selector,
           target: str) -> VerificationReport:
    """Check that the model satisfies every premise and falsifies the target.

    Evaluation errors (for example a World-sorted premise against a model
    without worlds) propagate to the caller.
    """
    flags: tuple[str, ...] = ()
    if isinstance(model, CorpusModel):
        flags = model.fidelity_flags
        model = model.model

    premise_entries = axiom_set(premises)
    target_entry = axiom_set([target])[0]

    premise_values = tuple(
        (entry.id, evaluate(entry.formula, model)) for entry in premise_entries)
    # The target is false exactly when some tuple of its outermost
    # universal block makes the matrix false.
    witnesses = falsifying_witnesses(target_entry.formula, model)
    target_value = not witnesses

    failing = next((axiom_id for axiom_id, value in premise_values if not value), None)
    if failing is not None:
        verdict = f"premise-failure({failing})"
    elif target_value:
        verdict = VERDICT_TARGET_NOT_FALSIFIED
    else:
        verdict = VERDICT_CONFIRMED
    return VerificationReport(
        model_name=model.name,
        premise_values=premise_values,
        target_id=target_entry.id,
        target_value=target_value,
        witnesses=witnesses,
        fidelity_flags=flags,
        verdict=verdict,
        failing_premise=failing,
    )
