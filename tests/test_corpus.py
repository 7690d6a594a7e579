"""Corpus exactness: the catalogued counter-models reproduce every stated
truth value, and the verifier classifies premise sets correctly."""

import itertools

import pytest

from ethica.corpus import (FIDELITY_TWO_CATEGORY_COLLAPSE,
                           FIDELITY_UNIFORM_ETERNAL_ESSENCE, corpus_model,
                           falsifying_witnesses, verify)
from ethica.logic import Elem, EvaluationError, Sort, evaluate
from ethica.registry import attribute, axiom, is_god
from ethica.search import SearchConfig, find_countermodel

from oracles import refutes

T = Sort.THING


def thing(label):
    return Elem(T, label)


# ---------------------------------------------------------------------------
# A12CounterModel tables
# ---------------------------------------------------------------------------

def test_a12_universe(a12):
    assert a12.model.things == ("s1", "s2", "a_shared", "a_only_s1")
    assert a12.model.worlds == ()


def test_a12_substance_flag_predicates(a12):
    both = frozenset({("s1",), ("s2",)})
    for pred in ("inItself", "perSeConceived", "involvesExistence",
                 "natureRequiresExistence", "absolutelyInfinite"):
        assert a12.model.tables[pred] == both, pred


def test_a12_non_substances(a12):
    attrs = frozenset({("a_shared",), ("a_only_s1",)})
    assert a12.model.tables["inAnother"] == attrs
    assert a12.model.tables["conceivedThroughAnother"] == attrs


def test_a12_perception_graph(a12):
    assert a12.model.tables["intellectPerceivesAsEssence"] == frozenset({
        ("s1", "s1"), ("s1", "a_shared"), ("s1", "a_only_s1"),
        ("s2", "s2"), ("s2", "a_shared")})


def test_a12_eternal_essence_is_uniformly_true(a12):
    assert a12.model.tables["expressesEternalEssence"] == frozenset(
        itertools.product(a12.model.things, a12.model.things))


def test_a12_everything_else_empty(a12):
    assert set(a12.model.tables) == {
        "inItself", "perSeConceived", "involvesExistence",
        "natureRequiresExistence", "absolutelyInfinite", "inAnother",
        "conceivedThroughAnother", "intellectPerceivesAsEssence",
        "expressesEternalEssence"}


def test_a12_fidelity_flags(a12):
    assert set(a12.fidelity_flags) == {FIDELITY_UNIFORM_ETERNAL_ESSENCE,
                                       FIDELITY_TWO_CATEGORY_COLLAPSE}


def test_a12_satisfies_a22_with_discriminator(a12):
    assert evaluate(axiom("A22").formula, a12.model) is True
    # a_only_s1 discriminates the pair (s1, s2)
    assert evaluate(attribute(thing("a_only_s1"), thing("s1")), a12.model)
    assert not evaluate(attribute(thing("a_only_s1"), thing("s2")), a12.model)


def test_a12_falsified_with_shared_attribute_witness(a12):
    assert evaluate(axiom("A12").formula, a12.model) is False
    witnesses = falsifying_witnesses(axiom("A12").formula, a12.model)
    assert ("s1", "s2", "a_shared") in witnesses


def test_a12_model_joint_a8_a10_failure(a12):
    # The two-category collapse makes inAnother track non-substance-hood, so
    # this table cannot satisfy A8 and A10 jointly: a_shared is an attribute
    # of s1 yet not per se conceived.  Here A8 holds and A10 is the casualty.
    assert evaluate(axiom("A8").formula, a12.model) is True
    assert evaluate(axiom("A10").formula, a12.model) is False


def test_a12_model_is_deterministic():
    assert corpus_model("A12CounterModel").model == \
        corpus_model("A12CounterModel").model


# ---------------------------------------------------------------------------
# A15CounterModel tables
# ---------------------------------------------------------------------------

def test_a15_universe(a15):
    assert a15.model.things == ("g1", "g2", "attr_g2")


def test_a15_substance_flags(a15):
    gods = frozenset({("g1",), ("g2",)})
    for pred in ("inItself", "perSeConceived", "involvesExistence",
                 "natureRequiresExistence", "absolutelyInfinite"):
        assert a15.model.tables[pred] == gods, pred
    assert a15.model.tables["inAnother"] == frozenset({("attr_g2",)})
    assert a15.model.tables["conceivedThroughAnother"] == frozenset({("attr_g2",)})


def test_a15_perception_graph(a15):
    assert a15.model.tables["intellectPerceivesAsEssence"] == frozenset({
        ("g1", "g1"), ("g2", "g2"), ("g2", "attr_g2")})


def test_both_gods_are_gods(a15):
    assert evaluate(is_god(thing("g1")), a15.model) is True
    assert evaluate(is_god(thing("g2")), a15.model) is True


def test_a25_holds_on_a15_model(a15):
    assert evaluate(axiom("A25").formula, a15.model) is True
    # the witness god for attr_g2 is g2
    assert evaluate(attribute(thing("attr_g2"), thing("g2")), a15.model)


def test_a15_falsified_with_stated_witness(a15):
    assert evaluate(axiom("A15").formula, a15.model) is False
    witnesses = falsifying_witnesses(axiom("A15").formula, a15.model)
    assert ("g1", "g2", "attr_g2") in witnesses


def test_a26_fails_on_a15_model(a15):
    assert evaluate(axiom("A26").formula, a15.model) is False


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_a12_confirmed(a12):
    report = verify(a12, "PSRSubstance", "A12")
    assert report.confirmed
    assert report.verdict == "confirmed"
    assert ("s1", "s2", "a_shared") in report.witnesses
    assert report.fidelity_flags == a12.fidelity_flags


def test_verify_a15_plenitude_only_confirmed(a15):
    report = verify(a15, ["A25"], "A15")
    assert report.confirmed
    assert ("g1", "g2", "attr_g2") in report.witnesses


def test_verify_a15_with_uniqueness_premise_fails(a15):
    report = verify(a15, "PSRPlenitude", "A15")
    assert not report.confirmed
    assert report.verdict == "premise-failure(A26)"
    assert report.failing_premise == "A26"
    assert dict(report.premise_values) == {"A25": True, "A26": False}


def test_verify_target_not_falsified(a12):
    report = verify(a12, [], "A22")
    assert report.verdict == "target-not-falsified"


def test_witness_soundness(a12, a15):
    # Substituting any reported witness into the target's matrix must yield
    # false under the plain evaluator.
    from ethica.logic import ForAll, quantifier_prefix
    for member, premises, target in ((a12, ["A22"], "A12"),
                                     (a15, ["A25"], "A15")):
        report = verify(member, premises, target)
        block, matrix = quantifier_prefix(axiom(target).formula, ForAll)
        for witness in report.witnesses:
            env = {var: (sort, label)
                   for (var, sort), label in zip(block, witness)}
            assert evaluate(matrix, member.model, env) is False


def test_witnesses_enumerate_all_in_universe_order(a15):
    report = verify(a15, ["A25"], "A15")
    assert report.witnesses == (("g1", "g2", "g2"),
                                ("g1", "g2", "attr_g2"),
                                ("g2", "g1", "g1"))


def test_verify_propagates_evaluation_errors(a12):
    with pytest.raises(EvaluationError):
        verify(a12, ["A18"], "A12")


def test_verifier_search_agreement(a12, a15):
    # A confirmed verification implies the search engine can refute within
    # the corpus model's size.
    for member, premises, target in ((a12, "PSRSubstance", "A12"),
                                     (a15, ["A25"], "A15")):
        report = verify(member, premises, target)
        assert report.confirmed
        found = find_countermodel(
            premises, target,
            SearchConfig(max_thing_size=len(member.model.things)))
        assert found is not None
        model, size = found
        assert size <= len(member.model.things)
        assert refutes(model, premises, target)


def test_corpus_names():
    with pytest.raises(LookupError, match="unknown corpus model") as err:
        corpus_model("A13CounterModel")
    assert str(err.value).endswith("known: A12CounterModel, A15CounterModel")
    for name in ("A12CounterModel", "A15CounterModel"):
        assert corpus_model(name).name == name
