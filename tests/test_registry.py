"""The axiom catalogue: definitions, formulas, bundles, expansion sanity."""

import itertools
import random

import pytest

from ethica.logic import (And, Elem, Eq, Exists, ForAll, Iff, Implies, Not,
                          Or, Pred, Sort, Var, check_sorted, evaluate)
from ethica.registry import (BUNDLES, ETHICA_SIGNATURE, RegistryError, Section,
                             attribute, axiom, axiom_ids, axiom_set, is_god,
                             mode, same_nature, substance)

from oracles import random_model

T = Sort.THING


def thing(label):
    return Elem(T, label)


# ---------------------------------------------------------------------------
# definitions
# ---------------------------------------------------------------------------

def test_substance_macro_expands_to_primitives():
    x = Var("x")
    assert substance(x) == And((
        Pred("inItself", (x,)), Pred("perSeConceived", (x,))))


def test_attribute_macro_carries_substance():
    a, s = Var("a"), Var("s")
    assert attribute(a, s) == And((
        substance(s), Pred("intellectPerceivesAsEssence", (s, a))))


def test_mode_macro():
    x = Var("x")
    assert mode(x) == And((
        Pred("inAnother", (x,)), Pred("conceivedThroughAnother", (x,))))


def test_same_nature_macro_is_shared_attribute():
    x, y = Var("x"), Var("y")
    expanded = same_nature(x, y)
    assert expanded == Exists("attr", T, And((attribute(Var("attr"), x),
                                              attribute(Var("attr"), y))))


def test_is_god_has_four_conjuncts():
    g = Var("g")
    expanded = is_god(g)
    assert isinstance(expanded, And) and len(expanded.items) == 4


# ---------------------------------------------------------------------------
# axiom catalogue
# ---------------------------------------------------------------------------

def test_a12_formula_is_the_shared_attribute_identity():
    s1, s2, a = Var("s1"), Var("s2"), Var("a")
    expected = ForAll("s1", T, ForAll("s2", T, ForAll("a", T,
                      Implies(attribute(a, s1),
                              Implies(attribute(a, s2), Eq(s1, s2))))))
    assert axiom("A12").formula == expected


def test_a22_formula_has_both_difference_directions():
    s1, s2, a = Var("s1"), Var("s2"), Var("a")
    expected_body = Exists("a", T, Or((
        And((attribute(a, s1), Not(attribute(a, s2)))),
        And((attribute(a, s2), Not(attribute(a, s1)))))))
    expected = ForAll("s1", T, ForAll("s2", T,
                      Implies(substance(s1),
                              Implies(substance(s2),
                                      Implies(Not(Eq(s1, s2)), expected_body)))))
    assert axiom("A22").formula == expected


def test_a25_and_a26_formulas():
    a, s, g, g1, g2 = Var("a"), Var("s"), Var("g"), Var("g1"), Var("g2")
    assert axiom("A25").formula == ForAll("a", T, ForAll("s", T,
        Implies(substance(s),
                Implies(attribute(a, s),
                        Exists("g", T, And((is_god(g), attribute(a, g))))))))
    assert axiom("A26").formula == ForAll("g1", T, ForAll("g2", T,
        Implies(is_god(g1), Implies(is_god(g2), Eq(g1, g2)))))


def test_a15_formula():
    g, s, a = Var("g"), Var("s"), Var("a")
    assert axiom("A15").formula == ForAll("g", T, ForAll("s", T, ForAll("a", T,
        Implies(is_god(g),
                Implies(substance(s),
                        Implies(attribute(a, s), attribute(a, g)))))))


def test_a18_formula():
    x, w = Var("x"), Var("w")
    assert axiom("A18").formula == ForAll("x", T,
        Iff(Pred("involvesExistence", (x,)),
            ForAll("w", Sort.WORLD, Pred("existsAt", (x, w)))))


def test_prop_v_allshared_formula():
    s1, s2, a = Var("s1"), Var("s2"), Var("a")
    assert axiom("PropV_allshared").formula == ForAll("s1", T, ForAll("s2", T,
        Implies(substance(s1),
                Implies(substance(s2),
                        Implies(ForAll("a", T, Iff(attribute(a, s1),
                                                   attribute(a, s2))),
                                Eq(s1, s2))))))


def test_sections():
    assert axiom("A22").section is Section.PSR_CANDIDATE
    assert axiom("A1").section is Section.SECTION_I
    assert axiom("A12").section is Section.SECTION_III
    assert axiom("A18").section is Section.MODAL_BRIDGE


def test_unknown_axiom_id_is_an_error():
    with pytest.raises(RegistryError, match="unknown axiom id"):
        axiom("A99")


def test_every_catalogued_formula_is_closed_and_well_sorted():
    for axiom_id in axiom_ids():
        entry = axiom(axiom_id)
        # check_sorted rejects unbound variables, so it checks closedness.
        check_sorted(entry.formula, ETHICA_SIGNATURE)


def test_spinozas_unstated_axioms_are_absent():
    for absent in ("A2", "A3", "A4", "A5", "A6", "A7"):
        with pytest.raises(RegistryError):
            axiom(absent)


# ---------------------------------------------------------------------------
# bundles and selectors
# ---------------------------------------------------------------------------

def test_bundle_contents():
    assert BUNDLES["PSRSubstance"] == ("A22",)
    assert BUNDLES["PSRPlenitude"] == ("A25", "A26")
    assert BUNDLES["PSRSelfCause"] == ("A23",)
    assert BUNDLES["PSREssencePerception"] == ("A24",)
    assert BUNDLES["SectionIBridges"] == ("A1", "A1e", "A8", "A9", "A10", "A11")
    assert BUNDLES["ModalBridges"] == ("A18", "A3m", "A21")


def test_axiom_set_resolves_bundles_and_lists():
    assert [entry.id for entry in axiom_set("PSRPlenitude")] == ["A25", "A26"]
    assert [entry.id for entry in axiom_set("SectionIBridges")] == \
        ["A1", "A1e", "A8", "A9", "A10", "A11"]
    assert axiom_set([]) == []
    assert [entry.id for entry in axiom_set(["A22", "A22", "A12"])] == ["A22", "A12"]


def test_unknown_bundle_is_an_error():
    with pytest.raises(RegistryError, match="unknown bundle"):
        axiom_set("PSREverything")


# ---------------------------------------------------------------------------
# expansion sanity and symmetry
# ---------------------------------------------------------------------------

def test_attribute_expansion_matches_table_lookup(a12, a15):
    for member in (a12, a15):
        model = member.model
        for a, s in itertools.product(model.things, repeat=2):
            expanded = evaluate(attribute(thing(a), thing(s)), model)
            direct = (evaluate(substance(thing(s)), model)
                      and model.truth("intellectPerceivesAsEssence", (s, a)))
            assert expanded == direct


def test_a22_is_symmetric_in_the_substance_pair(a12, a15):
    # The difference disjunction covers both directions, so swapping the
    # roles of the two substances cannot change the axiom's truth value.
    s1, s2, a = Var("s1"), Var("s2"), Var("a")
    swapped = ForAll("s1", T, ForAll("s2", T,
        Implies(substance(s2),
                Implies(substance(s1),
                        Implies(Not(Eq(s2, s1)),
                                Exists("a", T, Or((
                                    And((attribute(a, s2), Not(attribute(a, s1)))),
                                    And((attribute(a, s1), Not(attribute(a, s2))))))))))))
    models = [a12.model, a15.model]
    rng = random.Random(7)
    support = ("inItself", "perSeConceived", "intellectPerceivesAsEssence")
    models += [random_model(rng, rng.randint(1, 3), support) for _ in range(30)]
    for model in models:
        assert evaluate(axiom("A22").formula, model) == evaluate(swapped, model)


def test_registry_completeness_for_bundled_experiments():
    from ethica.experiments import bundled_experiments
    for spec in bundled_experiments().values():
        for direction in [spec.forward, spec.backward, spec.restricted_form,
                          *spec.subsets]:
            if direction is None:
                continue
            assert axiom_set(direction.premises) is not None
            assert axiom(direction.target)


def test_citations_and_display_present():
    for axiom_id in axiom_ids():
        entry = axiom(axiom_id)
        assert entry.citation
        assert entry.display
        assert entry.status in ("stated", "decided-here")
