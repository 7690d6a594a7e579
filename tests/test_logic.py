"""Evaluator semantics: sort checking, classical truth, quantifier laws."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ethica.logic import (FALSE, TRUE, And, Elem, Eq, EvaluationError, Exists,
                          FiniteModel, ForAll, Iff, Implies, ModelError, Not,
                          Or, Pred, Sort, SortError, Var, check_sorted,
                          evaluate, mentions_world)
from ethica.registry import ETHICA_SIGNATURE, axiom, substance, attribute

T = Sort.THING
W = Sort.WORLD


def thing(label):
    return Elem(T, label)


# ---------------------------------------------------------------------------
# check_sorted
# ---------------------------------------------------------------------------

def test_registry_formula_is_well_sorted():
    check_sorted(axiom("A12").formula, ETHICA_SIGNATURE)


def test_arity_mismatch_names_predicate():
    bad = ForAll("x", T, ForAll("y", T, Pred("inItself", (Var("x"), Var("y")))))
    with pytest.raises(SortError, match="inItself expects 1 argument"):
        check_sorted(bad, ETHICA_SIGNATURE)


def test_sort_mismatch_names_expected_sorts():
    bad = ForAll("w", W, Pred("existsAt", (Var("w"), Var("w"))))
    with pytest.raises(SortError, match=r"existsAt expects \(Thing, World\)"):
        check_sorted(bad, ETHICA_SIGNATURE)


def test_unknown_predicate_rejected():
    with pytest.raises(SortError, match="unknown predicate"):
        check_sorted(ForAll("x", T, Pred("nosuch", (Var("x"),))), ETHICA_SIGNATURE)


def test_unbound_variable_rejected():
    with pytest.raises(SortError, match="unbound variable"):
        check_sorted(Pred("inItself", (Var("x"),)), ETHICA_SIGNATURE)


def test_rebinding_on_same_path_rejected():
    bad = ForAll("x", T, Exists("x", T, Pred("inItself", (Var("x"),))))
    with pytest.raises(SortError, match="bound twice"):
        check_sorted(bad, ETHICA_SIGNATURE)


def test_sibling_rebinding_is_fine():
    ok = And((Exists("x", T, Pred("inItself", (Var("x"),))),
              Exists("x", T, Pred("inAnother", (Var("x"),)))))
    check_sorted(ok, ETHICA_SIGNATURE)


def test_equality_across_sorts_rejected():
    bad = ForAll("x", T, ForAll("w", W, Eq(Var("x"), Var("w"))))
    with pytest.raises(SortError, match="equality compares"):
        check_sorted(bad, ETHICA_SIGNATURE)


# ---------------------------------------------------------------------------
# evaluate on the corpus models
# ---------------------------------------------------------------------------

def test_substance_s1_true_on_a12_model(a12):
    assert evaluate(substance(thing("s1")), a12.model) is True


def test_attribute_a_only_s1_of_s2_false_on_a12_model(a12):
    assert evaluate(attribute(thing("a_only_s1"), thing("s2")), a12.model) is False


def test_reflexivity_of_equality(a12):
    assert evaluate(ForAll("x", T, Eq(Var("x"), Var("x"))), a12.model) is True


def test_attribute_attr_g2_of_g1_false_on_a15_model(a15):
    assert evaluate(attribute(thing("attr_g2"), thing("g1")), a15.model) is False


def test_equality_is_label_identity(a12):
    assert evaluate(Eq(thing("s1"), thing("s1")), a12.model) is True
    assert evaluate(Eq(thing("s1"), thing("s2")), a12.model) is False


def test_unbound_variable_is_an_error_not_a_default(a12):
    with pytest.raises(EvaluationError, match="unbound variable"):
        evaluate(Pred("inItself", (Var("x"),)), a12.model)


def test_a_quantifier_restores_the_outer_binding_of_its_variable():
    # The quantifier binds x to each thing, t2 last; the conjunct after it
    # must read the caller's x again, or find x unbound if it had none.
    x = Var("x")
    model = FiniteModel("m", ("t1", "t2"), (), {
        "inItself": ["t1", "t2"], "perSeConceived": ["t1"]})
    formula = And((ForAll("x", T, Pred("inItself", (x,))),
                   Pred("perSeConceived", (x,))))
    assert evaluate(formula, model, {"x": (T, "t1")}) is True
    assert evaluate(formula, model, {"x": (T, "t2")}) is False
    with pytest.raises(EvaluationError, match="unbound variable 'x'"):
        evaluate(formula, model)


def test_world_quantifier_on_worldless_model_is_an_error(a12):
    assert a12.model.worlds == ()
    with pytest.raises(EvaluationError, match="no world universe"):
        evaluate(axiom("A18").formula, a12.model)


def test_mentions_world():
    assert mentions_world(axiom("A18").formula)
    assert mentions_world(axiom("A23").formula)
    assert not mentions_world(axiom("A12").formula)


# ---------------------------------------------------------------------------
# model invariants
# ---------------------------------------------------------------------------

def test_empty_thing_universe_rejected():
    with pytest.raises(ModelError):
        FiniteModel("m", ())


def test_duplicate_labels_rejected():
    with pytest.raises(ModelError):
        FiniteModel("m", ("x", "x"))
    with pytest.raises(ModelError, match="both universes"):
        FiniteModel("m", ("x",), ("x",))


def test_empty_tables_are_dropped():
    model = FiniteModel("m", ("x",), tables={"inItself": set()})
    assert model.tables == {}
    assert model == FiniteModel("m", ("x",))


def test_models_are_immutable(a12):
    with pytest.raises(AttributeError):
        a12.model.things = ("x",)


def test_table_validation_against_signature():
    model = FiniteModel("m", ("x",), tables={"inItself": {("x", "x")}})
    with pytest.raises(ModelError, match="arity"):
        model.check_against(ETHICA_SIGNATURE)


# ---------------------------------------------------------------------------
# algebraic laws on random formulas and models
# ---------------------------------------------------------------------------

LABELS = ("e0", "e1", "e2")


@st.composite
def models(draw):
    n = draw(st.integers(min_value=1, max_value=3))
    things = LABELS[:n]
    tables = {}
    for pred, rows in (("P", [(e,) for e in things]),
                       ("Q", [(e,) for e in things]),
                       ("R", [(a, b) for a in things for b in things])):
        chosen = draw(st.sets(st.sampled_from(rows)))
        if chosen:
            tables[pred] = chosen
    return FiniteModel("random", things, tables=tables)


def formulas(vars_in_scope=(), max_depth=3):
    terms = st.one_of(
        *( [st.sampled_from([Var(v) for v in vars_in_scope])] if vars_in_scope else [] ),
        st.sampled_from([Elem(T, label) for label in LABELS]))

    atoms = st.one_of(
        st.just(TRUE), st.just(FALSE),
        st.builds(lambda t: Pred("P", (t,)), terms),
        st.builds(lambda t: Pred("Q", (t,)), terms),
        st.builds(lambda a, b: Pred("R", (a, b)), terms, terms),
        st.builds(Eq, terms, terms))

    def extend(children):
        fresh = f"v{len(vars_in_scope)}"
        inner = formulas(vars_in_scope + (fresh,), max_depth - 1) \
            if max_depth > 1 else atoms
        return st.one_of(
            st.builds(Not, children),
            st.builds(lambda a, b: And((a, b)), children, children),
            st.builds(lambda a, b: Or((a, b)), children, children),
            st.builds(Implies, children, children),
            st.builds(Iff, children, children),
            st.builds(lambda body: ForAll(fresh, T, body), inner),
            st.builds(lambda body: Exists(fresh, T, body), inner))

    return st.recursive(atoms, extend, max_leaves=8)


def _eval_partial(formula, model, env):
    # Random formulas may reference elements outside a small model; skip those.
    for label in LABELS:
        if label not in model.things and label in _labels_of(formula):
            return None
    return evaluate(formula, model, env)


def _labels_of(formula):
    out = set()

    def walk(f):
        if isinstance(f, Pred):
            out.update(t.label for t in f.args if isinstance(t, Elem))
        elif isinstance(f, Eq):
            out.update(t.label for t in (f.left, f.right) if isinstance(t, Elem))
        elif isinstance(f, Not):
            walk(f.body)
        elif isinstance(f, (And, Or)):
            for item in f.items:
                walk(item)
        elif isinstance(f, (Implies, Iff)):
            walk(f.left)
            walk(f.right)
        elif isinstance(f, (ForAll, Exists)):
            walk(f.body)
    walk(formula)
    return out


@settings(max_examples=120, deadline=None)
@given(models(), formulas())
def test_double_negation(model, formula):
    value = _eval_partial(formula, model, {})
    if value is None:
        return
    assert evaluate(Not(Not(formula)), model) == value


@settings(max_examples=120, deadline=None)
@given(models(), formulas(), formulas())
def test_de_morgan(model, f, g):
    if _eval_partial(And((f, g)), model, {}) is None:
        return
    assert evaluate(Not(And((f, g))), model) == evaluate(Or((Not(f), Not(g))), model)
    assert evaluate(Not(Or((f, g))), model) == evaluate(And((Not(f), Not(g))), model)


@settings(max_examples=120, deadline=None)
@given(models(), formulas(vars_in_scope=("v",)))
def test_quantifier_expansion(model, body):
    if _eval_partial(ForAll("v", T, body), model, {}) is None:
        return
    pointwise = [evaluate(body, model, {"v": (T, e)}) for e in model.things]
    assert evaluate(ForAll("v", T, body), model) == all(pointwise)
    assert evaluate(Exists("v", T, body), model) == any(pointwise)


@settings(max_examples=80, deadline=None)
@given(models(), formulas(), formulas())
def test_material_implication_and_iff(model, f, g):
    if _eval_partial(And((f, g)), model, {}) is None:
        return
    vf, vg = evaluate(f, model), evaluate(g, model)
    assert evaluate(Implies(f, g), model) == ((not vf) or vg)
    assert evaluate(Iff(f, g), model) == (vf == vg)
