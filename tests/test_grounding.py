"""Grounding: clause shapes, equality pre-evaluation, evaluator agreement."""

import itertools
import random

import pytest

from ethica import grounding
from ethica.grounding import (Grounder, GroundingError, TruthGrounder,
                              atom_layout, atom_space, compile_formula,
                              evaluate_via_grounding, ground, nnf,
                              predicate_profiles)
from ethica.logic import (FALSE, TRUE, And, Elem, Eq, EvaluationError, Exists,
                          FiniteModel, ForAll, Iff, Implies, Not, Or, Pred,
                          Sort, Var, evaluate, mentions_world,
                          quantifier_prefix)
from ethica.registry import ETHICA_SIGNATURE, axiom, axiom_ids
from ethica.search import SearchConfig, entails_bounded
from ethica.solver import Solver

from oracles import (all_models, assert_clause_format, atom_list,
                     definition_clauses, dpll_least_solution, forall,
                     random_model, reference_ground)

T = Sort.THING


def test_a1_grounds_to_one_clause_per_element():
    constraints = ground(axiom("A1").formula, ("e0", "e1"))
    assert len(constraints.clauses) == 2
    in_itself = [constraints.atom_index(("inItself", (e,))) + 1 for e in ("e0", "e1")]
    in_another = [constraints.atom_index(("inAnother", (e,))) + 1 for e in ("e0", "e1")]
    # Literals ascend: inAnother's atoms come before inItself's.
    assert constraints.clauses == ((in_another[0], in_itself[0]),
                                   (in_another[1], in_itself[1]))


def test_distinct_constant_equality_grounds_unsatisfiable():
    formula = ForAll("x", T, ForAll("y", T, Eq(Var("x"), Var("y"))))
    constraints = ground(formula, ("e0", "e1"))
    assert constraints.unsatisfiable
    assert constraints.atoms == ()


def test_identical_constant_equality_grounds_away():
    formula = ForAll("x", T, Eq(Var("x"), Var("x")))
    constraints = ground(formula, ("e0", "e1"))
    assert constraints.clauses == ()


def test_a12_clause_count_at_size_four():
    constraints = ground(axiom("A12").formula, ("e0", "e1", "e2", "e3"))
    # One ground implication per (s1, s2, a) triple with s1 != s2; the
    # expected count comes from direct enumeration, not from the grounder.
    expected = sum(1 for s1, s2, a in itertools.product(range(4), repeat=3)
                   if s1 != s2)
    assert expected == 48
    assert len(constraints.clauses) == expected


def test_no_equality_atoms_survive_grounding():
    for axiom_id in ("A12", "A22", "A26", "PropV_allshared"):
        constraints = ground(axiom(axiom_id).formula, ("e0", "e1", "e2"))
        for pred, _ in constraints.atoms:
            assert pred in ("inItself", "perSeConceived",
                            "intellectPerceivesAsEssence", "absolutelyInfinite",
                            "expressesEternalEssence")


def test_plenitude_axioms_ground_at_five_things_in_under_a_thousand_clauses():
    # IsGod nests a universal inside an existential; distributing it gave
    # 40,960 clauses for A25 at four things and did not finish at five.
    things = tuple(f"e{i}" for i in range(5))
    for axiom_id in ("A25", "A26"):
        constraints = ground(axiom(axiom_id).formula, things)
        assert len(constraints.clauses) < 1000, axiom_id


def test_a_disjunction_of_conjunctions_grounds_to_one_clause_of_aux_literals():
    # Each multi-clause part becomes one aux literal, defined by the part's
    # own clauses, and the disjunction one clause of those literals.
    def both(a, b, e):
        return And((Pred(a, (Elem(T, e),)), Pred(b, (Elem(T, e),))))
    formula = Or((both("inItself", "perSeConceived", "e0"),
                  both("inAnother", "conceivedThroughAnother", "e0")))
    constraints = ground(formula, ("e0",))
    index = {pred: constraints.atom_index((pred, ("e0",))) + 1
             for pred, _ in constraints.atoms}
    first, second = len(index) + 1, len(index) + 2
    assert constraints.definitions == (
        (first, ((index["inItself"],), (index["perSeConceived"],))),
        (second, ((index["inAnother"],), (index["conceivedThroughAnother"],))))
    assert constraints.clauses == ((first, second),) + tuple(
        definition_clauses(constraints.definitions))
    assert constraints.clauses[1:] == (
        (-first, index["inItself"]), (-first, index["perSeConceived"]),
        (-second, index["inAnother"]),
        (-second, index["conceivedThroughAnother"]))


def test_a_disjunction_with_a_true_part_makes_no_aux_variable():
    # The true part is found before any multi-clause part is replaced, even
    # when it comes last.
    x = Var("x")
    formula = ForAll("x", T, Or((And((Pred("inItself", (x,)),
                                      Pred("perSeConceived", (x,)))),
                                 Eq(x, x))))
    constraints = ground(formula, ("e0", "e1"))
    assert constraints.clauses == ()
    assert constraints.definitions == ()


def test_agreement_with_evaluator_on_trivial_formula(a12):
    assert evaluate_via_grounding(TRUE, a12.model) is True


def test_agreement_a22_on_a12_counter_model(a12):
    assert evaluate_via_grounding(axiom("A22").formula, a12.model) is True
    assert evaluate(axiom("A22").formula, a12.model) is True


def test_agreement_a12_on_a12_counter_model(a12):
    assert evaluate_via_grounding(axiom("A12").formula, a12.model) is False
    assert evaluate(axiom("A12").formula, a12.model) is False


def test_agreement_on_every_registry_axiom_and_both_corpus_models(a12, a15):
    for member in (a12, a15):
        for axiom_id in axiom_ids():
            formula = axiom(axiom_id).formula
            if mentions_world(formula):
                with pytest.raises(EvaluationError):
                    evaluate(formula, member.model)
                with pytest.raises(EvaluationError):
                    evaluate_via_grounding(formula, member.model)
                continue
            assert evaluate_via_grounding(formula, member.model) == \
                evaluate(formula, member.model), (member.name, axiom_id)


def test_agreement_on_random_models_at_small_sizes():
    rng = random.Random(20260810)
    worldless = [axiom_id for axiom_id in axiom_ids()
                 if not mentions_world(axiom(axiom_id).formula)]
    support = ("inItself", "inAnother", "perSeConceived",
               "conceivedThroughAnother", "involvesExistence",
               "natureRequiresExistence", "absolutelyInfinite",
               "intellectPerceivesAsEssence", "expressesEternalEssence",
               "conceptualDep")
    for _ in range(25):
        model = random_model(rng, rng.randint(1, 3), support)
        for axiom_id in worldless:
            formula = axiom(axiom_id).formula
            assert evaluate_via_grounding(formula, model) == \
                evaluate(formula, model), axiom_id


def test_satisfied_by_holds_iff_some_aux_assignment_satisfies_the_clauses():
    # Independent of the evaluator: with the model's table bits as unit
    # clauses, the DPLL oracle decides whether some assignment of the aux
    # variables satisfies every clause.  Every axiom and its negation, at
    # 1-3 things and 0-2 worlds, on seeded random models.
    rng = random.Random(20261019)
    support = [decl.name for decl in ETHICA_SIGNATURE]
    outcomes = set()
    for n_things, n_worlds, _ in itertools.product((1, 2, 3), (0, 1, 2), range(2)):
        model = random_model(rng, n_things, support, n_worlds)
        for axiom_id in axiom_ids():
            formula = axiom(axiom_id).formula
            if n_worlds == 0 and mentions_world(formula):
                continue
            for polarity in (formula, Not(formula)):
                constraints = ground(polarity, model.things, model.worlds)
                units = [(var if model.truth(pred, args) else -var,)
                         for var, (pred, args) in enumerate(constraints.atoms, 1)]
                nvars = len(constraints.atoms) + len(constraints.definitions)
                expected = dpll_least_solution(
                    nvars, units + list(constraints.clauses)) is not None
                assert constraints.satisfied_by(model) == expected, \
                    (axiom_id, n_things, n_worlds, polarity is formula)
                outcomes.add(expected)
    assert outcomes == {False, True}


def test_agreement_on_modal_axioms_with_worlds():
    rng = random.Random(42)
    support = ("inItself", "perSeConceived", "involvesExistence",
               "natureRequiresExistence", "existsAt", "causeAt", "cause")
    modal = [axiom_id for axiom_id in axiom_ids()
             if mentions_world(axiom(axiom_id).formula)]
    assert set(modal) == {"A18", "A21", "A3m", "A23"}
    for _ in range(20):
        model = random_model(rng, rng.randint(1, 2), support, n_worlds=rng.randint(1, 2))
        for axiom_id in modal:
            formula = axiom(axiom_id).formula
            assert evaluate_via_grounding(formula, model) == \
                evaluate(formula, model), axiom_id


def test_agreement_on_empty_connectives_and_absent_world_labels():
    # An empty disjunction is false and an empty conjunction true; a world
    # label on a model without worlds names no element, so its atom is
    # false and its equalities compare labels, as in the evaluator.
    world = Sort.WORLD
    formulas = [Or(()), And(()),
                ForAll("x", T, Or((Pred("inItself", (Var("x"),)), Or(())))),
                Exists("x", T, And((Pred("inItself", (Var("x"),)), And(())))),
                Pred("existsAt", (Elem(T, "t0"), Elem(world, "w0"))),
                Eq(Elem(world, "w0"), Elem(world, "w0")),
                Eq(Elem(world, "w0"), Elem(world, "w1"))]
    models = [FiniteModel("m", ("t0",), tables={"inItself": ["t0"]}),
              FiniteModel("m", ("t0", "t1"), ("w0",),
                          {"inItself": ["t1"], "existsAt": [("t0", "w0")]})]
    for model in models:
        for formula in formulas:
            for polarity in (formula, Not(formula)):
                assert evaluate_via_grounding(polarity, model) == \
                    evaluate(polarity, model), (polarity, model.worlds)


def test_world_quantifier_without_worlds_fails_even_where_evaluate_short_circuits():
    # The grounder reaches every quantifier; the evaluator stops at the
    # first true disjunct.
    model = FiniteModel("m", ("t0",))
    formula = Or((TRUE, ForAll("w", Sort.WORLD,
                               Pred("existsAt", (Elem(T, "t0"), Var("w"))))))
    assert evaluate(formula, model)
    with pytest.raises(EvaluationError, match="no world universe"):
        evaluate_via_grounding(formula, model)


def test_the_layout_puts_each_atom_at_its_position_in_the_atom_space():
    # The grounders and the canonicaliser index atoms by the layout, and
    # counter-models are spelt from atom_space: the two must agree, also on
    # predicates over worlds at no worlds, whose blocks are empty.
    rng = random.Random(20261020)
    for n_things in range(1, 5):
        for n_worlds in range(4):
            things = tuple(f"t{i}" for i in range(n_things))
            worlds = tuple(f"w{i}" for i in range(n_worlds))
            index = {label: i for universe in (things, worlds)
                     for i, label in enumerate(universe)}
            for _ in range(10):
                profiles = {f"p{k}": tuple(rng.choice(list(Sort)) for _ in
                                           range(rng.randint(1, 3)))
                            for k in range(rng.randint(0, 4))}
                atoms = atom_space(profiles, things, worlds)
                layout, natoms = atom_layout(
                    profiles, {Sort.THING: n_things, Sort.WORLD: n_worlds})
                assert natoms == len(atoms) == \
                    Grounder(profiles, things, worlds).natoms
                for position, (name, labels) in enumerate(atoms):
                    block, weights = layout[name]
                    assert position in block
                    assert block.start + sum(
                        index[label] * weight
                        for label, weight in zip(labels, weights)) == position
                assert [len(block) for block, _ in layout.values()] == \
                    [sum(name == pred for pred, _ in atoms)
                     for name in profiles]


def test_truth_grounder_agrees_with_the_evaluator_on_every_instance():
    # The search checks premise instances under a model's table bits with
    # the compiled formulas themselves: an instance is false exactly when
    # its clauses hold the empty clause.  Each axiom's universal prefix is
    # split off as the search splits it, and no aux variable is made.
    rng = random.Random(8128)
    checked = 0
    for axiom_id in axiom_ids():
        formula = axiom(axiom_id).formula
        bound, body = quantifier_prefix(nnf(formula), ForAll)
        compiled = compile_formula(body, bound)
        worlds = ("w0", "w1")
        for n_things in (1, 2, 3):
            things = tuple(f"t{i}" for i in range(n_things))
            universe = {Sort.THING: things, Sort.WORLD: worlds}
            profiles = predicate_profiles([formula])
            atoms = atom_space(profiles, things, worlds)
            for _ in range(20):
                bits = [rng.random() < 0.5 for _ in atoms]
                model = FiniteModel("m", things, worlds, {
                    pred: [args for bit, (name, args) in zip(bits, atoms)
                           if bit and name == pred]
                    for pred, _ in atoms})
                truth = TruthGrounder(profiles, things, worlds, bits)
                falsified = compiled(truth)
                for env in itertools.product(*(range(len(universe[sort]))
                                               for _, sort in bound)):
                    assignment = {name: (sort, universe[sort][i])
                                  for (name, sort), i in zip(bound, env)}
                    assert (() in falsified(env)) != \
                        evaluate(body, model, assignment), (axiom_id, env)
                    checked += 1
                assert truth.definitions == []
    assert checked == 5240


def test_solver_finds_the_least_solution_over_table_bits():
    # The auxiliary variables come after the table atoms, so the least
    # solution of the clauses projects onto the least model of the formula;
    # negations are included because the search grounds negated targets.
    # all_models enumerates in the solver's order (first atom most
    # significant, false before true) when the atom lists agree.
    for axiom_id in axiom_ids():
        formula = axiom(axiom_id).formula
        worlds = ("w0",) if mentions_world(formula) else ()
        for n_things in (1, 2):
            things = tuple(f"t{i}" for i in range(n_things))
            for polarity in (formula, Not(formula)):
                constraints = ground(polarity, things, worlds)
                atoms = constraints.atoms
                support = sorted({pred for pred, _ in atoms})
                assert atom_list(support, things, worlds) == list(atoms)
                nvars = len(atoms) + len(constraints.definitions)
                solution = Solver(nvars, constraints.clauses,
                                  budget=10**9).solve()
                least = next((model for model in all_models(
                    support, n_things, len(worlds)) if evaluate(polarity, model)),
                    None)
                expected = None if least is None else \
                    [int(least.truth(pred, args)) for pred, args in atoms]
                got = None if solution is None else solution[:len(atoms)]
                assert got == expected, (axiom_id, n_things, polarity is formula)


def test_nnf_strips_implications():
    formula = nnf(Not(axiom("A12").formula))
    assert isinstance(formula, Exists)

    def no_arrows(f):
        if isinstance(f, (ForAll, Exists)):
            return no_arrows(f.body)
        if isinstance(f, Not):
            return isinstance(f.body, (Pred, Eq))
        if isinstance(f, (And, Or)):
            return all(no_arrows(item) for item in f.items)
        return True
    assert no_arrows(formula)


def _nnf_breaches(f, parent=None) -> list:
    """The nodes of ``f`` that break ``nnf``'s output shape: an ``Implies``
    or ``Iff``, a ``Not`` over anything but an atom, and an ``And`` directly
    under an ``And`` or an ``Or`` directly under an ``Or``."""
    kind = type(f)
    if kind in (Implies, Iff) or (kind in (And, Or) and kind is parent) or \
            (kind is Not and type(f.body) not in (Pred, Eq)):
        return [f]
    if kind in (And, Or):
        return [bad for item in f.items for bad in _nnf_breaches(item, kind)]
    if kind in (ForAll, Exists):
        return _nnf_breaches(f.body)
    return []


def _thing_atom(name):
    return Pred(name, (Var("x"),))


#: An Iff nested in an Implies, whose left side is itself an Implies: each
#: expansion of the Iff puts a connective of its own kind under each part.
IFF_IN_IMPLIES = ForAll("x", T, Implies(
    _thing_atom("inItself"),
    Iff(Implies(_thing_atom("perSeConceived"), _thing_atom("inAnother")),
        _thing_atom("conceivedThroughAnother"))))
NNF_CASES = [(f"{axiom_id}{sign}", polarity) for axiom_id in axiom_ids()
             for sign, polarity in (("+", axiom(axiom_id).formula),
                                    ("-", Not(axiom(axiom_id).formula)))]
NNF_CASES += [("iff-in-implies+", IFF_IN_IMPLIES),
              ("iff-in-implies-", Not(IFF_IN_IMPLIES))]


@pytest.mark.parametrize("name, formula", NNF_CASES,
                         ids=[name for name, _ in NNF_CASES])
def test_nnf_output_is_flat_with_negations_on_atoms_and_keeps_the_truth(
        name, formula):
    normal = nnf(formula)
    assert _nnf_breaches(normal) == []
    rng = random.Random(f"nnf:{name}")
    support = [decl.name for decl in ETHICA_SIGNATURE]
    for _ in range(6):
        model = random_model(rng, 3, support, n_worlds=2)
        assert evaluate(normal, model) == evaluate(formula, model)


def test_grounding_world_quantifier_without_worlds_fails():
    with pytest.raises(GroundingError):
        ground(axiom("A18").formula, ("e0",), ())


def test_one_builder_grounds_temporary_trees_like_a_fresh_builder_each():
    # Each tree and its compiled form are freed after grounding, so a later
    # tree's nodes may get an earlier tree's ids; the grounder's caches must
    # not hand them the earlier entries.  A shared grounder numbers a tree's
    # aux variables after the earlier trees' definitions, so they are
    # shifted back.
    things, worlds = ("t0", "t1", "t2"), ("w0", "w1")
    formulas = [polarity for axiom_id in axiom_ids()
                for polarity in (axiom(axiom_id).formula,
                                 Not(axiom(axiom_id).formula))]
    profiles = predicate_profiles(formulas)
    shared = Grounder(profiles, things, worlds)
    for formula in formulas:
        offset = len(shared.definitions)

        def shifted(clause):
            return tuple(lit - offset if lit > shared.natoms else
                         lit + offset if lit < -shared.natoms else lit
                         for lit in clause)

        got = compile_formula(nnf(formula))(shared)()
        fresh = Grounder(profiles, things, worlds)
        assert [shifted(clause) for clause in got] == \
            compile_formula(nnf(formula))(fresh)()
        assert [(var - offset, tuple(map(shifted, clauses)))
                for var, clauses in shared.definitions[offset:]] == \
            fresh.definitions


T_ = Sort.THING
W = Sort.WORLD
#: Formulas naming universe elements (present and absent labels, in atoms
#: and in equalities, under quantifiers and outside them), and a disjunction
#: whose literal parts are complementary.
EDGE_FORMULAS = [
    ForAll("x", T_, Or((Pred("inItself", (Var("x"),)),
                        Not(Pred("inItself", (Var("x"),))),
                        And((Pred("perSeConceived", (Var("x"),)),
                             Pred("inAnother", (Var("x"),))))))),
    Pred("inItself", (Elem(T_, "t1"),)),
    Not(Pred("inItself", (Elem(T_, "t9"),))),
    ForAll("x", T_, Or((Pred("intellectPerceivesAsEssence", (Var("x"), Elem(T_, "t0"))),
                        Eq(Var("x"), Elem(T_, "t2"))))),
    Exists("x", T_, And((Not(Eq(Elem(T_, "t9"), Var("x"))),
                         Pred("perSeConceived", (Var("x"),))))),
    ForAll("w", W, Or((Pred("existsAt", (Elem(T_, "t0"), Var("w"))),
                       Eq(Elem(W, "w1"), Var("w"))))),
    Or((Eq(Elem(T_, "t0"), Elem(T_, "t0")), Pred("inItself", (Elem(T_, "t0"),)))),
    And((Not(Eq(Elem(T_, "t0"), Elem(T_, "t1"))), FALSE)),
    ForAll("x", T_, ForAll("y", T_, Or((
        Eq(Var("x"), Var("y")),
        Exists("z", T_, And((Pred("conceptualDep", (Var("x"), Var("z"))),
                             Pred("conceptualDep", (Var("z"), Elem(T_, "t1")))))))))),
    # An ∃ memoized on no slot and an ∧ memoized on four: the memo keys
    # of `_linear` that the axioms never build.
    ForAll("x", T_, Or((Pred("inItself", (Var("x"),)),
                        Exists("y", T_, And((Pred("perSeConceived", (Var("y"),)),
                                             Pred("inAnother", (Var("y"),)))))))),
    forall(("a", "b", "c", "d", "e"), T_, Or((
        And((Pred("limitedBy", (Var("a"), Var("b"))),
             Pred("limitedBy", (Var("c"), Var("d"))))),
        Pred("limitedBy", (Var("e"), Var("e")))))),
]


def test_ground_matches_the_tree_walking_grounder():
    # The same atoms, clauses in the same order and the same definitions,
    # for every registry axiom and its negation and for the edge cases above;
    # a world quantifier with no worlds fails on both.
    formulas = [polarity for axiom_id in axiom_ids()
                for polarity in (axiom(axiom_id).formula,
                                 Not(axiom(axiom_id).formula))]
    formulas += EDGE_FORMULAS + [Not(f) for f in EDGE_FORMULAS]
    cases = 0
    for formula in formulas:
        for n_things in (1, 2, 3, 4):
            things = tuple(f"t{i}" for i in range(n_things))
            for n_worlds in (0, 1, 2):
                worlds = tuple(f"w{i}" for i in range(n_worlds))
                try:
                    expected = reference_ground(formula, things, worlds)
                except GroundingError:
                    with pytest.raises(GroundingError):
                        ground(formula, things, worlds)
                    continue
                got = ground(formula, things, worlds)
                assert got == expected, (formula, n_things, n_worlds)
                # The clauses are in the solver's format, and the
                # definition clauses are the ones with a negative aux.
                assert assert_clause_format(got.clauses, len(got.atoms)) == \
                    sum(len(clauses) for _, clauses in got.definitions)
                cases += 1
    assert cases > 500


def test_ground_matches_the_tree_walking_grounder_on_a_support():
    # Predicates outside the support are frozen false on both sides.
    support = ("inItself", "perSeConceived")
    for axiom_id in ("A12", "A22", "A25", "PropV_allshared"):
        for formula in (axiom(axiom_id).formula, Not(axiom(axiom_id).formula)):
            things = ("t0", "t1", "t2")
            assert ground(formula, things, (), support) == \
                reference_ground(formula, things, (), support), axiom_id


def test_memo_tables_are_built_only_where_an_instance_can_recur(monkeypatch):
    # Only the count of memo tables pins the rule of ``_memoized``:
    # memoizing more nodes gives the same clauses.
    built = []
    memoized = grounding._memoized

    def spy(raw, free, g):
        built.append(free)
        return memoized(raw, free, g)
    monkeypatch.setattr(grounding, "_memoized", spy)
    things, worlds = ("t0", "t1", "t2", "t3"), ("w0", "w1")
    for axiom_id in axiom_ids():
        ground(axiom(axiom_id).formula, things, worlds)
    assert len(axiom_ids()) == 21
    assert len(built) == 14
    built.clear()
    verdict = entails_bounded("PSRPlenitude", "A15",
                              SearchConfig(max_thing_size=12))
    assert not verdict.is_refuted
    assert len(built) == 71
