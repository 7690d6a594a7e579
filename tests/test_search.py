"""Search engine: oracle cross-checks, determinism, pruning, canonical forms."""

import itertools
import random
import tracemalloc

import pytest

from ethica.grounding import (Grounder, atom_space, compile_formula, ground,
                              nnf, predicate_profiles)
from ethica import search
from ethica.logic import (FALSE, TRUE, And, Eq, Exists, FiniteModel, ForAll,
                          LogicError, Not, Or, Pred, Sort, Var, evaluate,
                          quantifier_prefix)
from ethica.registry import (BUNDLES, ETHICA_SIGNATURE, axiom, axiom_ids,
                             axiom_set)
from ethica.search import (NoCounterexampleUpTo, Refuted, ResourceLimitExceeded,
                           SearchConfig, SearchError, SearchStats,
                           _is_orbit_representative,
                           _least_relabeling, canonical_form,
                           check_naive_psr, entails_bounded, find_countermodel)
from ethica.solver import BudgetExceeded, Solver

from oracles import (all_models, assert_clause_format, countermodel_exists,
                     definition_clauses, dpll_least_solution,
                     least_relabeling, predicates,
                     random_model, reference_ground, reference_grounding,
                     refutes)
from sweep import sweep

A22_SUPPORT = ("inItself", "perSeConceived", "intellectPerceivesAsEssence")
SIGNATURE = tuple(sorted(decl.name for decl in ETHICA_SIGNATURE))


# ---------------------------------------------------------------------------
# refutations, cross-checked against exhaustive enumeration
# ---------------------------------------------------------------------------

def test_a22_does_not_entail_a12_minimal_size_two():
    # Independent oracle: enumerate every support-table assignment at sizes
    # one and two and evaluate directly.
    assert not countermodel_exists(["A22"], "A12", A22_SUPPORT, 1)
    assert countermodel_exists(["A22"], "A12", A22_SUPPORT, 2)

    found = find_countermodel("PSRSubstance", "A12", SearchConfig(max_thing_size=4))
    assert found is not None
    model, size = found
    assert size == 2
    assert refutes(model, ["A22"], "A12")


def test_minimality_is_witnessed_by_exhausted_sizes():
    verdict = entails_bounded("PSRSubstance", "A12", SearchConfig(max_thing_size=4))
    assert isinstance(verdict, Refuted)
    assert verdict.thing_size == 2
    assert verdict.stats.sizes_exhausted == ((1, 0),)


def test_a12_does_not_entail_a22_at_size_two():
    # Hand-checkable refutation: two substances, zero perceptions; the
    # identity axiom holds vacuously while distinguishability fails.
    hand = FiniteModel("hand", ("t0", "t1"),
                       tables={"inItself": {"t0", "t1"},
                               "perSeConceived": {"t0", "t1"}})
    assert evaluate(axiom("A12").formula, hand) is True
    assert evaluate(axiom("A22").formula, hand) is False

    found = find_countermodel(["A12"], "A22", SearchConfig(max_thing_size=2))
    assert found is not None
    model, size = found
    assert size == 2
    assert refutes(model, ["A12"], "A22")


def test_plenitude_alone_fails_a15_within_three():
    assert not countermodel_exists(
        ["A25"], "A15",
        ("inItself", "perSeConceived", "intellectPerceivesAsEssence",
         "absolutelyInfinite", "expressesEternalEssence"), 1)
    found = find_countermodel(["A25"], "A15", SearchConfig(max_thing_size=3))
    assert found is not None
    model, size = found
    assert size <= 3
    assert refutes(model, ["A25"], "A15")


def test_refuted_models_omit_non_support_predicates():
    found = find_countermodel("PSRSubstance", "A12", SearchConfig(max_thing_size=2))
    model, _ = found
    assert set(model.tables) <= set(A22_SUPPORT)


# ---------------------------------------------------------------------------
# positive entailments up to the bound
# ---------------------------------------------------------------------------

def test_a22_entails_all_shared_form_up_to_four():
    verdict = entails_bounded("PSRSubstance", "PropV_allshared",
                              SearchConfig(max_thing_size=4))
    assert isinstance(verdict, NoCounterexampleUpTo)
    assert verdict.thing_bound == 4
    # cross-check the small sizes by enumeration
    for size in (1, 2):
        assert not countermodel_exists(["A22"], "PropV_allshared",
                                       A22_SUPPORT, size)


def test_a12_plus_a14_entail_a22():
    verdict = entails_bounded(["A12", "A14"], "A22", SearchConfig(max_thing_size=4))
    assert isinstance(verdict, NoCounterexampleUpTo)
    for size in (1, 2):
        assert not countermodel_exists(["A12", "A14"], "A22", A22_SUPPORT, size)


def test_a14_a24_equal_strength_both_directions():
    for premises, target in ((["A24"], "A14"), (["A14"], "A24")):
        verdict = entails_bounded(premises, target, SearchConfig(max_thing_size=4))
        assert isinstance(verdict, NoCounterexampleUpTo), (premises, target)


def test_plenitude_with_uniqueness_entails_a15():
    verdict = entails_bounded("PSRPlenitude", "A15", SearchConfig(max_thing_size=3))
    assert isinstance(verdict, NoCounterexampleUpTo)
    assert find_countermodel("PSRPlenitude", "A15",
                             SearchConfig(max_thing_size=3)) is None


def test_self_cause_with_bridges_entails_a13():
    verdict = entails_bounded(["A23", "A18", "A3m"], "A13",
                              SearchConfig(max_thing_size=3, max_world_size=2))
    assert isinstance(verdict, NoCounterexampleUpTo)
    assert verdict.world_bound == 2
    # enumeration cross-check at (things=2, worlds=1)
    assert not countermodel_exists(
        ["A23", "A18", "A3m"], "A13",
        ("inItself", "perSeConceived", "involvesExistence", "existsAt", "causeAt"),
        2, n_worlds=1)


def test_a13_converse_is_refuted_at_these_bridges():
    verdict = entails_bounded(["A13", "A18", "A3m"], "A23",
                              SearchConfig(max_thing_size=3, max_world_size=2))
    assert isinstance(verdict, Refuted)
    assert refutes(verdict.model, ["A13", "A18", "A3m"], "A23")


# ---------------------------------------------------------------------------
# formulas that are not in the register
# ---------------------------------------------------------------------------

def _distinct_things(n):
    """There are n pairwise-distinct things: it holds exactly on the models
    of at least n things."""
    names = [f"x{i}" for i in range(n)]
    formula = And([Not(Eq(Var(a), Var(b)))
                   for a, b in itertools.combinations(names, 2)])
    for name in reversed(names):
        formula = Exists(name, Sort.THING, formula)
    return formula


SYNTHETIC_TARGETS = [
    ("false", FALSE),
    ("all_in_itself", ForAll("x", Sort.THING, Pred("inItself", (Var("x"),)))),
]


def _no_register(*args, **kwargs):
    raise AssertionError("the search core read the register")


@pytest.mark.parametrize("target", SYNTHETIC_TARGETS, ids=lambda t: t[0])
def test_search_core_takes_formulas_that_are_not_in_the_register(
        monkeypatch, target):
    # The least model of n distinct things has n things, and each target
    # fails on every model of the premise, so the least counter-model has
    # exactly n things.
    monkeypatch.setattr(search, "axiom_set", _no_register)
    n = 4
    premises = [("distinct4", _distinct_things(n))]
    for bound in range(1, n + 3):
        verdict = search._search(premises, target,
                                 SearchConfig(max_thing_size=bound))
        if bound < n:
            assert verdict.describe() == f"NoCounterexampleUpTo({bound})"
            continue
        assert verdict.describe() == f"Refuted(size={n})", bound
        assert len(verdict.model.things) == n
        assert evaluate(premises[0][1], verdict.model)
        assert not evaluate(target[1], verdict.model)


def test_premise_instances_at_elements_no_branch_names_are_checked(
        monkeypatch):
    # Every branch names one thing, x, and the target names no world.  Each
    # thing causes something, and an effect exists at every world, so the
    # least model of a branch's seed makes x cause a thing the branch does
    # not name, which breaks instances over things and worlds it does not
    # hold.  The least counter-model, at 2 things, must be the brute-force
    # one, and no size below it may have one.
    monkeypatch.setattr(search, "axiom_set", _no_register)
    T, W = Sort.THING, Sort.WORLD
    c, e, w, x, y = map(Var, "cewxy")
    premises = [
        ("causes", ForAll("x", T, Exists("y", T, Pred("cause", (x, y))))),
        ("effects_exist", ForAll("c", T, ForAll("e", T, ForAll("w", W, Or((
            Not(Pred("cause", (c, e))), Pred("existsAt", (e, w))))))))]
    target = ("exist", ForAll("x", T, Exists("w", W,
                                             Pred("existsAt", (x, w)))))
    formulas = [formula for _, formula in premises]
    for n_worlds in (1, 2):
        verdict = search._search(premises, target, SearchConfig(
            max_thing_size=4, max_world_size=n_worlds))
        assert (verdict.thing_size, verdict.world_size) == (2, 1)
        counter_models = {
            n: [model for model in all_models(("cause", "existsAt"), n, 1)
                if all(evaluate(f, model) for f in formulas)
                and not evaluate(target[1], model)] for n in (1, 2)}
        assert counter_models[1] == []
        assert verdict.model.tables in [canonical_form(model).tables
                                        for model in counter_models[2]]


def test_a_solution_holding_every_premise_instance_reads_no_truth_table(
        monkeypatch):
    # {A25} |= A15 is refuted at 2 things.  Every solution on the way comes
    # from a branch that holds every A25 instance of its size, so none needs
    # a truth table of its bits to find the instances it falsifies.
    built = []
    truth_grounder = search.TruthGrounder

    def spy(profiles, things, worlds, bits):
        built.append(len(things))
        return truth_grounder(profiles, things, worlds, bits)

    monkeypatch.setattr(search, "TruthGrounder", spy)
    verdict = entails_bounded(["A25"], "A15", SearchConfig(max_thing_size=8))
    assert verdict.describe() == "Refuted(size=2)"
    assert built == []


def test_instances_at_two_elements_no_branch_names_are_added_alone(
        monkeypatch):
    # Every branch names one thing, x, so the least model of its seed
    # leaves cause empty and falsifies the first premise at pairs of two
    # other things.  Such an instance has no renamings: it is added as it
    # is.  Three distinct things are needed, so the least counter-model is
    # at 3 things, and must be the brute-force one at every pruning.
    monkeypatch.setattr(search, "axiom_set", _no_register)
    T = Sort.THING
    x, y, z = map(Var, "xyz")
    premises = [
        ("cause_others", ForAll("y", T, ForAll("z", T, Or((
            Eq(y, z), Pred("cause", (y, z))))))),
        ("distinct3", _distinct_things(3))]
    target = ("none_per_se", ForAll("x", T, Not(Pred("perSeConceived", (x,)))))
    formulas = [formula for _, formula in premises]
    counter_models = {}
    for n in (1, 2, 3):
        models = list(all_models(("cause", "perSeConceived"), n))
        counter_models[n] = [canonical_form(model).tables for model in models
                             if all(evaluate(f, model) for f in formulas)
                             and not evaluate(target[1], model)]
    assert len(models) == 4_096
    assert counter_models[1] == counter_models[2] == []
    renamings = search._renamings
    alone = []

    def spy(env, bound, named, elements):
        unnamed = [e for e, (_, s) in zip(env, bound) if e not in named[s]]
        renamed = renamings(env, bound, named, elements)
        if len(unnamed) > 1:
            alone.append(renamed == [env])
        return renamed

    monkeypatch.setattr(search, "_renamings", spy)
    for pruning in ("canonical", "none"):
        alone.clear()
        verdict = search._search(premises, target, SearchConfig(
            max_thing_size=4, pruning=pruning))
        assert verdict.describe() == "Refuted(size=3)"
        assert verdict.model.tables in counter_models[3]
        assert alone and all(alone), pruning


def test_failed_recheck_names_the_formula_not_in_the_register(monkeypatch):
    premises = [("distinct2", _distinct_things(2))]
    target = SYNTHETIC_TARGETS[1]
    config = SearchConfig(max_thing_size=2)
    for value, message in ((False, "fails premise distinct2"),
                           (True, "satisfies target all_in_itself")):
        monkeypatch.setattr(search, "evaluate",
                            lambda formula, model, value=value: value)
        with pytest.raises(search.RecheckError, match=message):
            search._search(premises, target, config)


@pytest.mark.parametrize("workers", (1, 2))
def test_sizes_beyond_the_refutation_cost_no_memory(workers):
    # PSRSubstance |= A12 is refuted at 2 things, so a bound of a million
    # things must cost what a bound of four does: no size is listed
    # before the walk reaches it.
    tracemalloc.start()
    try:
        verdict = entails_bounded("PSRSubstance", "A12",
                                  SearchConfig(max_thing_size=10**6), workers)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict.describe() == "Refuted(size=2)"
    assert peak < 1 << 20


# ---------------------------------------------------------------------------
# padding with an inert thing
# ---------------------------------------------------------------------------

def _at_most_things(n, pred=None):
    """There are at most n things, or n of which ``pred`` holds: among any
    n + 1 (of which it holds) two are equal."""
    names = [f"y{i}" for i in range(n + 1)]
    formula = Or([Not(Pred(pred, (Var(a),))) for a in names if pred] +
                 [Eq(Var(a), Var(b))
                  for a, b in itertools.combinations(names, 2)])
    for name in reversed(names):
        formula = ForAll(name, Sort.THING, formula)
    return formula


def _distinct_worlds(n):
    names = [f"w{i}" for i in range(n)]
    formula = And([Not(Eq(Var(a), Var(b)))
                   for a, b in itertools.combinations(names, 2)])
    for name in reversed(names):
        formula = Exists(name, Sort.WORLD, formula)
    return formula


X, Y = Var("x"), Var("y")
ALL_EQUAL = ForAll("x", Sort.THING, ForAll("y", Sort.THING, Eq(X, Y)))
PADDING_CHECKS = [
    ("all_equal", ALL_EQUAL, False),
    # e = y is false for a y bound outside the padded ForAll ...
    ("one_thing", Exists("y", Sort.THING, ForAll("x", Sort.THING, Eq(X, Y))),
     False),
    # ... and unknown for one bound inside it, which may be e itself: this
    # is "every thing is in itself".
    ("inner_may_be_e", ForAll("x", Sort.THING, ForAll("y", Sort.THING, Or(
        [Not(Eq(X, Y)), Pred("inItself", (Y,))]))), False),
    ("A1_form", ForAll("x", Sort.THING, Or(
        [Pred("inItself", (X,)), Pred("inAnother", (X,))])), False),
    ("at_most_3", _at_most_things(3), False),
    ("distinct4", _distinct_things(4), True),
    ("none_in_itself", ForAll("x", Sort.THING, Not(Pred("inItself", (X,)))),
     True),
    ("no_cause_of_another", ForAll("x", Sort.THING, ForAll("y", Sort.THING, Or(
        [Eq(X, Y), Not(Pred("cause", (X, Y)))]))), True),
    # A ForAll over worlds is not padded: an inert world would falsify it.
    ("worlds_are_not_padded", ForAll("w", Sort.WORLD, Exists("x", Sort.THING,
        Pred("existsAt", (X, Var("w"))))), True),
]
# The check's leaves, each searched below as well.
PADDING_LEAVES = [
    ("reflexive", ForAll("x", Sort.THING, Eq(X, X)), True),
    ("top", ForAll("x", Sort.THING, TRUE), True),
    ("bottom", ForAll("x", Sort.THING, FALSE), False),
    # The check does not look for a witness: e = y is unknown.
    ("some_equal", ForAll("x", Sort.THING, Exists("y", Sort.THING, Eq(X, Y))),
     False),
    # A rebound name no longer denotes e, so the inner ForAll ranges over
    # every thing.  With one thing in another, the first conjunct says that
    # every thing is in itself, and at most 3 are: an inert fourth thing
    # falsifies it.
    ("rebound", And([
        ForAll("x", Sort.THING, Or([Pred("inItself", (X,)), ForAll(
            "x", Sort.THING, Not(Pred("inAnother", (X,))))])),
        Exists("x", Sort.THING, Pred("inAnother", (X,))),
        _at_most_things(3, "inItself")]), False),
]


@pytest.mark.parametrize(
    "formula, paddable",
    [check[1:] for check in PADDING_CHECKS + PADDING_LEAVES],
    ids=[check[0] for check in PADDING_CHECKS + PADDING_LEAVES])
def test_the_padding_check(formula, paddable):
    assert search._paddable(nnf(formula)) is paddable


def test_models_bounded_in_size_are_found_at_their_size():
    # Both fail the check, so every size is walked.  Had "at most 3"
    # passed, the walk would go from 2 things to an unsatisfiable 4.
    verdict = search._search([("all_equal", ALL_EQUAL)], ("false", FALSE),
                             SearchConfig(max_thing_size=3))
    assert verdict.describe() == "Refuted(size=1)"
    verdict = search._search([("at_most_3", _at_most_things(3)),
                              ("distinct3", _distinct_things(3))],
                             ("false", FALSE), SearchConfig(max_thing_size=6))
    assert verdict.describe() == "Refuted(size=3)"
    assert verdict.stats.sizes_exhausted == ((1, 0), (2, 0))
    assert verdict.stats.sizes_padded == ()


def test_the_padding_check_leaves_give_the_ascending_answers(monkeypatch):
    # Each with three distinct things, up to 8 things.  Had the rebound
    # formula passed the check, the walk would go from 2 things to 4 and 8,
    # past its only size, 3.
    cases = [[(name, formula), ("distinct3", _distinct_things(3))]
             for name, formula, _ in PADDING_LEAVES]
    config = SearchConfig(max_thing_size=8)
    padded = [search._search(premises, ("false", FALSE), config)
              for premises in cases]
    assert [v.describe() for v in padded] == [
        "Refuted(size=3)", "Refuted(size=3)", "NoCounterexampleUpTo(8)",
        "Refuted(size=3)", "Refuted(size=3)"]
    _ascending(monkeypatch)
    for verdict, premises in zip(padded, cases):
        _same_answers(verdict, search._search(premises, ("false", FALSE),
                                              config))


def _same_answers(padded, ascending):
    """The padded verdict is the ascending one, and the sizes it exhausted
    or settled by padding below its answer are the ones the ascending walk
    exhausted."""
    assert padded.describe() == ascending.describe()
    answer = (padded.thing_size, padded.world_size) if padded.is_refuted \
        else (padded.thing_bound + 1, 0)
    if padded.is_refuted:
        assert padded.model == ascending.model
    settled = {size for size in padded.stats.sizes_exhausted if size < answer}
    assert settled.isdisjoint(padded.stats.sizes_padded)
    assert sorted(settled.union(padded.stats.sizes_padded)) == \
        sorted(ascending.stats.sizes_exhausted)


def test_bisection_finds_the_least_refuting_thing_count(monkeypatch):
    # Four distinct things refute FALSE from 4 things on, and any n things
    # refute "at most n - 1 things".  The doubling walks 1, 2, 4 and the
    # bound, and bisects between the last count without a counter-model
    # and the first with one.  With two distinct worlds as well, each count
    # is refuted at 2 worlds only, so the world size below is solved too.
    cases = [([("distinct4", _distinct_things(4))], ("false", FALSE), 9, None)]
    cases += [([], ("at_most", _at_most_things(n - 1)), 7, None)
              for n in range(2, 7)]
    cases.append(([("two_worlds", _distinct_worlds(2))],
                  ("at_most", _at_most_things(4)), 7, 3))
    padded = [search._search(premises, target, SearchConfig(bound, worlds))
              for premises, target, bound, worlds in cases]
    assert [v.describe() for v in padded] == ["Refuted(size=4)"] + [
        f"Refuted(size={n})" for n in range(2, 7)] + \
        ["Refuted(size=5; worlds=2)"]
    assert padded[0].stats.sizes_exhausted == ((1, 0), (2, 0), (3, 0))
    assert padded[0].stats.sizes_padded == ()
    assert padded[5].stats.sizes_exhausted == ((1, 0), (2, 0), (4, 0), (5, 0))
    assert padded[5].stats.sizes_padded == ((3, 0),)
    assert padded[6].stats.sizes_exhausted == (
        (1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3), (4, 1), (4, 2),
        (4, 3), (7, 1), (5, 1))
    assert padded[6].stats.sizes_padded == ((3, 1), (3, 2), (3, 3))
    _ascending(monkeypatch)
    for verdict, (premises, target, bound, worlds) in zip(padded, cases):
        _same_answers(verdict, search._search(
            premises, target, SearchConfig(bound, worlds)))


def test_padding_gives_the_ascending_answers_on_the_sweep(monkeypatch):
    # Every axiom and bundle against every axiom at 5 things and 2 worlds,
    # with and without pruning: the same verdict, size and counter-model as
    # the walk over every size.
    targets = axiom_ids()
    selectors = [[axiom_id] for axiom_id in targets] + list(BUNDLES)
    configs = [SearchConfig(5, 2, pruning=pruning)
               for pruning in ("canonical", "none")]
    searches = [(premises, target, config) for config in configs
                for premises in selectors for target in targets]
    padded = [entails_bounded(*search_) for search_ in searches]
    assert sum(bool(v.stats.sizes_padded) for v in padded) == 70
    _ascending(monkeypatch)
    for verdict, search_ in zip(padded, searches):
        _same_answers(verdict, entails_bounded(*search_))


def test_every_bundled_direction_pads(monkeypatch):
    # Each one without a counter-model up to 8 things and 3 worlds settles
    # 3, 5, 6 and 7 things at every world size by padding, the modal
    # {A23, A18, A3m} |= A13 included, whose A18 quantifies over worlds.
    config = SearchConfig(max_thing_size=8, max_world_size=3)
    padded = [entails_bounded(premises, target, config)
              for premises, target, _ in BUNDLED_DIRECTIONS]
    surviving = [v for v in padded if not v.is_refuted]
    assert len(surviving) == 6
    for verdict in surviving:
        worlds = range(1, verdict.world_bound + 1) or (0,)
        assert verdict.stats.sizes_padded == tuple(
            (n, w) for n in (3, 5, 6, 7) for w in worlds)
    _ascending(monkeypatch)
    for verdict, (premises, target, _) in zip(padded, BUNDLED_DIRECTIONS):
        _same_answers(verdict, entails_bounded(premises, target, config))


def test_the_node_budget_runs_out_at_a_size_the_search_solves(monkeypatch):
    # PropV_allshared spends 168 assignments at 4 things, 240 at 5 and 528
    # at 8.  With 200 the padded search runs out at 8 things; the walk over
    # every size runs out at 5, a size padding settles.
    config = SearchConfig(max_thing_size=8, node_budget=200)
    for size in (8, 5):
        with pytest.raises(ResourceLimitExceeded) as info:
            entails_bounded("PSRSubstance", "PropV_allshared", config)
        assert (info.value.thing_size, info.value.world_size) == (size, 0)
        _ascending(monkeypatch)


# ---------------------------------------------------------------------------
# world-size handling
# ---------------------------------------------------------------------------

def test_world_bound_defaults_to_two_for_modal_axioms():
    verdict = entails_bounded(["A23", "A18", "A3m"], "A13",
                              SearchConfig(max_thing_size=2))
    assert verdict.world_bound == 2


def test_world_bound_is_zero_when_no_formula_mentions_world():
    # No world universe is searched, so none is reported, whatever the
    # configuration allows.
    verdict = entails_bounded(["A24"], "A14",
                              SearchConfig(max_thing_size=2, max_world_size=3))
    assert isinstance(verdict, NoCounterexampleUpTo)
    assert verdict.world_bound == 0
    assert verdict.describe() == "NoCounterexampleUpTo(2)"


def test_modal_axioms_with_zero_world_bound_rejected():
    with pytest.raises(SearchError, match="mention World"):
        entails_bounded(["A18"], "A13",
                        SearchConfig(max_thing_size=2, max_world_size=0))


def test_config_validation():
    with pytest.raises(SearchError):
        SearchConfig(max_thing_size=0)
    with pytest.raises(SearchError):
        SearchConfig(pruning="fancy")
    for budget in (0, -1):
        with pytest.raises(SearchError):
            SearchConfig(node_budget=budget)
    with pytest.raises(SearchError):
        SearchConfig(max_world_size=-1)


# ---------------------------------------------------------------------------
# determinism and monotonicity
# ---------------------------------------------------------------------------

def test_search_is_deterministic_across_runs():
    cases = [("PSRSubstance", "A12", SearchConfig(max_thing_size=3)),
             (("A25",), "A15", SearchConfig(max_thing_size=3)),
             (("A13", "A18", "A3m"), "A23",
              SearchConfig(max_thing_size=2, max_world_size=2))]
    for premises, target, config in cases:
        baseline = entails_bounded(premises, target, config)
        for _ in range(2):
            again = entails_bounded(premises, target, config)
            assert type(again) is type(baseline)
            if isinstance(baseline, Refuted):
                assert again.model == baseline.model
                assert again.thing_size == baseline.thing_size
            assert again.stats.candidates_visited == \
                baseline.stats.candidates_visited


def test_refutation_is_monotone_in_the_bound():
    models = []
    for bound in (2, 3, 4):
        verdict = entails_bounded("PSRSubstance", "A12",
                                  SearchConfig(max_thing_size=bound))
        assert isinstance(verdict, Refuted)
        models.append(verdict.model)
    assert models[0] == models[1] == models[2]


# ---------------------------------------------------------------------------
# pruning
# ---------------------------------------------------------------------------

# ---------------------------------------------------------------------------
# the solver against brute-force SAT and the DPLL oracle
# ---------------------------------------------------------------------------

class _RecordingSolver(Solver):
    """Records how many decision levels each learned clause undoes."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.jumps = []

    def _learn(self, lits):
        before = len(self.trail_lim)
        learned = super()._learn(lits)
        self.jumps.append(before - len(self.trail_lim))
        return learned


def test_solver_agrees_with_brute_force_on_random_clause_sets():
    # The exhaustion side of every verdict rests on the solver's UNSAT
    # answers, which the evaluator re-check cannot see; compare against
    # direct enumeration, including the least-solution contract.
    rng = random.Random(31337)
    cases = []
    for _ in range(300):
        nvars = rng.randint(1, 10)
        clauses = []
        for _ in range(rng.randint(0, 20)):
            width = rng.randint(1, min(3, nvars))
            chosen = rng.sample(range(1, nvars + 1), width)
            clauses.append(tuple(sorted(
                var if rng.random() < 0.5 else -var for var in chosen)))
        cases.append((nvars, clauses))
    # Edge inputs: no variables, the empty clause, and units on the last
    # variable, whose negative literal indexes the solver's lists from the
    # end, next to the positive one.
    cases += [(0, []), (0, [()]), (3, [(1, 2), ()]), (1, [(-1,)]), (1, [(1,)]),
              (4, [(4,)]), (4, [(-4,)]), (4, [(-4,), (4,)]),
              (4, [(-4, 1), (4,)]), (4, [(-4,), (-3, 4), (3, 4)]),
              (4, [(-1, 4), (1, 4), (-4, -2), (-4, 2)])]
    assert Solver(0, [], budget=1).solve() == []
    # Every assignment counts against the budget, decisions included.
    assert Solver(3, [], budget=3).solve() == [0, 0, 0]
    with pytest.raises(BudgetExceeded):
        Solver(3, [], budget=2).solve()
    for nvars, clauses in cases:
        def satisfied(bits):
            return all(any((lit > 0) == bits[abs(lit) - 1] for lit in clause)
                       for clause in clauses)

        solutions = [bits for bits in itertools.product((0, 1), repeat=nvars)
                     if satisfied(bits)]
        solver = Solver(nvars, clauses, budget=10**6)
        answer = solver.solve()
        if not solutions:
            assert answer is None
        else:
            assert answer is not None
            assert tuple(answer) == min(solutions)

    # Random 3-CNF at 20-40 variables near the satisfiability threshold
    # (4.26 clauses per variable), against the DPLL solver that learns
    # nothing: conflicts there are deep enough for learned clauses to
    # send the search back over more than one decision level.
    outcomes = set()
    learned = far_jumps = 0
    for _ in range(60):
        nvars = rng.randint(20, 40)
        clauses = [tuple(sorted(var if rng.random() < 0.5 else -var
                                for var in rng.sample(range(1, nvars + 1), 3)))
                   for _ in range(round(4.26 * nvars))]
        solver = _RecordingSolver(nvars, clauses, budget=10**7)
        answer = solver.solve()
        assert answer == dpll_least_solution(nvars, clauses)
        outcomes.add(answer is None)
        learned += len(solver.clauses) - len(clauses)
        far_jumps += sum(jump > 1 for jump in solver.jumps)
    assert outcomes == {True, False}
    assert learned > 0 and far_jumps > 0


def test_clauses_added_to_a_live_solver_give_the_least_model_so_far():
    # The lazy search adds premise instances to a solver that has already
    # found a model, and solves again.  After each batch of random clauses,
    # some over variables the solver has not seen, the answer must be the
    # least model of every clause so far, or None once they are
    # unsatisfiable, whatever the solver learnt before.
    rng = random.Random(4242)

    def random_clause(nvars, width):
        chosen = rng.sample(range(1, nvars + 1), min(width, nvars))
        return tuple(sorted(var if rng.random() < 0.5 else -var
                            for var in chosen))

    for case in range(300):
        nvars = rng.randint(0, 3)
        clauses = []
        solver = Solver(nvars, [], budget=10**6)
        for _ in range(rng.randint(1, 6)):
            nvars += rng.randint(0, 2)
            batch = [random_clause(nvars, rng.randint(1, 3))
                     for _ in range(rng.randint(0, 4)) if nvars]
            if rng.random() < 0.02:
                batch.append(())
            solver.add(batch, nvars)
            clauses += batch
            solutions = [bits for bits in itertools.product((0, 1),
                                                            repeat=nvars)
                         if all(any((lit > 0) == bits[abs(lit) - 1]
                                    for lit in clause) for clause in clauses)]
            expected = list(min(solutions)) if solutions else None
            assert solver.solve() == expected, (case, clauses)
    # Random 3-CNF near the threshold, added in batches, against the DPLL
    # oracle: the solver learns clauses before the later batches arrive.
    learned = 0
    outcomes = set()
    for _ in range(30):
        nvars = rng.randint(15, 25)
        solver = _RecordingSolver(nvars, [], budget=10**7)
        clauses = []
        for _ in range(4):
            batch = [random_clause(nvars, 3) for _ in range(nvars)]
            solver.add(batch, nvars)
            clauses += batch
            answer = solver.solve()
            assert answer == dpll_least_solution(nvars, clauses)
            outcomes.add(answer is None)
            if answer is None:
                break
        learned += len(solver.clauses) - len(clauses)
    assert outcomes == {True, False}
    assert learned > 0


BUNDLED_DIRECTIONS = [
    ("PSRSubstance", "A12", None),
    ("PSRSubstance", "PropV_allshared", None),
    (("A23", "A18", "A3m"), "A13", 2),
    (("A13", "A18", "A3m"), "A23", 2),
    ("PSREssencePerception", "A14", None),
    (("A14",), "A24", None),
    ("PSRPlenitude", "A15", None),
    (("A25",), "A15", None),
    (("A12", "A14"), "A22", None),
    (("A12",), "A22", None),
]


def test_pruning_soundness_at_small_sizes():
    # canonical pruning and no pruning must agree on refuted-vs-exhausted for
    # every bundled direction restricted to three things.
    for premises, target, worlds in BUNDLED_DIRECTIONS:
        verdicts = {}
        for pruning in ("canonical", "none"):
            verdicts[pruning] = entails_bounded(
                premises, target,
                SearchConfig(max_thing_size=3, max_world_size=worlds,
                             pruning=pruning))
        assert verdicts["canonical"].is_refuted == verdicts["none"].is_refuted, \
            (premises, target)
        if verdicts["canonical"].is_refuted:
            assert verdicts["canonical"].thing_size == verdicts["none"].thing_size
            assert verdicts["canonical"].model == verdicts["none"].model, \
                (premises, target)


def test_pruning_actually_prunes():
    config = SearchConfig(max_thing_size=3)
    pruned = entails_bounded("PSRSubstance", "PropV_allshared", config)
    unpruned = entails_bounded("PSRSubstance", "PropV_allshared",
                               SearchConfig(max_thing_size=3, pruning="none"))
    assert pruned.stats.pruned_subtrees > 0
    assert unpruned.stats.pruned_subtrees == 0
    assert pruned.stats.branches_total < unpruned.stats.branches_total


def _ascending(monkeypatch):
    """Make every search walk every size, the oracle of padding."""
    monkeypatch.setattr(search, "_paddable", lambda formula: False)


def test_no_solver_is_built_for_a_branch_whose_clauses_are_already_false(
        monkeypatch):
    # At 1, 2, 4 and 8 things, 4 of PropV_allshared's 7 branches ground to
    # the empty clause; they count as branches with 0 steps, without a
    # solver.  Walking every size up to 8 things, 8 of 15 do.
    built = []

    class CountingSolver(search.Solver):
        def __init__(self, *args, **kwargs):
            built.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(search, "Solver", CountingSolver)
    for branches, solvers in ((7, 3), (15, 7)):
        built.clear()
        verdict = entails_bounded("PSRSubstance", "PropV_allshared",
                                  SearchConfig(max_thing_size=8))
        assert isinstance(verdict, NoCounterexampleUpTo)
        assert verdict.stats.branches_total == branches
        assert len(built) == solvers
        _ascending(monkeypatch)


def test_a25_self_entailment_needs_fewer_decisions_than_the_distributed_cnf():
    # The clause-product grounding made 7,502 decisions here; definitional
    # grounding without clause learning made 19,898.
    verdict = entails_bounded(["A25"], "A25",
                              SearchConfig(max_thing_size=3, max_world_size=2))
    assert isinstance(verdict, NoCounterexampleUpTo)
    assert verdict.stats.candidates_visited < 7_502


def test_propv_allshared_at_sixteen_things_pins_the_counters(monkeypatch):
    # A disjunction grounds to one clause of aux literals.  Keeping its
    # widest part inline, with the other parts' literals merged into each of
    # its clauses, made 2,040 decisions and 389,524 propagations here.
    # Padding solves 1, 2, 4, 8 and 16 things; the walk over every size
    # is pinned too.  Every branch the search solves is refuted by the A22
    # instances at its two named things, so a size grounds the 4 instances
    # at those things (2 at 1 thing).
    support = ("inItself", "intellectPerceivesAsEssence", "perSeConceived")
    verdict = entails_bounded("PSRSubstance", "PropV_allshared",
                              SearchConfig(max_thing_size=16))
    assert isinstance(verdict, NoCounterexampleUpTo)
    assert verdict.stats == SearchStats(
        support=support, candidates_visited=52, propagations=2_580,
        conflicts=34, pruned_subtrees=332, branches_total=9,
        premise_instances=16,
        sizes_exhausted=((1, 0), (2, 0), (4, 0), (8, 0), (16, 0)),
        sizes_padded=tuple((n, 0) for n in (3, 5, 6, 7, *range(9, 16))))
    _ascending(monkeypatch)
    verdict = entails_bounded("PSRSubstance", "PropV_allshared",
                              SearchConfig(max_thing_size=16))
    assert verdict.stats == SearchStats(
        support=support, candidates_visited=240, propagations=11_400,
        conflicts=150, pruned_subtrees=1_465, branches_total=31,
        premise_instances=60,
        sizes_exhausted=tuple((n, 0) for n in range(1, 17)))


def _branch_inputs(premises, target, n_things, n_worlds):
    """What the search hands each orbit-representative branch's solver at
    one size: the variable count and the clauses."""
    premise_formulas = [entry.formula for entry in axiom_set(premises)]
    target_formula = axiom_set([target])[0].formula
    things = tuple(f"t{i}" for i in range(n_things))
    worlds = tuple(f"w{i}" for i in range(n_worlds))
    grounder = Grounder(predicate_profiles(premise_formulas + [target_formula]),
                        things, worlds)
    sigma = [clause for formula in premise_formulas
             for clause in compile_formula(nnf(formula))(grounder)()]
    prefix, matrix = quantifier_prefix(nnf(Not(target_formula)), Exists)
    matrix = compile_formula(matrix, prefix)(grounder)
    sorts = [sort for _, sort in prefix]
    universes = [n_things if sort is Sort.THING else n_worlds for sort in sorts]
    for combo in itertools.product(*map(range, universes)):
        if not _is_orbit_representative(combo, sorts):
            continue
        branch = matrix(combo)
        clauses = sigma + branch + definition_clauses(grounder.definitions)
        yield grounder.natoms + len(grounder.definitions), clauses


def test_generator_pruning_matches_full_group_and_no_pruning():
    # Orbit skipping is the search's only pruning, so the solver of every
    # branch it keeps must return the least solution, the one the DPLL
    # oracle finds by plain enumeration without learning.
    solved = unsat = 0
    for premises, target, worlds in BUNDLED_DIRECTIONS:
        for n_things in (1, 2, 3):
            for n_worlds in range(1, worlds + 1) if worlds else (0,):
                for nvars, clauses in _branch_inputs(
                        premises, target, n_things, n_worlds):
                    solution = Solver(nvars, clauses, 10**8).solve()
                    assert solution == dpll_least_solution(nvars, clauses), \
                        (premises, target, n_things, n_worlds)
                    solved += solution is not None
                    unsat += solution is None
    assert solved > 0 and unsat > 0


def _grounding_calls(monkeypatch, premises, target, config):
    """The verdict, and for each clause grounder the search made (one per
    size it solved) the calls of its compiled formulas in order, as
    (formula, bound variables, environment, clauses)."""
    calls = {}
    compile_formula = search.compile_formula

    def recording(formula, bound=()):
        ground_at = compile_formula(formula, bound)

        def at(grounder):
            fn = ground_at(grounder)
            if type(grounder) is not Grounder:
                # The violation check's truth values.
                return fn

            def call(env=()):
                clauses = fn(env)
                calls.setdefault(grounder, []).append(
                    (formula, bound, env, clauses))
                return clauses
            return call
        return at

    monkeypatch.setattr(search, "compile_formula", recording)
    return entails_bounded(premises, target, config), calls


def _assert_instances_match_the_reference(monkeypatch, premises, target,
                                          config):
    """The number of premise instances the search ground, after checking
    every grounding call of each size against the tree-walking builder
    replaying the same calls, and ``ground`` at each size against the
    builder's full grounding of each premise."""
    verdict, calls = _grounding_calls(monkeypatch, premises, target, config)
    sizes = verdict.stats.sizes_exhausted
    if verdict.is_refuted:
        sizes += ((verdict.thing_size, verdict.world_size),)
    assert len(calls) == len(sizes), (premises, target)
    premise_formulas = [entry.formula for entry in axiom_set(premises)]
    target_formula = axiom_set([target])[0].formula
    support = verdict.stats.support
    profiles = predicate_profiles(premise_formulas + [target_formula],
                                  support)
    matrix = quantifier_prefix(nnf(Not(target_formula)), Exists)[1]
    instances = 0
    for grounder, made in calls.items():
        things = tuple(f"t{i}" for i in range(grounder.size[Sort.THING]))
        worlds = tuple(f"w{i}" for i in range(grounder.size[Sort.WORLD]))
        universe = {Sort.THING: things, Sort.WORLD: worlds}
        atoms = atom_space(profiles, things, worlds)
        expected, definitions = reference_grounding(
            [(formula, {name: universe[sort][i]
                        for (name, sort), i in zip(bound, env)})
             for formula, bound, env, _ in made], things, worlds, atoms)
        assert [clauses for *_, clauses in made] == expected, \
            (premises, target, len(things), len(worlds))
        assert grounder.definitions == definitions
        for *_, clauses in made:
            assert_clause_format(clauses, len(atoms))
        instances += sum(formula != matrix for formula, *_ in made)
        for formula in premise_formulas:
            assert ground(formula, things, worlds, support) == \
                reference_ground(formula, things, worlds, support)
    # Each instance is ground once per size.
    assert instances == verdict.stats.premise_instances
    return instances


@pytest.mark.parametrize("pruning", ["canonical", "none"])
def test_solver_inputs_match_the_tree_walking_grounder(monkeypatch, pruning):
    # The compiled grounder must give every premise instance and branch
    # matrix exactly the clauses the tree-walking one does, in the same
    # order and with the same aux numbering, so the least solution and
    # every counter stay the same.  Both give them in the solver's one
    # format: sorted signed literals.
    instances = 0
    for premises, target, worlds in BUNDLED_DIRECTIONS:
        instances += _assert_instances_match_the_reference(
            monkeypatch, premises, target,
            SearchConfig(max_thing_size=3, max_world_size=worlds,
                         pruning=pruning))
    assert instances > 0


def test_solver_inputs_match_the_tree_walking_grounder_at_six_things(monkeypatch):
    assert _assert_instances_match_the_reference(
        monkeypatch, "PSRSubstance", "PropV_allshared",
        SearchConfig(max_thing_size=6)) > 0


def test_the_sweep_keeps_its_verdicts_and_counter_models():
    # Every axiom and bundle against every axiom, up to 3 things and 2
    # worlds, with and without pruning (tests/sweep.py).  The digest covers
    # each verdict and its serialised counter-model.  A change to the
    # search engine must leave it as it is.  The counter digest covers
    # each search's counters, so a grounder that reorders clauses or
    # renumbers aux variables, or a search that holds other premise
    # instances, changes it even where the verdicts hold.
    searches, refuted, verdicts, counters = sweep()
    assert (searches, refuted) == (1134, 1050)
    assert verdicts == "6e7d2bc820584b54b09c1846dbe91c41"
    assert counters == "aa38f918134ed19eb98d3a1523558a83"


# ---------------------------------------------------------------------------
# grounding fidelity of the search representation
# ---------------------------------------------------------------------------

def test_random_tables_satisfy_constraints_iff_evaluator_agrees():
    # Each direction among the first six bundled ones that has no worlds:
    # some table assignment of the support predicates at 2 things satisfies
    # the premises and not the target under the evaluator (by exhaustive
    # enumeration) iff the search finds a counter-model up to 2 things.
    # These directions mention only A22's predicates, and the evaluator
    # reads no other table, so enumerating more predicates would only
    # repeat each assignment's verdict.
    for premises, target, worlds in BUNDLED_DIRECTIONS[:6]:
        if worlds:
            continue
        formulas = [entry.formula for entry in axiom_set(premises)]
        mentioned = set().union(*map(predicates,
                                     formulas + [axiom(target).formula]))
        assert mentioned <= set(A22_SUPPORT), (premises, target)
        oracle = countermodel_exists(premises, target, A22_SUPPORT, 2)
        engine = find_countermodel(premises, target, SearchConfig(max_thing_size=2))
        assert oracle == (engine is not None), (premises, target)


# ---------------------------------------------------------------------------
# node budget
# ---------------------------------------------------------------------------

def test_node_budget_reports_resource_limit_distinctly():
    with pytest.raises(ResourceLimitExceeded):
        entails_bounded("PSRSubstance", "PropV_allshared",
                        SearchConfig(max_thing_size=4, node_budget=5))


def test_budget_does_not_suppress_found_refutations():
    # Plenty of budget at the refuting size; the verdict is still sound.
    verdict = entails_bounded("PSRSubstance", "A12",
                              SearchConfig(max_thing_size=4, node_budget=10_000))
    assert isinstance(verdict, Refuted)


def test_node_budget_is_shared_by_the_branches_of_a_size():
    # Size 3 spends 600 assignments (aux ones included) over five branches,
    # none of which alone spends more than 222, and no smaller size spends
    # 400: only a budget shared by the branches runs out.
    with pytest.raises(ResourceLimitExceeded) as info:
        entails_bounded("PSRPlenitude", "A15",
                        SearchConfig(max_thing_size=3, node_budget=400))
    assert info.value.thing_size == 3


# ---------------------------------------------------------------------------
# canonical form
# ---------------------------------------------------------------------------

def test_canonical_form_identifies_swapped_isomorphs(a12):
    model = a12.model
    swap = {"s1": "s2", "s2": "s1"}
    permuted = FiniteModel(
        model.name, model.things, model.worlds,
        {pred: {tuple(swap.get(x, x) for x in row) for row in table}
         for pred, table in model.tables.items()})
    assert permuted != model
    assert canonical_form(permuted) == canonical_form(model)


def test_canonical_form_rejects_a_row_outside_its_universes():
    # A label in neither universe; and a row that puts a world where the
    # table's other row has a thing, whichever row sets the column sorts.
    for tables, message in (
            ({"inItself": {("z",)}}, "'z' is in neither universe"),
            ({"existsAt": {("x", "w"), ("w", "y")}},
             "outside its column's universe")):
        with pytest.raises(LogicError, match=message):
            canonical_form(FiniteModel("m", ("x", "y"), ("w",), tables))


def test_canonical_form_single_element_fixed_point():
    model = FiniteModel("m", ("x",), tables={"inItself": {"x"}})
    assert canonical_form(model) == model


def test_canonical_form_idempotent_on_random_models():
    rng = random.Random(20260811)
    support = ("inItself", "intellectPerceivesAsEssence")
    for _ in range(1000):
        model = random_model(rng, 3, support)
        once = canonical_form(model)
        assert canonical_form(once) == once


def test_canonical_form_invariant_under_random_relabelings():
    # The full signature with worlds has every sort pattern, ternary
    # causeAt included, and relabels the worlds as well as the things.
    rng = random.Random(5)
    for support, n_things, n_worlds, count in (
            (("inItself", "intellectPerceivesAsEssence"), 3, 0, 200),
            (SIGNATURE, 3, 2, 50), (SIGNATURE, 4, 3, 20)):
        for _ in range(count):
            model = random_model(rng, n_things, support, n_worlds)
            mapping = {}
            for universe in (model.things, model.worlds):
                image = list(universe)
                rng.shuffle(image)
                mapping.update(zip(universe, image))
            permuted = FiniteModel(
                model.name, model.things, model.worlds,
                {pred: {tuple(mapping[x] for x in row) for row in table}
                 for pred, table in model.tables.items()})
            assert canonical_form(permuted) == canonical_form(model)


def test_least_relabeling_matches_the_brute_force_oracle():
    # Sparse, even and dense tables, plus all-empty and all-full ones,
    # under which every relabeling ties on every block.
    rng = random.Random(20261018)
    profiles = {name: ETHICA_SIGNATURE.declaration(name).argument_sorts
                for name in SIGNATURE}
    for n_things in range(1, 6):
        for n_worlds in range(3):
            things = tuple(f"t{i}" for i in range(n_things))
            worlds = tuple(f"w{i}" for i in range(n_worlds))
            atoms = atom_space(profiles, things, worlds)
            cases = [bytes(len(atoms)), bytes([1] * len(atoms))]
            for density in (0.1, 0.5, 0.9):
                cases += [bytes([rng.random() < density for _ in atoms])
                          for _ in range(2)]
            for bits in cases:
                assert _least_relabeling(profiles, bits, n_things, n_worlds) \
                    == bytes(least_relabeling(atoms, bits, things, worlds)), \
                    (n_things, n_worlds, bits)


# ---------------------------------------------------------------------------
# the naive thoroughgoing-distinguishability check
# ---------------------------------------------------------------------------

def test_naive_psr_true_on_corpus_models(a12, a15):
    ok, witnesses = check_naive_psr(a12.model)
    assert ok
    assert ("s1", "s2", ("s1",)) in witnesses
    ok, _ = check_naive_psr(a15.model)
    assert ok


def test_naive_psr_vacuous_on_single_element_model():
    ok, witnesses = check_naive_psr(FiniteModel("m", ("x",)))
    assert ok
    assert witnesses == ()


def test_naive_psr_witnesses_against_subset_enumeration():
    # Second-order oracle: for every ordered pair, some subset of the things
    # separates the pair; the returned singleton witness must be among them.
    rng = random.Random(13)
    for _ in range(30):
        model = random_model(rng, rng.randint(2, 4), ("inItself",))
        ok, witnesses = check_naive_psr(model)
        assert ok
        by_pair = {(x, y): subset for x, y, subset in witnesses}
        for x, y in itertools.permutations(model.things, 2):
            separating = [
                frozenset(candidate)
                for size in range(len(model.things) + 1)
                for candidate in itertools.combinations(model.things, size)
                if x in candidate and y not in candidate]
            assert frozenset(by_pair[(x, y)]) in separating


def test_naive_psr_on_thousand_seeded_models():
    rng = random.Random(777)
    for _ in range(1000):
        model = random_model(rng, rng.randint(1, 4),
                             ("inItself", "intellectPerceivesAsEssence"))
        ok, _ = check_naive_psr(model)
        assert ok
