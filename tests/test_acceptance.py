"""Acceptance criteria, one test per criterion, each printing a PASS line.

Every tolerance and runtime bound is pinned here; a criterion that cannot be
met fails loudly rather than being weakened.
"""

import itertools
import random
import time

from ethica.cli import main
from ethica.corpus import (a12_counter_model, a15_counter_model,
                           falsifying_witnesses, verify)
from ethica.grounding import evaluate_via_grounding
from ethica.logic import (And, Elem, FiniteModel, ForAll, Not, Or, Pred, Sort,
                          Var, evaluate)
from ethica.registry import axiom, is_god
from ethica.search import (NoCounterexampleUpTo, Refuted, SearchConfig,
                           canonical_form, check_naive_psr, entails_bounded,
                           find_countermodel)
from ethica.experiments import PROBE_PREMISES, conjecture_probe_full_register

from oracles import countermodel_exists, random_model, refutes

T = Sort.THING


def _cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def _report(number, text):
    print(f"PASS criterion {number}: {text}")


def test_criterion_01_corpus_exactness(capsys):
    started = time.monotonic()
    a12 = a12_counter_model()
    a15 = a15_counter_model()

    subs = frozenset({("s1",), ("s2",)})
    for pred in ("inItself", "perSeConceived", "involvesExistence",
                 "natureRequiresExistence", "absolutelyInfinite"):
        assert a12.model.tables[pred] == subs
    assert a12.model.tables["intellectPerceivesAsEssence"] == frozenset({
        ("s1", "s1"), ("s1", "a_shared"), ("s1", "a_only_s1"),
        ("s2", "s2"), ("s2", "a_shared")})
    assert a12.model.tables["expressesEternalEssence"] == frozenset(
        itertools.product(a12.model.things, repeat=2))
    assert evaluate(axiom("A22").formula, a12.model) is True
    assert evaluate(axiom("A12").formula, a12.model) is False

    gods = frozenset({("g1",), ("g2",)})
    for pred in ("inItself", "perSeConceived", "absolutelyInfinite"):
        assert a15.model.tables[pred] == gods
    assert a15.model.tables["intellectPerceivesAsEssence"] == frozenset({
        ("g1", "g1"), ("g2", "g2"), ("g2", "attr_g2")})
    assert evaluate(is_god(Elem(T, "g1")), a15.model) is True
    assert evaluate(is_god(Elem(T, "g2")), a15.model) is True
    assert evaluate(axiom("A25").formula, a15.model) is True
    assert evaluate(axiom("A15").formula, a15.model) is False
    assert ("g1", "g2", "attr_g2") in falsifying_witnesses(
        axiom("A15").formula, a15.model)

    elapsed = time.monotonic() - started
    assert elapsed < 1.0, f"corpus unit suite took {elapsed:.2f}s"
    _report(1, f"corpus models reproduce every stated truth value "
               f"({elapsed * 1000:.0f} ms)")


def test_criterion_02_a12_non_derivation(capsys):
    started = time.monotonic()
    code, out = _cli(capsys, "verify", "corpus:A12CounterModel",
                     "--premises", "PSRSubstance", "--target", "A12")
    assert code == 0
    assert "confirmed" in out
    assert "(s1, s2, a_shared)" in out

    code, out = _cli(capsys, "search", "--premises", "PSRSubstance",
                     "--target", "A12", "--max-things", "4")
    assert code == 0
    assert "Refuted(size=2)" in out

    # minimal size by exhaustive ascent, against the enumeration oracle
    support = ("inItself", "perSeConceived", "intellectPerceivesAsEssence")
    assert not countermodel_exists(["A22"], "A12", support, 1)
    assert countermodel_exists(["A22"], "A12", support, 2)
    model, size = find_countermodel("PSRSubstance", "A12",
                                    SearchConfig(max_thing_size=4))
    assert size == 2
    assert verify(model, "PSRSubstance", "A12").confirmed

    elapsed = time.monotonic() - started
    assert elapsed < 10.0
    _report(2, f"A12 independent of PSRSubstance; minimal counter-model size 2 "
               f"({elapsed:.2f} s)")


def test_criterion_03_partial_reduction(capsys):
    started = time.monotonic()
    code, out = _cli(capsys, "entail", "--premises", "PSRSubstance",
                     "--target", "PropV_allshared", "--max-things", "4")
    assert code == 0
    assert "NoCounterexampleUpTo(4)" in out
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    _report(3, f"all-shared-attribute form survives to bound 4 ({elapsed:.2f} s)")


def test_criterion_04_a15_decomposition(capsys):
    started = time.monotonic()
    code, out = _cli(capsys, "entail", "--premises", "PSRPlenitude",
                     "--target", "A15", "--max-things", "3")
    assert code == 0
    assert "NoCounterexampleUpTo(3)" in out

    verdict = entails_bounded(["A25"], "A15", SearchConfig(max_thing_size=3))
    assert isinstance(verdict, Refuted)
    assert verdict.thing_size <= 3
    assert refutes(verdict.model, ["A25"], "A15")
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    _report(4, f"plenitude+uniqueness entail A15 to bound 3, plenitude alone "
               f"refuted at size {verdict.thing_size} ({elapsed:.2f} s)")


def test_criterion_05_a12_a14_entail_a22():
    verdict = entails_bounded(["A12", "A14"], "A22", SearchConfig(max_thing_size=4))
    assert isinstance(verdict, NoCounterexampleUpTo)
    assert verdict.thing_bound == 4

    refutation = entails_bounded(["A12"], "A22", SearchConfig(max_thing_size=2))
    assert isinstance(refutation, Refuted)
    assert refutes(refutation.model, ["A12"], "A22")
    _report(5, "A12+A14 entail A22 to bound 4; A12 alone refuted at size 2")


def test_criterion_06_a14_a24_equal_strength():
    forward = entails_bounded(["A24"], "A14", SearchConfig(max_thing_size=4))
    backward = entails_bounded(["A14"], "A24", SearchConfig(max_thing_size=4))
    assert isinstance(forward, NoCounterexampleUpTo) and forward.thing_bound == 4
    assert isinstance(backward, NoCounterexampleUpTo) and backward.thing_bound == 4
    _report(6, "A14 and A24 entail each other to bound 4")


def test_criterion_07_a13_forward_and_open_converse():
    forward = entails_bounded(["A23", "A18", "A3m"], "A13",
                              SearchConfig(max_thing_size=3, max_world_size=2))
    assert isinstance(forward, NoCounterexampleUpTo)
    assert forward.thing_bound == 3 and forward.world_bound == 2

    converse = entails_bounded(["A13", "A18", "A3m"], "A23",
                               SearchConfig(max_thing_size=3, max_world_size=2))
    assert isinstance(converse, (Refuted, NoCounterexampleUpTo))
    kind = converse.describe()
    _report(7, f"self-cause+bridges entail A13 (things 3, worlds 2); "
               f"open converse reports {kind}")


def test_criterion_08_naive_psr_triviality():
    for member in (a12_counter_model(), a15_counter_model()):
        ok, witnesses = check_naive_psr(member.model)
        assert ok
        if len(member.model.things) > 1:
            assert witnesses
    rng = random.Random(20260808)
    for _ in range(1000):
        model = random_model(rng, rng.randint(1, 4),
                             ("inItself", "intellectPerceivesAsEssence"))
        ok, _ = check_naive_psr(model)
        assert ok
    _report(8, "naive thoroughgoing distinguishability true on corpus models "
               "and 1000 seeded random models")


def test_criterion_09_table_reproduction(capsys):
    code, first = _cli(capsys, "table")
    assert code == 0
    code, second = _cli(capsys, "table")
    assert code == 0
    assert first == second, "table output must be byte-identical across runs"

    lines = first.strip().splitlines()
    assert "Partial reduction; full irreducible" in lines[2]
    assert "Equal-strength translation" in lines[3]
    assert "Equal-strength translation" in lines[4]
    assert "trivial redescription" in lines[4]
    assert "Decomposition only" in lines[5]
    for line in lines[2:]:
        assert "bound things <=" in line
    _report(9, "reducibility table reproduces all four outcome labels with "
               "bound caveats, byte-identical across runs")


def test_criterion_10_full_register_probe():
    verdict = conjecture_probe_full_register(SearchConfig(max_thing_size=3))
    assert isinstance(verdict, (Refuted, NoCounterexampleUpTo))
    if isinstance(verdict, Refuted):
        report = verify(verdict.model, list(PROBE_PREMISES), "A12")
        assert report.confirmed
        note = f"refuted at size {verdict.thing_size}, verifier-confirmed"
    else:
        note = verdict.describe()
    # the hand construction predicts a refutation within the bound
    hand = FiniteModel(
        "hand", ("s1", "s2", "a"),
        tables={"inItself": {"s1", "s2", "a"},
                "perSeConceived": {"s1", "s2", "a"},
                "intellectPerceivesAsEssence": {
                    ("s1", "s1"), ("s1", "a"), ("s2", "s2"),
                    ("s2", "a"), ("a", "a")}})
    assert refutes(hand, list(PROBE_PREMISES), "A12")
    assert isinstance(verdict, Refuted)
    _report(10, f"full-register probe terminates definitely: {note}")


def test_criterion_11_property_suites(capsys):
    rng = random.Random(11)

    # evaluator laws on seeded random formulas over seeded random models
    support = ("inItself", "inAnother", "limitedBy")
    x = Var("x")
    for _ in range(200):
        model = random_model(rng, rng.randint(1, 3), support)
        element = Elem(T, rng.choice(model.things))
        phi = Or((Pred("inItself", (element,)),
                  Pred("limitedBy", (element, element))))
        psi = Pred("inAnother", (element,))
        assert evaluate(Not(Not(phi)), model) == evaluate(phi, model)
        assert evaluate(Not(And((phi, psi))), model) == \
            evaluate(Or((Not(phi), Not(psi))), model)
        body = Pred("inItself", (x,))
        pointwise = [evaluate(body, model, {"x": (T, e)}) for e in model.things]
        assert evaluate(ForAll("x", T, body), model) == all(pointwise)

    # grounder/evaluator agreement on every worldless registry axiom
    from ethica.logic import mentions_world
    from ethica.registry import axiom_ids
    for member in (a12_counter_model(), a15_counter_model()):
        for axiom_id in axiom_ids():
            formula = axiom(axiom_id).formula
            if mentions_world(formula):
                continue
            assert evaluate_via_grounding(formula, member.model) == \
                evaluate(formula, member.model)

    # canonical form idempotence and isomorphism invariance
    for _ in range(200):
        model = random_model(rng, 3, ("inItself", "intellectPerceivesAsEssence"))
        once = canonical_form(model)
        assert canonical_form(once) == once
        perm = list(model.things)
        rng.shuffle(perm)
        mapping = dict(zip(model.things, perm))
        permuted = FiniteModel(
            model.name, model.things, model.worlds,
            {pred: {tuple(mapping[e] for e in row) for row in table}
             for pred, table in model.tables.items()})
        assert canonical_form(permuted) == canonical_form(model)

    # pruning soundness at sizes <= 3
    for premises, target, worlds in (
            ("PSRSubstance", "A12", None),
            ("PSRSubstance", "PropV_allshared", None),
            (("A25",), "A15", None),
            ("PSRPlenitude", "A15", None),
            (("A23", "A18", "A3m"), "A13", 2)):
        canonical = entails_bounded(premises, target, SearchConfig(
            max_thing_size=3, max_world_size=worlds, pruning="canonical"))
        unpruned = entails_bounded(premises, target, SearchConfig(
            max_thing_size=3, max_world_size=worlds, pruning="none"))
        assert canonical.is_refuted == unpruned.is_refuted

    # determinism across one and many workers
    single = _cli(capsys, "entail", "--premises", "PSRSubstance", "--target",
                  "A12", "--max-things", "3", "--workers", "1")
    multi = _cli(capsys, "entail", "--premises", "PSRSubstance", "--target",
                 "A12", "--max-things", "3", "--workers", "4")
    assert single == multi

    _report(11, "evaluator laws, grounder agreement, canonical-form laws, "
                "pruning soundness, and worker determinism all hold")


def test_criterion_12_a15_decomposition_at_four_things(capsys):
    # The bundled A15_demote row stops at bound 3; the same direction must
    # also reach bound 4 within the bound used for size-4 runs, and the
    # unpruned search must agree with it.
    started = time.monotonic()
    code, out = _cli(capsys, "entail", "--premises", "PSRPlenitude",
                     "--target", "A15", "--max-things", "4")
    assert code == 0
    assert "NoCounterexampleUpTo(4)" in out
    code, out = _cli(capsys, "entail", "--premises", "PSRPlenitude",
                     "--target", "A15", "--max-things", "4", "--no-prune")
    assert code == 0
    assert "NoCounterexampleUpTo(4)" in out
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    _report(12, f"plenitude+uniqueness entail A15 to bound 4, with and "
                f"without pruning ({elapsed:.2f} s)")
