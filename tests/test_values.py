"""Value classes: equality, hashing, immutability, copies and repr of the
classes built on ``logic.Value``, and the annotations of every public name."""

import copy
import importlib
import inspect
import pickle
import pkgutil

import pytest

import ethica
from ethica.corpus import CorpusModel, VerificationReport, a12_counter_model, verify
from ethica.experiments import (CorpusCheck, Direction, ExperimentResult,
                                ExperimentSpec, OutcomeClass, ReducibilityTable)
from ethica.grounding import GroundConstraintSet, ground
from ethica.logic import (FALSE, TRUE, And, Elem, Eq, Exists, FalseF,
                          FiniteModel, ForAll, Iff, Implies, Not, Or, Pred,
                          PredicateDecl, Sort, TrueF, Value, Var)
from ethica.registry import AxiomEntry, axiom
from ethica.search import (NoCounterexampleUpTo, Refuted, SearchConfig,
                           SearchStats)

T = Sort.THING
P = Pred("inItself", (Var("x"),))


def _model():
    return FiniteModel("m", ("t0", "t1"), ("w0",), {"inItself": ["t0"]})


def _spec():
    return ExperimentSpec("A14_demote", Direction("PSREssencePerception", "A14"),
                          SearchConfig(), backward=Direction(("A14",), "A24"),
                          expectation={"forward": "no_counterexample"})


def _result():
    return ExperimentResult(_spec(), {}, OutcomeClass.FULL_REDUCTION, ("c",),
                            (), None, ())


#: One factory per value class; each call builds a new, equal value.
FROZEN = {
    Var: lambda: Var("x"),
    Elem: lambda: Elem(T, "t0"),
    TrueF: TrueF,
    FalseF: FalseF,
    Pred: lambda: Pred("inItself", [Var("x")]),
    Eq: lambda: Eq(Var("x"), Elem(T, "t0")),
    Not: lambda: Not(P),
    And: lambda: And([P, TRUE]),
    Or: lambda: Or([P, FALSE]),
    Implies: lambda: Implies(P, P),
    Iff: lambda: Iff(P, TRUE),
    ForAll: lambda: ForAll("x", T, P),
    Exists: lambda: Exists("x", T, P),
    PredicateDecl: lambda: PredicateDecl("limitedBy", [T, T]),
    FiniteModel: _model,
    AxiomEntry: lambda: axiom("A1"),
    GroundConstraintSet: lambda: ground(axiom("A1").formula, ("t0", "t1")),
    SearchConfig: lambda: SearchConfig(max_thing_size=3, max_world_size=1),
    Refuted: lambda: Refuted(_model(), 2, 1, SearchStats()),
    NoCounterexampleUpTo: lambda: NoCounterexampleUpTo(4, 0, SearchStats()),
    CorpusModel: lambda: CorpusModel("m", _model(), ("F1",)),
    VerificationReport: lambda: verify(a12_counter_model(), "PSRSubstance", "A12"),
    Direction: lambda: Direction(("A12", "A14"), "A22"),
    CorpusCheck: lambda: CorpusCheck("A15CounterModel", ("A25",), "A15"),
    ExperimentSpec: _spec,
    ReducibilityTable: lambda: ReducibilityTable((_result(),)),
    SearchStats: lambda: SearchStats(support=("inItself",), conflicts=3),
    ExperimentResult: _result,
}


def _fields(value):
    return tuple(getattr(value, name) for name in type(value).__slots__)


@pytest.mark.parametrize("cls", list(FROZEN), ids=lambda cls: cls.__name__)
def test_equality_compares_fields_of_the_same_class_only(cls):
    first, second = FROZEN[cls](), FROZEN[cls]()
    assert type(first) is cls
    assert first == second and not first != second
    assert first.__eq__(object()) is NotImplemented
    assert first != _fields(first)


def test_equal_fields_in_another_class_are_not_equal():
    assert And((P,)).__eq__(Or((P,))) is NotImplemented
    assert And((P,)) != Or((P,))
    assert Implies(P, P) != Iff(P, P)
    assert ForAll("x", T, P) != Exists("x", T, P)
    assert Var("x") != Var("y")
    assert SearchConfig() != SearchConfig(pruning="none")


@pytest.mark.parametrize("cls", list(FROZEN), ids=lambda cls: cls.__name__)
def test_frozen_values_hash_their_fields_and_refuse_assignment(cls):
    value = FROZEN[cls]()
    assert cls.__hash__ is not None
    assert hash(value) == hash(_fields(value)) == hash(FROZEN[cls]())
    name = (cls.__slots__ or ("anything",))[0]
    with pytest.raises(AttributeError):
        setattr(value, name, None)
    with pytest.raises(AttributeError):
        delattr(value, name)
    assert _fields(value) == _fields(FROZEN[cls]())


def test_mapping_fields_refuse_mutation():
    model, spec, result = _model(), _spec(), _result()
    mutations = [
        lambda: model.tables.__setitem__("inItself", frozenset()),
        lambda: model.tables.__delitem__("inItself"),
        lambda: model.tables.update(perSeConceived=frozenset()),
        lambda: model.tables.setdefault("perSeConceived", frozenset()),
        lambda: model.tables.pop("inItself"),
        lambda: model.tables.popitem(),
        model.tables.clear,
        lambda: spec.expectation.__setitem__("forward", "refuted"),
        lambda: spec.expectation.__ior__({"forward": "refuted"}),
        lambda: result.verdicts.__setitem__("forward", None),
    ]
    for mutate in mutations:
        with pytest.raises(TypeError):
            mutate()
    assert model == _model() and spec == _spec() and result == _result()
    assert dict(model.tables) == {"inItself": frozenset({("t0",)})}
    assert spec.expectation == {"forward": "no_counterexample"}
    assert hash(model.tables) == hash(_model().tables)


@pytest.mark.parametrize("cls", list(FROZEN), ids=lambda cls: cls.__name__)
def test_values_survive_copy_and_pickle(cls):
    value = FROZEN[cls]()
    for clone in (copy.copy(value), copy.deepcopy(value),
                  pickle.loads(pickle.dumps(value))):
        assert type(clone) is cls and clone == value


def test_repr_lists_the_fields_in_order():
    assert repr(Eq(Var("x"), Var("y"))) == \
        "Eq(left=Var(name='x'), right=Var(name='y'))"
    assert repr(TRUE) == "TrueF()"
    assert repr(Not(Pred("inItself", (Elem(T, "t0"),)))) == \
        "Not(body=Pred(name='inItself', args=(Elem(sort=<Sort.THING: " \
        "'Thing'>, label='t0'),)))"
    assert repr(SearchConfig()) == (
        "SearchConfig(max_thing_size=4, max_world_size=None, "
        "pruning='canonical', node_budget=100000000)")
    assert repr(SearchStats(support=("inItself",), conflicts=3)) == (
        "SearchStats(support=('inItself',), candidates_visited=0, "
        "propagations=0, conflicts=3, pruned_subtrees=0, "
        "branches_total=0, premise_instances=0, sizes_exhausted=(), "
        "sizes_padded=())")
    assert repr(FiniteModel("m", ("t0",), tables={"inItself": ["t0"]})) == \
        "FiniteModel(name='m', things=('t0',), worlds=(), " \
        "tables={'inItself': frozenset({('t0',)})})"


def test_constructors_keep_their_keywords_and_defaults():
    assert FiniteModel(name="m", things=["t0"]).tables == {}
    assert SearchConfig(node_budget=5, pruning="none").node_budget == 5
    assert ExperimentSpec(name="s", forward=Direction("PSRSubstance", "A12"),
                          config=SearchConfig()).subsets == ()


def test_a_missing_or_extra_field_raises_type_error_naming_the_class():
    with pytest.raises(TypeError) as info:
        Refuted(_model(), 2, 1)
    assert str(info.value) == ("Refuted fields ('model', 'thing_size', "
                               "'world_size', 'stats'): expected 4, got 3")
    with pytest.raises(TypeError, match=r"^Var fields \('name',\): "
                                        r"expected 1, got 0$"):
        Var()
    with pytest.raises(TypeError, match=r"^TrueF fields \(\): expected 0, got 1$"):
        TrueF(None)
    with pytest.raises(TypeError, match=r"^Direction .*expected 2, got 3$"):
        Direction("PSRSubstance", "A12", "A22")


def _package_objects():
    for info in pkgutil.iter_modules(ethica.__path__):
        module = importlib.import_module(f"ethica.{info.name}")
        yield module
        for obj in vars(module).values():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield obj
            elif inspect.isclass(obj):
                yield obj
                for member in vars(obj).values():
                    if isinstance(member, property):
                        member = member.fget
                    if inspect.isfunction(member):
                        yield member


def test_every_value_class_is_frozen_and_checked_here():
    # No value class is exempt from the frozen checks above.
    classes = {obj for obj in _package_objects() if inspect.isclass(obj)
               and issubclass(obj, Value) and obj is not Value}
    assert classes == set(FROZEN)


def test_every_annotation_evaluates():
    # No linter runs here; this catches a name used in an annotation
    # string that its module does not import.
    checked = 0
    for obj in _package_objects():
        inspect.get_annotations(obj, eval_str=True)
        checked += 1
    assert checked > 100
