"""Two-sorted first-order logic over finite models.

Formulas are immutable trees over predicate signatures with the sorts Thing
and World; models are finite labelled universes with explicit truth tables.
Evaluation is classical, with quantifiers ranging over the finite universe of
the quantified sort.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from enum import Enum


class Sort(Enum):
    THING = "Thing"
    WORLD = "World"

    def __str__(self) -> str:
        return self.value


class LogicError(Exception):
    """Base class for logic-level failures."""


class SortError(LogicError):
    """A formula is ill-sorted against a signature."""


class EvaluationError(LogicError):
    """A formula cannot be evaluated on the given model and assignment."""


class ModelError(LogicError):
    """A finite model violates a structural invariant."""


class Value:
    """Base of the package's value classes.

    A subclass names its fields in ``__slots__`` and sets them in its own
    ``__init__``, which takes them in that order (through
    ``object.__setattr__``, since values are immutable).  Two values are
    equal when they are of the same class and their field tuples are equal;
    the hash is the hash of the field tuple, and the repr is
    ``Name(field=value, ...)``.  These few methods replace ``dataclasses``,
    whose generated methods, built by ``exec`` at import, were most of
    ``import ethica``.
    """

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        # Copies and pickles are rebuilt through ``__init__``, whose
        # parameters are the fields in order.
        return self.__class__, self._fields()

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class FrozenDict(dict):
    """A dict that refuses mutation and hashes its items: the mapping field
    of a frozen value.  Its repr and equality are those of a dict."""

    __slots__ = ()

    def _refuse(self, *args, **kwargs):
        raise TypeError(f"{self.__class__.__name__} is immutable")

    __setitem__ = __delitem__ = __ior__ = _refuse
    clear = pop = popitem = setdefault = update = _refuse

    def __hash__(self) -> int:
        return hash(frozenset(self.items()))

    def __reduce__(self):
        # Pickle would otherwise rebuild the dict through ``__setitem__``.
        return self.__class__, (dict(self),)


# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------

class Var(Value):
    __slots__ = ("name",)

    def __init__(self, name: str):
        object.__setattr__(self, "name", name)


class Elem(Value):
    """A universe-element constant."""

    __slots__ = ("sort", "label")

    def __init__(self, sort: Sort, label: str):
        object.__setattr__(self, "sort", sort)
        object.__setattr__(self, "label", label)


Term = Var | Elem


# ---------------------------------------------------------------------------
# Formulas
# ---------------------------------------------------------------------------

class TrueF(Value):
    __slots__ = ()


class FalseF(Value):
    __slots__ = ()


TRUE = TrueF()
FALSE = FalseF()


class Pred(Value):
    __slots__ = ("name", "args")

    def __init__(self, name: str, args: Sequence[Term]):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "args", tuple(args))


class Eq(Value):
    __slots__ = ("left", "right")

    def __init__(self, left: Term, right: Term):
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)


class Not(Value):
    __slots__ = ("body",)

    def __init__(self, body: Formula):
        object.__setattr__(self, "body", body)


class And(Value):
    __slots__ = ("items",)

    def __init__(self, items: Sequence[Formula]):
        object.__setattr__(self, "items", tuple(items))


class Or(Value):
    __slots__ = ("items",)

    def __init__(self, items: Sequence[Formula]):
        object.__setattr__(self, "items", tuple(items))


class Implies(Value):
    __slots__ = ("left", "right")

    def __init__(self, left: Formula, right: Formula):
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)


class Iff(Value):
    __slots__ = ("left", "right")

    def __init__(self, left: Formula, right: Formula):
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)


class ForAll(Value):
    __slots__ = ("var", "sort", "body")

    def __init__(self, var: str, sort: Sort, body: Formula):
        object.__setattr__(self, "var", var)
        object.__setattr__(self, "sort", sort)
        object.__setattr__(self, "body", body)


class Exists(Value):
    __slots__ = ("var", "sort", "body")

    def __init__(self, var: str, sort: Sort, body: Formula):
        object.__setattr__(self, "var", var)
        object.__setattr__(self, "sort", sort)
        object.__setattr__(self, "body", body)


Formula = TrueF | FalseF | Pred | Eq | Not | And | Or | Implies | Iff | ForAll | Exists

_QUANTIFIERS = (ForAll, Exists)


def forall(names: Sequence[str], sort: Sort, body: Formula) -> Formula:
    """Nest a block of same-sort universal quantifiers, outermost first."""
    for name in reversed(names):
        body = ForAll(name, sort, body)
    return body


def quantifier_prefix(formula: Formula, quantifier: type
                      ) -> tuple[list[tuple[str, Sort]], Formula]:
    """Split off the outermost block of ``quantifier`` (``ForAll`` or
    ``Exists``): its (variable, sort) pairs, outermost first, and the body
    under it."""
    prefix: list[tuple[str, Sort]] = []
    while isinstance(formula, quantifier):
        prefix.append((formula.var, formula.sort))
        formula = formula.body
    return prefix, formula


def mentions_world(formula: Formula) -> bool:
    """True when the formula quantifies over World or names a world element."""
    if isinstance(formula, _QUANTIFIERS):
        return formula.sort is Sort.WORLD or mentions_world(formula.body)
    if isinstance(formula, Not):
        return mentions_world(formula.body)
    if isinstance(formula, (And, Or)):
        return any(mentions_world(item) for item in formula.items)
    if isinstance(formula, (Implies, Iff)):
        return mentions_world(formula.left) or mentions_world(formula.right)
    if isinstance(formula, Pred):
        return any(isinstance(t, Elem) and t.sort is Sort.WORLD for t in formula.args)
    if isinstance(formula, Eq):
        return any(isinstance(t, Elem) and t.sort is Sort.WORLD
                   for t in (formula.left, formula.right))
    return False


# ---------------------------------------------------------------------------
# Signatures
# ---------------------------------------------------------------------------

class PredicateDecl(Value):
    __slots__ = ("name", "argument_sorts")

    def __init__(self, name: str, argument_sorts: Sequence[Sort]):
        sorts = tuple(argument_sorts)
        if not 1 <= len(sorts) <= 3:
            raise ValueError(f"predicate {name!r}: arity must be 1..3, got {len(sorts)}")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "argument_sorts", sorts)

    @property
    def arity(self) -> int:
        return len(self.argument_sorts)


class Signature:
    """An immutable set of predicate declarations with unique names."""

    def __init__(self, predicates: Iterable[PredicateDecl]):
        decls: dict[str, PredicateDecl] = {}
        for decl in predicates:
            if decl.name in decls:
                raise ValueError(f"duplicate predicate {decl.name!r}")
            decls[decl.name] = decl
        self._decls = decls

    def declaration(self, name: str) -> PredicateDecl:
        try:
            return self._decls[name]
        except KeyError:
            raise SortError(f"unknown predicate {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._decls

    def __iter__(self):
        return iter(self._decls.values())


# ---------------------------------------------------------------------------
# Finite models
# ---------------------------------------------------------------------------

Row = tuple[str, ...]


def _normalize_tables(tables: Mapping[str, Iterable]) -> FrozenDict:
    out: dict[str, frozenset[Row]] = {}
    for name, rows in tables.items():
        norm = set()
        for row in rows:
            norm.add((row,) if isinstance(row, str) else tuple(row))
        if norm:
            out[name] = frozenset(norm)
    return FrozenDict(out)


class FiniteModel(Value):
    """A finite two-sorted structure.

    Predicates absent from ``tables`` are everywhere-false; empty tables are
    dropped at construction so that equality respects that convention.
    ``tables`` is a read-only ``FrozenDict`` of frozensets of rows.
    """

    __slots__ = ("name", "things", "worlds", "tables")

    def __init__(self, name: str, things: Sequence[str],
                 worlds: Sequence[str] = (),
                 tables: Mapping[str, Iterable] | None = None):
        things, worlds = tuple(things), tuple(worlds)
        tables = _normalize_tables({} if tables is None else tables)
        if not things:
            raise ModelError("thing universe must be non-empty")
        if len(set(things)) != len(things):
            raise ModelError("duplicate thing label")
        if len(set(worlds)) != len(worlds):
            raise ModelError("duplicate world label")
        shared = set(things) & set(worlds)
        if shared:
            raise ModelError(
                f"label used in both universes: {sorted(shared)[0]!r}")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "things", things)
        object.__setattr__(self, "worlds", worlds)
        object.__setattr__(self, "tables", tables)

    def universe(self, sort: Sort) -> tuple[str, ...]:
        return self.things if sort is Sort.THING else self.worlds

    def truth(self, pred: str, args: Sequence[str]) -> bool:
        table = self.tables.get(pred)
        return table is not None and tuple(args) in table

    def check_against(self, signature: Signature) -> None:
        """Raise ModelError unless every table fits the signature and universes."""
        for pred, table in self.tables.items():
            decl = signature.declaration(pred) if pred in signature else None
            if decl is None:
                raise ModelError(f"table for undeclared predicate {pred!r}")
            for row in table:
                if len(row) != decl.arity:
                    raise ModelError(
                        f"{pred}: row {row} has arity {len(row)}, expected {decl.arity}")
                for label, sort in zip(row, decl.argument_sorts):
                    if label not in self.universe(sort):
                        raise ModelError(
                            f"{pred}: element {label!r} is not in the {sort} universe")


# ---------------------------------------------------------------------------
# Sort checking
# ---------------------------------------------------------------------------

def check_sorted(formula: Formula, signature: Signature) -> None:
    """Raise SortError unless the closed formula is well-sorted.

    Every variable must be bound exactly once on each path; predicate
    applications must match their declaration's arity and sorts; equality
    compares same-sort terms.
    """
    _check(formula, signature, {})


def _term_sort(term: Term, env: Mapping[str, Sort]) -> Sort:
    if isinstance(term, Var):
        try:
            return env[term.name]
        except KeyError:
            raise SortError(f"unbound variable {term.name!r}") from None
    return term.sort


def _check(f: Formula, sig: Signature, env: dict[str, Sort]) -> None:
    if isinstance(f, (TrueF, FalseF)):
        return
    if isinstance(f, Pred):
        decl = sig.declaration(f.name)
        if len(f.args) != decl.arity:
            plural = "argument" if decl.arity == 1 else "arguments"
            raise SortError(f"{f.name} expects {decl.arity} {plural}, got {len(f.args)}")
        actual = tuple(_term_sort(t, env) for t in f.args)
        if actual != decl.argument_sorts:
            expected = ", ".join(str(s) for s in decl.argument_sorts)
            raise SortError(f"{f.name} expects ({expected}), "
                            f"got ({', '.join(str(s) for s in actual)})")
        return
    if isinstance(f, Eq):
        left, right = _term_sort(f.left, env), _term_sort(f.right, env)
        if left is not right:
            raise SortError(f"equality compares {left} with {right}")
        return
    if isinstance(f, Not):
        _check(f.body, sig, env)
        return
    if isinstance(f, (And, Or)):
        for item in f.items:
            _check(item, sig, env)
        return
    if isinstance(f, (Implies, Iff)):
        _check(f.left, sig, env)
        _check(f.right, sig, env)
        return
    if isinstance(f, _QUANTIFIERS):
        if f.var in env:
            raise SortError(f"variable {f.var!r} bound twice on one path")
        env[f.var] = f.sort
        try:
            _check(f.body, sig, env)
        finally:
            del env[f.var]
        return
    raise TypeError(f"not a formula: {f!r}")


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

Assignment = Mapping[str, tuple[Sort, str]]


def evaluate(formula: Formula, model: FiniteModel,
             assignment: Assignment | None = None) -> bool:
    """Classical truth value of the formula on the model.

    Quantification over World on a model with no world universe is an error,
    not vacuous truth.
    """
    return _eval(formula, model, dict(assignment) if assignment else {})


def _term_value(term: Term, env: dict) -> tuple[Sort, str]:
    if isinstance(term, Var):
        try:
            return env[term.name]
        except KeyError:
            raise EvaluationError(f"unbound variable {term.name!r}") from None
    return (term.sort, term.label)


def _eval(f: Formula, m: FiniteModel, env: dict) -> bool:
    if isinstance(f, TrueF):
        return True
    if isinstance(f, FalseF):
        return False
    if isinstance(f, Pred):
        labels = tuple(_term_value(t, env)[1] for t in f.args)
        return m.truth(f.name, labels)
    if isinstance(f, Eq):
        lsort, llabel = _term_value(f.left, env)
        rsort, rlabel = _term_value(f.right, env)
        if lsort is not rsort:
            raise EvaluationError(f"equality compares {lsort} with {rsort}")
        return llabel == rlabel
    if isinstance(f, Not):
        return not _eval(f.body, m, env)
    if isinstance(f, And):
        return all(_eval(item, m, env) for item in f.items)
    if isinstance(f, Or):
        return any(_eval(item, m, env) for item in f.items)
    if isinstance(f, Implies):
        return (not _eval(f.left, m, env)) or _eval(f.right, m, env)
    if isinstance(f, Iff):
        return _eval(f.left, m, env) == _eval(f.right, m, env)
    if isinstance(f, _QUANTIFIERS):
        universe = m.universe(f.sort)
        if not universe:
            raise EvaluationError(
                "quantification over World on a model with no world universe")
        universal = isinstance(f, ForAll)
        outer = env.get(f.var)
        try:
            for label in universe:
                env[f.var] = (f.sort, label)
                if _eval(f.body, m, env) is not universal:
                    return not universal
            return universal
        finally:
            if outer is None:
                del env[f.var]
            else:
                env[f.var] = outer
    raise TypeError(f"not a formula: {f!r}")
