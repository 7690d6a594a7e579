"""Grounding of closed formulas into propositional clause sets.

A ground atom is a (predicate, argument-label tuple) pair; equalities are
pre-evaluated during clause construction because universe elements are
distinct individuals.  The clause set is a conjunction of disjunctions of
signed literals over the table atoms and over auxiliary variables.  A table
assignment makes the source formula true on the fixed universes iff some
assignment of the auxiliary variables extends it to satisfy the clauses.
A clause is a tuple of signed literals (``-v`` for not v) in ascending
order, the DIMACS convention; ``()`` is false.  The search's solver reads
it unchanged and watches a clause's first two literals, so the order fixes
the search's counters.

The encoding is definitional (Tseitin 1968; Plaisted and Greenbaum 1986):
inside a disjunction, every multi-clause part is replaced by one auxiliary
literal ``v``, defined in one direction only by the clauses ``not v or c``
for each clause ``c`` of the part, so a disjunction grounds to one clause.
Formulas are put in negation normal form first, so the polarity rules live
only in ``nnf``, whose connectives are flat: an n-ary disjunction is one
node, so each of its instances is one disjunction step.  Auxiliary
variables are numbered after all table atoms by ``Grounder``, which keeps
their defining clauses in its ``defining`` list.

The atoms come from predicate profiles: ``predicate_profiles`` walks the
formulas once for each predicate's argument sorts, and ``atom_layout``, the
one statement of where an atom lies, lays out any universes' atoms from
them, so a search profiles its formulas once.  A formula is compiled once
(``compile_formula``) and then ground at any pair of universes
(``Grounder``), so a search compiles its formulas once and grounds them at
every size.  Compiling resolves each variable to a slot of an integer
environment, one slot per quantifier depth, that holds an element's index
in its universe.  Grounding turns each node into a closure over that
environment, reading atom indices off the layout.  A connective or
quantifier is memoized on the indices of its free variables, so that every
instance of a shared subformula shares one auxiliary variable, exactly
when an instance can recur: when it is free in fewer slots than vary
between its calls (``_shared``).  A memo that never hits shares nothing.

The same compiled formulas give truth values under fixed table bits when
ground at a ``TruthGrounder``, whose literals and disjunctions come out as
no clause (true) or empty clauses (false); the search checks premise
instances against a model that way.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Mapping, Sequence

from .logic import (FALSE, TRUE, And, Eq, EvaluationError, Exists,
                    FiniteModel, ForAll, Formula, Iff, Implies, LogicError,
                    Not, Or, Pred, Sort, TrueF, FalseF, Value, Var)

Atom = tuple[str, tuple[str, ...]]
Clause = tuple[int, ...]
#: An auxiliary variable and the clauses it implies.
Definition = tuple[int, tuple[Clause, ...]]


class GroundingError(LogicError):
    """Grounding failed (an empty quantified universe)."""


class GroundConstraintSet(Value):
    """Propositional clauses over ground atoms for a fixed pair of universes.

    Clauses are ascending tuples of 1-based signed variable indices: the
    table atoms come first, then the auxiliary variables of ``definitions``
    (inner definitions first), whose defining clauses end ``clauses``.  An
    empty clause marks an unsatisfiable set.
    """

    __slots__ = ("things", "worlds", "atoms", "clauses", "definitions")

    @property
    def unsatisfiable(self) -> bool:
        return any(not clause for clause in self.clauses)

    def atom_index(self, atom: Atom) -> int:
        return self.atoms.index(atom)

    def satisfied_by(self, model: FiniteModel) -> bool:
        # truth[lit] is the truth of the signed literal lit; negative
        # literals index from the end, as in the search's solver.
        truth = [False] * (2 * (len(self.atoms) + len(self.definitions)) + 1)
        for var, (pred, args) in enumerate(self.atoms, 1):
            value = model.truth(pred, args)
            truth[var] = value
            truth[-var] = not value
        get = truth.__getitem__
        # An aux variable occurs negatively only in its own definition, so
        # setting it to "all of its clauses hold" satisfies the clauses
        # whenever any aux assignment does.
        for var, clauses in self.definitions:
            value = all(any(map(get, clause)) for clause in clauses)
            truth[var] = value
            truth[-var] = not value
        return all(any(map(get, clause)) for clause in self.clauses)


# ---------------------------------------------------------------------------
# Negation normal form
# ---------------------------------------------------------------------------

def nnf(formula: Formula, positive: bool = True) -> Formula:
    """Push negations to atoms and eliminate Implies/Iff, with flat
    connectives: no ``And`` directly under an ``And`` and no ``Or`` directly
    under an ``Or``, so each disjunction instance grounds in one step."""
    kind = type(formula)
    if kind is Pred or kind is Eq:
        return formula if positive else Not(formula)
    if kind is And or kind is Or:
        return _flat(And if (kind is And) == positive else Or,
                     [nnf(item, positive) for item in formula.items])
    if kind is ForAll or kind is Exists:
        if not positive:
            kind = Exists if kind is ForAll else ForAll
        return kind(formula.var, formula.sort, nnf(formula.body, positive))
    if kind is Implies:
        return _flat(Or if positive else And, (nnf(formula.left, not positive),
                                               nnf(formula.right, positive)))
    if kind is Not:
        return nnf(formula.body, not positive)
    if kind is Iff:
        left, right = formula.left, formula.right
        lp, ln = nnf(left), nnf(left, False)
        rp, rn = nnf(right), nnf(right, False)
        if positive:
            return _flat(And, (_flat(Or, (ln, rp)), _flat(Or, (rn, lp))))
        return _flat(Or, (_flat(And, (lp, rn)), _flat(And, (rp, ln))))
    if kind is TrueF:
        return TRUE if positive else FALSE
    if kind is FalseF:
        return FALSE if positive else TRUE
    raise TypeError(f"not a formula: {formula!r}")


def _flat(kind: type, items: Iterable[Formula]) -> Formula:
    """``kind`` (``And`` or ``Or``) of the items, with the items of each
    item of the same kind spliced in; ``nnf``'s items are flat already."""
    flat = []
    for item in items:
        if type(item) is kind:
            flat += item.items
        else:
            flat.append(item)
    return kind(flat)


# ---------------------------------------------------------------------------
# Atom space
# ---------------------------------------------------------------------------

def predicate_profiles(formulas: Iterable[Formula],
                       support: Iterable[str] | None = None
                       ) -> dict[str, tuple[Sort, ...]]:
    """Each predicate occurring in the well-sorted formulas, mapped to its
    argument sorts, in name order.  An explicit ``support`` keeps only those
    predicates; grounding freezes the rest everywhere-false."""
    profiles: dict[str, tuple[Sort, ...]] = {}

    def walk(f: Formula, env: dict[str, Sort]) -> None:
        kind = type(f)
        if kind is Pred:
            if f.name not in profiles:
                profiles[f.name] = tuple([env[t.name] if type(t) is Var
                                          else t.sort for t in f.args])
        elif kind is And or kind is Or:
            for item in f.items:
                walk(item, env)
        elif kind is ForAll or kind is Exists:
            walk(f.body, {**env, f.var: f.sort})
        elif kind is Implies or kind is Iff:
            walk(f.left, env)
            walk(f.right, env)
        elif kind is Not:
            walk(f.body, env)

    for formula in formulas:
        walk(formula, {})
    allowed = profiles if support is None else set(support)
    return {name: profiles[name] for name in sorted(profiles) if name in allowed}


def atom_layout(profiles: Mapping[str, Sequence[Sort]],
                size: Mapping[Sort, int]) -> tuple[dict, int]:
    """Each profiled predicate mapped to its block of atom indices and its
    weights, and the atom count, at universes of ``size[sort]`` elements:
    the one statement of where an atom lies.  The blocks follow in profile
    order, and an atom lies at its block's start plus the sum of its
    element indices times the weights, the first argument most significant."""
    layout = {}
    natoms = 0
    for name, sorts in profiles.items():
        weights = []
        length = 1
        for sort in reversed(sorts):
            weights.insert(0, length)
            length *= size[sort]
        layout[name] = (range(natoms, natoms + length), tuple(weights))
        natoms += length
    return layout, natoms


def atom_space(profiles: Mapping[str, Sequence[Sort]], things: Sequence[str],
               worlds: Sequence[str]) -> tuple[Atom, ...]:
    """The (predicate, argument labels) pair of each ground atom of the
    profiled predicates, in the order of ``atom_layout``'s indices.  The
    search works with indices and spells labels only for what it returns."""
    atoms: list[Atom] = []
    for name, sorts in profiles.items():
        universes = [tuple(things) if s is Sort.THING else tuple(worlds)
                     for s in sorts]
        atoms.extend((name, combo) for combo in itertools.product(*universes))
    return tuple(atoms)


# ---------------------------------------------------------------------------
# Compilation
# ---------------------------------------------------------------------------

_TRIVIALLY_TRUE: list[Clause] = []
_TRIVIALLY_FALSE: list[Clause] = [()]


def compile_formula(formula: Formula,
                    bound: Sequence[tuple[str, Sort]] = ()):
    """Compile a well-sorted formula in negation normal form, as ``nnf``
    returns it: a tree in which ``Not`` wraps only a ``Pred`` or an ``Eq``,
    no ``Implies`` or ``Iff`` occurs, and no ``And`` or ``Or`` lies directly
    under one of its own kind.  Its free variables are ``bound``;
    environment slot i holds the element index of ``bound[i]``, and each
    quantifier binds the slot of its depth.

    The result takes a ``Grounder`` and gives the function from the element
    indices of ``bound`` (``()`` when there are none) to the formula's
    clauses at that grounder's universes.  That function holds the
    formula's memo tables, so take it once per grounder, and call it at
    most once per environment: a node free in every bound slot is not
    memoized, so a repeated environment would get new aux variables.  The
    grounder does not hold it: no reference cycle keeps a size's clauses
    alive once the caller lets go of them."""
    scope = {var: (slot, sort) for slot, (var, sort) in enumerate(bound)}
    make, free, depth = _compile(formula, scope, len(bound))
    make = _shared(formula, make, free, len(bound))
    padding = [0] * (depth - len(bound))

    def ground_at(grounder):
        fn = make(grounder)
        return lambda env=(): fn([*env, *padding])
    return ground_at


def _compile(f: Formula, scope: dict, depth: int):
    """(make, free slots as (slot, sort) pairs, environment length);
    ``make(g)`` is the node's function at grounder ``g``."""
    if isinstance(f, TrueF):
        return _constant(_TRIVIALLY_TRUE), frozenset(), depth
    if isinstance(f, FalseF):
        return _constant(_TRIVIALLY_FALSE), frozenset(), depth
    if isinstance(f, (Pred, Eq)):
        return _compile_literal(f, True, scope) + (depth,)
    if isinstance(f, Not) and isinstance(f.body, (Pred, Eq)):
        return _compile_literal(f.body, False, scope) + (depth,)
    if isinstance(f, (And, Or)):
        if not f.items:
            # An empty conjunction is true, an empty disjunction false.
            clauses = _TRIVIALLY_TRUE if isinstance(f, And) else _TRIVIALLY_FALSE
            return _constant(clauses), frozenset(), depth
        compiled = [_compile(item, scope, depth) for item in f.items]
        free = frozenset().union(*[free for _, free, _ in compiled])
        makes = [_shared(item, make, item_free, len(free))
                 for item, (make, item_free, _) in zip(f.items, compiled)]
        size = max([depth] + [size for _, _, size in compiled])
        conjunctive = isinstance(f, And)

        def make(g):
            fns = [make(g) for make in makes]
            return _conjunction(fns) if conjunctive else _disjunction(fns, g.disjoin)
        return make, free, size
    if isinstance(f, (ForAll, Exists)):
        slot, sort = depth, f.sort
        body_make, body_free, size = _compile(
            f.body, {**scope, f.var: (slot, sort)}, depth + 1)
        free = body_free - {(slot, sort)}
        body_make = _shared(f.body, body_make, body_free, len(free) + 1)
        universal = isinstance(f, ForAll)

        def make(g):
            n = g.size[sort]
            if not n:
                raise GroundingError(
                    "quantification over World on universes with no worlds")
            body = body_make(g)
            return _universal(body, slot, n) if universal else \
                _existential(body, slot, n, g.disjoin)
        return make, free, size
    raise TypeError(f"not a formula in negation normal form: {f!r}")


def _always(clauses: list[Clause]):
    return lambda env: clauses


def _constant(clauses: list[Clause]):
    fn = _always(clauses)
    return lambda g: fn


def _compile_literal(f: Formula, positive: bool, scope: dict):
    # A term is (slot, sort, label): a variable has no label, a constant no
    # slot.
    terms = [(*scope[t.name], None) if isinstance(t, Var) else (None, t.sort, t.label)
             for t in ((f.left, f.right) if isinstance(f, Eq) else f.args)]
    free = frozenset((slot, sort) for slot, sort, _ in terms if slot is not None)
    true, false = (_TRIVIALLY_TRUE, _TRIVIALLY_FALSE) if positive else \
        (_TRIVIALLY_FALSE, _TRIVIALLY_TRUE)
    if isinstance(f, Eq):
        return _compile_equality(terms, true, false), free

    def make(g):
        entry = g.layout.get(f.name)
        if entry is None:
            # Predicate outside the atom space: frozen everywhere-false.
            return _always(false)
        block, weights = entry
        offset = block.start
        table = g.positive if positive else g.negative
        variables = []
        for (slot, sort, label), weight in zip(terms, weights):
            if slot is None:
                index = g.index[sort].get(label)
                if index is None:
                    return _always(false)
                offset += index * weight
            else:
                variables.append((slot, weight))
        if not variables:
            return _always(table[offset])
        index_of = _linear(offset, variables)
        return lambda env: table[index_of(env)]
    return make, free


def _compile_equality(terms, true, false):
    # Universe elements are distinct individuals, so equality is decided
    # here; with the same sort on both sides, equal labels are equal indices.
    (a, sort, label_a), (b, sort_b, label_b) = terms
    if a is None and b is None:
        return _constant(true if label_a == label_b else false)
    if a is None:
        a, sort, b, label_b = b, sort_b, a, label_a
    if b is not None:
        return lambda g: lambda env: true if env[a] == env[b] else false

    def make(g):
        index = g.index[sort].get(label_b)
        if index is None:
            return _always(false)
        return lambda env: true if env[a] == index else false
    return make


def _shared(f: Formula, make, free, varying: int):
    """``make``, memoized when node ``f`` is a connective or quantifier
    free in fewer than the ``varying`` slots that vary between its calls:
    the root's bound slots, or its parent's free slots plus a quantifier
    parent's own slot.  Only then can an instance recur; a memo that never
    hits returns no list twice, so it would share no aux variable."""
    if len(free) >= varying or not (isinstance(f, (ForAll, Exists)) or
                                    isinstance(f, (And, Or)) and f.items):
        return make
    return lambda g: _memoized(make(g), free, g)


def _memoized(raw, free, g):
    """``raw`` memoized on the element indices of the node's free slots
    (one mixed-radix number), so each instance of a subformula is ground
    once per grounder; ``_shared`` builds it only where one can recur.  The
    memo keeps every list it returns, so ``Grounder`` may key on list ids."""
    memo: dict = {}
    get = memo.get
    if len(free) == 1:
        ((slot, _),) = free

        def fn(env):
            key = env[slot]
            clauses = get(key)
            if clauses is None:
                clauses = memo[key] = raw(env)
            return clauses
        return fn
    weights = []
    weight = 1
    for slot, sort in sorted(free, reverse=True):
        weights.append((slot, weight))
        weight *= g.size[sort]
    key_of = _linear(0, weights)

    def fn(env):
        key = key_of(env)
        clauses = get(key)
        if clauses is None:
            clauses = memo[key] = raw(env)
        return clauses
    return fn


def _linear(base: int, weights: list[tuple[int, int]]):
    """env -> base plus the sum of env[slot] * weight over the pairs."""
    if not weights:
        return lambda env: base
    if len(weights) == 1:
        ((a, wa),) = weights
        return lambda env: base + env[a] * wa
    if len(weights) == 2:
        (a, wa), (b, wb) = weights
        return lambda env: base + env[a] * wa + env[b] * wb
    if len(weights) == 3:
        (a, wa), (b, wb), (c, wc) = weights
        return lambda env: base + env[a] * wa + env[b] * wb + env[c] * wc
    return lambda env: base + sum([env[s] * w for s, w in weights])


def _conjunction(fns):
    if len(fns) == 2:
        first, second = fns
        return lambda env: first(env) + second(env)

    def fn(env):
        out: list[Clause] = []
        for item in fns:
            out += item(env)
        return out
    return fn


def _disjunction(fns, disjoin):
    return lambda env: disjoin([item(env) for item in fns])


def _universal(body, slot: int, n: int):
    elements = range(n)

    def fn(env):
        out: list[Clause] = []
        for i in elements:
            env[slot] = i
            out += body(env)
        return out
    return fn


def _existential(body, slot: int, n: int, disjoin):
    elements = range(n)

    def fn(env):
        parts = []
        for i in elements:
            env[slot] = i
            parts.append(body(env))
        return disjoin(parts)
    return fn


# ---------------------------------------------------------------------------
# Grounding at one pair of universes
# ---------------------------------------------------------------------------

class Grounder:
    """Clauses of compiled formulas over fixed universes and profiled atoms.

    The formulas ground at one grounder share its auxiliary variables,
    numbered after the table atoms in the order they are made;
    ``definitions`` lists them with their clauses, and ``defining`` the
    clauses ``not v or c`` for each clause ``c`` defining ``v``, in order.
    """

    def __init__(self, profiles: Mapping[str, Sequence[Sort]],
                 things: Sequence[str], worlds: Sequence[str]):
        self.size = {Sort.THING: len(things), Sort.WORLD: len(worlds)}
        self.index = {Sort.THING: {label: i for i, label in enumerate(things)},
                      Sort.WORLD: {label: i for i, label in enumerate(worlds)}}
        self.layout, self.natoms = atom_layout(profiles, self.size)
        # One shared clause list per literal: single-clause parts are never
        # replaced by an auxiliary variable, so their identity is free.
        self.positive = [[(v,)] for v in range(1, self.natoms + 1)]
        self.negative = [[(-v,)] for v in range(1, self.natoms + 1)]
        self.definitions: list[Definition] = []
        self.defining: list[Clause] = []
        # Part list id -> (the list, its aux); the entry holds the list, so
        # its id cannot be reused.
        self._parts: dict[int, tuple[list[Clause], int]] = {}

    def disjoin(self, parts: list[list[Clause]]) -> list[Clause]:
        # An empty part ([] = true) makes the whole disjunction true.  Every
        # multi-clause part is replaced by its aux literal, so the
        # disjunction is one clause, or true when its literals clash.
        if not all(parts):
            return _TRIVIALLY_TRUE
        literals: set[int] = set()
        for clauses in parts:
            if len(clauses) == 1:
                literals.update(clauses[0])
            else:
                literals.add(self._aux(clauses))
        for lit in literals:
            if -lit in literals:
                return _TRIVIALLY_TRUE
        return [tuple(sorted(literals))]

    def _aux(self, clauses: list[Clause]) -> int:
        entry = self._parts.get(id(clauses))
        if entry is None:
            var = self.natoms + len(self.definitions) + 1
            self.definitions.append((var, tuple(clauses)))
            # v follows every variable of c, so -v leads, in sorted order.
            self.defining += [(-var,) + clause for clause in clauses]
            entry = self._parts[id(clauses)] = (clauses, var)
        return entry[1]


class TruthGrounder(Grounder):
    """Truth values of compiled formulas under table bits, in the clause
    format: no clause (``[]``) where a formula is true, and empty clauses
    where it is false.  It makes no auxiliary variable."""

    def __init__(self, profiles, things, worlds, bits: Sequence[int]):
        super().__init__(profiles, things, worlds)
        self.positive = [_TRIVIALLY_TRUE if bit else _TRIVIALLY_FALSE
                         for bit in bits]
        self.negative = [_TRIVIALLY_FALSE if bit else _TRIVIALLY_TRUE
                         for bit in bits]

    def disjoin(self, parts: list[list[Clause]]) -> list[Clause]:
        return _TRIVIALLY_FALSE if all(parts) else _TRIVIALLY_TRUE


def ground(formula: Formula, things: Sequence[str], worlds: Sequence[str] = (),
           support: Iterable[str] | None = None) -> GroundConstraintSet:
    """Ground a closed well-sorted formula over fixed universes."""
    profiles = predicate_profiles([formula], support)
    grounder = Grounder(profiles, things, worlds)
    clauses = compile_formula(nnf(formula))(grounder)() + grounder.defining
    return GroundConstraintSet(tuple(things), tuple(worlds),
                               atom_space(profiles, things, worlds),
                               tuple(clauses), tuple(grounder.definitions))


def evaluate_via_grounding(formula: Formula, model: FiniteModel) -> bool:
    """Ground on the model's universes, substitute its tables, read off truth.

    Agrees with ``logic.evaluate`` whenever the evaluator reaches every
    quantifier.  A quantifier over World on a model with no worlds is always
    an ``EvaluationError`` here, where ``evaluate`` may short-circuit past
    it: ``Or((TRUE, ForAll("w", WORLD, ...)))`` is True there.
    """
    try:
        constraints = ground(formula, model.things, model.worlds)
    except GroundingError:
        raise EvaluationError(
            "quantification over World on a model with no world universe") from None
    return constraints.satisfied_by(model)
