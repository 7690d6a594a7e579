"""Bounded counter-model search and bounded semantic entailment.

The engine looks for a finite model satisfying the premises while falsifying
the target, ascending through thing-universe sizes.  Within a size the
premises are grounded once, definitionally: auxiliary variables stand for
shared ground subformulas and are numbered after the table atoms.  The
negated target's existential prefix is split into instantiation branches
(orbit representatives under canonical pruning), and the branches are
decided one after another, each by a backtracking assignment of table bits
and then auxiliary variables, with watched-literal unit propagation.  The
node budget counts propagation steps, auxiliary ones included, per size
across all of its branches.

Canonical pruning also cuts partial assignments that are not lex-leaders
under the adjacent transpositions of a branch's free things and free worlds,
which generate its stabilizer (Crawford, Ginsberg, Luks & Roy, "Symmetry-
breaking predicates for search problems", KR 1996).  Checking generators
only misses some symmetric assignments but is sound: the least solution of
a branch is a lex-leader under every permutation of the stabilizer, so under
any subset of them too.

Determinism contract: within a branch the solver enumerates assignments in
lexicographic order of the canonical table-bit encoding (ascending atom
index, false before true) followed by the auxiliary variables, so the table
bits of its first solution are the branch's least table solution; the
reported model is the least canonical relabeling among branch solutions.
The result is identical across runs; the worker count is accepted but
selects no code path.
"""

from __future__ import annotations

import itertools
import time
from collections import deque
from dataclasses import dataclass
from typing import Optional, Sequence, Union

from .grounding import _CnfBuilder, atom_space, definition_clauses, nnf
from .logic import (Exists, FiniteModel, Formula, LogicError, Not, Sort,
                    collect_predicates, evaluate, mentions_world)
from .registry import Selector, axiom_set

DEFAULT_NODE_BUDGET = 100_000_000


class SearchError(LogicError):
    """The search request is malformed (for example a modal premise with a
    zero world bound)."""


class ResourceLimitExceeded(LogicError):
    """The node budget ran out before a size was exhausted; this is reported
    distinctly from exhaustion and never becomes a silent no-counterexample,
    nor a refutation whose minimality the size could not confirm."""

    def __init__(self, thing_size: int, world_size: int, budget: int):
        super().__init__(
            f"node budget of {budget} exceeded at size "
            f"(things={thing_size}, worlds={world_size})")
        self.thing_size = thing_size
        self.world_size = world_size
        self.budget = budget


class RecheckError(RuntimeError):
    """A model the search returned fails the evaluator re-check: a defect of
    the clause machinery, never of the input."""


@dataclass(frozen=True)
class SearchConfig:
    max_thing_size: int = 4
    #: None resolves to 0, or to 2 when any premise or the target mentions
    #: World; an explicit value below 1 is an error for modal formulas.
    max_world_size: Optional[int] = None
    support_predicates: Optional[tuple[str, ...]] = None
    pruning: str = "canonical"  # "canonical" | "none"
    #: Accepted for compatibility; branches run sequentially, so the worker
    #: count changes neither results nor speed.
    workers: int = 1
    #: Propagation steps allowed per (things, worlds) size, over all branches.
    node_budget: int = DEFAULT_NODE_BUDGET

    def __post_init__(self):
        if self.max_thing_size < 1:
            raise SearchError("max_thing_size must be >= 1")
        if self.max_world_size is not None and self.max_world_size < 0:
            raise SearchError("max_world_size must be >= 0")
        if self.pruning not in ("canonical", "none"):
            raise SearchError(f"unknown pruning mode {self.pruning!r}")
        if self.workers < 1:
            raise SearchError("workers must be >= 1")
        if self.node_budget < 1:
            raise SearchError("node_budget must be >= 1")


@dataclass
class SearchStats:
    support: tuple[str, ...] = ()
    candidates_visited: int = 0
    propagations: int = 0
    conflicts: int = 0
    pruned_subtrees: int = 0
    branches_total: int = 0
    sizes_exhausted: tuple[tuple[int, int], ...] = ()
    elapsed_seconds: float = 0.0

    def to_json_dict(self) -> dict:
        # elapsed_seconds is deliberately omitted: reports must be
        # byte-identical across runs.
        return {
            "support": list(self.support),
            "candidates_visited": self.candidates_visited,
            "propagations": self.propagations,
            "conflicts": self.conflicts,
            "pruned_subtrees": self.pruned_subtrees,
            "branches_total": self.branches_total,
            "sizes_exhausted": [list(size) for size in self.sizes_exhausted],
        }


@dataclass(frozen=True)
class Refuted:
    model: FiniteModel
    thing_size: int
    world_size: int
    stats: SearchStats

    @property
    def is_refuted(self) -> bool:
        return True

    def describe(self) -> str:
        if self.world_size:
            return f"Refuted(size={self.thing_size}; worlds={self.world_size})"
        return f"Refuted(size={self.thing_size})"


@dataclass(frozen=True)
class NoCounterexampleUpTo:
    thing_bound: int
    world_bound: int
    stats: SearchStats

    @property
    def is_refuted(self) -> bool:
        return False

    def describe(self) -> str:
        if self.world_bound:
            return (f"NoCounterexampleUpTo({self.thing_bound}; "
                    f"worlds {self.world_bound})")
        return f"NoCounterexampleUpTo({self.thing_bound})"


EntailmentVerdict = Union[Refuted, NoCounterexampleUpTo]


# ---------------------------------------------------------------------------
# Backtracking solver over table bits
# ---------------------------------------------------------------------------

class _BudgetExceeded(Exception):
    pass


class _BranchCounters:
    __slots__ = ("decisions", "propagations", "conflicts", "pruned")

    def __init__(self):
        self.decisions = 0
        self.propagations = 0
        self.conflicts = 0
        self.pruned = 0


class _Solver:
    """DPLL over a fixed clause list; returns the lexicographically least
    satisfying assignment (ascending variable index, false before true)."""

    def __init__(self, nvars: int, clauses: Sequence[tuple[int, ...]],
                 budget: int, perms: Sequence[Sequence[int]] = ()):
        self.nvars = nvars
        self.clauses = clauses
        self.budget = budget
        self.perms = perms
        self.counters = _BranchCounters()
        self.values = [-1] * nvars
        self.trail: list[int] = []
        self.steps = 0
        self.watch: dict[int, list[int]] = {}
        self.w1: list[int] = []
        self.w2: list[int] = []
        self.unsat = False
        self.initial_units: list[int] = []
        for ci, clause in enumerate(clauses):
            if not clause:
                self.unsat = True
                self.w1.append(0)
                self.w2.append(0)
            elif len(clause) == 1:
                self.initial_units.append(clause[0])
                self.w1.append(clause[0])
                self.w2.append(clause[0])
            else:
                self.w1.append(clause[0])
                self.w2.append(clause[1])
                self.watch.setdefault(clause[0], []).append(ci)
                self.watch.setdefault(clause[1], []).append(ci)

    def _value(self, lit: int) -> int:
        v = self.values[abs(lit) - 1]
        if v == -1:
            return -1
        return v if lit > 0 else 1 - v

    def _assign(self, lit: int) -> None:
        var = abs(lit) - 1
        self.values[var] = 1 if lit > 0 else 0
        self.trail.append(var)
        self.steps += 1
        self.counters.propagations += 1
        if self.steps > self.budget:
            raise _BudgetExceeded()

    def _propagate(self, pending: deque) -> bool:
        while pending:
            lit = pending.popleft()
            neg = -lit
            watchers = self.watch.get(neg)
            if not watchers:
                continue
            kept: list[int] = []
            conflict_at = -1
            for pos, ci in enumerate(watchers):
                other = self.w1[ci] if self.w2[ci] == neg else self.w2[ci]
                v_other = self._value(other)
                if v_other == 1:
                    kept.append(ci)
                    continue
                moved = False
                for cand in self.clauses[ci]:
                    if cand == other or cand == neg:
                        continue
                    if self._value(cand) != 0:
                        self.w1[ci] = other
                        self.w2[ci] = cand
                        self.watch.setdefault(cand, []).append(ci)
                        moved = True
                        break
                if moved:
                    continue
                kept.append(ci)
                self.w1[ci] = other
                self.w2[ci] = neg
                if v_other == 0:
                    conflict_at = pos
                    break
                self._assign(other)
                pending.append(other)
            if conflict_at >= 0:
                kept.extend(watchers[conflict_at + 1:])
                self.watch[neg] = kept
                self.counters.conflicts += 1
                return False
            self.watch[neg] = kept
        return True

    def _assign_and_propagate(self, lit: int) -> bool:
        v = self._value(lit)
        if v == 0:
            self.counters.conflicts += 1
            return False
        if v == 1:
            return True
        self._assign(lit)
        return self._propagate(deque((lit,)))

    def _next_unassigned(self) -> Optional[int]:
        for var, value in enumerate(self.values):
            if value == -1:
                return var
        return None

    def _symmetry_pruned(self) -> bool:
        # Prune when the partial assignment is already lexicographically
        # greater than its image under one of the perms (the adjacent
        # transpositions of the stabilizer, Crawford et al. 1996): every
        # completion then has a smaller sibling in the same branch.  The
        # least solution is a leader under every stabilizer permutation, so
        # under any subset it is never pruned.
        values = self.values
        for perm in self.perms:
            for i, j in enumerate(perm):
                a = values[i]
                b = values[j]
                if a == -1 or b == -1 or a < b:
                    break
                if a > b:
                    self.counters.pruned += 1
                    return True
        return False

    def _backtrack(self, decisions: list) -> bool:
        while decisions:
            trail_len, var, tried_true = decisions.pop()
            while len(self.trail) > trail_len:
                self.values[self.trail.pop()] = -1
            if not tried_true:
                decisions.append((trail_len, var, True))
                self.counters.decisions += 1
                if self._assign_and_propagate(var + 1):
                    return True
        return False

    def solve(self) -> Optional[list[int]]:
        if self.unsat:
            return None
        pending = deque()
        for lit in self.initial_units:
            v = self._value(lit)
            if v == 0:
                self.counters.conflicts += 1
                return None
            if v == -1:
                self._assign(lit)
                pending.append(lit)
        if not self._propagate(pending):
            return None
        decisions: list = []
        while True:
            if self.perms and self._symmetry_pruned():
                if not self._backtrack(decisions):
                    return None
                continue
            var = self._next_unassigned()
            if var is None:
                return list(self.values)
            decisions.append((len(self.trail), var, False))
            self.counters.decisions += 1
            if not self._assign_and_propagate(-(var + 1)):
                if not self._backtrack(decisions):
                    return None


# ---------------------------------------------------------------------------
# Branch generation
# ---------------------------------------------------------------------------

def _existential_prefix(formula: Formula) -> tuple[list[tuple[str, Sort]], Formula]:
    prefix: list[tuple[str, Sort]] = []
    while isinstance(formula, Exists):
        prefix.append((formula.var, formula.sort))
        formula = formula.body
    return prefix, formula


def _is_orbit_representative(combo: Sequence[int], sorts: Sequence[Sort]) -> bool:
    # A tuple represents its orbit under universe relabeling when, per sort,
    # elements appear in first-use order 0, 1, 2, ...
    for wanted in (Sort.THING, Sort.WORLD):
        frontier = 0
        for value, sort in zip(combo, sorts):
            if sort is not wanted:
                continue
            if value > frontier:
                return False
            if value == frontier:
                frontier += 1
    return True


def _stabilizer_perms(used_things: set[int], n_things: int,
                      used_worlds: set[int], n_worlds: int,
                      atoms, atom_index) -> list[tuple[int, ...]]:
    """Atom-index permutations induced by the adjacent transpositions of the
    branch's free things, then of its free worlds: generators of the
    relabelings that fix the witness elements pointwise."""
    swaps = []
    for prefix, used, total in (("t", used_things, n_things),
                                ("w", used_worlds, n_worlds)):
        free = [f"{prefix}{i}" for i in range(total) if i not in used]
        swaps.extend(zip(free, free[1:]))
    atom_perms = []
    for a, b in swaps:
        swap = {a: b, b: a}
        atom_perms.append(tuple(
            atom_index[pred, tuple(swap.get(label, label) for label in labels)]
            for pred, labels in atoms))
    return atom_perms


# ---------------------------------------------------------------------------
# Canonical forms
# ---------------------------------------------------------------------------

def _column_sorts(model: FiniteModel, pred: str, table) -> tuple[Sort, ...]:
    row = next(iter(table))
    world_set = set(model.worlds)
    thing_set = set(model.things)
    sorts = []
    for label in row:
        if label in thing_set:
            sorts.append(Sort.THING)
        elif label in world_set:
            sorts.append(Sort.WORLD)
        else:
            raise LogicError(f"{pred}: element {label!r} is in neither universe")
    return tuple(sorts)


def _least_relabeling(atoms, bits, things, worlds) -> tuple[int, ...]:
    """The least bit vector over all sort-respecting relabelings of the
    universes: entry i is the bit of the image of ``atoms[i]``.  The atom
    list must be closed under relabeling."""
    index = {atom: i for i, atom in enumerate(atoms)}
    world_perms = list(itertools.permutations(worlds))
    best = None
    for tp in itertools.permutations(things):
        for wp in world_perms:
            image = dict(zip(things, tp))
            image.update(zip(worlds, wp))
            key = tuple(bits[index[pred, tuple(map(image.__getitem__, labels))]]
                        for pred, labels in atoms)
            if best is None or key < best:
                best = key
    return best


def _tables(atoms, bits) -> dict[str, set]:
    tables: dict[str, set] = {}
    for bit, (pred, labels) in zip(bits, atoms):
        if bit:
            tables.setdefault(pred, set()).add(labels)
    return tables


def canonical_form(model: FiniteModel) -> FiniteModel:
    """Relabel to the lexicographically least model among all sort-respecting
    permutations of each universe; idempotent, and equal on isomorphic models
    presented over the same universe lists."""
    atoms = []
    for pred in sorted(model.tables):
        sorts = _column_sorts(model, pred, model.tables[pred])
        atoms.extend((pred, labels) for labels in
                     itertools.product(*(model.universe(s) for s in sorts)))
    bits = [int(labels in model.tables[pred]) for pred, labels in atoms]
    if sum(bits) != sum(map(len, model.tables.values())):
        raise LogicError("a table row has an element outside its column's universe")
    best = _least_relabeling(atoms, bits, model.things, model.worlds)
    return FiniteModel(model.name, model.things, model.worlds,
                       _tables(atoms, best))


# ---------------------------------------------------------------------------
# The bounded search
# ---------------------------------------------------------------------------

def _search(premises: Selector, target: str, config: SearchConfig) -> EntailmentVerdict:
    start = time.monotonic()
    premise_entries = axiom_set(premises)
    target_entry = axiom_set([target])[0]
    premise_formulas = [entry.formula for entry in premise_entries]
    all_formulas = premise_formulas + [target_entry.formula]

    # Without World in any formula no world universe is searched, so the
    # reported world bound is 0 whatever the configuration allows.
    world_bound = 0
    if any(mentions_world(f) for f in all_formulas):
        world_bound = 2 if config.max_world_size is None else config.max_world_size
        if world_bound < 1:
            raise SearchError("the axioms mention World; max_world_size must be >= 1")
    world_range = list(range(1, world_bound + 1)) or [0]

    occurring = frozenset()
    for formula in all_formulas:
        occurring |= collect_predicates(formula)
    if config.support_predicates is not None:
        support = tuple(sorted(set(config.support_predicates) & occurring))
    else:
        support = tuple(sorted(occurring))

    stats = SearchStats(support=support)
    exhausted: list[tuple[int, int]] = []
    neg_target = nnf(Not(target_entry.formula))
    prefix, matrix = _existential_prefix(neg_target)
    prefix_sorts = [sort for _, sort in prefix]

    for n_things in range(1, config.max_thing_size + 1):
        for n_worlds in world_range:
            things = tuple(f"t{i}" for i in range(n_things))
            worlds = tuple(f"w{i}" for i in range(n_worlds))
            atoms = atom_space(all_formulas, things, worlds, support)
            atom_index = {atom: i for i, atom in enumerate(atoms)}
            builder = _CnfBuilder(things, worlds, atom_index)
            sigma = [tuple(sorted(clause)) for formula in premise_formulas
                     for clause in builder.build(formula, True, {})]

            # The node budget is per size: every branch draws on one counter.
            remaining = config.node_budget
            best = None
            universe_sizes = [n_things if s is Sort.THING else n_worlds
                              for s in prefix_sorts]
            for combo in itertools.product(*(range(n) for n in universe_sizes)):
                if config.pruning == "canonical" and \
                        not _is_orbit_representative(combo, prefix_sorts):
                    stats.pruned_subtrees += 1
                    continue
                env = {}
                used_things, used_worlds = set(), set()
                for (var, sort), value in zip(prefix, combo):
                    if sort is Sort.THING:
                        env[var] = things[value]
                        used_things.add(value)
                    else:
                        env[var] = worlds[value]
                        used_worlds.add(value)
                branch = builder.build(matrix, True, env)
                # Aux variables are memoized across branches, so a branch may
                # use any definition the size's builder has made so far.
                clauses = sigma + [tuple(sorted(c)) for c in
                                   branch + definition_clauses(builder.definitions)]
                nvars = len(atoms) + len(builder.definitions)
                perms: Sequence[Sequence[int]] = ()
                if config.pruning == "canonical":
                    perms = _stabilizer_perms(used_things, n_things,
                                              used_worlds, n_worlds,
                                              atoms, atom_index)
                solver = _Solver(nvars, clauses, remaining, perms)
                try:
                    solution = solver.solve()
                except _BudgetExceeded:
                    # An unexhausted size cannot show that a model found in
                    # an earlier branch is the least one.
                    raise ResourceLimitExceeded(
                        n_things, n_worlds, config.node_budget) from None
                remaining -= solver.steps
                stats.branches_total += 1
                counters = solver.counters
                stats.candidates_visited += counters.decisions
                stats.propagations += counters.propagations
                stats.conflicts += counters.conflicts
                stats.pruned_subtrees += counters.pruned
                if solution is not None:
                    # Equal keys denote the same model, so the first branch
                    # reaching the least key decides it.
                    key = _least_relabeling(atoms, solution[:len(atoms)],
                                            things, worlds)
                    if best is None or key < best:
                        best = key
            if best is not None:
                model = FiniteModel("countermodel", things, worlds,
                                    _tables(atoms, best))
                stats.sizes_exhausted = tuple(exhausted)
                stats.elapsed_seconds = time.monotonic() - start
                _recheck(model, premise_entries, target_entry)
                return Refuted(model, n_things, n_worlds, stats)
            exhausted.append((n_things, n_worlds))

    stats.sizes_exhausted = tuple(exhausted)
    stats.elapsed_seconds = time.monotonic() - start
    return NoCounterexampleUpTo(config.max_thing_size, world_bound, stats)


def _recheck(model: FiniteModel, premise_entries, target_entry) -> None:
    # Soundness gate: every returned refutation is re-checked by the
    # evaluator, independently of the clause machinery.
    for entry in premise_entries:
        if not evaluate(entry.formula, model):
            raise RecheckError(
                f"internal error: returned model fails premise {entry.id}")
    if evaluate(target_entry.formula, model):
        raise RecheckError(
            f"internal error: returned model satisfies target {target_entry.id}")


def find_countermodel(premises: Selector, target: str,
                      config: Optional[SearchConfig] = None
                      ) -> Optional[tuple[FiniteModel, int]]:
    """First counter-model in canonical enumeration order, with its thing
    size, or None when every size up to the bound exhausts."""
    verdict = _search(premises, target, config or SearchConfig())
    if isinstance(verdict, Refuted):
        return verdict.model, verdict.thing_size
    return None


def entails_bounded(premises: Selector, target: str,
                    config: Optional[SearchConfig] = None) -> EntailmentVerdict:
    """Refuted(model) when a counter-model exists up to the bound, otherwise
    NoCounterexampleUpTo(bound); never a claim of unbounded validity."""
    return _search(premises, target, config or SearchConfig())


# ---------------------------------------------------------------------------
# The one second-order check
# ---------------------------------------------------------------------------

def check_naive_psr(model: FiniteModel) -> tuple[bool, tuple[tuple[str, str, tuple[str, ...]], ...]]:
    """Naive thoroughgoing-distinguishability: for every ordered pair of
    distinct things there is a property (a subset of the thing universe)
    holding of the first but not the second.

    The singleton {x} always separates x from y, so this second-order claim
    is trivially true on every model; the witness list names the separating
    subset per pair.  Vacuously true on one-element models.
    """
    witnesses = tuple(
        (x, y, (x,))
        for x in model.things for y in model.things if x != y)
    return True, witnesses
