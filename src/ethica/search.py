"""Bounded counter-model search and bounded semantic entailment.

The engine looks for a finite model satisfying the premises while falsifying
the target, ascending through thing-universe sizes.  Its core, ``_search``,
takes (name, formula) pairs and never reads the register; the public
functions resolve axiom ids through ``registry.axiom_set``.  The formulas'
predicates are profiled once per search (``grounding.predicate_profiles``),
and the premises and the matrix of the negated target are compiled once
(``grounding.compile_formula``).  Each size lays out its atoms from the
profiles and grounds the premises once, definitionally: auxiliary variables
stand for shared ground subformulas and are numbered after the table atoms.
The negated target's existential prefix is split into instantiation
branches (orbit representatives under canonical pruning); each grounds the
matrix with the prefix bound to the branch's element indices.  The solver
takes the grounder's clauses as they are, tuples of signed literals in
ascending order (the DIMACS convention): the size's premise clauses and
definitions, shared read-only, then the branch's.  It decides them by
conflict-driven clause learning: watched literals over arrays indexed by
signed literal, first-UIP learned clauses and backjumping (Een & Sorensson,
"An extensible SAT-solver", 2003).  A clause's first two literals are its
first watches, so the literal order fixes every reported counter.

The solver always decides the lowest unassigned variable, false first, and
neither restarts, reorders variables nor deletes clauses, so its first
model is the least one (the fixed-order argument of Nadel & Ryvchin,
"Bit-Vector Optimization", TACAS 2016).  Every clause it holds is satisfied
by the least model; a literal implied true on a variable below the first
difference from the least model follows from decisions below that
variable, which agree with the least model, so the least model would set
it true as well.

Skipping the branches that do not represent their orbit is the search's
only symmetry mechanism.

The node budget counts assignments, decisions and auxiliary ones included,
per size across all of its branches.

Determinism contract: within a branch the solver finds the least assignment
in lexicographic order of the canonical table-bit encoding (ascending atom
index, false before true) followed by the auxiliary variables, so the table
bits of its solution are the branch's least table solution; the reported
model is the least canonical relabeling among branch solutions.  The result
is identical across runs and worker counts.

Each (things, worlds) size is an independent job with its own grounder,
node budget and least key.  With ``workers`` above 1, the sizes above
``SEQUENTIAL_THINGS`` things may be solved in forked processes
(``workers.py``), which report each size's key and counters, the ones the
calling process would compute itself.  The calling process still takes the
sizes in ascending order: it sums the counters, fails at the first size out
of budget, and builds and re-checks the model of the first size with a key.
So verdicts, models, counters and errors do not depend on the worker count.
A caller that runs threads of its own should keep ``workers`` at 1, the
default, which forks nothing.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence

from .grounding import (Grounder, atom_space, compile_formula,
                        definition_clauses, nnf, predicate_profiles)
from .logic import (Exists, FiniteModel, Formula, LogicError, Not, Sort,
                    Value, evaluate, mentions_world, quantifier_prefix)
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


class SearchConfig(Value):
    """``max_world_size`` None resolves to 0, or to 2 when any premise or
    the target mentions World; an explicit value below 1 is an error for
    modal formulas.  ``pruning`` is "canonical" or "none".  ``node_budget``
    is the assignments allowed per (things, worlds) size, decisions
    included, over all branches."""

    __slots__ = ("max_thing_size", "max_world_size", "pruning", "node_budget")

    def __init__(self, max_thing_size: int = 4,
                 max_world_size: int | None = None,
                 pruning: str = "canonical",
                 node_budget: int = DEFAULT_NODE_BUDGET):
        if max_thing_size < 1:
            raise SearchError("max_thing_size must be >= 1")
        if max_world_size is not None and max_world_size < 0:
            raise SearchError("max_world_size must be >= 0")
        if pruning not in ("canonical", "none"):
            raise SearchError(f"unknown pruning mode {pruning!r}")
        if node_budget < 1:
            raise SearchError("node_budget must be >= 1")
        object.__setattr__(self, "max_thing_size", max_thing_size)
        object.__setattr__(self, "max_world_size", max_world_size)
        object.__setattr__(self, "pruning", pruning)
        object.__setattr__(self, "node_budget", node_budget)


#: The additive counters of ``SearchStats``, in report order.
STATS_COUNTERS = ("candidates_visited", "propagations", "conflicts",
                  "pruned_subtrees", "branches_total")


class SearchStats(Value):
    """The search's counters.  ``pruned_subtrees`` counts instantiation
    branches skipped as non-representatives of their orbit."""

    __slots__ = ("support", "candidates_visited", "propagations", "conflicts",
                 "pruned_subtrees", "branches_total", "sizes_exhausted")

    def __init__(self, support: tuple[str, ...] = (),
                 candidates_visited: int = 0, propagations: int = 0,
                 conflicts: int = 0, pruned_subtrees: int = 0,
                 branches_total: int = 0,
                 sizes_exhausted: tuple[tuple[int, int], ...] = ()):
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "candidates_visited", candidates_visited)
        object.__setattr__(self, "propagations", propagations)
        object.__setattr__(self, "conflicts", conflicts)
        object.__setattr__(self, "pruned_subtrees", pruned_subtrees)
        object.__setattr__(self, "branches_total", branches_total)
        object.__setattr__(self, "sizes_exhausted", sizes_exhausted)

    def to_json_dict(self) -> dict:
        doc = {"support": list(self.support)}
        doc.update((name, getattr(self, name)) for name in STATS_COUNTERS)
        doc["sizes_exhausted"] = [list(size) for size in self.sizes_exhausted]
        return doc


class Refuted(Value):
    __slots__ = ("model", "thing_size", "world_size", "stats")

    def __init__(self, model: FiniteModel, thing_size: int, world_size: int,
                 stats: SearchStats):
        object.__setattr__(self, "model", model)
        object.__setattr__(self, "thing_size", thing_size)
        object.__setattr__(self, "world_size", world_size)
        object.__setattr__(self, "stats", stats)

    @property
    def is_refuted(self) -> bool:
        return True

    def describe(self) -> str:
        if self.world_size:
            return f"Refuted(size={self.thing_size}; worlds={self.world_size})"
        return f"Refuted(size={self.thing_size})"


class NoCounterexampleUpTo(Value):
    __slots__ = ("thing_bound", "world_bound", "stats")

    def __init__(self, thing_bound: int, world_bound: int, stats: SearchStats):
        object.__setattr__(self, "thing_bound", thing_bound)
        object.__setattr__(self, "world_bound", world_bound)
        object.__setattr__(self, "stats", stats)

    @property
    def is_refuted(self) -> bool:
        return False

    def describe(self) -> str:
        if self.world_bound:
            return (f"NoCounterexampleUpTo({self.thing_bound}; "
                    f"worlds {self.world_bound})")
        return f"NoCounterexampleUpTo({self.thing_bound})"


EntailmentVerdict = Refuted | NoCounterexampleUpTo


# ---------------------------------------------------------------------------
# Clause-learning solver over table bits
# ---------------------------------------------------------------------------

class _BudgetExceeded(Exception):
    pass


class _Solver:
    """Conflict-driven clause learning over a fixed clause list; returns the
    lexicographically least satisfying assignment (ascending variable index,
    false before true) as a list of 0/1 values.

    ``clauses`` are the grounder's: tuples of signed literals over variables
    1..nvars (``-v`` for not v) in ascending order, whose first two
    literals are the first watches, so the order fixes every counter.  The
    tuples may be shared read-only with other solvers: watch positions live
    in the solver's own ``w1``/``w2``.  The solver keeps its own list of
    them, to which it appends the clauses it learns.  ``steps`` counts
    assignments, decisions included, against ``budget``."""

    def __init__(self, nvars: int, clauses: Sequence[Sequence[int]],
                 budget: int):
        self.nvars = nvars
        self.budget = budget
        self.steps = 0
        self.decisions = 0
        self.conflicts = 0
        self.clauses = list(clauses)
        # Indexed by signed literal, negative ones from the end: values and
        # watch lists at every literal; levels, reasons (clause indices, -1
        # for decisions) and analysis marks at the literal that is true.
        size = 2 * nvars + 1
        self.vals = [-1] * size
        self.watches: list[list[int]] = [[] for _ in range(size)]
        self.level = [0] * size
        self.reason = [-1] * size
        self.seen = bytearray(size)
        self.trail: list[int] = []
        self.trail_lim: list[int] = []
        self.qhead = 0
        self.next_var = 1
        self.w1: list[int] = []
        self.w2: list[int] = []
        self.units: list[tuple[int, int]] = []
        self.unsat = False
        for ci, clause in enumerate(self.clauses):
            if len(clause) > 1:
                self.w1.append(clause[0])
                self.w2.append(clause[1])
                self.watches[clause[0]].append(ci)
                self.watches[clause[1]].append(ci)
            else:
                self.w1.append(0)
                self.w2.append(0)
                if clause:
                    self.units.append((clause[0], ci))
                else:
                    self.unsat = True

    def _enqueue(self, lit: int, reason: int) -> None:
        self.vals[lit] = 1
        self.vals[-lit] = 0
        self.level[lit] = len(self.trail_lim)
        self.reason[lit] = reason
        self.trail.append(lit)
        self.steps += 1
        if self.steps > self.budget:
            raise _BudgetExceeded()

    def _propagate(self) -> int:
        """Unit propagation from ``qhead``, deciding the lowest unassigned
        variable, false first, whenever nothing is left to propagate (here,
        to save a call per decision): the index of a clause whose literals
        are all false, or -1 once every variable is assigned."""
        vals = self.vals
        watches = self.watches
        clauses = self.clauses
        w1 = self.w1
        w2 = self.w2
        trail = self.trail
        trail_lim = self.trail_lim
        level = self.level
        reason = self.reason
        nvars = self.nvars
        lvl = len(trail_lim)
        steps = self.steps
        budget = self.budget
        qhead = self.qhead
        var = self.next_var
        conflict = -1
        while True:
            if qhead == len(trail):
                while var <= nvars and vals[var] != -1:
                    var += 1
                if var > nvars:
                    break
                self.decisions += 1
                trail_lim.append(qhead)
                lvl += 1
                vals[-var] = 1
                vals[var] = 0
                level[-var] = lvl
                reason[-var] = -1
                trail.append(-var)
                steps += 1
                if steps > budget:
                    self.steps = steps
                    raise _BudgetExceeded()
            false_lit = -trail[qhead]
            qhead += 1
            watchers = watches[false_lit]
            if not watchers:
                continue
            kept: list[int] = []
            for pos, ci in enumerate(watchers):
                other = w1[ci]
                if other == false_lit:
                    other = w2[ci]
                v_other = vals[other]
                if v_other == 1:
                    kept.append(ci)
                    continue
                for cand in clauses[ci]:
                    # false_lit itself is false, so only the other watch
                    # needs excluding; comparing first spares its lookup.
                    if cand != other and vals[cand] != 0:
                        w1[ci] = other
                        w2[ci] = cand
                        watches[cand].append(ci)
                        break
                else:
                    kept.append(ci)
                    w1[ci] = other
                    w2[ci] = false_lit
                    if v_other == 0:
                        kept.extend(watchers[pos + 1:])
                        conflict = ci
                        break
                    vals[other] = 1
                    vals[-other] = 0
                    level[other] = lvl
                    reason[other] = ci
                    trail.append(other)
                    steps += 1
                    if steps > budget:
                        self.steps = steps
                        raise _BudgetExceeded()
            watches[false_lit] = kept
            if conflict >= 0:
                break
        self.steps = steps
        self.qhead = qhead
        self.next_var = var
        return conflict

    def _backtrack(self, lvl: int) -> None:
        trail_lim = self.trail_lim
        if len(trail_lim) <= lvl:
            return
        trail = self.trail
        vals = self.vals
        stop = trail_lim[lvl]
        # Variables below the first undone decision, -var, stay assigned.
        self.next_var = -trail[stop]
        for lit in trail[stop:]:
            vals[lit] = vals[-lit] = -1
        del trail[stop:]
        del trail_lim[lvl:]
        self.qhead = stop

    def _analyze(self, lits: Sequence[int]) -> list[int]:
        """The first-UIP clause of a conflict clause whose literals are all
        false and which has a literal at the current level: its asserting
        literal first, then a literal of the highest remaining level."""
        level = self.level
        reason = self.reason
        clauses = self.clauses
        trail = self.trail
        seen = self.seen
        current = len(self.trail_lim)
        learnt = [0]
        pending = 0
        p = 0
        index = len(trail)
        while True:
            for q in lits:
                if q == p or seen[-q] or level[-q] == 0:
                    continue
                seen[-q] = 1
                if level[-q] == current:
                    pending += 1
                else:
                    learnt.append(q)
            index -= 1
            while not seen[trail[index]]:
                index -= 1
            p = trail[index]
            seen[p] = 0
            pending -= 1
            if pending == 0:
                break
            lits = clauses[reason[p]]
        learnt[0] = -p
        best = 1
        for k in range(1, len(learnt)):
            seen[-learnt[k]] = 0
            if level[-learnt[k]] > level[-learnt[best]]:
                best = k
        if len(learnt) > 2:
            learnt[1], learnt[best] = learnt[best], learnt[1]
        return learnt

    def _learn(self, lits: Sequence[int]) -> bool:
        """Learn from a clause whose literals are all false, backjump and
        assert; False when the clause is false at level 0."""
        level = self.level
        top = max(level[-lit] for lit in lits)
        if top == 0:
            return False
        self._backtrack(top)
        learnt = self._analyze(lits)
        if len(learnt) == 1:
            self._backtrack(0)
            self._enqueue(learnt[0], -1)
            return True
        self._backtrack(level[-learnt[1]])
        ci = len(self.clauses)
        self.clauses.append(learnt)
        self.w1.append(learnt[0])
        self.w2.append(learnt[1])
        self.watches[learnt[0]].append(ci)
        self.watches[learnt[1]].append(ci)
        self._enqueue(learnt[0], ci)
        return True

    def solve(self) -> list[int] | None:
        if self.unsat:
            return None
        vals = self.vals
        for lit, ci in self.units:
            if vals[lit] == 0:
                self.conflicts += 1
                return None
            if vals[lit] == -1:
                self._enqueue(lit, ci)
        while True:
            conflict = self._propagate()
            if conflict < 0:
                return vals[1:self.nvars + 1]
            self.conflicts += 1
            if not self._learn(self.clauses[conflict]):
                return None


# ---------------------------------------------------------------------------
# Branch generation
# ---------------------------------------------------------------------------

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


def _relabelings(survivors, slots, n_things: int, n_worlds: int):
    """Each survivor with its unfixed permutations among ``slots`` (0 for
    things, 1 for worlds) replaced by every permutation, generated lazily."""
    for thing_perm, world_perm in survivors:
        for tp in (itertools.permutations(range(n_things))
                   if thing_perm is None and 0 in slots else (thing_perm,)):
            for wp in (itertools.permutations(range(n_worlds))
                       if world_perm is None and 1 in slots else (world_perm,)):
                yield tp, wp


def _least_relabeling(profiles, bits: bytes, n_things: int,
                      n_worlds: int) -> bytes:
    """The least key over all sort-respecting relabelings of the universes:
    byte i of a relabeling's key is the bit of the image of atom i of
    ``atom_space(profiles, ...)``, whose bits ``bits`` holds.

    The atoms are laid out predicate by predicate, so a key is a
    concatenation of fixed-length blocks and the least key is found block
    by block: each block keeps only the relabelings whose block is least so
    far, ties included, and the next block filters those.  A relabeling is
    a pair of permutations (things, worlds), element e going to perm[e]; a
    permutation no block has needed yet is None, and is enumerated lazily
    when a block first needs it.  A block whose bits are all equal is the
    same under every relabeling and filters nothing."""
    sizes = {Sort.THING: n_things, Sort.WORLD: n_worlds}
    slot = {Sort.THING: 0, Sort.WORLD: 1}
    survivors = [(None, None)]
    key = []
    offset = 0
    for sorts in profiles.values():
        # Image index: the offset plus the mixed-radix number of the
        # permuted element indices, the first argument most significant.
        args = []
        length = 1
        for s in reversed(sorts):
            args.insert(0, (slot[s], length))
            length *= sizes[s]
        block = bits[offset:offset + length]
        if 0 in block and 1 in block:
            least = None
            for relabeling in _relabelings(survivors, {a for a, _ in args},
                                           n_things, n_worlds):
                indices = [offset]
                for a, weight in args:
                    perm = relabeling[a]
                    indices = [i + x * weight for i in indices for x in perm]
                image = bytes([bits[i] for i in indices])
                if least is None or image < least:
                    least, kept = image, [relabeling]
                elif image == least:
                    kept.append(relabeling)
            block, survivors = least, kept
        key.append(block)
        offset += length
    return b"".join(key)


def _tables(atoms, bits) -> dict[str, set]:
    tables: dict[str, set] = {}
    for bit, (pred, labels) in zip(bits, atoms):
        if bit:
            tables.setdefault(pred, set()).add(labels)
    return tables


def canonical_form(model: FiniteModel) -> FiniteModel:
    """Relabel to the lexicographically least model among all sort-respecting
    permutations of each universe; idempotent, and equal on isomorphic models
    presented over the same universe lists.

    Models are compared by their table bits in ``atom_space`` order, table
    by table in name order.  The least relabeling is found table by table:
    each table keeps only the relabelings under which its bits are least so
    far, ties included, and the first table that tells relabelings apart
    enumerates them lazily.  The answer is the one trying every relabeling
    gives."""
    profiles = {pred: _column_sorts(model, pred, table)
                for pred, table in sorted(model.tables.items())}
    atoms = atom_space(profiles, model.things, model.worlds)
    bits = bytes([labels in model.tables[pred] for pred, labels in atoms])
    if sum(bits) != sum(map(len, model.tables.values())):
        raise LogicError("a table row has an element outside its column's universe")
    best = _least_relabeling(profiles, bits, len(model.things),
                             len(model.worlds))
    return FiniteModel(model.name, model.things, model.worlds,
                       _tables(atoms, best))


# ---------------------------------------------------------------------------
# The bounded search
# ---------------------------------------------------------------------------

def _search(premises: Sequence[tuple[str, Formula]],
            target: tuple[str, Formula], config: SearchConfig,
            workers: int = 1) -> EntailmentVerdict:
    """The bounded search over named formulas: ``premises`` and ``target``
    are (name, formula) pairs, and a failed re-check names the formula."""
    if workers < 1:
        raise SearchError("workers must be >= 1")
    premise_formulas = [formula for _, formula in premises]
    all_formulas = premise_formulas + [target[1]]

    # Without World in any formula no world universe is searched, so the
    # reported world bound is 0 whatever the configuration allows.
    world_bound = 0
    if any(mentions_world(f) for f in all_formulas):
        world_bound = 2 if config.max_world_size is None else config.max_world_size
        if world_bound < 1:
            raise SearchError("the axioms mention World; max_world_size must be >= 1")
    # A (things, worlds) size is computed from its index in ascending
    # order, so a size costs nothing until the walk reaches it.
    world_range = range(1, world_bound + 1) or range(1)

    def size(index):
        n_things, world_index = divmod(index, len(world_range))
        return n_things + 1, world_range[world_index]

    profiles = predicate_profiles(all_formulas)
    # The premises and the negated target's matrix are compiled once per
    # search; every size instantiates them.
    compiled = [compile_formula(nnf(formula)) for formula in premise_formulas]
    prefix, matrix = quantifier_prefix(nnf(Not(target[1])), Exists)
    matrix = compile_formula(matrix, prefix)

    def universes(index):
        n_things, n_worlds = size(index)
        things = tuple(f"t{i}" for i in range(n_things))
        worlds = tuple(f"w{i}" for i in range(n_worlds))
        return things, worlds, atom_space(profiles, things, worlds)

    def solve(index):
        return _least_branch_key(compiled, prefix, matrix, *universes(index),
                                 profiles, config)

    # The walk draws the sizes' outcomes in ascending order: counters are
    # summed in size order, and the first size out of budget or with a key
    # ends it, before any later size is solved or any worker forked.
    totals = [0] * len(STATS_COUNTERS)
    exhausted: list[tuple[int, int]] = []
    outcomes = _outcomes(solve, config.max_thing_size, len(world_range), workers)
    for index, outcome in enumerate(outcomes):
        key, counters = outcome
        if counters is None:
            # An unexhausted size cannot show that a model found in a
            # branch is the least one.
            raise ResourceLimitExceeded(*size(index), config.node_budget)
        totals = [total + count for total, count in zip(totals, counters)]
        if key is not None:
            things, worlds, atoms = universes(index)
            model = FiniteModel("countermodel", things, worlds,
                                _tables(atoms, key))
            _recheck(model, premises, target)
            return Refuted(model, *size(index), SearchStats(
                tuple(profiles), *totals, tuple(exhausted)))
        exhausted.append(size(index))

    return NoCounterexampleUpTo(config.max_thing_size, world_bound, SearchStats(
        tuple(profiles), *totals, tuple(exhausted)))


#: Sizes of at most this many things are solved in the calling process
#: before any worker is forked: each takes about a millisecond, and every
#: counter-model found so far has at most 2 things, so forking for them
#: would only delay the common answer.
SEQUENTIAL_THINGS = 2


def _outcomes(solve, max_things: int, per_thing: int, workers: int):
    """``solve(index)`` for each size in ascending order, lazily: up to
    ``max_things`` things, with ``per_thing`` world sizes each.  With more
    than one worker, the sizes above ``SEQUENTIAL_THINGS`` things are
    solved in worker processes (``workers.solve_sizes``) once the walk
    reaches them, up to the first size that ends the search."""
    n_sizes = max_things * per_thing
    head = n_sizes if workers == 1 else \
        min(max_things, SEQUENTIAL_THINGS) * per_thing
    yield from map(solve, range(head))
    if head < n_sizes:
        # Imported here, so that a search in one process does not compile
        # the module.
        from .workers import solve_sizes
        yield from solve_sizes(solve, head, n_sizes, workers)


def _least_branch_key(premises, prefix, matrix, things, worlds, atoms,
                      profiles, config: SearchConfig):
    """Ground one size and solve its branches: the least canonical key of
    a branch solution (None when the size is exhausted) and the size's
    counters in ``STATS_COUNTERS`` order, or (None, None) when the size
    ran out of node budget.  What the size built is freed on return,
    before the next size is grounded."""
    n_things, n_worlds = len(things), len(worlds)
    decisions = steps = conflicts = pruned = branches = 0
    prefix_sorts = [sort for _, sort in prefix]
    grounder = Grounder(things, worlds, atoms)
    # The premise clauses and their definitions are ground once per size;
    # every branch's solver reads them and adds its own.
    shared = []
    for premise in premises:
        shared += grounder.instantiate(premise)()
    premise_defs = len(grounder.definitions)
    shared += definition_clauses(grounder.definitions)

    branch_clauses = grounder.instantiate(matrix)

    # The node budget is per size: every branch draws on one counter.
    remaining = config.node_budget
    best = None
    universe_sizes = [n_things if s is Sort.THING else n_worlds
                      for s in prefix_sorts]
    for combo in itertools.product(*(range(n) for n in universe_sizes)):
        if config.pruning == "canonical" and \
                not _is_orbit_representative(combo, prefix_sorts):
            pruned += 1
            continue
        clauses = branch_clauses(combo)
        branches += 1
        if not all(clauses):
            # The branch's own clauses hold the empty clause: no solver,
            # and 0 steps, as a solver would report.
            continue
        # A matrix node whose free variables leave out a prefix variable
        # is memoized across branches, and so is its aux variable: a
        # branch may use any definition the size's grounder has made so far.
        nvars = len(atoms) + len(grounder.definitions)
        solver = _Solver(nvars, shared + clauses + definition_clauses(
            grounder.definitions[premise_defs:]), remaining)
        try:
            solution = solver.solve()
        except _BudgetExceeded:
            return None, None
        remaining -= solver.steps
        decisions += solver.decisions
        steps += solver.steps
        conflicts += solver.conflicts
        if solution is not None:
            # Equal keys denote the same model, so the first branch
            # reaching the least key decides it.
            key = _least_relabeling(profiles, bytes(solution[:len(atoms)]),
                                    n_things, n_worlds)
            if best is None or key < best:
                best = key
    return best, (decisions, steps, conflicts, pruned, branches)


def _recheck(model: FiniteModel, premises: Sequence[tuple[str, Formula]],
             target: tuple[str, Formula]) -> None:
    # Soundness gate: every returned refutation is re-checked by the
    # evaluator, independently of the clause machinery.
    for name, formula in premises:
        if not evaluate(formula, model):
            raise RecheckError(
                f"internal error: returned model fails premise {name}")
    if evaluate(target[1], model):
        raise RecheckError(
            f"internal error: returned model satisfies target {target[0]}")


def _named(selector: Selector) -> list[tuple[str, Formula]]:
    """The (id, formula) pairs of the register entries a selector names."""
    return [(entry.id, entry.formula) for entry in axiom_set(selector)]


def find_countermodel(premises: Selector, target: str,
                      config: SearchConfig | None = None
                      ) -> tuple[FiniteModel, int] | None:
    """First counter-model in canonical enumeration order, with its thing
    size, or None when every size up to the bound exhausts."""
    verdict = entails_bounded(premises, target, config)
    if isinstance(verdict, Refuted):
        return verdict.model, verdict.thing_size
    return None


def entails_bounded(premises: Selector, target: str,
                    config: SearchConfig | None = None,
                    workers: int = 1) -> EntailmentVerdict:
    """Refuted(model) when a counter-model exists up to the bound, otherwise
    NoCounterexampleUpTo(bound); never a claim of unbounded validity.
    ``workers`` above 1 solves the sizes in that many processes at most,
    forked for the search; the result does not depend on it."""
    return _search(_named(premises), _named([target])[0],
                   config or SearchConfig(), workers)


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
