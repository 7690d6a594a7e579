"""Bounded counter-model search and bounded semantic entailment.

The engine looks for a finite model satisfying the premises while falsifying
the target, over the sizes up to the bound.  Its core, ``_search``,
takes (name, formula) pairs and never reads the register; the public
functions resolve axiom ids through ``registry.axiom_set``.  The formulas'
predicates are profiled once per search (``grounding.predicate_profiles``).
Each premise's universal prefix is split off and its matrix compiled once
(``grounding.compile_formula``), and so is the matrix of the negated target
under its existential prefix.  Atoms are indices laid out from the profiles
(``grounding.atom_layout``).  The negated target's prefix is split into
instantiation branches (orbit representatives under canonical pruning);
each grounds the matrix with the prefix bound to the branch's indices.

The premises are instantiated lazily, by counterexample-guided
instantiation at a fixed domain size (Ge & de Moura, "Complete
instantiation for quantified formulas in SMT", CAV 2009).  A branch's
solver (``solver.Solver``) starts from the branch's clauses, the premise
instances at the elements the branch names (at every element of a sort it
names none of), and the instances earlier branches of the size added.
Each model it finds is checked at the other instances with the compiled
formulas themselves (``grounding.TruthGrounder``).  The instances it
falsifies are added, each with its renamings: an instance that takes one
element the branch does not name is added at every such element, since
the branch's own clauses cannot tell those elements apart.  Then the
solver solves again, until a model falsifies no instance or the clauses
are unsatisfiable.  A size grounds each instance once, definitionally:
auxiliary variables stand for shared ground subformulas and are numbered
after the table atoms, and a branch holds every definition the size's
grounder has made.  The solver returns the least model of the clauses it
holds.  They are a subset of the full grounding, whose least model is
therefore at least that model M; when M falsifies no instance it is a
model of the full grounding, so the two are equal, and an unsatisfiable
subset means an unsatisfiable grounding.  Verdicts and counter-models are
those of grounding every instance; only the counters depend on which
instances a branch holds.

Skipping the branches that do not represent their orbit is the search's
only symmetry mechanism.

The node budget counts assignments, decisions and auxiliary ones included,
per size across all of its branches and their solves.  Only the sizes the
search solves spend it.

Determinism contract: within a branch the solver finds the least assignment
in lexicographic order of the canonical table-bit encoding (ascending atom
index, false before true) followed by the auxiliary variables, so the table
bits of its last solution are the branch's least table solution; the reported
model is the least canonical relabeling among branch solutions.  The result
is identical across runs and worker counts.

Each size is an independent job with its own grounder, node budget and
least key, and the answer is the least thing count with a counter-model,
then the least world count.  One walk solves sizes in order, world sizes
ascending within each thing count, and stops at the first size with a
key.  When padding holds (``_paddable``: adding an inert thing to a
counter-model gives another one), a size without a counter-model settles
every smaller thing count with the same worlds, so the walk doubles the
thing count from 1 up to the bound, and narrows the first refuted count
down by bisection, solving every world size of each count it tries.
Otherwise it solves every size in ascending order.  The calling process
solves every scheduled size of at most ``CALLER_THINGS`` things itself.
With ``workers`` above 1 and at least two sizes scheduled above
``CALLER_THINGS`` things, those may be solved in forked processes
(``workers.py``), which report each size's key and counters, the ones the
calling process would compute itself; the calling process still draws them
in schedule order, sums the counters, fails at the first size out of
budget and stops at the first with a key.  So verdicts, models, counters
and errors do not depend on the worker count.  A caller that runs threads
of its own should keep ``workers`` at 1, the default, which forks nothing.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from collections.abc import Sequence

from .grounding import (Grounder, TruthGrounder, atom_layout, atom_space,
                        compile_formula, nnf, predicate_profiles)
from .logic import (And, Eq, Exists, FiniteModel, ForAll, Formula,
                    LogicError, Not, Or, Pred, Sort, TrueF, Value, Var,
                    evaluate, mentions_world, quantifier_prefix)
from .registry import Selector, axiom_set
from .solver import BudgetExceeded, Solver

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


class InsufficientEvidenceError(Exception):
    """The verdict bundle does not determine an outcome class.

    Raised by ``experiments.classify_outcome`` and exported from there; it
    is defined here so that the CLI can catch it without importing the
    experiments."""


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
        super().__init__(max_thing_size, max_world_size, pruning, node_budget)


#: The additive counters of ``SearchStats``, in report order.
STATS_COUNTERS = ("candidates_visited", "propagations", "conflicts",
                  "pruned_subtrees", "branches_total", "premise_instances")


class SearchStats(Value):
    """The search's counters.  ``pruned_subtrees`` counts instantiation
    branches skipped as non-representatives of their orbit, and
    ``premise_instances`` the premise instances ground, summed over the
    sizes solved.
    ``sizes_exhausted`` lists the (things, worlds) sizes solved without a
    counter-model, in the order solved; ``sizes_padded`` the sizes below
    the answer that were not solved, because padding settles them."""

    __slots__ = ("support", "candidates_visited", "propagations", "conflicts",
                 "pruned_subtrees", "branches_total", "premise_instances",
                 "sizes_exhausted", "sizes_padded")

    def __init__(self, support: tuple[str, ...] = (),
                 candidates_visited: int = 0, propagations: int = 0,
                 conflicts: int = 0, pruned_subtrees: int = 0,
                 branches_total: int = 0, premise_instances: int = 0,
                 sizes_exhausted: tuple[tuple[int, int], ...] = (),
                 sizes_padded: tuple[tuple[int, int], ...] = ()):
        super().__init__(support, candidates_visited, propagations, conflicts,
                         pruned_subtrees, branches_total, premise_instances,
                         sizes_exhausted, sizes_padded)

    def to_json_dict(self) -> dict:
        doc = {"support": list(self.support)}
        doc.update((name, getattr(self, name)) for name in STATS_COUNTERS)
        doc["sizes_exhausted"] = [list(size) for size in self.sizes_exhausted]
        doc["sizes_padded"] = [list(size) for size in self.sizes_padded]
        return doc


class Refuted(Value):
    """A counter-model, found by a search up to ``thing_bound`` things."""

    __slots__ = ("model", "thing_size", "world_size", "thing_bound", "stats")
    kind = "refuted"
    is_refuted = True

    @property
    def bound(self) -> tuple[int, int]:
        # The world figure is the counter-model's world count, not the world
        # bound searched (A13_converse reports worlds 1 of the 2 searched).
        # Correcting it changes ``experiment run all --json``, so it waits
        # for a change that may re-record that answer in bench/expected.json.
        return self.thing_bound, self.world_size

    def describe(self) -> str:
        if self.world_size:
            return f"Refuted(size={self.thing_size}; worlds={self.world_size})"
        return f"Refuted(size={self.thing_size})"

    def to_json_dict(self) -> dict:
        things, worlds = self.bound
        model = self.model
        return {
            "verdict": self.kind,
            "bound": {"things": things, "worlds": worlds},
            "size": {"things": self.thing_size, "worlds": self.world_size},
            "model": {
                "name": model.name,
                "things": list(model.things),
                "worlds": list(model.worlds),
                "tables": {pred: sorted(list(row) for row in table)
                           for pred, table in sorted(model.tables.items())},
            },
        }


class NoCounterexampleUpTo(Value):
    __slots__ = ("thing_bound", "world_bound", "stats")
    kind = "no_counterexample"
    is_refuted = False

    @property
    def bound(self) -> tuple[int, int]:
        return self.thing_bound, self.world_bound

    def describe(self) -> str:
        if self.world_bound:
            return (f"NoCounterexampleUpTo({self.thing_bound}; "
                    f"worlds {self.world_bound})")
        return f"NoCounterexampleUpTo({self.thing_bound})"

    def to_json_dict(self) -> dict:
        things, worlds = self.bound
        return {"verdict": self.kind,
                "bound": {"things": things, "worlds": worlds}}


EntailmentVerdict = Refuted | NoCounterexampleUpTo


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
    ``atom_layout(profiles, ...)``, whose bits ``bits`` holds.

    The layout puts each predicate's atoms in one block, so a key is a
    concatenation of fixed-length blocks and the least key is found block
    by block: each block keeps only the relabelings whose block is least so
    far, ties included, and the next block filters those.  A relabeling is
    a pair of permutations (things, worlds), element e going to perm[e]; a
    permutation no block has needed yet is None, and is enumerated lazily
    when a block first needs it.  A block whose bits are all equal is the
    same under every relabeling and filters nothing."""
    slot = {Sort.THING: 0, Sort.WORLD: 1}
    layout, _ = atom_layout(profiles, {Sort.THING: n_things,
                                       Sort.WORLD: n_worlds})
    survivors = [(None, None)]
    key = []
    for name, sorts in profiles.items():
        atoms, weights = layout[name]
        args = [(slot[s], weight) for s, weight in zip(sorts, weights)]
        block = bits[atoms.start:atoms.stop]
        if 0 in block and 1 in block:
            least = None
            for relabeling in _relabelings(survivors, {a for a, _ in args},
                                           n_things, n_worlds):
                indices = [atoms.start]
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
# Padding with an inert thing
# ---------------------------------------------------------------------------

def _paddable(formula: Formula) -> bool:
    """Whether every model of the NNF ``formula`` stays a model when a new
    thing e is added at which every atom mentioning it is false: then a
    counter-model of n things pads to one of n + 1 with the same worlds.

    A sufficient test: every ForAll over things has a body that comes out
    true with its variable at e, whatever the atoms without e.  NNF is
    monotone, an Exists keeps its witness, and each ForAll gains exactly the
    instance at e (Claessen, Lillieström & Smallbone, "Sort it out with
    monotonicity", CADE 2011).  An inert world would falsify a premise such as A18's
    ``existsAt(x, w)`` for every w, so world counts are never padded."""
    if isinstance(formula, (And, Or)):
        return all(map(_paddable, formula.items))
    if isinstance(formula, (ForAll, Exists)):
        if isinstance(formula, ForAll) and formula.sort is Sort.THING and \
                _at_inert(formula.body, formula.var, set()) is not True:
            return False
        return _paddable(formula.body)
    return True


def _at_inert(formula: Formula, var: str | None, inner: set) -> bool | None:
    """The value of the NNF ``formula`` when ``var`` names the inert thing
    e, by three-valued simplification: True, False, or None when it depends
    on atoms without e.  An atom mentioning e is false and ``e = e`` true.
    ``inner`` holds the names of the variables bound inside the padded
    ForAll's body: those range over e as well, so ``e = y`` is unknown for
    them and false for any other term, which names a thing of the padded
    model."""
    kind = type(formula)
    if kind is Pred:
        return False if var in _var_names(formula.args) else None
    if kind is Eq:
        if formula.left == formula.right:
            return True
        names = _var_names((formula.left, formula.right))
        return False if var in names and not names & inner else None
    if kind is Not:
        value = _at_inert(formula.body, var, inner)
        return None if value is None else not value
    if kind is ForAll or kind is Exists:
        # Every universe is non-empty, so a body true (false) at every
        # element makes either quantifier true (false).  A rebound name
        # no longer denotes e.
        return _at_inert(formula.body, None if formula.var == var else var,
                         inner | {formula.var})
    if kind is And or kind is Or:
        # True decides a disjunction, False a conjunction.
        decides = kind is Or
        values = {_at_inert(item, var, inner) for item in formula.items}
        if decides in values:
            return decides
        return None if None in values else not decides
    return kind is TrueF


def _var_names(terms) -> set[str]:
    return {term.name for term in terms if type(term) is Var}


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
    per_thing = len(world_range)

    def size(index):
        n_things, world_index = divmod(index, per_thing)
        return n_things + 1, world_range[world_index]

    profiles = predicate_profiles(all_formulas)
    # The premises' matrices and the negated target's are compiled once per
    # search; every size grounds instances of them.
    premise_nnfs = [nnf(formula) for formula in premise_formulas]
    compiled = []
    for formula in premise_nnfs:
        bound, body = quantifier_prefix(formula, ForAll)
        compiled.append((compile_formula(body, bound), bound))
    negated = nnf(Not(target[1]))
    prefix, matrix = quantifier_prefix(negated, Exists)
    matrix = compile_formula(matrix, prefix)

    def universes(index):
        n_things, n_worlds = size(index)
        things = tuple(f"t{i}" for i in range(n_things))
        worlds = tuple(f"w{i}" for i in range(n_worlds))
        return things, worlds

    def solve(index):
        return _least_branch_key(compiled, prefix, matrix, *universes(index),
                                 profiles, config)

    # The walk draws the sizes' outcomes in schedule order: counters are
    # summed in that order, and the first size out of budget or with a key
    # ends it, before any later size is solved or any worker forked.
    totals = [0] * len(STATS_COUNTERS)
    exhausted: list[tuple[int, int]] = []

    def first_key(indices, workers):
        for index, (key, counters) in zip(
                indices, _outcomes(solve, indices, workers)):
            if counters is None:
                # An unexhausted size cannot show that a model found in a
                # branch is the least one.
                raise ResourceLimitExceeded(*size(index), config.node_budget)
            totals[:] = map(sum, zip(totals, counters))
            if key is not None:
                return index, key
            exhausted.append(size(index))
        return None, None

    schedule = _schedule(config.max_thing_size, per_thing,
                         _paddable(And(premise_nnfs + [negated])))
    # The schedule ascends, so the sizes of at most CALLER_THINGS things are
    # its head.
    split = bisect_left(schedule, CALLER_THINGS * per_thing)
    index, key = first_key(schedule[:split], 1)
    if index is None:
        index, key = first_key(schedule[split:], workers)
    if index is not None:
        # The walk solved every world size of each scheduled thing count
        # below the first refuted one, and a counter-model pads to every
        # larger thing count, so the least refuted count lies above the last
        # count walked below it: bisect.  Where every size is scheduled,
        # none lies between.
        high = size(index)[0]
        low = max((n for n, _ in exhausted if n < high), default=0)
        while high - low > 1:
            middle = (low + high) // 2
            hit = first_key(
                range((middle - 1) * per_thing, middle * per_thing), 1)
            if hit[0] is None:
                low = middle
            else:
                high, (index, key) = middle, hit
    # Each size below the answer that no solve exhausted follows from a
    # larger exhausted size with the same worlds.
    limit = config.max_thing_size * per_thing if index is None else index
    padded = sorted(set(map(size, range(limit))).difference(exhausted))
    stats = SearchStats(tuple(profiles), *totals, tuple(exhausted),
                        tuple(padded))
    if index is None:
        return NoCounterexampleUpTo(config.max_thing_size, world_bound, stats)
    things, worlds = universes(index)
    model = FiniteModel("countermodel", things, worlds,
                        _tables(atom_space(profiles, things, worlds), key))
    _recheck(model, premises, target)
    return Refuted(model, *size(index), config.max_thing_size, stats)


#: The scheduled sizes of at most this many things are solved in the calling
#: process, whatever the worker count, and workers are forked only for
#: two or more sizes above it: one size left leaves nothing to share.  On a
#: 2-core host a size of 4 things takes 0.5 ms (PSRSubstance |=
#: PropV_allshared) to 3.3 ms (PSRPlenitude |= A15).  Forking for 4 and 8
#: things made a ``--workers 2`` process for PropV_allshared at bound 8
#: 3.5 ms slower than one worker (41.3 against 37.8 ms); a gate at 8 things
#: made A15 at bounds 12 and 16 15-16 ms slower than this one.
CALLER_THINGS = 4


def _schedule(max_things: int, per_thing: int, paddable: bool):
    """The indices of every size the walk solves, things-major with the
    world sizes ascending: for a paddable search the thing counts 1, 2, 4,
    8, ... doubling up to ``max_things``, otherwise every one, in a
    ``range`` that costs nothing until the walk reaches a size."""
    if not paddable:
        return range(max_things * per_thing)
    counts = [1]
    while counts[-1] < max_things:
        counts.append(min(2 * counts[-1], max_things))
    return [(n - 1) * per_thing + world
            for n in counts for world in range(per_thing)]


def _outcomes(solve, indices: Sequence[int], workers: int):
    """``solve(index)`` for each index in order, lazily, and with more than
    one worker and more than one size in worker processes
    (``workers.solve_sizes``), up to the first size that ends the search."""
    if workers == 1 or len(indices) < 2:
        return map(solve, indices)
    # Imported here, so that a search in one process does not compile the
    # module.
    from .workers import solve_sizes
    return solve_sizes(solve, indices, workers)


def _least_branch_key(premises, prefix, matrix, things, worlds, profiles,
                      config: SearchConfig):
    """Solve one size's branches: the least canonical key of a branch
    solution (None when the size is exhausted) and the size's counters in
    ``STATS_COUNTERS`` order, or (None, None) when the size ran out of node
    budget.  ``premises`` holds each premise's compiled matrix and
    universal prefix.  What the size built is freed on return, before the
    next size is grounded."""
    decisions = steps = conflicts = pruned = branches = 0
    prefix_sorts = [sort for _, sort in prefix]
    grounder = Grounder(profiles, things, worlds)
    natoms = grounder.natoms
    elements = {sort: range(n) for sort, n in grounder.size.items()}
    branch_clauses = matrix(grounder)
    ground_at = [compiled(grounder) for compiled, _ in premises]
    # Each premise instance is ground once per size, and serves every
    # branch that holds it; the instances one branch adds seed the next.
    instances: dict = {}
    added: list = []

    def clauses_of(keys):
        out = []
        for p, env in keys:
            clauses = instances.get((p, env))
            if clauses is None:
                clauses = instances[p, env] = ground_at[p](env)
            out += clauses
        return out

    # The node budget is per size: every branch draws on one counter.
    remaining = config.node_budget
    best = None
    for combo in itertools.product(*(elements[s] for s in prefix_sorts)):
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
        # The elements the branch names, and every element of a sort it
        # names none of.
        named = {sort: sorted({e for e, s in zip(combo, prefix_sorts)
                               if s is sort}) if sort in prefix_sorts else
                 universe for sort, universe in elements.items()}
        held = {(p, env) for p, (_, bound) in enumerate(premises)
                for env in itertools.product(*(named[s] for _, s in bound))}
        held.update(added)
        clauses = clauses + clauses_of(sorted(held))
        try:
            # A branch may use any definition the size's grounder has made:
            # a memoized matrix node's, or another branch's instance's.
            solver = Solver(natoms + len(grounder.definitions),
                            clauses + grounder.defining, remaining)
            while (solution := solver.solve()) is not None:
                violated = _violated(premises, profiles, things, worlds,
                                     solution[:natoms], elements, held)
                if not violated:
                    break
                # The next least model tends to falsify the same instance at
                # another element the branch does not name: add them at once.
                violated = sorted({(p, other) for p, env in violated
                                   for other in _renamings(
                                       env, premises[p][1], named, elements)}
                                  - held)
                held.update(violated)
                added += violated
                start = len(grounder.defining)
                clauses = clauses_of(violated)
                solver.add(clauses + grounder.defining[start:],
                           natoms + len(grounder.definitions))
        except BudgetExceeded:
            return None, None
        remaining -= solver.steps
        decisions += solver.decisions
        steps += solver.steps
        conflicts += solver.conflicts
        if solution is not None:
            # Equal keys denote the same model, so the first branch
            # reaching the least key decides it.
            key = _least_relabeling(profiles, bytes(solution[:natoms]),
                                    len(things), len(worlds))
            if best is None or key < best:
                best = key
    return best, (decisions, steps, conflicts, pruned, branches,
                  len(instances))


def _violated(premises, profiles, things, worlds, bits, elements, held):
    """The (premise, environment) keys of the premise instances outside
    ``held`` that the table bits falsify, in order.  The bits are read, and
    a premise compiled against them, only for a premise with such an
    instance."""
    truth = None
    violated = []
    for p, (compiled, bound) in enumerate(premises):
        envs = [env for env in itertools.product(
            *(elements[s] for _, s in bound)) if (p, env) not in held]
        if envs:
            if truth is None:
                truth = TruthGrounder(profiles, things, worlds, bits)
            falsified = compiled(truth)
            violated += [(p, env) for env in envs if falsified(env)]
    return violated


def _renamings(env, bound, named, elements):
    """``env`` with the one element it takes that is not ``named`` replaced
    by each such element of its sort; ``env`` alone when it takes none of
    them, or more than one."""
    sorts = [sort for _, sort in bound]
    unnamed = {(e, s) for e, s in zip(env, sorts) if e not in named[s]}
    if len(unnamed) != 1:
        return [env]
    ((old, sort),) = unnamed
    return [tuple(new if (e, s) == (old, sort) else e
                  for e, s in zip(env, sorts))
            for new in elements[sort] if new not in named[sort]]


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
