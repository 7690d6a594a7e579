"""Independent brute-force oracles.

These enumerate every table assignment over a support set and evaluate
formulas with the plain evaluator, bypassing the grounding and search
machinery entirely; search results are checked against them.  The search's
DPLL solver without learning is kept here too, as an oracle for the
clause-learning solver that replaced it, and so is the grounder that walked
the formula tree at every size, as the reference for the compiled one, and
the canonicaliser that tried every relabeling, as the reference for the
block-wise filter, and the register's formulas as they were built from
constructors before the registry parsed them from their display text,
and the argparse parser the command line was read with before the CLI's
command table replaced it.

A clause has one format throughout, the grounder's: a tuple of signed
literals over variables 1..n (``-v`` for not v) in ascending order.  The
reference grounder emits it and the DPLL oracle reads it, as the search's
solver does, so one clause list passes between all three unchanged.
"""

import argparse
import itertools
from collections import deque
from collections.abc import Iterable

from ethica import cli
from ethica.grounding import (GroundConstraintSet, GroundingError,
                              atom_space, nnf, predicate_profiles)
from ethica.logic import (And, Eq, Exists, FalseF, FiniteModel, ForAll,
                          Formula, Iff, Implies, Not, Or, Pred, Sort, TrueF,
                          Var, evaluate)
from ethica.registry import (ETHICA_SIGNATURE, attribute, axiom_set, is_god,
                             substance)

Clause = tuple[int, ...]
Definition = tuple[int, tuple[Clause, ...]]


def atom_list(support, things, worlds=()):
    atoms = []
    for pred in support:
        decl = ETHICA_SIGNATURE.declaration(pred)
        universes = [things if s is Sort.THING else worlds
                     for s in decl.argument_sorts]
        for row in itertools.product(*universes):
            atoms.append((pred, row))
    return atoms


def all_models(support, n_things, n_worlds=0):
    """Every model over the support predicates at the given sizes."""
    things = tuple(f"t{i}" for i in range(n_things))
    worlds = tuple(f"w{i}" for i in range(n_worlds))
    atoms = atom_list(support, things, worlds)
    for bits in itertools.product((False, True), repeat=len(atoms)):
        tables = {}
        for bit, (pred, row) in zip(bits, atoms):
            if bit:
                tables.setdefault(pred, set()).add(row)
        yield FiniteModel("brute", things, worlds, tables)


def refutes(model, premises, target):
    """model |= every premise and model |/= target, by direct evaluation."""
    entries = axiom_set(premises)
    target_entry = axiom_set([target])[0]
    return (all(evaluate(entry.formula, model) for entry in entries)
            and not evaluate(target_entry.formula, model))


def predicates(formula) -> set[str]:
    """The predicate names a formula mentions, by a walk of its tree."""
    if isinstance(formula, Pred):
        return {formula.name}
    if isinstance(formula, (Not, ForAll, Exists)):
        return predicates(formula.body)
    if isinstance(formula, (And, Or)):
        return set().union(*map(predicates, formula.items))
    if isinstance(formula, (Implies, Iff)):
        return predicates(formula.left) | predicates(formula.right)
    return set()


def countermodel_exists(premises, target, support, n_things, n_worlds=0):
    return any(refutes(model, premises, target)
               for model in all_models(support, n_things, n_worlds))


def assert_clause_format(clauses, natoms) -> int:
    """Assert the grounder's clause format on ``clauses`` over ``natoms``
    table atoms, and return how many are definitions.  A clause is a tuple
    of nonzero ints, strictly ascending, with no literal beside its
    negation.  An aux variable occurs negatively only in the clauses that
    define it, so a clause with a negative aux literal is a definition: it
    starts with ``-v``, ``v`` is above every other variable in it, and no
    other literal in it is a negative aux literal."""
    definitions = 0
    for clause in clauses:
        assert type(clause) is tuple, clause
        assert all(type(lit) is int and lit for lit in clause), clause
        assert all(a < b for a, b in zip(clause, clause[1:])), clause
        assert set(clause).isdisjoint([-lit for lit in clause]), clause
        if clause and clause[0] < -natoms:
            definitions += 1
            assert all(-natoms <= lit < -clause[0] for lit in clause[1:]), clause
    return definitions


def least_relabeling(atoms, bits, things, worlds) -> tuple[int, ...]:
    """The least bit vector over all sort-respecting relabelings of the
    universes: entry i is the bit of the image of ``atoms[i]``.  The atom
    list must be closed under relabeling.  This is the brute force the
    search used before its block-wise filter, kept as that filter's oracle."""
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


def random_model(rng, n_things, support, n_worlds=0, density=0.5):
    """A pseudo-random model over the support predicates."""
    things = tuple(f"t{i}" for i in range(n_things))
    worlds = tuple(f"w{i}" for i in range(n_worlds))
    tables = {}
    for pred, row in atom_list(support, things, worlds):
        if rng.random() < density:
            tables.setdefault(pred, set()).add(row)
    return FiniteModel("random", things, worlds, tables)


class _Dpll:
    """Chronological-backtracking DPLL with watched literals, deciding the
    lowest unassigned variable false first and learning nothing."""

    def __init__(self, nvars, clauses):
        self.clauses = clauses
        self.values = [-1] * nvars
        self.trail = []
        self.watch = {}
        self.w1 = []
        self.w2 = []
        self.unsat = False
        self.initial_units = []
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

    def _value(self, lit):
        v = self.values[abs(lit) - 1]
        if v == -1:
            return -1
        return v if lit > 0 else 1 - v

    def _assign(self, lit):
        var = abs(lit) - 1
        self.values[var] = 1 if lit > 0 else 0
        self.trail.append(var)

    def _propagate(self, pending):
        while pending:
            lit = pending.popleft()
            neg = -lit
            watchers = self.watch.get(neg)
            if not watchers:
                continue
            kept = []
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
                return False
            self.watch[neg] = kept
        return True

    def _assign_and_propagate(self, lit):
        v = self._value(lit)
        if v != -1:
            return v == 1
        self._assign(lit)
        return self._propagate(deque((lit,)))

    def _backtrack(self, decisions):
        while decisions:
            trail_len, var, tried_true = decisions.pop()
            while len(self.trail) > trail_len:
                self.values[self.trail.pop()] = -1
            if not tried_true:
                decisions.append((trail_len, var, True))
                if self._assign_and_propagate(var + 1):
                    return True
        return False

    def solve(self):
        if self.unsat:
            return None
        pending = deque()
        for lit in self.initial_units:
            v = self._value(lit)
            if v == 0:
                return None
            if v == -1:
                self._assign(lit)
                pending.append(lit)
        if not self._propagate(pending):
            return None
        decisions = []
        while True:
            if -1 not in self.values:
                return list(self.values)
            var = self.values.index(-1)
            decisions.append((len(self.trail), var, False))
            if not self._assign_and_propagate(-(var + 1)):
                if not self._backtrack(decisions):
                    return None


def dpll_least_solution(nvars, clauses):
    """The least satisfying assignment of DIMACS-style clauses over
    variables 1..nvars (ascending variable index, false before true) as a
    list of 0/1 values, or None: the search's solver before clause
    learning, kept as an oracle for it."""
    return _Dpll(nvars, clauses).solve()


# ---------------------------------------------------------------------------
# The tree-walking grounder, the reference for the compiled one
# ---------------------------------------------------------------------------

_TRIVIALLY_TRUE: list[Clause] = []
_TRIVIALLY_FALSE: list[Clause] = [()]


class _CnfBuilder:
    """Clauses for formulas in negation normal form over fixed universes.

    ``free_cache`` maps node ids to (node, sorted free variables); a search
    passes one dict to the builders of all its sizes, so each node's free
    variables are computed once per search.  Cache entries hold their node,
    so a keyed id cannot be reused by another node while the cache lives.
    """

    def __init__(self, things, worlds, atom_index, free_cache=None):
        self.things = tuple(things)
        self.worlds = tuple(worlds)
        self.atom_index = atom_index
        self.definitions: list[Definition] = []
        self._free_cache: dict[int, tuple[Formula, tuple[str, ...]]] = \
            {} if free_cache is None else free_cache
        self._cnf_cache: dict = {}
        self._aux_cache: dict[int, tuple[list[Clause], int]] = {}

    def universe(self, sort: Sort) -> tuple[str, ...]:
        return self.things if sort is Sort.THING else self.worlds

    def _free_vars(self, f: Formula) -> tuple[str, ...]:
        """The node's sorted free variables, from its children's entries."""
        entry = self._free_cache.get(id(f))
        if entry is not None:
            return entry[1]
        if isinstance(f, Pred):
            names = {t.name for t in f.args if isinstance(t, Var)}
        elif isinstance(f, Eq):
            names = {t.name for t in (f.left, f.right) if isinstance(t, Var)}
        elif isinstance(f, Not):
            names = self._free_vars(f.body)
        elif isinstance(f, (And, Or)):
            names = set()
            for item in f.items:
                names.update(self._free_vars(item))
        elif isinstance(f, (ForAll, Exists)):
            names = set(self._free_vars(f.body))
            names.discard(f.var)
        else:
            # Constants have none; nodes outside negation normal form are
            # rejected by ``_build``.
            names = ()
        free = tuple(sorted(names))
        self._free_cache[id(f)] = (f, free)
        return free

    def build(self, f: Formula, env: dict) -> list[Clause]:
        """Clauses for a formula in negation normal form (``nnf``): ``Not``
        wraps only a ``Pred`` or an ``Eq``, and no ``Implies`` or ``Iff``
        occurs."""
        # Sub-CNFs depend only on the bindings of the node's free variables;
        # memoizing on those makes repeated quantifier bodies cheap.  Each
        # entry holds its node, so its id is never reused.
        if isinstance(f, (And, Or, ForAll, Exists)):
            key = (id(f), tuple([env[name] for name in self._free_vars(f)]))
            entry = self._cnf_cache.get(key)
            if entry is None:
                entry = self._cnf_cache[key] = (f, self._build(f, env))
            return entry[1]
        return self._build(f, env)

    def _build(self, f: Formula, env: dict) -> list[Clause]:
        if isinstance(f, TrueF):
            return _TRIVIALLY_TRUE
        if isinstance(f, FalseF):
            return _TRIVIALLY_FALSE
        if isinstance(f, (Pred, Eq)):
            return self._literal(f, True, env)
        if isinstance(f, Not) and isinstance(f.body, (Pred, Eq)):
            return self._literal(f.body, False, env)
        if isinstance(f, And):
            return self.conjoin(self.build(item, env) for item in f.items)
        if isinstance(f, Or):
            return self.disjoin([self.build(item, env) for item in f.items])
        if isinstance(f, (ForAll, Exists)):
            universe = self.universe(f.sort)
            if not universe:
                raise GroundingError(
                    "quantification over World on universes with no worlds")
            parts = []
            saved = env.get(f.var)
            had = f.var in env
            try:
                for label in universe:
                    env[f.var] = label
                    parts.append(self.build(f.body, env))
            finally:
                if had:
                    env[f.var] = saved
                elif f.var in env:
                    del env[f.var]
            return self.conjoin(parts) if isinstance(f, ForAll) else self.disjoin(parts)
        raise TypeError(f"not a formula in negation normal form: {f!r}")

    def _literal(self, f: Formula, positive: bool, env: dict) -> list[Clause]:
        if isinstance(f, Pred):
            labels = tuple(env[t.name] if isinstance(t, Var) else t.label for t in f.args)
            index = self.atom_index.get((f.name, labels))
            if index is None:
                # Predicate outside the atom space: frozen everywhere-false.
                return _TRIVIALLY_FALSE if positive else _TRIVIALLY_TRUE
            return [(index + 1,) if positive else (-(index + 1),)]
        left = env[f.left.name] if isinstance(f.left, Var) else f.left.label
        right = env[f.right.name] if isinstance(f.right, Var) else f.right.label
        return _TRIVIALLY_TRUE if (left == right) == positive else _TRIVIALLY_FALSE

    def conjoin(self, parts: Iterable[list[Clause]]) -> list[Clause]:
        out: list[Clause] = []
        for clauses in parts:
            out.extend(clauses)
        return out

    def disjoin(self, parts: list[list[Clause]]) -> list[Clause]:
        # An empty part ([] = true) makes the whole disjunction true.  Every
        # multi-clause part is replaced by its aux literal, so the
        # disjunction is one clause unless it is a tautology.
        if any(not clauses for clauses in parts):
            return _TRIVIALLY_TRUE
        clause: set[int] = set()
        for clauses in parts:
            if len(clauses) == 1:
                clause.update(clauses[0])
            else:
                clause.add(self._aux(clauses))
        if any(-lit in clause for lit in clause):
            return _TRIVIALLY_TRUE
        return [tuple(sorted(clause))]

    def _aux(self, clauses: list[Clause]) -> int:
        # The entry retains the keyed list so its id cannot be reused.
        entry = self._aux_cache.get(id(clauses))
        if entry is None:
            var = len(self.atom_index) + len(self.definitions) + 1
            self.definitions.append((var, tuple(clauses)))
            entry = self._aux_cache[id(clauses)] = (clauses, var)
        return entry[1]


def definition_clauses(definitions: Iterable[Definition]) -> list[Clause]:
    """The clauses ``not v or c`` for each clause ``c`` defining ``v``."""
    return [(-var,) + clause for var, clauses in definitions for clause in clauses]


def reference_ground(formula, things, worlds=(), support=None):
    """``grounding.ground`` through the tree-walking builder."""
    atoms = atom_space(predicate_profiles([formula], support), things, worlds)
    index = {atom: i for i, atom in enumerate(atoms)}
    builder = _CnfBuilder(things, worlds, index)
    clauses = builder.build(nnf(formula), {}) + definition_clauses(builder.definitions)
    return GroundConstraintSet(tuple(things), tuple(worlds), atoms, tuple(clauses),
                               tuple(builder.definitions))


def reference_grounding(calls, things, worlds, atoms):
    """The tree-walking builder's clauses for each (formula, env) call in
    order, made on one builder as one grounder makes them, so aux variables
    are shared and numbered the same way; and the builder's definitions."""
    builder = _CnfBuilder(things, worlds,
                          {atom: i for i, atom in enumerate(atoms)})
    return ([builder.build(formula, env) for formula, env in calls],
            builder.definitions)


def forall(names, sort, body):
    """Nest a block of same-sort universal quantifiers, outermost first."""
    for name in reversed(names):
        body = ForAll(name, sort, body)
    return body


def reference_register() -> list[tuple[str, Formula, str]]:
    """(id, formula, display) for every register axiom in catalogue order,
    each formula built from constructors and the registry's macros."""
    T, W = Sort.THING, Sort.WORLD
    x, y, s, a, g, w, c, e = (Var(name) for name in "xysagwce")
    s1, s2, g1, g2 = Var("s1"), Var("s2"), Var("g1"), Var("g2")
    return [
        ("A1",
         ForAll("x", T, Or((Pred("inItself", (x,)), Pred("inAnother", (x,))))),
         "∀x. inItself(x) ∨ inAnother(x)"),
        ("A1e",
         ForAll("x", T, Not(And((Pred("inItself", (x,)), Pred("inAnother", (x,)))))),
         "∀x. ¬(inItself(x) ∧ inAnother(x))"),
        ("A8",
         ForAll("x", T, Iff(Pred("inItself", (x,)), Pred("perSeConceived", (x,)))),
         "∀x. inItself(x) ↔ perSeConceived(x)"),
        ("A9",
         ForAll("x", T, Iff(Pred("inAnother", (x,)),
                            Pred("conceivedThroughAnother", (x,)))),
         "∀x. inAnother(x) ↔ conceivedThroughAnother(x)"),
        ("A10",
         forall(["s", "a"], T,
                Implies(attribute(a, s), Pred("perSeConceived", (a,)))),
         "∀s a. Attribute(a, s) → perSeConceived(a)"),
        ("A11",
         ForAll("x", T, Iff(Pred("involvesExistence", (x,)),
                            Pred("natureRequiresExistence", (x,)))),
         "∀x. involvesExistence(x) ↔ natureRequiresExistence(x)"),
        ("A12",
         forall(["s1", "s2", "a"], T,
                Implies(attribute(a, s1), Implies(attribute(a, s2), Eq(s1, s2)))),
         "∀s1 s2 a. Attribute(a, s1) → Attribute(a, s2) → s1 = s2"),
        ("A13",
         ForAll("s", T, Implies(substance(s), Pred("involvesExistence", (s,)))),
         "∀s. Substance(s) → involvesExistence(s)"),
        ("A14",
         ForAll("s", T, Implies(substance(s), Exists("a", T, attribute(a, s)))),
         "∀s. Substance(s) → ∃a. Attribute(a, s)"),
        ("A15",
         forall(["g", "s", "a"], T,
                Implies(is_god(g),
                        Implies(substance(s),
                                Implies(attribute(a, s), attribute(a, g))))),
         "∀g s a. IsGod(g) → Substance(s) → Attribute(a, s) → Attribute(a, g)"),
        ("A18",
         ForAll("x", T, Iff(Pred("involvesExistence", (x,)),
                            ForAll("w", W, Pred("existsAt", (x, w))))),
         "∀x. involvesExistence(x) ↔ (∀w. existsAt(x, w))"),
        ("A19",
         ForAll("x", T, Iff(Pred("perSeConceived", (x,)),
                            Pred("conceptualDep", (x, x)))),
         "∀x. perSeConceived(x) ↔ conceptualDep(x, x)"),
        ("A20",
         ForAll("x", T, Iff(Pred("conceivedThroughAnother", (x,)),
                            Exists("y", T, And((Not(Eq(y, x)),
                                                Pred("conceptualDep", (x, y))))))),
         "∀x. conceivedThroughAnother(x) ↔ (∃y. y ≠ x ∧ conceptualDep(x, y))"),
        ("A21",
         forall(["c", "e"], T, Iff(Pred("cause", (c, e)),
                                   ForAll("w", W, Pred("causeAt", (c, e, w))))),
         "∀c e. cause(c, e) ↔ (∀w. causeAt(c, e, w))"),
        ("A3m",
         forall(["c", "e"], T,
                ForAll("w", W, Implies(Pred("causeAt", (c, e, w)),
                                       Pred("existsAt", (e, w))))),
         "∀c e w. causeAt(c, e, w) → existsAt(e, w)"),
        ("A22",
         forall(["s1", "s2"], T,
                Implies(substance(s1),
                        Implies(substance(s2),
                                Implies(Not(Eq(s1, s2)),
                                        Exists("a", T, Or((
                                            And((attribute(a, s1),
                                                 Not(attribute(a, s2)))),
                                            And((attribute(a, s2),
                                                 Not(attribute(a, s1))))))))))),
         "∀s1 s2. Substance(s1) → Substance(s2) → s1 ≠ s2 → "
         "∃a. (Attribute(a, s1) ∧ ¬Attribute(a, s2)) ∨ "
         "(Attribute(a, s2) ∧ ¬Attribute(a, s1))"),
        ("A23",
         ForAll("s", T, ForAll("w", W,
                               Implies(substance(s), Pred("causeAt", (s, s, w))))),
         "∀s w. Substance(s) → causeAt(s, s, w)"),
        ("A24",
         ForAll("s", T, Implies(substance(s),
                                Exists("a", T,
                                       Pred("intellectPerceivesAsEssence", (s, a))))),
         "∀s. Substance(s) → ∃a. intellectPerceivesAsEssence(s, a)"),
        ("A25",
         forall(["a", "s"], T,
                Implies(substance(s),
                        Implies(attribute(a, s),
                                Exists("g", T, And((is_god(g), attribute(a, g))))))),
         "∀a s. Substance(s) → Attribute(a, s) → ∃g. IsGod(g) ∧ Attribute(a, g)"),
        ("A26",
         forall(["g1", "g2"], T,
                Implies(is_god(g1), Implies(is_god(g2), Eq(g1, g2)))),
         "∀g1 g2. IsGod(g1) → IsGod(g2) → g1 = g2"),
        ("PropV_allshared",
         forall(["s1", "s2"], T,
                Implies(substance(s1),
                        Implies(substance(s2),
                                Implies(ForAll("a", T,
                                               Iff(attribute(a, s1),
                                                   attribute(a, s2))),
                                        Eq(s1, s2))))),
         "∀s1 s2. Substance(s1) → Substance(s2) → "
         "(∀a. Attribute(a, s1) ↔ Attribute(a, s2)) → s1 = s2"),
    ]


def reference_parser() -> argparse.ArgumentParser:
    """The argparse parser the CLI used before its command table: the
    reference for ``cli.parse_args``.  Each ``func`` is a handler of
    ``ethica.cli``."""
    parser = argparse.ArgumentParser(
        prog="ethica",
        description="Finite-model workbench for the Ethica Pars I register")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_workers_flag(p):
        p.add_argument("--workers", type=int, default=1, metavar="N",
                       help="solve a search's sizes in up to N processes "
                            "(default 1); results do not depend on N")

    def add_search_flags(p, with_target=True):
        if with_target:
            p.add_argument("--premises", required=True,
                           help="bundle name or comma-separated axiom ids")
            p.add_argument("--target", required=True, help="axiom id")
        p.add_argument("--max-things", type=int, default=None, metavar="K")
        p.add_argument("--max-worlds", type=int, default=None, metavar="W")
        p.add_argument("--no-prune", action="store_true",
                       help="disable canonical symmetry pruning")
        add_workers_flag(p)
        p.add_argument("--json", action="store_true")

    p_verify = sub.add_parser("verify", help="check a model against premises "
                                             "and a falsification target")
    p_verify.add_argument("model", help="model DSL file or corpus:NAME")
    p_verify.add_argument("--premises", required=True)
    p_verify.add_argument("--target", required=True)
    p_verify.add_argument("--json", action="store_true")
    p_verify.set_defaults(func=cli._cmd_verify)

    p_search = sub.add_parser("search", help="bounded counter-model search")
    add_search_flags(p_search)
    p_search.set_defaults(func=cli._cmd_search)

    p_entail = sub.add_parser("entail", help="bounded entailment "
                                             "(search reporting the verdict only)")
    add_search_flags(p_entail)
    p_entail.set_defaults(func=lambda args: cli._cmd_search(args, verdict_only=True))

    p_exp = sub.add_parser("experiment", help="run bundled demote experiments")
    exp_sub = p_exp.add_subparsers(dest="experiment_command", required=True)
    p_run = exp_sub.add_parser("run")
    p_run.add_argument("name", help="experiment name or 'all'")
    add_workers_flag(p_run)
    p_run.add_argument("--json", action="store_true")
    p_run.add_argument("--strict-claims", action="store_true",
                       help="print verdicts only, no narrative labels")
    p_run.set_defaults(func=cli._cmd_experiment)

    p_table = sub.add_parser("table", help="the four-axiom reducibility table")
    add_workers_flag(p_table)
    p_table.add_argument("--json", action="store_true")
    p_table.add_argument("--strict-claims", action="store_true")
    p_table.set_defaults(func=cli._cmd_table)

    p_probe = sub.add_parser("probe", help="open conjecture probes")
    p_probe.add_argument("kind", choices=["full-register"])
    add_search_flags(p_probe, with_target=False)
    p_probe.set_defaults(func=cli._cmd_probe)

    p_export = sub.add_parser("export-axioms", help="export the axiom catalogue")
    p_export.add_argument("--json", action="store_true")
    p_export.set_defaults(func=cli._cmd_export_axioms)
    return parser
