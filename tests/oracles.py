"""Independent brute-force oracles.

These enumerate every table assignment over a support set and evaluate
formulas with the plain evaluator, bypassing the grounding and search
machinery entirely; search results are checked against them.  The search's
DPLL solver without learning is kept here too, as an oracle for the
clause-learning solver that replaced it.
"""

import itertools
from collections import deque

from ethica.logic import FiniteModel, Sort, evaluate
from ethica.registry import ETHICA_SIGNATURE, axiom_set


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


def countermodel_exists(premises, target, support, n_things, n_worlds=0):
    return any(refutes(model, premises, target)
               for model in all_models(support, n_things, n_worlds))


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
    return _Dpll(nvars, [tuple(clause) for clause in clauses]).solve()
