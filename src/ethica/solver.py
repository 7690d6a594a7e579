"""Conflict-driven clause learning over table bits, with clauses added to a
live solver.

The solver takes the grounder's clauses as they are, tuples of signed
literals in ascending order (the DIMACS convention).  It decides them by
conflict-driven clause learning: watched literals over arrays indexed by
signed literal, first-UIP learned clauses and backjumping (Een & Sorensson,
"An extensible SAT-solver", 2003).  A clause's first two literals that are
not false at level 0 are its first watches, so the literal order fixes
every reported counter.

The solver always decides the lowest unassigned variable, false first, and
neither restarts, reorders variables nor deletes clauses, so its first
model is the least one (the fixed-order argument of Nadel & Ryvchin,
"Bit-Vector Optimization", TACAS 2016).  Every clause it holds is satisfied
by the least model; a literal implied true on a variable below the first
difference from the least model follows from decisions below that
variable, which agree with the least model, so the least model would set
it true as well.  Clauses are only ever added (``add``), and every learnt
clause is implied by the clauses held, so after more clauses the next
``solve`` again returns the least model of all of them.
"""

from __future__ import annotations

from collections.abc import Sequence


class BudgetExceeded(Exception):
    pass


class Solver:
    """Conflict-driven clause learning over a growing clause list; ``solve``
    returns the lexicographically least satisfying assignment (ascending
    variable index, false before true) as a list of 0/1 values, or None.

    ``clauses`` are the grounder's: tuples of signed literals over variables
    1..nvars (``-v`` for not v) in ascending order.  The tuples may be
    shared read-only with other solvers: watch positions live in the
    solver's own ``w1``/``w2``.  The solver keeps its own list of them, to
    which it appends the clauses it learns.  ``steps`` counts assignments,
    decisions included, against ``budget``, over every ``solve`` and
    ``add``."""

    def __init__(self, nvars: int, clauses: Sequence[Sequence[int]],
                 budget: int):
        self.nvars = nvars
        self.budget = budget
        self.steps = 0
        self.decisions = 0
        self.conflicts = 0
        self.clauses: list[Sequence[int]] = []
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
        self.unsat = False
        self.add(clauses, nvars)

    def add(self, clauses: Sequence[Sequence[int]], nvars: int) -> None:
        """Hold ``clauses`` too, over variables 1..``nvars`` (at least the
        current count).  The solver backtracks to level 0, watches two
        literals of each clause that are not false there, assigns the one
        left of a clause whose other literals are false there, and becomes
        unsatisfiable at a clause whose every literal is.  The next
        ``solve`` resumes from there, keeping what it learnt."""
        if self.trail_lim:
            self._backtrack(0)
        extra = nvars - self.nvars
        if extra > 0:
            # The negative literals' entries stay at the end.
            at = self.nvars + 1
            self.vals[at:at] = [-1] * (2 * extra)
            self.watches[at:at] = [[] for _ in range(2 * extra)]
            self.level[at:at] = [0] * (2 * extra)
            self.reason[at:at] = [-1] * (2 * extra)
            self.seen[at:at] = bytes(2 * extra)
            self.nvars = nvars
        vals = self.vals
        watches = self.watches
        # With nothing assigned every literal is open.  Units are enqueued
        # after the loop, in clause order: a watch they make false is
        # still ahead of ``qhead``.
        fresh = not self.trail
        units = []
        first = len(self.clauses)
        self.clauses.extend(clauses)
        for ci, clause in enumerate(clauses, first):
            open_ = clause if fresh else \
                [lit for lit in clause if vals[lit] != 0]
            if len(open_) > 1:
                self.w1.append(open_[0])
                self.w2.append(open_[1])
                watches[open_[0]].append(ci)
                watches[open_[1]].append(ci)
                continue
            # Level 0 is never undone: the clause needs no watches.
            self.w1.append(0)
            self.w2.append(0)
            if open_:
                units.append((open_[0], ci))
            else:
                self.unsat = True
        for lit, ci in units:
            if vals[lit] == 0:
                self.unsat = True
            elif vals[lit] == -1:
                self._enqueue(lit, ci)

    def _enqueue(self, lit: int, reason: int) -> None:
        self.vals[lit] = 1
        self.vals[-lit] = 0
        self.level[lit] = len(self.trail_lim)
        self.reason[lit] = reason
        self.trail.append(lit)
        self.steps += 1
        if self.steps > self.budget:
            raise BudgetExceeded()

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
                    raise BudgetExceeded()
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
                        raise BudgetExceeded()
            watches[false_lit] = kept
            if conflict >= 0:
                break
        self.steps = steps
        self.qhead = qhead
        self.next_var = var
        return conflict

    def _backtrack(self, lvl: int) -> None:
        trail_lim = self.trail_lim
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
        assert; False when the clause is false at level 0.

        ``_propagate`` decides only once the queue is empty, so every
        conflict clause holds the negation of a literal of the current
        level, and the learnt clause's second literal is below it."""
        if not self.trail_lim:
            return False
        learnt = self._analyze(lits)
        if len(learnt) == 1:
            self._backtrack(0)
            self._enqueue(learnt[0], -1)
            return True
        self._backtrack(self.level[-learnt[1]])
        ci = len(self.clauses)
        self.clauses.append(learnt)
        self.w1.append(learnt[0])
        self.w2.append(learnt[1])
        self.watches[learnt[0]].append(ci)
        self.watches[learnt[1]].append(ci)
        self._enqueue(learnt[0], ci)
        return True

    def solve(self) -> list[int] | None:
        """The least model of the clauses held, or None when they are
        unsatisfiable, from then on."""
        while not self.unsat:
            conflict = self._propagate()
            if conflict < 0:
                return self.vals[1:self.nvars + 1]
            self.conflicts += 1
            self.unsat = not self._learn(self.clauses[conflict])
        return None
