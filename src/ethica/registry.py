"""The fixed Ethica Pars I register.

Declares the primitive predicate signature, the derived-definition macros
(Substance, Attribute, Mode, IsGod, sameNature), the parser of the register's
formula notation and the axiom catalogue with its named bundles.  The
catalogue is the single source of truth for every axiom id used by the
verifier, the search engine and the experiments, and each entry's display
text is the only statement of its formula: ``parse_formula`` builds the
formula from it on the entry's first use.

Spinoza's own axioms II-VII have no settled formal statement in this register
and are deliberately absent; experiments cannot reference them.
"""

from __future__ import annotations

from collections.abc import Sequence
from enum import Enum

from .logic import (And, Eq, Exists, ForAll, Formula, Iff, Implies, LogicError,
                    Not, Or, Pred, PredicateDecl, Signature, Sort, Term, Value,
                    Var, check_sorted)

T = Sort.THING
W = Sort.WORLD


class RegistryError(LookupError):
    """Unknown axiom id or bundle name."""


ETHICA_SIGNATURE = Signature([
    PredicateDecl("inItself", (T,)),
    PredicateDecl("inAnother", (T,)),
    PredicateDecl("perSeConceived", (T,)),
    PredicateDecl("conceivedThroughAnother", (T,)),
    PredicateDecl("involvesExistence", (T,)),
    PredicateDecl("natureRequiresExistence", (T,)),
    PredicateDecl("absolutelyInfinite", (T,)),
    PredicateDecl("freelyExistent", (T,)),
    PredicateDecl("constrained", (T,)),
    PredicateDecl("eternal", (T,)),
    PredicateDecl("limitedBy", (T, T)),
    PredicateDecl("intellectPerceivesAsEssence", (T, T)),
    PredicateDecl("expressesEternalEssence", (T, T)),
    PredicateDecl("conceptualDep", (T, T)),
    PredicateDecl("cause", (T, T)),
    PredicateDecl("existsAt", (T, W)),
    PredicateDecl("causeAt", (T, T, W)),
])


# ---------------------------------------------------------------------------
# Derived definitions
# ---------------------------------------------------------------------------
# Expansion is literal substitution: each macro builds its body directly from
# the argument terms.  Inner quantifiers use the reserved name "attr", which
# no catalogued axiom binds, so expansion never shadows an outer variable.

def substance(x: Term) -> Formula:
    return And((Pred("inItself", (x,)), Pred("perSeConceived", (x,))))


def attribute(a: Term, s: Term) -> Formula:
    """a is an attribute of s; carries Substance(s) constitutively."""
    return And((substance(s), Pred("intellectPerceivesAsEssence", (s, a))))


def mode(x: Term) -> Formula:
    return And((Pred("inAnother", (x,)), Pred("conceivedThroughAnother", (x,))))


def same_nature(x: Term, y: Term) -> Formula:
    attr = Var("attr")
    return Exists("attr", T, And((attribute(attr, x), attribute(attr, y))))


def is_god(g: Term) -> Formula:
    attr = Var("attr")
    return And((
        substance(g),
        Pred("absolutelyInfinite", (g,)),
        Exists("attr", T, attribute(attr, g)),
        ForAll("attr", T,
               Implies(attribute(attr, g), Pred("expressesEternalEssence", (g, attr)))),
    ))


# ---------------------------------------------------------------------------
# Formula notation
# ---------------------------------------------------------------------------

class FormulaParseError(LogicError):
    """A formula's text is malformed; the message names the offending column."""

    def __init__(self, column: int, message: str):
        super().__init__(f"column {column}: {message}")
        self.column = column


#: Spaces out every symbol, so that the tokens are the text's words.
_SPACED = str.maketrans({symbol: f" {symbol} " for symbol in "(),.=≠¬∧∨→↔∀∃"})
#: Each binary connective's binding level, 0 the loosest, and the node it builds.
_CONNECTIVES = {"↔": (0, Iff), "→": (1, Implies), "∨": (2, Or), "∧": (3, And)}
_MACROS = {"Substance": (substance, (T,)), "Attribute": (attribute, (T, T)),
           "Mode": (mode, (T,)), "IsGod": (is_god, (T,)), "sameNature": (same_nature, (T, T))}


def parse_formula(text: str) -> Formula:
    """Parse the register's notation into a formula sort-checked against
    ``ETHICA_SIGNATURE``.  ``¬`` binds tightest, then ``∧``, ``∨``, ``→`` and ``↔``;
    ``→`` and ``↔`` group to the right; a quantifier's body runs to the end of its
    group; ``x ≠ y`` is ``¬(x = y)``; macros expand through the functions above; and
    a variable takes its sort from the predicate or macro argument positions it fills."""
    parser = _Parser(text)
    formula = parser.formula(0)
    token, column = parser.take()
    if token:
        raise FormulaParseError(column, f"unexpected {token!r}")
    check_sorted(formula, ETHICA_SIGNATURE)
    return formula


class _Parser:
    def __init__(self, text: str):
        # (token, column) pairs.  The empty token ends the text; taking it
        # always leads to an error.
        self.tokens = []
        end = 0
        for token in text.translate(_SPACED).split():
            start = text.index(token, end)
            self.tokens.append((token, start + 1))
            end = start + len(token)
        self.tokens.append(("", len(text) + 1))
        self.at = 0
        # Each bound variable's list of the sorts of the positions it fills.
        self.scope: dict[str, list] = {}

    def take(self) -> tuple[str, int]:
        self.at += 1
        return self.tokens[self.at - 1]

    def skip(self, token: str) -> bool:
        found = self.tokens[self.at][0] == token
        self.at += found
        return found

    def formula(self, level: int) -> Formula:
        # The longest formula whose connectives all bind at ``level`` or tighter.
        formula = self.unary()
        while True:
            connective = self.tokens[self.at][0]
            found, node = _CONNECTIVES.get(connective, (-1, None))
            if found < level:
                return formula
            if node is Iff or node is Implies:
                # The right operand extends at this same level: right grouping.
                self.at += 1
                formula = node(formula, self.formula(found))
                continue
            items = [formula]
            while self.skip(connective):
                items.append(self.formula(found + 1))
            formula = node(items)

    def unary(self) -> Formula:
        token, column = self.take()
        if token == "¬":
            return Not(self.unary())
        if token == "(":
            formula = self.formula(0)
            if not self.skip(")"):
                raise FormulaParseError(column, "'(' is never closed")
            return formula
        if token in ("∀", "∃"):
            return self.quantifier(ForAll if token == "∀" else Exists)
        if not token.isidentifier():
            raise FormulaParseError(column, "expected a formula")
        if self.skip("("):
            return self.application(token, column)
        left = self.variable(token, column)
        relation, column = self.take()
        if relation not in ("=", "≠"):
            raise FormulaParseError(column, "expected '=' or '≠'")
        equality = Eq(left, self.variable(*self.take()))
        return equality if relation == "=" else Not(equality)

    def quantifier(self, node: type) -> Formula:
        names = []
        while not (names and self.skip(".")):
            name, column = self.take()
            if not name.isidentifier():
                raise FormulaParseError(column, "expected a variable")
            names.append((name, column, []))
        outer = self.scope
        self.scope = {**outer, **{name: sorts for name, _, sorts in names}}
        body = self.formula(0)
        self.scope = outer
        for name, column, sorts in reversed(names):
            if not sorts:
                raise FormulaParseError(column, f"the sort of {name!r} is not determined")
            body = node(name, sorts[0], body)
        return body

    def application(self, name: str, column: int) -> Formula:
        if name in _MACROS:
            macro, sorts = _MACROS[name]
        elif name in ETHICA_SIGNATURE:
            macro, sorts = None, ETHICA_SIGNATURE.declaration(name).argument_sorts
        else:
            raise FormulaParseError(column, f"unknown predicate {name!r}")
        args = [self.variable(*self.take())]
        while self.skip(","):
            args.append(self.variable(*self.take()))
        if not self.skip(")"):
            raise FormulaParseError(self.tokens[self.at][1], "expected ',' or ')'")
        if len(args) != len(sorts):
            raise FormulaParseError(
                column, f"{name} takes {len(sorts)} arguments, got {len(args)}")
        for arg, sort in zip(args, sorts):
            self.scope[arg.name].append(sort)
        return macro(*args) if macro else Pred(name, args)

    def variable(self, name: str, column: int) -> Var:
        if name not in self.scope:
            raise FormulaParseError(column, f"unbound variable {name!r}"
                                    if name.isidentifier() else "expected a variable")
        return Var(name)


# ---------------------------------------------------------------------------
# Axiom catalogue
# ---------------------------------------------------------------------------

class Section(Enum):
    SECTION_I = "SectionI"
    SECTION_III = "SectionIII"
    MODAL_BRIDGE = "ModalBridge"
    PSR_CANDIDATE = "PSRCandidate"


#: The formula is the settled statement of the register ("stated") or a
#: rendering this project decided among defensible readings ("decided-here").
STATUS_STATED = "stated"
STATUS_DECIDED_HERE = "decided-here"


class AxiomEntry(Value):
    __slots__ = ("id", "section", "formula", "citation", "status", "display")


#: (id, section, status, display, citation); ``axiom`` parses the display on first use.
_CATALOGUE: dict[str, tuple[str, Section, str, str, str]] = {row[0]: row for row in [
    ("A1", Section.SECTION_I, STATUS_DECIDED_HERE,
     "∀x. inItself(x) ∨ inAnother(x)",
     "Ethica I, axiom 1: everything is in itself or in another"),
    ("A1e", Section.SECTION_I, STATUS_STATED,
     "∀x. ¬(inItself(x) ∧ inAnother(x))",
     "exclusivity reading of Ethica I, axiom 1"),
    ("A8", Section.SECTION_I, STATUS_STATED,
     "∀x. inItself(x) ↔ perSeConceived(x)",
     "parallelism of the ontological and conceptual halves of Ethica I, def. III"),
    ("A9", Section.SECTION_I, STATUS_STATED,
     "∀x. inAnother(x) ↔ conceivedThroughAnother(x)",
     "parallelism of the ontological and conceptual halves of Ethica I, def. V"),
    ("A10", Section.SECTION_I, STATUS_DECIDED_HERE,
     "∀s a. Attribute(a, s) → perSeConceived(a)",
     "every attribute of a substance is itself per se conceived (Ethica I, def. IV)"),
    ("A11", Section.SECTION_I, STATUS_STATED,
     "∀x. involvesExistence(x) ↔ natureRequiresExistence(x)",
     "Ethica I, def. I (causa sui), the sive read identifyingly"),
    ("A12", Section.SECTION_III, STATUS_STATED,
     "∀s1 s2 a. Attribute(a, s1) → Attribute(a, s2) → s1 = s2",
     "Ethica I, prop. V content adopted as axiom: substances sharing an attribute are identical"),
    ("A13", Section.SECTION_III, STATUS_DECIDED_HERE,
     "∀s. Substance(s) → involvesExistence(s)",
     "Ethica I, prop. VII content: every substance involves existence"),
    ("A14", Section.SECTION_III, STATUS_DECIDED_HERE,
     "∀s. Substance(s) → ∃a. Attribute(a, s)",
     "structural prerequisite for Ethica I, prop. XIV: every substance has at least one attribute"),
    ("A15", Section.SECTION_III, STATUS_STATED,
     "∀g s a. IsGod(g) → Substance(s) → Attribute(a, s) → Attribute(a, g)",
     "universality clause for Ethica I, prop. XIV: every god has every realised attribute"),
    ("A18", Section.MODAL_BRIDGE, STATUS_STATED,
     "∀x. involvesExistence(x) ↔ (∀w. existsAt(x, w))",
     "bridge: essential existence coincides with existence at every world"),
    ("A19", Section.MODAL_BRIDGE, STATUS_DECIDED_HERE,
     "∀x. perSeConceived(x) ↔ conceptualDep(x, x)",
     "bridge: per se conception as reflexive conceptual dependence"),
    ("A20", Section.MODAL_BRIDGE, STATUS_DECIDED_HERE,
     "∀x. conceivedThroughAnother(x) ↔ (∃y. y ≠ x ∧ conceptualDep(x, y))",
     "bridge: conception through another as conceptual dependence on a distinct thing"),
    ("A21", Section.MODAL_BRIDGE, STATUS_DECIDED_HERE,
     "∀c e. cause(c, e) ↔ (∀w. causeAt(c, e, w))",
     "bridge: world-uniform causation as causation at every world"),
    ("A3m", Section.MODAL_BRIDGE, STATUS_DECIDED_HERE,
     "∀c e w. causeAt(c, e, w) → existsAt(e, w)",
     "Ethica I, axiom 3 rendered modally: from a cause the effect follows at that world"),
    ("A22", Section.PSR_CANDIDATE, STATUS_STATED,
     "∀s1 s2. Substance(s1) → Substance(s2) → s1 ≠ s2 → "
     "∃a. (Attribute(a, s1) ∧ ¬Attribute(a, s2)) ∨ (Attribute(a, s2) ∧ ¬Attribute(a, s1))",
     "PSR substance distinguishability: distinct substances differ in at least one attribute"),
    ("A23", Section.PSR_CANDIDATE, STATUS_DECIDED_HERE,
     "∀s w. Substance(s) → causeAt(s, s, w)",
     "PSR self-causation: every substance is self-causal at every world"),
    ("A24", Section.PSR_CANDIDATE, STATUS_DECIDED_HERE,
     "∀s. Substance(s) → ∃a. intellectPerceivesAsEssence(s, a)",
     "PSR essence perception: every substance has an intellect-perceived essence"),
    ("A25", Section.PSR_CANDIDATE, STATUS_STATED,
     "∀a s. Substance(s) → Attribute(a, s) → ∃g. IsGod(g) ∧ Attribute(a, g)",
     "PSR plenitude: every realised substance attribute is also some god's attribute"),
    ("A26", Section.PSR_CANDIDATE, STATUS_STATED,
     "∀g1 g2. IsGod(g1) → IsGod(g2) → g1 = g2",
     "god uniqueness: any two gods are identical"),
    ("PropV_allshared", Section.SECTION_III, STATUS_STATED,
     "∀s1 s2. Substance(s1) → Substance(s2) → (∀a. Attribute(a, s1) ↔ Attribute(a, s2)) → s1 = s2",
     "Ethica I, prop. V restricted to the all-shared-attributes case"),
]}

BUNDLES: dict[str, tuple[str, ...]] = {
    "PSRSubstance": ("A22",),
    "PSRPlenitude": ("A25", "A26"),
    "PSRSelfCause": ("A23",),
    "PSREssencePerception": ("A24",),
    "SectionIBridges": ("A1", "A1e", "A8", "A9", "A10", "A11"),
    "ModalBridges": ("A18", "A3m", "A21"),
}

Selector = str | Sequence[str]


_ENTRIES: dict[str, AxiomEntry] = {}


def catalogue_row(axiom_id: str) -> tuple[str, Section, str, str, str]:
    """The catalogue row (id, section, status, display, citation), without
    parsing the formula."""
    try:
        return _CATALOGUE[axiom_id]
    except KeyError:
        raise RegistryError(f"unknown axiom id {axiom_id!r}") from None


def axiom(axiom_id: str) -> AxiomEntry:
    entry = _ENTRIES.get(axiom_id)
    if entry is None:
        _, section, status, display, citation = catalogue_row(axiom_id)
        entry = _ENTRIES[axiom_id] = AxiomEntry(
            axiom_id, section, parse_formula(display), citation, status, display)
    return entry


def axiom_ids() -> tuple[str, ...]:
    return tuple(_CATALOGUE)


def axiom_set(selector: Selector) -> list[AxiomEntry]:
    """Resolve a bundle name or an explicit id list to an order-stable,
    duplicate-free list of entries."""
    if isinstance(selector, str):
        try:
            ids: Sequence[str] = BUNDLES[selector]
        except KeyError:
            raise RegistryError(f"unknown bundle {selector!r}") from None
    else:
        ids = selector
    return [axiom(axiom_id) for axiom_id in dict.fromkeys(ids)]


def resolve_selector(selector: Selector) -> tuple[str, ...]:
    """The axiom ids a selector denotes, in bundle/list order."""
    return tuple(entry.id for entry in axiom_set(selector))
