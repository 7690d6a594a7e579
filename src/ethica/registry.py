"""The fixed Ethica Pars I register.

Declares the primitive predicate signature, the derived-definition macros
(Substance, Attribute, Mode, IsGod, sameNature) and the axiom catalogue with
its named bundles.  The catalogue is the single source of truth for every
axiom id used by the verifier, the search engine and the experiments.

Spinoza's own axioms II-VII have no settled formal statement in this register
and are deliberately absent; experiments cannot reference them.
"""

from __future__ import annotations

from collections.abc import Sequence
from enum import Enum

from .logic import (And, Eq, Exists, ForAll, Formula, Iff, Implies, Not,
                    Or, Pred, PredicateDecl, Signature, Sort, Term, Value,
                    Var, check_sorted, forall)

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
# Axiom catalogue
# ---------------------------------------------------------------------------

class Section(Enum):
    SECTION_I = "SectionI"
    SECTION_II_PLACEHOLDER = "SectionII-placeholder"
    SECTION_III = "SectionIII"
    MODAL_BRIDGE = "ModalBridge"
    PSR_CANDIDATE = "PSRCandidate"


#: The formula is the settled statement of the register ("stated") or a
#: rendering this project decided among defensible readings ("decided-here").
STATUS_STATED = "stated"
STATUS_DECIDED_HERE = "decided-here"


class AxiomEntry(Value):
    __slots__ = ("id", "section", "formula", "citation", "status", "display")


def _x(name: str) -> Var:
    return Var(name)


def _build_catalogue() -> dict[str, AxiomEntry]:
    x, y = _x("x"), _x("y")
    s, a, g, w, c, e = _x("s"), _x("a"), _x("g"), _x("w"), _x("c"), _x("e")
    s1, s2, g1, g2 = _x("s1"), _x("s2"), _x("g1"), _x("g2")

    entries = [
        AxiomEntry(
            "A1", Section.SECTION_I,
            ForAll("x", T, Or((Pred("inItself", (x,)), Pred("inAnother", (x,))))),
            "Ethica I, axiom 1: everything is in itself or in another",
            STATUS_DECIDED_HERE,
            "∀x. inItself(x) ∨ inAnother(x)"),
        AxiomEntry(
            "A1e", Section.SECTION_I,
            ForAll("x", T, Not(And((Pred("inItself", (x,)), Pred("inAnother", (x,)))))),
            "exclusivity reading of Ethica I, axiom 1",
            STATUS_STATED,
            "∀x. ¬(inItself(x) ∧ inAnother(x))"),
        AxiomEntry(
            "A8", Section.SECTION_I,
            ForAll("x", T, Iff(Pred("inItself", (x,)), Pred("perSeConceived", (x,)))),
            "parallelism of the ontological and conceptual halves of Ethica I, def. III",
            STATUS_STATED,
            "∀x. inItself(x) ↔ perSeConceived(x)"),
        AxiomEntry(
            "A9", Section.SECTION_I,
            ForAll("x", T, Iff(Pred("inAnother", (x,)),
                               Pred("conceivedThroughAnother", (x,)))),
            "parallelism of the ontological and conceptual halves of Ethica I, def. V",
            STATUS_STATED,
            "∀x. inAnother(x) ↔ conceivedThroughAnother(x)"),
        AxiomEntry(
            "A10", Section.SECTION_I,
            forall(["s", "a"], T,
                   Implies(attribute(a, s), Pred("perSeConceived", (a,)))),
            "every attribute of a substance is itself per se conceived (Ethica I, def. IV)",
            STATUS_DECIDED_HERE,
            "∀s a. Attribute(a, s) → perSeConceived(a)"),
        AxiomEntry(
            "A11", Section.SECTION_I,
            ForAll("x", T, Iff(Pred("involvesExistence", (x,)),
                               Pred("natureRequiresExistence", (x,)))),
            "Ethica I, def. I (causa sui), the sive read identifyingly",
            STATUS_STATED,
            "∀x. involvesExistence(x) ↔ natureRequiresExistence(x)"),
        AxiomEntry(
            "A12", Section.SECTION_III,
            forall(["s1", "s2", "a"], T,
                   Implies(attribute(a, s1), Implies(attribute(a, s2), Eq(s1, s2)))),
            "Ethica I, prop. V content adopted as axiom: substances sharing an "
            "attribute are identical",
            STATUS_STATED,
            "∀s1 s2 a. Attribute(a, s1) → Attribute(a, s2) → s1 = s2"),
        AxiomEntry(
            "A13", Section.SECTION_III,
            ForAll("s", T, Implies(substance(s), Pred("involvesExistence", (s,)))),
            "Ethica I, prop. VII content: every substance involves existence",
            STATUS_DECIDED_HERE,
            "∀s. Substance(s) → involvesExistence(s)"),
        AxiomEntry(
            "A14", Section.SECTION_III,
            ForAll("s", T, Implies(substance(s), Exists("a", T, attribute(a, s)))),
            "structural prerequisite for Ethica I, prop. XIV: every substance "
            "has at least one attribute",
            STATUS_DECIDED_HERE,
            "∀s. Substance(s) → ∃a. Attribute(a, s)"),
        AxiomEntry(
            "A15", Section.SECTION_III,
            forall(["g", "s", "a"], T,
                   Implies(is_god(g),
                           Implies(substance(s),
                                   Implies(attribute(a, s), attribute(a, g))))),
            "universality clause for Ethica I, prop. XIV: every god has every "
            "realised attribute",
            STATUS_STATED,
            "∀g s a. IsGod(g) → Substance(s) → Attribute(a, s) → Attribute(a, g)"),
        AxiomEntry(
            "A18", Section.MODAL_BRIDGE,
            ForAll("x", T, Iff(Pred("involvesExistence", (x,)),
                               ForAll("w", W, Pred("existsAt", (x, w))))),
            "bridge: essential existence coincides with existence at every world",
            STATUS_STATED,
            "∀x. involvesExistence(x) ↔ (∀w. existsAt(x, w))"),
        AxiomEntry(
            "A19", Section.MODAL_BRIDGE,
            ForAll("x", T, Iff(Pred("perSeConceived", (x,)),
                               Pred("conceptualDep", (x, x)))),
            "bridge: per se conception as reflexive conceptual dependence",
            STATUS_DECIDED_HERE,
            "∀x. perSeConceived(x) ↔ conceptualDep(x, x)"),
        AxiomEntry(
            "A20", Section.MODAL_BRIDGE,
            ForAll("x", T, Iff(Pred("conceivedThroughAnother", (x,)),
                               Exists("y", T, And((Not(Eq(y, x)),
                                                   Pred("conceptualDep", (x, y))))))),
            "bridge: conception through another as conceptual dependence on "
            "a distinct thing",
            STATUS_DECIDED_HERE,
            "∀x. conceivedThroughAnother(x) ↔ (∃y. y ≠ x ∧ conceptualDep(x, y))"),
        AxiomEntry(
            "A21", Section.MODAL_BRIDGE,
            forall(["c", "e"], T, Iff(Pred("cause", (c, e)),
                                      ForAll("w", W, Pred("causeAt", (c, e, w))))),
            "bridge: world-uniform causation as causation at every world",
            STATUS_DECIDED_HERE,
            "∀c e. cause(c, e) ↔ (∀w. causeAt(c, e, w))"),
        AxiomEntry(
            "A3m", Section.MODAL_BRIDGE,
            forall(["c", "e"], T,
                   ForAll("w", W, Implies(Pred("causeAt", (c, e, w)),
                                          Pred("existsAt", (e, w))))),
            "Ethica I, axiom 3 rendered modally: from a cause the effect "
            "follows at that world",
            STATUS_DECIDED_HERE,
            "∀c e w. causeAt(c, e, w) → existsAt(e, w)"),
        AxiomEntry(
            "A22", Section.PSR_CANDIDATE,
            forall(["s1", "s2"], T,
                   Implies(substance(s1),
                           Implies(substance(s2),
                                   Implies(Not(Eq(s1, s2)),
                                           Exists("a", T, Or((
                                               And((attribute(a, s1),
                                                    Not(attribute(a, s2)))),
                                               And((attribute(a, s2),
                                                    Not(attribute(a, s1))))))))))),
            "PSR substance distinguishability: distinct substances differ in "
            "at least one attribute",
            STATUS_STATED,
            "∀s1 s2. Substance(s1) → Substance(s2) → s1 ≠ s2 → "
            "∃a. (Attribute(a, s1) ∧ ¬Attribute(a, s2)) ∨ "
            "(Attribute(a, s2) ∧ ¬Attribute(a, s1))"),
        AxiomEntry(
            "A23", Section.PSR_CANDIDATE,
            ForAll("s", T, ForAll("w", W,
                                  Implies(substance(s), Pred("causeAt", (s, s, w))))),
            "PSR self-causation: every substance is self-causal at every world",
            STATUS_DECIDED_HERE,
            "∀s w. Substance(s) → causeAt(s, s, w)"),
        AxiomEntry(
            "A24", Section.PSR_CANDIDATE,
            ForAll("s", T, Implies(substance(s),
                                   Exists("a", T,
                                          Pred("intellectPerceivesAsEssence", (s, a))))),
            "PSR essence perception: every substance has an intellect-perceived "
            "essence",
            STATUS_DECIDED_HERE,
            "∀s. Substance(s) → ∃a. intellectPerceivesAsEssence(s, a)"),
        AxiomEntry(
            "A25", Section.PSR_CANDIDATE,
            forall(["a", "s"], T,
                   Implies(substance(s),
                           Implies(attribute(a, s),
                                   Exists("g", T, And((is_god(g), attribute(a, g))))))),
            "PSR plenitude: every realised substance attribute is also some "
            "god's attribute",
            STATUS_STATED,
            "∀a s. Substance(s) → Attribute(a, s) → ∃g. IsGod(g) ∧ Attribute(a, g)"),
        AxiomEntry(
            "A26", Section.PSR_CANDIDATE,
            forall(["g1", "g2"], T,
                   Implies(is_god(g1), Implies(is_god(g2), Eq(g1, g2)))),
            "god uniqueness: any two gods are identical",
            STATUS_STATED,
            "∀g1 g2. IsGod(g1) → IsGod(g2) → g1 = g2"),
        AxiomEntry(
            "PropV_allshared", Section.SECTION_III,
            forall(["s1", "s2"], T,
                   Implies(substance(s1),
                           Implies(substance(s2),
                                   Implies(ForAll("a", T,
                                                  Iff(attribute(a, s1),
                                                      attribute(a, s2))),
                                           Eq(s1, s2))))),
            "Ethica I, prop. V restricted to the all-shared-attributes case",
            STATUS_STATED,
            "∀s1 s2. Substance(s1) → Substance(s2) → "
            "(∀a. Attribute(a, s1) ↔ Attribute(a, s2)) → s1 = s2"),
    ]
    catalogue = {}
    for entry in entries:
        if entry.id in catalogue:
            raise ValueError(f"duplicate axiom id {entry.id!r}")
        check_sorted(entry.formula, ETHICA_SIGNATURE)
        catalogue[entry.id] = entry
    return catalogue


_CATALOGUE = _build_catalogue()

BUNDLES: dict[str, tuple[str, ...]] = {
    "PSRSubstance": ("A22",),
    "PSRPlenitude": ("A25", "A26"),
    "PSRSelfCause": ("A23",),
    "PSREssencePerception": ("A24",),
    "SectionIBridges": ("A1", "A1e", "A8", "A9", "A10", "A11"),
    "ModalBridges": ("A18", "A3m", "A21"),
}

Selector = str | Sequence[str]


def axiom(axiom_id: str) -> AxiomEntry:
    try:
        return _CATALOGUE[axiom_id]
    except KeyError:
        raise RegistryError(f"unknown axiom id {axiom_id!r}") from None


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
    seen = []
    for axiom_id in ids:
        if axiom_id not in seen:
            seen.append(axiom_id)
    return [axiom(axiom_id) for axiom_id in seen]


def resolve_selector(selector: Selector) -> tuple[str, ...]:
    """The axiom ids a selector denotes, in bundle/list order."""
    return tuple(entry.id for entry in axiom_set(selector))
