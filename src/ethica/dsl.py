"""Line-oriented text format for finite models.

Grammar, one statement per line:

    model <name>
    things <label> <label> ...
    worlds <label> ...                    (optional)
    pred <name>: <tuple> <tuple> ...      (zero or more)

A tuple is a bare label for unary predicates or ``(a,b)`` / ``(a,b,c)`` for
higher arities; the single token ``*`` denotes the full table.  ``#`` starts
a comment, blank lines are ignored, labels match ``[A-Za-z_][A-Za-z0-9_]*``.
Undeclared predicates are everywhere-false.
"""

from __future__ import annotations

import itertools

from .logic import FiniteModel, LogicError, Sort
from .registry import ETHICA_SIGNATURE


def _is_label(token: str) -> bool:
    """``[A-Za-z_][A-Za-z0-9_]*``: the ASCII identifiers."""
    return token.isascii() and token.isidentifier()


class ModelParseError(LogicError):
    """A model file is malformed; the message names the offending line."""

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


def _full_table(decl, things, worlds):
    universes = [things if s is Sort.THING else worlds for s in decl.argument_sorts]
    return set(itertools.product(*universes))


def parse_model(text: str) -> FiniteModel:
    """Parse model DSL text into a FiniteModel validated against
    ``ETHICA_SIGNATURE``."""
    name: str | None = None
    things: tuple[str, ...] | None = None
    worlds: tuple[str, ...] = ()
    tables: dict[str, set] = {}
    saw_pred = False
    saw_worlds = False

    for line_number, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        keyword, _, rest = line.partition(" ")

        if keyword == "model":
            if name is not None:
                raise ModelParseError(line_number, "duplicate model line")
            token = rest.strip()
            if not _is_label(token):
                raise ModelParseError(line_number, f"bad model name {token!r}")
            name = token
            continue
        if name is None:
            raise ModelParseError(line_number, "expected 'model <name>' first")

        if keyword == "things":
            if things is not None:
                raise ModelParseError(line_number, "duplicate things line")
            things = _parse_labels(line_number, rest, "thing")
            continue
        if things is None:
            raise ModelParseError(line_number, "expected 'things ...' before this line")

        if keyword == "worlds":
            if saw_worlds:
                raise ModelParseError(line_number, "duplicate worlds line")
            if saw_pred:
                raise ModelParseError(line_number, "worlds must precede pred lines")
            worlds = _parse_labels(line_number, rest, "world")
            shared = set(things) & set(worlds)
            if shared:
                raise ModelParseError(
                    line_number,
                    f"label used in both universes: {sorted(shared)[0]!r}")
            saw_worlds = True
            continue

        if keyword == "pred":
            saw_pred = True
            head, colon, body = rest.partition(":")
            pred = head.strip()
            if not colon:
                raise ModelParseError(line_number, "expected 'pred <name>: ...'")
            if pred not in ETHICA_SIGNATURE:
                raise ModelParseError(line_number, f"unknown predicate {pred!r}")
            if pred in tables:
                raise ModelParseError(line_number, f"duplicate table for {pred!r}")
            decl = ETHICA_SIGNATURE.declaration(pred)
            tokens = body.split()
            if not tokens:
                raise ModelParseError(line_number, f"empty table for {pred!r}")
            if tokens == ["*"]:
                tables[pred] = _full_table(decl, things, worlds)
                continue
            rows = set()
            for token in tokens:
                rows.add(_parse_row(line_number, token, decl, things, worlds))
            tables[pred] = rows
            continue

        raise ModelParseError(line_number, f"unrecognised statement {keyword!r}")

    if name is None:
        raise ModelParseError(1, "expected 'model <name>' first")
    if things is None:
        raise ModelParseError(1, "missing required 'things' line")
    # Each universe FiniteModel refuses was refused at its own line above.
    return FiniteModel(name, things, worlds, tables)


def _parse_labels(line_number, rest, kind):
    labels = rest.split()
    if not labels:
        raise ModelParseError(line_number, f"empty {kind} universe")
    for label in labels:
        if not _is_label(label):
            raise ModelParseError(line_number, f"bad label {label!r}")
    if len(set(labels)) != len(labels):
        raise ModelParseError(line_number, f"duplicate {kind} label")
    return tuple(labels)


def _row_labels(token: str) -> tuple[str, ...] | None:
    """A table token's labels: a label alone, or one to three labels
    separated by commas in parentheses; None for any other token."""
    if _is_label(token):
        return (token,)
    labels = tuple(token[1:-1].split(","))
    if token.startswith("(") and token.endswith(")") and len(labels) <= 3 \
            and all(map(_is_label, labels)):
        return labels
    return None


def _parse_row(line_number, token, decl, things, worlds):
    if token == "*":
        raise ModelParseError(line_number, "'*' must be the only table token")
    labels = _row_labels(token)
    if labels is None:
        raise ModelParseError(line_number, f"bad tuple {token!r}")
    if len(labels) != decl.arity:
        raise ModelParseError(
            line_number,
            f"{decl.name} expects arity {decl.arity}, got tuple of {len(labels)}")
    for label, sort in zip(labels, decl.argument_sorts):
        universe = things if sort is Sort.THING else worlds
        if label not in universe:
            raise ModelParseError(
                line_number, f"element {label!r} is not in the {sort} universe")
    return labels


def serialize_model(model: FiniteModel) -> str:
    """Canonical DSL text; parse_model(serialize_model(m)) == m.

    Predicates appear in signature declaration order, rows in universe order;
    a full table serialises as ``*`` and empty tables are omitted.
    """
    model.check_against(ETHICA_SIGNATURE)
    lines = [f"model {model.name}", "things " + " ".join(model.things)]
    if model.worlds:
        lines.append("worlds " + " ".join(model.worlds))
    for decl in ETHICA_SIGNATURE:
        table = model.tables.get(decl.name)
        if not table:
            continue
        if table == frozenset(_full_table(decl, model.things, model.worlds)):
            lines.append(f"pred {decl.name}: *")
            continue
        universes = [model.things if s is Sort.THING else model.worlds
                     for s in decl.argument_sorts]
        ordered = sorted(table, key=lambda row: tuple(
            universes[i].index(label) for i, label in enumerate(row)))
        rendered = " ".join(
            row[0] if len(row) == 1 else "(" + ",".join(row) + ")" for row in ordered)
        lines.append(f"pred {decl.name}: {rendered}")
    return "\n".join(lines) + "\n"
