"""The line-oriented model format: round-trips and diagnostics."""

import itertools
import re
from importlib.resources import files

import pytest

from ethica import dsl
from ethica.dsl import ModelParseError, parse_model, serialize_model
from ethica.logic import FiniteModel, ModelError


def test_minimal_file():
    model = parse_model("model m\nthings x\n")
    assert model == FiniteModel("m", ("x",))
    assert model.tables == {}


def test_comments_and_blank_lines():
    text = """
# a tiny model
model m   # trailing comment
things x y

pred inItself: x  # only x
"""
    model = parse_model(text)
    assert model.things == ("x", "y")
    assert model.tables["inItself"] == frozenset({("x",)})


def test_round_trip_a12(a12):
    assert parse_model(serialize_model(a12.model)) == a12.model


def test_round_trip_a15(a15):
    assert parse_model(serialize_model(a15.model)) == a15.model


def test_shipped_fixture_matches_constructed_corpus(a12, a15):
    for member in (a12, a15):
        text = (files("ethica") / "data" / f"{member.name}.model").read_text()
        assert parse_model(text) == member.model
        assert serialize_model(member.model) == text


def test_serialize_is_canonical_fixed_point(a12):
    text = serialize_model(a12.model)
    assert serialize_model(parse_model(text)) == text


def test_empty_tables_serialize_without_pred_lines():
    model = FiniteModel("m", ("x", "y"))
    assert serialize_model(model) == "model m\nthings x y\n"


def test_full_table_serializes_as_star(a12):
    assert "pred expressesEternalEssence: *" in serialize_model(a12.model)


def test_star_parses_to_full_table():
    model = parse_model("model m\nthings x y\npred limitedBy: *\n")
    assert model.tables["limitedBy"] == frozenset(
        {("x", "x"), ("x", "y"), ("y", "x"), ("y", "y")})


def test_worlds_and_modal_tables():
    text = ("model m\nthings x\nworlds w1 w2\n"
            "pred existsAt: (x,w1)\npred causeAt: (x,x,w2)\n")
    model = parse_model(text)
    assert model.worlds == ("w1", "w2")
    assert model.truth("existsAt", ("x", "w1"))
    assert not model.truth("existsAt", ("x", "w2"))
    assert parse_model(serialize_model(model)) == model


#: (id, text, line number, message) for each way model text can be malformed.
MALFORMED = [
    ("unknown-predicate", "model m\nthings x\npred nosuch: x\n", 3,
     "unknown predicate 'nosuch'"),
    ("out-of-universe-element", "model m\nthings x\npred inItself: y\n", 3,
     "element 'y' is not in the Thing universe"),
    ("duplicate-thing-label", "model m\nthings x x\n", 2,
     "duplicate thing label"),
    ("label-in-both-universes", "model x\nthings a b\nworlds a\n", 3,
     "label used in both universes: 'a'"),
    ("missing-model-line", "things x\n", 1, "expected 'model <name>' first"),
    ("missing-things-line", "model m\n", 1, "missing required 'things' line"),
    ("arity-mismatch", "model m\nthings x\npred limitedBy: x\n", 3,
     "limitedBy expects arity 2, got tuple of 1"),
    ("bad-tuple", "model m\nthings x\npred limitedBy: (x,\n", 3,
     "bad tuple '(x,'"),
    ("duplicate-pred-line",
     "model m\nthings x\npred inItself: x\npred inItself: x\n", 4,
     "duplicate table for 'inItself'"),
    ("worlds-after-pred", "model m\nthings x\npred inItself: x\nworlds w\n", 4,
     "worlds must precede pred lines"),
    ("star-mixed-with-tuples", "model m\nthings x y\npred inItself: x *\n", 3,
     "'*' must be the only table token"),
    ("duplicate-model-line", "model m\nmodel n\n", 2, "duplicate model line"),
    ("bad-model-name", "model 9m\n", 1, "bad model name '9m'"),
    ("duplicate-things-line", "model m\nthings x\nthings y\n", 3,
     "duplicate things line"),
    ("things-line-first", "model m\nworlds w\n", 2,
     "expected 'things ...' before this line"),
    ("duplicate-worlds-line", "model m\nthings x\nworlds w\nworlds v\n", 4,
     "duplicate worlds line"),
    ("pred-without-colon", "model m\nthings x\npred inItself x\n", 3,
     "expected 'pred <name>: ...'"),
    ("empty-table", "model m\nthings x\npred inItself:\n", 3,
     "empty table for 'inItself'"),
    ("unrecognised-statement", "model m\nthings x\nfoo bar\n", 3,
     "unrecognised statement 'foo'"),
    ("empty-text", "", 1, "expected 'model <name>' first"),
    ("empty-thing-universe", "model m\nthings\n", 2, "empty thing universe"),
    ("bad-label", "model m\nthings x 9y\n", 2, "bad label '9y'"),
]


@pytest.mark.parametrize("text, line_number, message",
                         [row[1:] for row in MALFORMED],
                         ids=[row[0] for row in MALFORMED])
def test_malformed_model_text_names_its_line(text, line_number, message):
    with pytest.raises(ModelParseError) as info:
        parse_model(text)
    assert str(info.value) == f"line {line_number}: {message}"
    assert info.value.line_number == line_number


#: (id, text, line number, things, worlds) for each pair of universes that
#: FiniteModel refuses.
REFUSED_UNIVERSES = [
    ("empty-thing-universe", "model m\n# none\nthings\n", 3, (), ()),
    ("duplicate-thing-label", "model m\n\nthings x y x\n", 3,
     ("x", "y", "x"), ()),
    ("duplicate-world-label", "model m\nthings x\n\nworlds w v w\n", 4,
     ("x",), ("w", "v", "w")),
    ("label-in-both-universes", "model m\nthings a b\n# c\nworlds c b\n", 4,
     ("a", "b"), ("c", "b")),
]


@pytest.mark.parametrize("text, line_number, things, worlds",
                         [row[1:] for row in REFUSED_UNIVERSES],
                         ids=[row[0] for row in REFUSED_UNIVERSES])
def test_the_parser_refuses_what_finite_model_refuses_at_its_line(
        text, line_number, things, worlds):
    with pytest.raises(ModelError):
        FiniteModel("m", things, worlds)
    with pytest.raises(ModelParseError) as info:
        parse_model(text)
    assert info.value.line_number == line_number
    assert str(info.value).startswith(f"line {line_number}: ")


# The label and tuple patterns the parser matched with ``re`` before it
# tested labels with ``str`` methods: the reference for ``dsl._row_labels``.
LABEL = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
TUPLE = re.compile(
    r"\(([A-Za-z_][A-Za-z0-9_]*(?:,[A-Za-z_][A-Za-z0-9_]*){0,2})\)\Z")


def regex_row_labels(token):
    if LABEL.match(token):
        return (token,)
    match = TUPLE.match(token)
    return tuple(match.group(1).split(",")) if match else None


def test_labels_and_tuples_match_the_regular_expressions():
    # Every string of up to four characters over an alphabet with
    # non-ASCII identifier characters, and tuples of zero to five parts.
    alphabet = "aZ_9(),é ａ"
    tokens = ["", "a\n", "()", "(a)", "(a,b,c)", "(a,b,c,d)", "(a,,b)",
              "(a, b)", "((a))", "(a,b)c", "x(a)"]
    tokens += ["".join(chars) for n in range(1, 5)
               for chars in itertools.product(alphabet, repeat=n)]
    tokens += ["(" + ",".join(parts) + ")" for n in range(6)
               for parts in itertools.product(["a", "_1", "", "é", "b c"],
                                              repeat=n)]
    accepted = 0
    for token in tokens:
        labels = regex_row_labels(token)
        assert dsl._row_labels(token) == labels, token
        assert dsl._is_label(token) == bool(LABEL.match(token)), token
        accepted += labels is not None
    assert accepted > 100

