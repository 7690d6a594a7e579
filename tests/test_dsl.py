"""The line-oriented model format: round-trips and diagnostics."""

from importlib.resources import files

import pytest

from ethica.dsl import ModelParseError, parse_model, serialize_model
from ethica.logic import FiniteModel


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


def test_unknown_predicate_reports_line():
    with pytest.raises(ModelParseError, match="line 3: unknown predicate 'nosuch'"):
        parse_model("model m\nthings x\npred nosuch: x\n")


def test_out_of_universe_element_reports_line():
    with pytest.raises(ModelParseError, match="line 3.*not in the Thing universe"):
        parse_model("model m\nthings x\npred inItself: y\n")


def test_duplicate_label_reports_line():
    with pytest.raises(ModelParseError, match="line 2: duplicate thing label"):
        parse_model("model m\nthings x x\n")


def test_label_in_both_universes_reports_the_worlds_line():
    with pytest.raises(ModelParseError,
                       match="line 3: label used in both universes: 'a'"):
        parse_model("model x\nthings a b\nworlds a\n")


def test_missing_model_line():
    with pytest.raises(ModelParseError, match="expected 'model <name>' first"):
        parse_model("things x\n")


def test_missing_things_line():
    with pytest.raises(ModelParseError, match="missing required 'things'"):
        parse_model("model m\n")


def test_arity_mismatch_reports_line():
    with pytest.raises(ModelParseError, match="line 3.*arity"):
        parse_model("model m\nthings x\npred limitedBy: x\n")


def test_bad_tuple_syntax():
    with pytest.raises(ModelParseError, match="bad tuple"):
        parse_model("model m\nthings x\npred limitedBy: (x,\n")


def test_duplicate_pred_line_rejected():
    with pytest.raises(ModelParseError, match="duplicate table"):
        parse_model("model m\nthings x\npred inItself: x\npred inItself: x\n")


def test_worlds_after_pred_rejected():
    with pytest.raises(ModelParseError, match="worlds must precede"):
        parse_model("model m\nthings x\npred inItself: x\nworlds w\n")


def test_star_mixed_with_tuples_rejected():
    with pytest.raises(ModelParseError, match="'\\*' must be the only"):
        parse_model("model m\nthings x y\npred inItself: x *\n")
