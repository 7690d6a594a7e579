"""Demote experiments: classification, bundled fixtures, table, probe."""

import pytest

import jsonschema

from ethica.corpus import verify
from ethica.experiments import (PROBE_PREMISES, REPORT_SCHEMA,
                                InsufficientEvidenceError, OutcomeClass,
                                bundled_experiments, classify_outcome,
                                conjecture_probe_full_register,
                                describe_experiment, reducibility_table,
                                run_experiment)
from ethica.logic import FiniteModel
from ethica.search import (NoCounterexampleUpTo, Refuted, SearchConfig,
                           SearchStats)

from oracles import refutes


def _refuted():
    model = FiniteModel("m", ("t0",), tables={"inItself": {"t0"}})
    return Refuted(model, 1, 0, SearchStats())


def _survived(bound=4):
    return NoCounterexampleUpTo(bound, 0, SearchStats())


# ---------------------------------------------------------------------------
# classifier rules
# ---------------------------------------------------------------------------

def test_refuted_with_surviving_restricted_form_is_partial_reduction():
    assert classify_outcome(_refuted(), restricted_form=_survived()) is \
        OutcomeClass.PARTIAL_REDUCTION


def test_refuted_without_auxiliary_success_is_full_irreducibility():
    assert classify_outcome(_refuted()) is OutcomeClass.FULL_IRREDUCIBILITY
    assert classify_outcome(_refuted(), restricted_form=_refuted()) is \
        OutcomeClass.FULL_IRREDUCIBILITY


def test_survived_both_directions_is_equal_strength():
    assert classify_outcome(_survived(), backward=_survived()) is \
        OutcomeClass.EQUAL_STRENGTH_TRANSLATION


def test_survived_with_refuted_backward_is_full_reduction():
    assert classify_outcome(_survived(), backward=_refuted()) is \
        OutcomeClass.FULL_REDUCTION


def test_survived_with_refuted_subset_is_decomposition_only():
    assert classify_outcome(_survived(), subset_verdicts=[_refuted()]) is \
        OutcomeClass.DECOMPOSITION_ONLY


def test_survived_with_open_converse_is_equal_strength():
    assert classify_outcome(_survived(), converse_open=True) is \
        OutcomeClass.EQUAL_STRENGTH_TRANSLATION


def test_survived_alone_is_insufficient_evidence():
    with pytest.raises(InsufficientEvidenceError):
        classify_outcome(_survived())


# ---------------------------------------------------------------------------
# bundled experiments
# ---------------------------------------------------------------------------

def test_a12_demote_is_partial_reduction_with_corpus_echo():
    result = run_experiment(bundled_experiments()["A12_demote"])
    assert result.outcome is OutcomeClass.PARTIAL_REDUCTION
    assert result.outcome_label == "Partial reduction; full irreducible"
    assert result.verdicts["forward"].is_refuted
    assert not result.verdicts["restricted_form"].is_refuted
    assert result.expectation_ok
    assert result.corpus_report.confirmed
    assert "F1-uniform-eternal-essence" in result.fidelity_flags
    assert "F2-two-category-collapse" in result.fidelity_flags


def test_a13_demote_is_equal_strength_with_open_converse():
    result = run_experiment(bundled_experiments()["A13_demote"])
    assert result.outcome is OutcomeClass.EQUAL_STRENGTH_TRANSLATION
    assert not result.verdicts["forward"].is_refuted
    assert any("converse open" in caveat for caveat in result.caveats)
    assert result.expectation_ok


def test_a13_converse_runs_and_reports_without_expectation():
    result = run_experiment(bundled_experiments()["A13_converse"])
    assert result.spec.expectation is None
    assert result.expectation_ok  # nothing attached, nothing to fail
    assert result.verdicts["forward"] is not None


def test_a14_demote_is_equal_strength_translation():
    result = run_experiment(bundled_experiments()["A14_demote"])
    assert result.outcome is OutcomeClass.EQUAL_STRENGTH_TRANSLATION
    assert not result.verdicts["forward"].is_refuted
    assert not result.verdicts["backward"].is_refuted
    assert result.expectation_ok


def test_a15_demote_is_decomposition_only():
    result = run_experiment(bundled_experiments()["A15_demote"])
    assert result.outcome is OutcomeClass.DECOMPOSITION_ONLY
    assert not result.verdicts["forward"].is_refuted
    assert result.verdicts["subset:A25"].is_refuted
    assert result.expectation_ok
    assert result.corpus_report.confirmed


def test_a15_plenitude_only_component():
    result = run_experiment(bundled_experiments()["A15_plenitude_only"])
    assert result.verdicts["forward"].is_refuted
    assert result.outcome is OutcomeClass.FULL_IRREDUCIBILITY
    assert result.expectation_ok


def test_a22_decomposes_into_a12_plus_a14():
    result = run_experiment(bundled_experiments()["A22_from_A12_A14"])
    assert result.outcome is OutcomeClass.DECOMPOSITION_ONLY
    assert result.verdicts["subset:A12"].is_refuted
    assert result.expectation_ok


def test_classifier_totality_over_bundled_experiments():
    for spec in bundled_experiments().values():
        result = run_experiment(spec)
        assert isinstance(result.outcome, OutcomeClass), spec.name


def test_every_caveat_cites_the_bound():
    for spec in bundled_experiments().values():
        result = run_experiment(spec)
        assert any("bound things <=" in caveat for caveat in result.caveats), spec.name


def test_refuted_directions_attach_a_model():
    # Non-derivability is only reported with a concrete refuting model.
    result = run_experiment(bundled_experiments()["A12_demote"])
    doc = result.to_json_dict()
    assert doc["forward"]["verdict"] == "refuted"
    assert "model" in doc["forward"]
    assert doc["forward"]["model"]["tables"]


def test_report_json_validates_against_schema():
    for spec in bundled_experiments().values():
        doc = run_experiment(spec).to_json_dict()
        jsonschema.validate(doc, REPORT_SCHEMA)


def test_expectation_mismatches_are_flagged_not_hidden(mismatched_spec):
    result = run_experiment(mismatched_spec)
    assert not result.expectation_ok
    failures = ("forward: expected refuted, got no_counterexample",
                "corpus check: target-not-falsified")
    assert result.expectation_failures == failures
    # the verdicts themselves are reported unchanged
    assert not result.verdicts["forward"].is_refuted
    for strict_claims in (False, True):
        report = describe_experiment(result, strict_claims)
        assert [line for line in report.splitlines()
                if "EXPECTATION" in line or "expectations:" in line] == [
            f"  EXPECTATION MISMATCH {failure}" for failure in failures]


# ---------------------------------------------------------------------------
# the reducibility table
# ---------------------------------------------------------------------------

def test_table_rows_carry_the_expected_outcome_labels():
    table = reducibility_table()
    markdown = table.markdown()
    lines = markdown.strip().splitlines()
    assert len(lines) == 6  # header, rule, four rows
    assert "| A12 |" in lines[2] and "Partial reduction; full irreducible" in lines[2]
    assert "| A13 |" in lines[3] and "Equal-strength translation" in lines[3]
    assert "converse open" in lines[3]
    assert "| A14 |" in lines[4] and "Equal-strength translation" in lines[4]
    assert "trivial redescription" in lines[4]
    assert "| A15 |" in lines[5] and "Decomposition only" in lines[5]
    assert table.all_expectations_ok


def test_table_is_byte_identical_across_runs():
    first = reducibility_table()
    second = reducibility_table()
    assert first.markdown() == second.markdown()
    assert first.to_json_dict() == second.to_json_dict()


def test_strict_claims_markdown_prints_verdicts_only():
    strict = reducibility_table().markdown(strict_claims=True)
    assert "Partial reduction" not in strict
    assert "Refuted(size=2)" in strict
    assert "NoCounterexampleUpTo" in strict


# ---------------------------------------------------------------------------
# the full-register probe
# ---------------------------------------------------------------------------

def test_probe_at_one_thing_cannot_falsify_identity():
    verdict = conjecture_probe_full_register(SearchConfig(max_thing_size=1))
    assert isinstance(verdict, NoCounterexampleUpTo)
    assert verdict.thing_bound == 1


def test_probe_at_three_things_reaches_a_definite_verdict():
    verdict = conjecture_probe_full_register(SearchConfig(max_thing_size=3))
    assert isinstance(verdict, (Refuted, NoCounterexampleUpTo))
    if isinstance(verdict, Refuted):
        report = verify(verdict.model, list(PROBE_PREMISES), "A12")
        assert report.confirmed


def test_probe_hand_construction_is_a_witness_at_size_three():
    # All three elements substances; both substances perceive the third
    # element, which also perceives itself.
    hand = FiniteModel(
        "hand", ("s1", "s2", "a"),
        tables={
            "inItself": {"s1", "s2", "a"},
            "perSeConceived": {"s1", "s2", "a"},
            "intellectPerceivesAsEssence": {
                ("s1", "s1"), ("s1", "a"), ("s2", "s2"), ("s2", "a"), ("a", "a")},
        })
    assert refutes(hand, list(PROBE_PREMISES), "A12")
    report = verify(hand, list(PROBE_PREMISES), "A12")
    assert report.confirmed
    # therefore the engine must also refute within the same bound
    verdict = conjecture_probe_full_register(SearchConfig(max_thing_size=3))
    assert isinstance(verdict, Refuted)
    assert verdict.thing_size <= 3


def test_probe_statistics_show_pruning_at_work():
    verdict = conjecture_probe_full_register(SearchConfig(max_thing_size=3))
    assert verdict.stats.pruned_subtrees > 0


def test_table_reraises_memory_error_unwrapped(monkeypatch):
    from ethica import experiments

    def out_of_memory(spec, workers):
        raise MemoryError()
    monkeypatch.setattr(experiments, "run_experiment", out_of_memory)
    with pytest.raises(MemoryError):
        reducibility_table()
