"""The package's import surface: ``import ethica`` loads no submodule, each
public name is loaded on first use, a CLI search compiles only the modules
it runs, and no command loads argparse or the regular expressions."""

import importlib
import os
import subprocess
import sys

import pytest

import ethica

# The public names, each with the module that defines it.
PUBLIC = {
    "corpus": ("CorpusModel", "VerificationReport", "a12_counter_model",
               "a15_counter_model", "corpus_model", "verify"),
    "dsl": ("ModelParseError", "parse_model", "serialize_model"),
    "experiments": ("ExperimentResult", "ExperimentSpec",
                    "InsufficientEvidenceError", "OutcomeClass",
                    "bundled_experiments", "classify_outcome",
                    "conjecture_probe_full_register", "reducibility_table",
                    "run_experiment"),
    "grounding": ("GroundConstraintSet", "GroundingError",
                  "evaluate_via_grounding", "ground"),
    "logic": ("Assignment", "Elem", "EvaluationError", "FiniteModel",
              "Formula", "LogicError", "ModelError", "PredicateDecl",
              "Signature", "Sort", "SortError", "Var", "check_sorted",
              "evaluate"),
    "registry": ("ETHICA_SIGNATURE", "AxiomEntry", "RegistryError", "Section",
                 "axiom", "axiom_ids", "axiom_set"),
    "search": ("EntailmentVerdict", "NoCounterexampleUpTo", "RecheckError",
               "Refuted", "ResourceLimitExceeded", "SearchConfig",
               "SearchStats", "canonical_form", "check_naive_psr",
               "entails_bounded", "find_countermodel"),
}
PUBLIC_NAMES = {name for names in PUBLIC.values() for name in names}


def fresh_modules(source: str, prefix: str = "ethica") -> list[str]:
    """The modules whose names start with ``prefix`` loaded after running
    ``source`` in a fresh interpreter."""
    source_root = os.path.dirname(os.path.dirname(ethica.__file__))
    probe = (f"import sys\n{source}\n"
             "print(' '.join(sorted(m for m in sys.modules "
             f"if m.startswith({prefix!r}))), file=sys.stderr)")
    child = subprocess.run([sys.executable, "-S", "-c", probe],
                           capture_output=True, text=True,
                           env={**os.environ, "PYTHONPATH": source_root})
    assert child.returncode == 0, child.stderr
    return child.stderr.split()


def test_import_ethica_loads_no_submodule():
    assert fresh_modules("import ethica") == ["ethica"]


@pytest.mark.parametrize("command", ["entail", "search"])
def test_a_search_command_loads_only_the_modules_it_runs(command):
    loaded = fresh_modules(
        "from ethica.cli import main\n"
        f"main(['{command}', '--premises', 'PSRSubstance', '--target', "
        "'PropV_allshared', '--max-things', '8', '--workers', '2'])")
    assert {"ethica.search", "ethica.solver"} <= set(loaded)
    assert not {"ethica.corpus", "ethica.dsl", "ethica.experiments",
                "ethica.workers"} & set(loaded)


# Modules the command line's start-up no longer needs: argparse, the
# regular expressions it and the model DSL used, and the translation,
# terminal-size and locale modules argparse's help formatter loads.
START_UP_MODULES = {"argparse", "re", "gettext", "shutil", "locale"}


@pytest.mark.parametrize("argv", [
    ["entail", "--premises", "PSRSubstance", "--target", "PropV_allshared",
     "--max-things", "8", "--workers", "2"],
    ["search", "--premises", "PSRSubstance", "--target", "A12"],
    ["table"],
    ["export-axioms"],
])
def test_a_command_loads_no_argument_parsing_or_regex_module(argv):
    source = f"from ethica.cli import main\nmain({argv!r})"
    assert not START_UP_MODULES & set(fresh_modules(source, prefix=""))
    # --json output loads json, whose decoder brings re.
    source = f"from ethica.cli import main\nmain({argv + ['--json']!r})"
    loaded = set(fresh_modules(source, prefix=""))
    assert "json" in loaded
    assert START_UP_MODULES & loaded == {"re"}


def test_every_public_name_is_its_defining_module_s_object():
    for module_name, names in PUBLIC.items():
        module = importlib.import_module(f"ethica.{module_name}")
        for name in names:
            assert getattr(ethica, name) is getattr(module, name), name


def test_star_import_and_dir_give_the_public_names():
    namespace = {}
    exec("from ethica import *", namespace)
    namespace.pop("__builtins__")
    assert set(namespace) == PUBLIC_NAMES
    assert set(ethica.__all__) == PUBLIC_NAMES
    assert PUBLIC_NAMES <= set(dir(ethica))


def test_submodules_resolve_as_attributes():
    for module_name in (*PUBLIC, "cli", "workers"):
        assert getattr(ethica, module_name) is \
            importlib.import_module(f"ethica.{module_name}")


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        ethica.no_such_name
    assert not hasattr(ethica, "ground_truth")
