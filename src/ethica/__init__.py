"""Finite-model workbench for the Ethica Pars I axiom register.

Evaluates the register's axioms over finite two-sorted models, verifies the
catalogued counter-models exactly, re-establishes the positive entailments by
exhaustive bounded search, and classifies demote experiments into a five-way
outcome taxonomy.

Importing the package loads none of its modules: each public name, and each
submodule such as ``ethica.grounding``, is loaded on first use, so a CLI
process compiles only the modules its command runs.
"""

__version__ = "0.1.0"

_EXPORTS = {
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
_SUBMODULES = frozenset(_EXPORTS) | {"cli", "workers"}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_OWNER)


def __getattr__(name: str):
    if name in _OWNER:
        value = getattr(__import__(f"{__name__}.{_OWNER[name]}",
                                   fromlist=[name]), name)
    elif name in _SUBMODULES:
        value = __import__(f"{__name__}.{name}", fromlist=["__name__"])
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
