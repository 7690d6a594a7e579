"""Finite-model workbench for the Ethica Pars I axiom register.

Evaluates the register's axioms over finite two-sorted models, verifies the
catalogued counter-models exactly, re-establishes the positive entailments by
exhaustive bounded search, and classifies demote experiments into a five-way
outcome taxonomy.
"""

from .corpus import (CorpusModel, VerificationReport, a12_counter_model,
                     a15_counter_model, corpus_model, corpus_names, verify)
from .dsl import ModelParseError, parse_model, serialize_model
from .experiments import (ExperimentResult, ExperimentSpec, InsufficientEvidenceError,
                          OutcomeClass, bundled_experiments, classify_outcome,
                          conjecture_probe_full_register, reducibility_table,
                          run_experiment)
from .grounding import (GroundConstraintSet, GroundingError, evaluate_via_grounding,
                        ground)
from .logic import (Assignment, Elem, EvaluationError, FiniteModel, Formula,
                    LogicError, ModelError, PredicateDecl, Signature, Sort,
                    SortError, Var, check_sorted, evaluate)
from .registry import (ETHICA_SIGNATURE, AxiomEntry, RegistryError, Section,
                       axiom, axiom_ids, axiom_set, definition)
from .search import (EntailmentVerdict, NoCounterexampleUpTo, RecheckError,
                     Refuted, ResourceLimitExceeded, SearchConfig, SearchStats,
                     canonical_form, check_naive_psr, entails_bounded,
                     find_countermodel)

__version__ = "0.1.0"
