import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from ethica.corpus import a12_counter_model, a15_counter_model


@pytest.fixture(scope="session")
def a12():
    return a12_counter_model()


@pytest.fixture(scope="session")
def a15():
    return a15_counter_model()


@pytest.fixture
def mismatched_spec():
    """A14_demote expecting a refutation, with a corpus check whose model
    satisfies the target: two expectation failures."""
    from ethica.experiments import (CorpusCheck, ExperimentSpec,
                                    bundled_experiments)
    spec = bundled_experiments()["A14_demote"]
    return ExperimentSpec(
        spec.name, spec.forward, spec.config, spec.backward,
        corpus_check=CorpusCheck("A12CounterModel", "PSRSubstance",
                                 "PropV_allshared"),
        expectation={"forward": "refuted"}, extra_caveats=spec.extra_caveats)
