import numpy as np
import pytest
from hypothesis import settings

from dmasim import DmaDesign, ScenarioConfig

settings.register_profile("suite", derandomize=True, max_examples=100)
settings.register_profile("ci", derandomize=True, max_examples=1000)  # the exactness oracles, run deeper in CI
settings.load_profile("suite")


@pytest.fixture
def cfg() -> ScenarioConfig:
    return ScenarioConfig()


@pytest.fixture
def design() -> DmaDesign:
    return DmaDesign()


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(0xD0A)
