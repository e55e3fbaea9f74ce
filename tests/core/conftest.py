"""Fixtures for the core-engine tests."""

import pytest

from tests.core.helpers import JugglerHarness

from repro.core.config import JugglerConfig
from repro.sim.time import US


@pytest.fixture
def config():
    return JugglerConfig(inseq_timeout=15 * US, ofo_timeout=50 * US,
                         table_capacity=8)


@pytest.fixture
def harness(config):
    return JugglerHarness(config)
