"""Shared fixtures: the bundled scenario built fresh per test."""
from __future__ import annotations

import pytest
from hypothesis import HealthCheck, settings

from abd import scenario
from abd.namestore import NamespaceStore
from instance_gen import memory_dht

settings.register_profile(
    "suite",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture
def clock():
    return scenario.FIXTURE_EPOCH_US


@pytest.fixture
def backend():
    return memory_dht()


@pytest.fixture
def fixture(tmp_path, backend, clock):
    store = NamespaceStore(tmp_path / "home")
    return scenario.build_fixture(store, backend, clock=clock)
