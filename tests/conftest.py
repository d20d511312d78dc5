from __future__ import annotations

import pytest

from beliefbound.fixtures import (
    medai_alt_scm,
    medai_dataset,
    medai_experiment_dataset,
    medai_scm,
)


@pytest.fixture(scope="session")
def medai():
    return medai_dataset()


@pytest.fixture(scope="session")
def medai_exp():
    return medai_experiment_dataset()


@pytest.fixture(scope="session")
def m1():
    return medai_scm()


@pytest.fixture(scope="session")
def m2():
    return medai_alt_scm()


@pytest.fixture
def cold_spaces():
    """No canonical space kept from an earlier test, and none left for a later
    one: for tests that count walks or phase ones or bound allocations."""
    from beliefbound.oracle import _kept_space

    _kept_space.cache_clear()
    yield
    _kept_space.cache_clear()
