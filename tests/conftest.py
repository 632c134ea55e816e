import pytest

import support


@pytest.fixture(scope="session")
def s4_rzms():
    return support.s4_rzms()


@pytest.fixture(scope="session")
def w_semigroup():
    return support.w_semigroup()


@pytest.fixture(scope="session")
def oracle_corpus():
    return support.oracle_corpus()


@pytest.fixture(scope="session")
def t6_semigroup():
    return support.t6_semigroup()
