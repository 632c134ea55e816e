import pytest

import support


@pytest.fixture(scope="session")
def s4_rzms():
    return support.s4_rzms()


@pytest.fixture(scope="session")
def w_semigroup():
    return support.w_semigroup()


@pytest.fixture(scope="session")
def oracle_corpus_with_multiplies():
    return support.oracle_corpus_with_multiplies()


@pytest.fixture(scope="session")
def oracle_corpus(oracle_corpus_with_multiplies):
    return [(name, sg) for name, sg, _ in oracle_corpus_with_multiplies]


@pytest.fixture(scope="session")
def t6_semigroup():
    return support.t6_semigroup()
