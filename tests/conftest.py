import pytest

from halphen import chilean, piclattice


@pytest.fixture(scope="session")
def configuration():
    """The symbolic configuration, shared by the whole session."""
    return chilean.Configuration()


@pytest.fixture(scope="session")
def symbolic_data(configuration):
    return configuration.data


@pytest.fixture(scope="session")
def pencil(configuration):
    return configuration.pencil


@pytest.fixture(scope="session")
def nodes(configuration):
    return configuration.nodes


@pytest.fixture(scope="session")
def dual_lines(configuration):
    return configuration.lines_and_incidence


@pytest.fixture(scope="session")
def lattice():
    return piclattice.chilean_lattice()


@pytest.fixture(scope="session")
def classes144(lattice):
    return piclattice.enumerate_minus1_generative(lattice)
