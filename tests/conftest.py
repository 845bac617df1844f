import pytest

from oracles import finset_iso_mcat
from rcwb.fixtures import (build_finset_mcat, build_finset_p,
                           build_finset_p_data, build_nojoin_fixture)
from rcwb.mcat import par
from rcwb.site import generate_topology


@pytest.fixture(scope="session")
def finset_p2():
    return build_finset_p(2)


@pytest.fixture(scope="session")
def finset_p2_data():
    return build_finset_p_data(2)


@pytest.fixture(scope="session")
def mc_inj():
    return build_finset_mcat(2)


@pytest.fixture(scope="session")
def mc_iso():
    return finset_iso_mcat(2)


@pytest.fixture(scope="session")
def pc_inj(mc_inj):
    return par(mc_inj)


@pytest.fixture(scope="session")
def top_inj(mc_inj):
    return generate_topology(mc_inj)


@pytest.fixture(scope="session")
def nojoin():
    return build_nojoin_fixture()
