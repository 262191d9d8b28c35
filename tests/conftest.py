# simulate imports numpy.random on first use; loaded before any test so
# that no traced-memory test counts that one-time import as a run's memory
import numpy.random  # noqa: F401
import pytest

from lqmfg import TimeGrid, solve_master, solve_nce
from lqmfg.ode import BlowUpReport

import helpers


@pytest.fixture(scope="session")
def suite_models():
    return [helpers.suite_model(i) for i in range(helpers.SUITE_SIZE)]


@pytest.fixture(scope="session")
def suite_grid():
    return TimeGrid(M=helpers.SUITE_M, T=1.0)


@pytest.fixture(scope="session")
def suite_nce(suite_models, suite_grid):
    sols = [solve_nce(m, suite_grid) for m in suite_models]
    bad = [i for i, s in enumerate(sols) if isinstance(s, BlowUpReport)]
    assert not bad, f"suite models {bad} escaped; generator must reject these"
    return sols


@pytest.fixture(scope="session")
def suite_master(suite_models, suite_grid):
    sols = [solve_master(m, suite_grid) for m in suite_models]
    bad = [i for i, s in enumerate(sols) if isinstance(s, BlowUpReport)]
    assert not bad, f"suite models {bad} escaped; generator must reject these"
    return sols


@pytest.fixture(scope="session")
def scalar_model():
    return helpers.scalar_coupled()


@pytest.fixture(scope="session")
def scalar_grid():
    return TimeGrid(M=400, T=1.0)


@pytest.fixture(scope="session")
def scalar_nce(scalar_model, scalar_grid):
    return solve_nce(scalar_model, scalar_grid)


@pytest.fixture(scope="session")
def scalar_master(scalar_model, scalar_grid):
    return solve_master(scalar_model, scalar_grid)


@pytest.fixture(scope="session")
def blowup_models(scalar_grid):
    return {name: helpers.bisect_blowup(name, scalar_grid)
            for name in helpers.BLOWUP_FAMILIES}


@pytest.fixture(scope="session")
def twodim_model():
    return helpers.two_dim_coupled()


@pytest.fixture(scope="session")
def twodim_nce(twodim_model, scalar_grid):
    return solve_nce(twodim_model, scalar_grid)
