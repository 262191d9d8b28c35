"""The three routes agree on random small models, as properties.

On a coarse grid (M = 50) the nce and master kernels and offsets, and for
K = 1 the nine-block limit system and the re-partitioned nce kernels,
agree to rounding, so the equivalence bound 1e-9 holds with orders of
margin and any route bug that lifts the gap above rounding shows. Models
with heavy mean-deviation tracking escape; every route must then give
the same verdict.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from lqmfg import (TimeGrid, compare_lambda_phi, compare_nce_master,
                   phi_from_nce, solve_lambda, solve_master, solve_nce,
                   validate_model)
from lqmfg.ode import BlowUpReport

from helpers import _random_params

GRID = TimeGrid(M=50, T=1.0)
TOL = 1e-9


@settings(max_examples=40, deadline=None, derandomize=True)
@given(K=st.integers(1, 3), n=st.integers(1, 2), n1=st.integers(1, 2),
       seed=st.integers(0, 2 ** 32 - 1), heavy=st.booleans())
def test_routes_agree_on_random_models(K, n, n1, seed, heavy):
    params = _random_params(np.random.default_rng(seed), K, dims=(n, n1, 1))
    if heavy:
        # strong mean-deviation tracking at cheap control: about a
        # quarter of these models escape on [0, T]
        params.Gamma2 = 8.0 * params.Gamma2
        params.Gamma2f = 8.0 * params.Gamma2f
        params.R, params.R0 = 0.2 * params.R, 0.2 * params.R0
        params.Q0, params.Q, params.Qf = (8.0 * params.Q0, 8.0 * params.Q,
                                          8.0 * params.Qf)
    model = validate_model(params)

    nce_sol = solve_nce(model, GRID)
    master_sol = solve_master(model, GRID)
    escaped = isinstance(nce_sol, BlowUpReport)
    assert isinstance(master_sol, BlowUpReport) == escaped
    if not escaped:
        report = compare_nce_master(nce_sol, master_sol, tol=TOL)
        assert report.passed, report.summary()
    if K == 1:
        lam = solve_lambda(model, GRID)
        assert isinstance(lam, BlowUpReport) == escaped
        if not escaped:
            report = compare_lambda_phi(lam, phi_from_nce(nce_sol), tol=TOL)
            assert report.passed, report.summary()
