"""The three routes agree on random small models, as properties.

On a coarse grid (M = 50) the nce and master kernels and offsets, and for
K = 1 the nine-block limit system and the re-partitioned nce kernels,
agree to rounding, so the equivalence bound 1e-9 holds with orders of
margin and any route bug that lifts the gap above rounding shows. Models
with heavy mean-deviation tracking escape; every route must then give
the same verdict. The solved kernels are positive semidefinite, the
finite-population tile solver agrees with the reduced (N+1)n-square
solve, and relabeling the types relabels the solutions.
"""

import dataclasses

import numpy as np
from hypothesis import given, settings, strategies as st

from lqmfg import (TimeGrid, compare_lambda_phi, compare_nce_master,
                   phi_from_nce, solve_finite_n, solve_lambda, solve_master,
                   solve_nce, solve_tiles, validate_model)
from lqmfg.ode import BlowUpReport

from helpers import (_random_params, finite_tiles, route_draw,
                     tile_solution_tiles)

GRID = TimeGrid(M=50, T=1.0)
TOL = 1e-9


@settings(max_examples=40, deadline=None, derandomize=True)
@given(K=st.integers(1, 3), n=st.integers(1, 2), n1=st.integers(1, 2),
       seed=st.integers(0, 2 ** 32 - 1), heavy=st.booleans())
def test_routes_agree_on_random_models(K, n, n1, seed, heavy):
    model = validate_model(route_draw(K, n, n1, seed, heavy))

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


@settings(max_examples=8, deadline=None, derandomize=True)
@given(K=st.integers(1, 3), n=st.integers(1, 2), n1=st.integers(1, 2),
       seed=st.integers(0, 2 ** 32 - 1), heavy=st.booleans())
def test_solved_kernels_are_positive_semidefinite(K, n, n1, seed, heavy):
    """Criterion 4's bound at criterion 4's grid, on the draws of the
    route test. Coarser grids miss it by RK4 step error on heavy draws:
    -5.9e-8 at M = 50 (K = 1, n = 2, seed 34985), and -1.1 at M = 200
    against kernels of 1.4e5 (K = 2, n = 2, seed 1), which escapes at
    M = 50 and 100 and is semidefinite to 5e-16 at M = 2000."""
    sol = solve_nce(validate_model(route_draw(K, n, n1, seed, heavy)),
                    TimeGrid(M=2000, T=1.0))
    if isinstance(sol, BlowUpReport):
        return
    kernels = [sol.P0.values] + [sol.P.values[:, k] for k in range(K)]
    assert min(float(np.linalg.eigvalsh(P).min()) for P in kernels) >= -1e-8


@settings(max_examples=15, deadline=None, derandomize=True)
@given(n=st.integers(1, 2), n1=st.integers(1, 2),
       seed=st.integers(0, 2 ** 32 - 1), heavy=st.booleans())
def test_tile_solver_agrees_with_the_reduced_solve(n, n1, seed, heavy):
    model = validate_model(route_draw(1, n, n1, seed, heavy))
    for N in (1, 3, 8):
        fin = solve_finite_n(model, N, GRID)
        tiles = solve_tiles(model, N, GRID)
        assert isinstance(tiles, BlowUpReport) == isinstance(fin, BlowUpReport)
        if isinstance(fin, BlowUpReport):
            assert tiles.escape_node == fin.escape_node
            continue
        want = finite_tiles(fin.P0_big.values, fin.P1_big.values,
                            fin.S0_big.values, fin.S1_big.values, N)
        got = tile_solution_tiles(tiles)
        assert max(float(np.abs(got[key] - w).max())
                   for key, w in want.items()) <= 1e-10


def _relabeled(values, perm, lead, square):
    """`values` (nodes, ..., d) or, if `square`, (nodes, ..., d, d) with
    the n-blocks of its K trailing type means, after `lead` leading
    blocks, put in the order `perm`."""
    n = values.shape[-1] // (lead + len(perm))
    blocks = list(range(lead)) + [lead + k for k in perm]
    idx = np.concatenate([np.arange(b * n, (b + 1) * n) for b in blocks])
    out = values[..., idx]
    return out[..., idx, :] if square else out


@settings(max_examples=12, deadline=None, derandomize=True)
@given(K=st.integers(2, 3), n=st.integers(1, 2),
       seed=st.integers(0, 2 ** 32 - 1), data=st.data())
def test_relabeling_types_relabels_the_solutions(K, n, seed, data):
    """Type k of the relabeled model is type perm[k] of the original: its
    kernels and offsets are the original's with the type-mean blocks in
    the order perm, to rounding (the sums over types change order)."""
    perm = data.draw(st.permutations(range(K)))
    params = _random_params(np.random.default_rng(seed), K, dims=(n, 1, 1))
    model = validate_model(params)
    moved = validate_model(dataclasses.replace(
        params, A=params.A[perm], pi=params.pi[perm]))
    for solve, fields in ((solve_nce, ("P0", "P", "s0", "s")),
                          (solve_master, ("Pd0", "Pd", "sd0", "sd"))):
        a, b = solve(model, GRID), solve(moved, GRID)
        assert not isinstance(a, BlowUpReport)
        for name in fields:
            # the major's (x0, zbar) fields end in 0; a minor's field is
            # one per type, on (z, x0, zbar)
            major = name.endswith("0")
            want = getattr(a, name).values
            want = _relabeled(want if major else want[:, perm], perm,
                              1 if major else 2, name.startswith("P"))
            got = getattr(b, name).values
            assert np.abs(got - want).max() <= 1e-12 * max(
                1.0, np.abs(want).max()), name
