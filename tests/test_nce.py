import numpy as np
import pytest

from lqmfg import TimeGrid, lift_pi, solve_nce
from lqmfg.nce import nce_gains
from lqmfg.ode import BlowUpReport

from helpers import (check_kernel_escape, decoupled_scalar, growing_offsets,
                     node_l1, propagate_mean_field_ref, riccati_closed_form,
                     zero_weight)


def test_terminal_pins_stored_exactly(scalar_nce, scalar_model, scalar_grid):
    lifted = lift_pi(scalar_model)
    M = scalar_grid.M
    assert np.array_equal(scalar_nce.P0.at(M), lifted.Q0f_pi)
    assert np.array_equal(scalar_nce.P.at(M)[0], lifted.Qf_pi)
    assert np.array_equal(scalar_nce.s0.at(M), -lifted.eta0f_pi)
    assert np.array_equal(scalar_nce.s.at(M)[0], -lifted.etaf_pi)


def test_zero_weights_give_zero_kernels_and_offsets():
    model = zero_weight()
    grid = TimeGrid(M=100, T=1.0)
    sol = solve_nce(model, grid)
    assert not sol.P0.values.any()
    assert not sol.P.values.any()
    assert not sol.s0.values.any()
    assert not sol.s.values.any()
    assert not sol.mbar.values.any()
    # With vanishing kernels the regenerated mean-field dynamics reduce to
    # the raw coefficients.
    assert np.allclose(sol.Abar.values,
                       model.A[0] + model.F, atol=1e-14)
    assert np.allclose(sol.Gbar.values, model.G, atol=1e-14)


def test_decoupled_kernels_match_scalar_closed_form():
    model = decoupled_scalar()
    grid = TimeGrid(M=400, T=1.0)
    sol = solve_nce(model, grid)

    p0 = riccati_closed_form(model.A0[0, 0], model.B0[0, 0], model.R0[0, 0],
                             model.Q0[0, 0], model.Q0f[0, 0], model.rho,
                             model.T)
    p1 = riccati_closed_form(model.A[0, 0, 0], model.B[0, 0], model.R[0, 0],
                             model.Q[0, 0], model.Qf[0, 0], model.rho,
                             model.T)
    for j in (0, 57, 200, 399):
        t = grid.nodes[j]
        assert sol.P0.at(j)[0, 0] == pytest.approx(p0(t), abs=1e-9)
        assert sol.P.at(j)[0, 0, 0] == pytest.approx(p1(t), abs=1e-9)
    # Without couplings or offsets nothing else is excited.
    assert np.abs(sol.P0.at(0)[0, 1]) < 1e-12
    assert np.abs(sol.s0.values).max() < 1e-12
    assert np.abs(sol.s.values).max() < 1e-12


def test_kernel_paths_stay_psd(scalar_nce, scalar_grid):
    for j in range(0, scalar_grid.M + 1, 25):
        assert np.linalg.eigvalsh(scalar_nce.P0.at(j)).min() >= -1e-10
        assert np.linalg.eigvalsh(scalar_nce.P.at(j)[0]).min() >= -1e-10


def test_solver_is_deterministic(scalar_model, scalar_grid):
    a = solve_nce(scalar_model, scalar_grid)
    b = solve_nce(scalar_model, scalar_grid)
    assert np.array_equal(a.P0.values, b.P0.values)
    assert np.array_equal(a.s.values, b.s.values)
    assert np.array_equal(a.Abar.values, b.Abar.values)


def test_grid_refinement_converges(scalar_model):
    at0 = {}
    for M in (100, 200, 400):
        sol = solve_nce(scalar_model, TimeGrid(M=M, T=scalar_model.T))
        at0[M] = sol.P0.at(0)
    coarse = np.abs(at0[100] - at0[400]).max()
    fine = np.abs(at0[200] - at0[400]).max()
    assert fine < coarse / 8.0


def test_mean_field_propagation_with_zero_weights():
    model = zero_weight()
    grid = TimeGrid(M=800, T=1.0)
    sol = solve_nce(model, grid)
    c = 0.7
    x0_path = np.full((grid.M + 1, 1), c)
    z = propagate_mean_field_ref(sol, x0_path)
    # dz = ((a + f) z + g c) dt from z(0) = alpha0, all scalars.
    k = model.A[0, 0, 0] + model.F[0, 0]
    g = model.G[0, 0]
    alpha = model.alpha0[0]

    def exact(t):
        return (alpha + g * c / k) * np.exp(k * t) - g * c / k

    for j in (0, 100, 800):
        assert z[j][0] == pytest.approx(exact(grid.nodes[j]), abs=1e-9)


def test_feedback_zero_for_zero_weights():
    """With no weights the gains and offsets `simulate` reads are zero,
    so every control is."""
    model = zero_weight()
    grid = TimeGrid(M=50, T=1.0)
    sol = solve_nce(model, grid)
    G0, g0, G, g, _ = nce_gains(sol, np.array([0.3]))
    for part in (G0, g0, G, g):
        assert np.abs(part).max() == 0.0


def test_blowup_model_returns_report(blowup_models, scalar_grid):
    model = blowup_models["both-deviations"]
    res = solve_nce(model, scalar_grid)
    assert isinstance(res, BlowUpReport)
    assert 0 <= res.escape_node <= scalar_grid.M
    assert res.norm_at_escape > res.threshold


def test_marginal_crossing_is_no_escape():
    """Escape is judged on the kernels: a threshold that only kernels
    with offsets cross is no escape."""
    model = growing_offsets()
    grid = TimeGrid(M=100, T=1.0)
    sol = solve_nce(model, grid)
    kernels = node_l1(sol.P0.values, sol.P.values)
    joint = kernels + node_l1(sol.s0.values, sol.s.values)
    check_kernel_escape(lambda thr: solve_nce(model, grid, threshold=thr),
                        kernels, joint)
