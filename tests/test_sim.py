import numpy as np
import pytest

from lqmfg import (EmptyBatch, EmptyType, GridMismatch, TimeGrid,
                   default_type_counts, empirical_mean_error, evaluate_cost,
                   simulate, solve_master, solve_nce)

from helpers import (build_model, decoupled_scalar, riccati_closed_form,
                     two_type_scalar, zero_weight)


def frozen_model():
    """No dynamics, no noise, no costs: everything stays put."""
    z1 = np.array([[0.0]])
    base = zero_weight()
    return build_model(
        A0=z1, A=np.array([[[0.0]]]), F0=z1, F=z1, G=z1, D0=z1, D=z1,
        Q0=z1, Q0f=z1, Q=z1, Qf=z1,
        Gamma0=z1, Gamma0f=z1, Gamma1=z1, Gamma1f=z1, Gamma2=z1, Gamma2f=z1,
        eta0=np.array([0.0]), eta0f=np.array([0.0]),
        eta=np.array([0.0]), etaf=np.array([0.0]),
        x0_cov=z1, xi_cov=z1)


def test_frozen_model_stays_constant():
    model = frozen_model()
    grid = TimeGrid(M=20, T=1.0)
    sol = solve_nce(model, grid)
    traj = simulate(model, 5, sol, seed=9)
    assert np.all(traj.X0 == model.x0_mean[0])
    assert np.all(traj.X == model.alpha0[0])
    assert np.all(traj.Zbar == model.alpha0[0])
    assert not traj.U0.any()
    assert not traj.U.any()


def test_simulation_is_deterministic(scalar_model, scalar_nce):
    a = simulate(scalar_model, 8, scalar_nce, seed=5)
    b = simulate(scalar_model, 8, scalar_nce, seed=5)
    assert np.array_equal(a.X, b.X)
    assert np.array_equal(a.X0, b.X0)
    assert np.array_equal(a.U, b.U)
    c = simulate(scalar_model, 8, scalar_nce, seed=6)
    assert not np.array_equal(a.X, c.X)


def test_brownian_variance_oracle():
    # Drift-free decoupled minors: X_i(T) = alpha0 + D W_i(T), so the
    # cross-sectional variance estimates D^2 T.
    z1 = np.array([[0.0]])
    model = build_model(
        A0=z1, A=np.array([[[0.0]]]), F0=z1, F=z1, G=z1,
        D0=z1, D=np.array([[0.3]]),
        Q0=z1, Q0f=z1, Q=z1, Qf=z1,
        Gamma0=z1, Gamma0f=z1, Gamma1=z1, Gamma1f=z1, Gamma2=z1, Gamma2f=z1,
        eta0=np.array([0.0]), eta0f=np.array([0.0]),
        eta=np.array([0.0]), etaf=np.array([0.0]),
        x0_cov=z1, xi_cov=z1)
    grid = TimeGrid(M=50, T=1.0)
    sol = solve_nce(model, grid)
    N = 10000
    traj = simulate(model, N, sol, dt=0.02, seed=12)
    var = traj.X[:, -1, 0].var(ddof=1)
    want = 0.09
    # sampling error of a variance estimate: sd ~ want * sqrt(2/N)
    assert abs(var - want) < 5.0 * want * np.sqrt(2.0 / N)


def test_zero_noise_empirical_mean_tracks_reference():
    z1 = np.array([[0.0]])
    model = build_model(D0=z1, D=z1, x0_cov=z1, xi_cov=z1)
    grid = TimeGrid(M=200, T=1.0)
    sol = solve_nce(model, grid)
    traj = simulate(model, 7, sol, seed=1)
    err = empirical_mean_error(traj)
    assert err.sup < 1e-11


def test_single_minor_error_is_distance_to_reference(scalar_nce,
                                                     scalar_model):
    traj = simulate(scalar_model, 1, scalar_nce, seed=4)
    err = empirical_mean_error(traj)
    want = np.abs(traj.X[0, :, 0] - traj.Zbar[:, 0])
    assert np.array_equal(err.per_type[0], want)
    assert err.sup == want.max()


def test_error_shrinks_with_population(scalar_model, scalar_nce):
    sups = []
    for N in (10, 1000):
        errs = [empirical_mean_error(
            simulate(scalar_model, N, scalar_nce, dt=0.0025, seed=s)).sup
            for s in range(3)]
        sups.append(np.mean(errs))
    assert sups[1] < sups[0] / 3.0


def test_identically_seeded_nce_and_master_agree(scalar_model, scalar_nce,
                                                 scalar_master):
    a = simulate(scalar_model, 12, scalar_nce, seed=21)
    b = simulate(scalar_model, 12, scalar_master, seed=21)
    assert np.abs(a.X - b.X).max() < 1e-8
    assert np.abs(a.X0 - b.X0).max() < 1e-8
    assert np.abs(a.U0 - b.U0).max() < 1e-8


def test_grid_mismatch_rejected(scalar_model, scalar_nce):
    with pytest.raises(GridMismatch):
        simulate(scalar_model, 4, scalar_nce, dt=0.0008)


def test_population_and_step_validated(scalar_model, scalar_nce):
    for N in (0, -3):
        with pytest.raises(ValueError, match="population size"):
            simulate(scalar_model, N, scalar_nce, dt=0.0025)
    for dt in (0.0, -0.0025, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="time step"):
            simulate(scalar_model, 4, scalar_nce, dt=dt)


def test_type_counts_validated(scalar_model, scalar_nce):
    with pytest.raises(ValueError):
        simulate(scalar_model, 4, scalar_nce, type_counts=[3])
    with pytest.raises(ValueError):
        simulate(scalar_model, 4, scalar_nce, type_counts=[2, 2])


def test_default_type_counts_largest_remainder():
    model = two_type_scalar()  # pi = (0.6, 0.4)
    assert np.array_equal(default_type_counts(model, 5), [3, 2])
    assert np.array_equal(default_type_counts(model, 10), [6, 4])
    assert default_type_counts(model, 1).sum() == 1


def test_two_type_population_assignment():
    model = two_type_scalar()
    grid = TimeGrid(M=50, T=1.0)
    sol = solve_nce(model, grid)
    traj = simulate(model, 10, sol, seed=3)
    assert np.array_equal(traj.type_members(1), np.arange(6))
    assert np.array_equal(traj.type_members(2), np.arange(6, 10))
    err = empirical_mean_error(traj)
    assert err.per_type.shape == (2, traj.steps + 1)


def test_empty_type_rejected():
    model = two_type_scalar()
    grid = TimeGrid(M=50, T=1.0)
    sol = solve_nce(model, grid)
    traj = simulate(model, 4, sol, seed=3, type_counts=[4, 0])
    with pytest.raises(EmptyType):
        empirical_mean_error(traj)


def test_empirical_feedback_flag_changes_paths(scalar_model, scalar_nce):
    a = simulate(scalar_model, 6, scalar_nce, seed=2)
    b = simulate(scalar_model, 6, scalar_nce, seed=2, use_empirical=True)
    assert not np.array_equal(a.X, b.X)
    # same Brownian draws, so paths stay in the same neighborhood
    assert np.abs(a.X - b.X).max() < 1.0


def test_cost_zero_for_zero_weights():
    model = zero_weight()
    grid = TimeGrid(M=50, T=1.0)
    sol = solve_nce(model, grid)
    batch = [simulate(model, 5, sol, seed=s) for s in (0, 1)]
    for player in (0, 1, 3):
        est = evaluate_cost(model, batch, player)
        assert est.mean == 0.0
        assert est.std_error == 0.0
        assert est.samples == 2


def test_empty_batch_rejected(scalar_model):
    with pytest.raises(EmptyBatch):
        evaluate_cost(scalar_model, [], 0)


def test_realized_cost_matches_value_function():
    # Deterministic decoupled closed loop: the realized discounted cost
    # equals the quadratic value function at t=0 (here offsets vanish and
    # the constant term is zero without noise).
    z1 = np.array([[0.0]])
    model = build_model(
        rho=0.1, F0=z1, F=z1, G=z1,
        A0=np.array([[0.25]]), A=np.array([[[-0.15]]]),
        Q0=np.array([[0.8]]), Q0f=np.array([[1.5]]),
        Q=np.array([[0.6]]), Qf=np.array([[0.9]]),
        R0=np.array([[0.5]]), R=np.array([[0.7]]),
        Gamma0=z1, Gamma0f=z1, Gamma1=z1, Gamma1f=z1, Gamma2=z1, Gamma2f=z1,
        eta0=np.array([0.0]), eta0f=np.array([0.0]),
        eta=np.array([0.0]), etaf=np.array([0.0]),
        D0=z1, D=z1, x0_cov=z1, xi_cov=z1)
    grid = TimeGrid(M=2000, T=1.0)
    sol = solve_nce(model, grid)
    traj = simulate(model, 2, sol, seed=0)

    p0 = riccati_closed_form(0.25, 1.0, 0.5, 0.8, 1.5, 0.1, 1.0)(0.0)
    p1 = riccati_closed_form(-0.15, 1.0, 0.7, 0.6, 0.9, 0.1, 1.0)(0.0)
    want_major = p0 * model.x0_mean[0] ** 2
    want_minor = p1 * model.alpha0[0] ** 2
    est0 = evaluate_cost(model, [traj], 0)
    est1 = evaluate_cost(model, [traj], 1)
    assert est0.mean == pytest.approx(want_major, abs=3e-3)
    assert est1.mean == pytest.approx(want_minor, abs=3e-3)
    assert est0.std_error == 0.0
