import dataclasses
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from lqmfg import (BlowUpReport, EmptyBatch, EmptyType, GridMismatch,
                   NonFiniteState, NTooLargeForMemory, TimeGrid,
                   default_type_counts, empirical_mean_error, evaluate_cost,
                   load_model, sim, simulate, solve_master, solve_nce,
                   validate_model)
from lqmfg.sim import (CHUNK_STEPS, MEMORY_BUDGET, simulation_bytes,
                       simulation_steps)

from helpers import (_random_params, build_model, decoupled_scalar,
                     random_n3k3, riccati_closed_form, simulate_reference,
                     two_type_scalar, zero_weight)

PATHS = ("X0", "X", "Zbar", "U0", "U")
SHIPPED = Path(__file__).resolve().parents[1] / "models"
MODELS = {"scalar": build_model, "twotype": two_type_scalar,
          "n3k3": random_n3k3}
SOLVERS = {"nce": solve_nce, "master": solve_master}


def random_dims(dims, K=1, seed=3):
    """A random model of the given (n, n1, n2)."""
    return validate_model(_random_params(np.random.default_rng(seed), K,
                                         dims))


def steps_grid(S):
    """Unit-horizon grid whose spacing is a whole number of 1/S steps."""
    return TimeGrid(M=max(d for d in range(1, 41) if S % d == 0), T=1.0)


def check_against_reference(model, N, sol, **kwargs):
    traj = simulate(sol, N, **kwargs)
    for name, want in zip(PATHS, simulate_reference(sol, N, **kwargs)):
        assert np.array_equal(getattr(traj, name), want), name
    return traj


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
    traj = simulate(sol, 5, seed=9)
    assert np.all(traj.X0 == model.x0_mean[0])
    assert np.all(traj.X == model.alpha0[0])
    assert np.all(traj.Zbar == model.alpha0[0])
    assert not traj.U0.any()
    assert not traj.U.any()
    # all-zero gains: the major's control is -(0 * x0 + 0.0 + ...), -0.0
    # at every node, which the scalar step's `a * b + 0.0` must keep
    assert np.signbit(traj.U0).all()
    for name, want in zip(PATHS, simulate_reference(sol, 5, seed=9)):
        assert getattr(traj, name).tobytes() == want.tobytes(), name


def test_simulation_is_deterministic(scalar_model, scalar_nce):
    a = simulate(scalar_nce, 8, seed=5)
    b = simulate(scalar_nce, 8, seed=5)
    assert np.array_equal(a.X, b.X)
    assert np.array_equal(a.X0, b.X0)
    assert np.array_equal(a.U, b.U)
    c = simulate(scalar_nce, 8, seed=6)
    assert not np.array_equal(a.X, c.X)


@pytest.mark.parametrize("seeds", [(2 ** 63, 2 ** 63 + 1), (0, 2 ** 64 - 1)],
                         ids=["past-int64", "ends"])
def test_seeds_past_int64_draw_their_own_streams(scalar_model, scalar_nce,
                                                 seeds):
    """Every seed in [0, 2**64) keys its own stream, without a warning:
    seeds past int64's range are not rounded, nor cast to 0."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        a, b = (simulate(scalar_nce, 3, seed=s) for s in seeds)
    assert not np.array_equal(a.X0, b.X0)


@pytest.mark.parametrize("name", ["X", "U"])
def test_trajectory_rejects_a_non_finite_player_path(scalar_model, scalar_nce,
                                                     name):
    traj = simulate(scalar_nce, 8, seed=5)
    bad = getattr(traj, name).copy()
    bad[5, 17, 0] = np.nan
    with pytest.raises(ValueError, match=f"^{name} contains non-finite"):
        dataclasses.replace(traj, **{name: bad})


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
    traj = simulate(sol, N, dt=0.02, seed=12)
    var = traj.X[:, -1, 0].var(ddof=1)
    want = 0.09
    # sampling error of a variance estimate: sd ~ want * sqrt(2/N)
    assert abs(var - want) < 5.0 * want * np.sqrt(2.0 / N)


def test_zero_noise_empirical_mean_tracks_reference():
    z1 = np.array([[0.0]])
    model = build_model(D0=z1, D=z1, x0_cov=z1, xi_cov=z1)
    grid = TimeGrid(M=200, T=1.0)
    sol = solve_nce(model, grid)
    traj = simulate(sol, 7, seed=1)
    err = empirical_mean_error(traj)
    assert err.sup < 1e-11


def test_single_minor_error_is_distance_to_reference(scalar_nce,
                                                     scalar_model):
    traj = simulate(scalar_nce, 1, seed=4)
    err = empirical_mean_error(traj)
    want = np.abs(traj.X[0, :, 0] - traj.Zbar[:, 0])
    assert np.array_equal(err.per_type[0], want)
    assert err.sup == want.max()


def test_error_shrinks_with_population(scalar_model, scalar_nce):
    sups = []
    for N in (10, 1000):
        errs = [empirical_mean_error(
            simulate(scalar_nce, N, dt=0.0025, seed=s)).sup
            for s in range(3)]
        sups.append(np.mean(errs))
    assert sups[1] < sups[0] / 3.0


def test_identically_seeded_nce_and_master_agree(scalar_model, scalar_nce,
                                                 scalar_master):
    a = simulate(scalar_nce, 12, seed=21)
    b = simulate(scalar_master, 12, seed=21)
    assert np.abs(a.X - b.X).max() < 1e-8
    assert np.abs(a.X0 - b.X0).max() < 1e-8
    assert np.abs(a.U0 - b.U0).max() < 1e-8


def test_grid_mismatch_rejected(scalar_model, scalar_nce):
    with pytest.raises(GridMismatch):
        simulate(scalar_nce, 4, dt=0.0008)


def test_population_and_step_validated(scalar_model, scalar_nce):
    for N in (0, -3, 2.5, True, np.float64(3.0)):
        with pytest.raises(ValueError, match="population size"):
            simulate(scalar_nce, N, dt=0.0025)
    for dt in (0.0, -0.0025, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="time step"):
            simulate(scalar_nce, 4, dt=dt)


def test_type_counts_validated(scalar_model, scalar_nce):
    with pytest.raises(ValueError):
        simulate(scalar_nce, 4, type_counts=[3])
    with pytest.raises(ValueError):
        simulate(scalar_nce, 4, type_counts=[2, 2])


def test_default_type_counts_largest_remainder():
    model = two_type_scalar()  # pi = (0.6, 0.4)
    assert np.array_equal(default_type_counts(model, 5), [3, 2])
    assert np.array_equal(default_type_counts(model, 10), [6, 4])
    assert default_type_counts(model, 1).sum() == 1


def test_two_type_population_assignment():
    model = two_type_scalar()
    grid = TimeGrid(M=50, T=1.0)
    sol = solve_nce(model, grid)
    traj = simulate(sol, 10, seed=3)
    assert np.array_equal(traj.type_members(1), np.arange(6))
    assert np.array_equal(traj.type_members(2), np.arange(6, 10))
    err = empirical_mean_error(traj)
    assert err.per_type.shape == (2, traj.steps + 1)


def test_error_per_type_is_distance_of_member_mean():
    model = two_type_scalar()
    sol = solve_nce(model, TimeGrid(M=50, T=1.0))
    traj = simulate(sol, 9, dt=0.005, seed=6)
    err = empirical_mean_error(traj)
    for k in (1, 2):
        mean_path = traj.X[traj.type_members(k)].mean(axis=0)
        want = np.linalg.norm(mean_path - traj.Zbar[:, k - 1:k], axis=1)
        assert np.array_equal(err.per_type[k - 1], want)
    with pytest.raises(ValueError, match="type by type"):
        dataclasses.replace(traj, types=traj.types[::-1])


def test_empty_type_rejected():
    model = two_type_scalar()
    grid = TimeGrid(M=50, T=1.0)
    sol = solve_nce(model, grid)
    traj = simulate(sol, 4, seed=3, type_counts=[4, 0])
    with pytest.raises(EmptyType):
        empirical_mean_error(traj)


def test_empirical_feedback_flag_changes_paths(scalar_model, scalar_nce):
    a = simulate(scalar_nce, 6, seed=2)
    b = simulate(scalar_nce, 6, seed=2, use_empirical=True)
    assert not np.array_equal(a.X, b.X)
    # same Brownian draws, so paths stay in the same neighborhood
    assert np.abs(a.X - b.X).max() < 1.0


def test_cost_zero_for_zero_weights():
    model = zero_weight()
    grid = TimeGrid(M=50, T=1.0)
    sol = solve_nce(model, grid)
    batch = [simulate(sol, 5, seed=s) for s in (0, 1)]
    for player in (0, 1, 3):
        est = evaluate_cost(batch, player)
        assert est.mean == 0.0
        assert est.std_error == 0.0
        assert est.samples == 2


def test_empty_batch_rejected(scalar_model):
    with pytest.raises(EmptyBatch):
        evaluate_cost([], 0)


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
    traj = simulate(sol, 2, seed=0)

    p0 = riccati_closed_form(0.25, 1.0, 0.5, 0.8, 1.5, 0.1, 1.0)(0.0)
    p1 = riccati_closed_form(-0.15, 1.0, 0.7, 0.6, 0.9, 0.1, 1.0)(0.0)
    want_major = p0 * model.x0_mean[0] ** 2
    want_minor = p1 * model.alpha0[0] ** 2
    est0 = evaluate_cost([traj], 0)
    est1 = evaluate_cost([traj], 1)
    assert est0.mean == pytest.approx(want_major, abs=3e-3)
    assert est1.mean == pytest.approx(want_minor, abs=3e-3)
    assert est0.std_error == 0.0


@pytest.mark.parametrize("feedback", sorted(SOLVERS))
@pytest.mark.parametrize("name", sorted(MODELS))
def test_chunked_loop_matches_reference_loop(name, feedback):
    model = MODELS[name]()
    S = 2 * CHUNK_STEPS + CHUNK_STEPS // 2 + 1
    sol = SOLVERS[feedback](model, steps_grid(S))
    traj = check_against_reference(model, 7, sol, dt=1.0 / S, seed=3)
    assert traj.steps == S


@pytest.mark.parametrize("feedback", sorted(SOLVERS))
@pytest.mark.parametrize("use_empirical", [False, True])
def test_ten_dimensional_states_match_reference_loop(feedback, use_empirical):
    # the property tests stop at n <= 3; here every BLAS product of a step
    # (gemv for the 2-d by 1-d ones, gemm over a strided noise view) is
    # 10 wide, over a chunk boundary
    model = random_dims((10, 10, 10), K=2)
    S = CHUNK_STEPS + 4
    sol = SOLVERS[feedback](model, steps_grid(S))
    assert not isinstance(sol, BlowUpReport)
    traj = check_against_reference(model, 7, sol, dt=1.0 / S, seed=5,
                                   type_counts=[4, 3],
                                   use_empirical=use_empirical)
    assert traj.steps == S


@pytest.mark.parametrize("feedback", sorted(SOLVERS))
@pytest.mark.parametrize("use_empirical", [False, True])
def test_empty_middle_type_matches_reference_loop(feedback, use_empirical):
    # the step reads type k's gains as member k + 1 of the (K+1)-member
    # stacks: with type 2 empty, type 3 reads member 3, not the member at
    # its place among the types that have players
    model = random_dims((10, 10, 10), K=3)
    S = CHUNK_STEPS + 4
    sol = SOLVERS[feedback](model, steps_grid(S))
    assert not isinstance(sol, BlowUpReport)
    kwargs = dict(dt=1.0 / S, seed=6, type_counts=[4, 0, 3],
                  use_empirical=use_empirical)
    traj = simulate(sol, 7, **kwargs)
    for name, want in zip(PATHS, simulate_reference(sol, 7, **kwargs)):
        assert getattr(traj, name).tobytes() == want.tobytes(), name


def refuse(*args, **kwargs):
    raise AssertionError("the other step was taken")


@pytest.mark.parametrize("feedback", sorted(SOLVERS))
@pytest.mark.parametrize("use_empirical", [False, True])
@pytest.mark.parametrize("n2", [1, 2])
@pytest.mark.parametrize("counts", [[7], [4, 3], [4, 0, 3]],
                         ids=["K1", "K2", "K3-empty-middle"])
def test_scalar_step_is_bitwise_the_reference_loop(counts, n2, use_empirical,
                                                   feedback, monkeypatch):
    # n = n1 = 1 takes the scalar step whatever K and n2 are: its 1 x 1
    # products are Python floats, its products on z at K >= 2 numpy
    # matmuls; over a chunk boundary, at K = 3 with an empty middle type
    model = random_dims((1, 1, n2), K=len(counts))
    S = CHUNK_STEPS + 1
    sol = SOLVERS[feedback](model, steps_grid(S))
    assert not isinstance(sol, BlowUpReport)
    kwargs = dict(dt=1.0 / S, seed=4, type_counts=counts,
                  use_empirical=use_empirical)
    monkeypatch.setattr(sim, "_march_chunk", refuse)
    traj = simulate(sol, 7, **kwargs)
    assert traj.steps == S
    for name, want in zip(PATHS, simulate_reference(sol, 7, **kwargs)):
        assert getattr(traj, name).tobytes() == want.tobytes(), name


def test_step_is_chosen_from_the_dims(monkeypatch):
    """Both shipped models (n = n1 = 1, K = 1 and 2) simulate without the
    matrix step, and an n = 2 model without the scalar step."""
    grid = TimeGrid(M=50, T=1.0)
    with monkeypatch.context() as patched:
        patched.setattr(sim, "_march_chunk", refuse)
        for name in ("scalar", "twotype"):
            model = load_model(str(SHIPPED / f"{name}.model"))
            for solve in SOLVERS.values():
                assert simulate(solve(model, grid), 5).steps == 4000
    monkeypatch.setattr(sim, "_scalar_chunk", refuse)
    sol = solve_nce(random_dims((2, 1, 1)), grid)
    assert simulate(sol, 5).steps == 4000


@pytest.mark.parametrize("S", [CHUNK_STEPS // 3, CHUNK_STEPS - 1, CHUNK_STEPS,
                               CHUNK_STEPS + 1, 2 * CHUNK_STEPS,
                               2 * CHUNK_STEPS + CHUNK_STEPS // 2])
def test_chunk_boundaries_match_reference_loop(S):
    model = two_type_scalar()
    sol = solve_master(model, steps_grid(S))
    traj = check_against_reference(model, 5, sol, dt=1.0 / S, seed=8)
    assert traj.steps == S


@pytest.mark.parametrize("feedback", sorted(SOLVERS))
@pytest.mark.parametrize("N,kwargs", [
    (6, dict(use_empirical=True)),
    (4, dict(type_counts=[4, 0])),
    (4, dict(type_counts=[0, 4], use_empirical=True)),
    (1, dict()),
    (1, dict(use_empirical=True)),
])
def test_population_variants_match_reference_loop(feedback, N, kwargs):
    model = two_type_scalar()
    sol = SOLVERS[feedback](model, TimeGrid(M=50, T=1.0))
    check_against_reference(model, N, sol, dt=0.002, seed=11, **kwargs)


def test_step_a_third_of_the_spacing_matches_reference_loop(scalar_model):
    # at M = 83 the last of the 3M steps of h / 3 ends past T by rounding
    grid = TimeGrid(M=83, T=1.0)
    sol = solve_nce(scalar_model, grid)
    traj = check_against_reference(scalar_model, 3, sol, dt=grid.h / 3.0,
                                   seed=2)
    assert traj.steps == 249
    assert traj.times[-1] > grid.T


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("feedback", sorted(SOLVERS))
@pytest.mark.parametrize("A", [-1e5, -2e4])
def test_unstable_euler_step_raises_like_reference_loop(A, feedback):
    # |1 + dt A| > 1: the Euler recursion explodes, in the first chunk for
    # A = -1e5 and past it for A = -2e4; zero weights keep the solve trivial
    model = zero_weight(A=np.array([[[A]]]))
    sol = SOLVERS[feedback](model, TimeGrid(M=50, T=1.0))
    with pytest.raises(NonFiniteState) as want:
        simulate_reference(sol, 5, dt=1.0 / 4000, seed=0)
    with pytest.raises(NonFiniteState) as got:
        simulate(sol, 5, dt=1.0 / 4000, seed=0)
    assert str(got.value) == str(want.value)
    step = int(str(got.value).split()[4])
    assert (step > CHUNK_STEPS) == (A == -2e4)


def test_simulation_memory_is_paths_plus_chunk_buffers():
    # the paths of N = 1000 players over S = 4000 steps take 64 MB; the
    # whole noise drawn up front would add another 32 MB
    model = build_model()
    sol = solve_nce(model, TimeGrid(M=50, T=1.0))
    tracemalloc.start()
    try:
        traj = simulate(sol, 1000, dt=1.0 / 4000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    stored = sum(getattr(traj, name).nbytes for name in PATHS + ("times",))
    assert stored >= 2 * 1000 * 4001 * 8
    assert peak < stored + 16 * 2 ** 20


def test_simulation_size_is_checked_before_allocating(monkeypatch):
    model = two_type_scalar()
    grid = TimeGrid(M=50, T=1.0)
    sol = solve_nce(model, grid)
    # the estimate covers what a run stores
    traj = simulate(sol, 9, dt=1.0 / 300)
    stored = sum(getattr(traj, name).nbytes for name in PATHS + ("times",))
    assert stored < simulation_bytes(model, 9, 300) < stored + 2 ** 20
    # 10^6 players over 4000 steps store 64 GB: computed, never allocated
    need = simulation_bytes(model, 10 ** 6, 4000)
    assert need > 10 ** 6 * 4001 * 2 * 8
    with pytest.raises(NTooLargeForMemory, match=f"needs {need} bytes"):
        simulation_steps(model, grid, 10 ** 6, 1.0 / 4000)

    def refuse(*args, **kwargs):
        raise AssertionError("stream created")

    monkeypatch.setattr(sim, "_player_rng", refuse)
    tracemalloc.start()
    try:
        with pytest.raises(NTooLargeForMemory, match="over the budget"):
            simulate(sol, 10 ** 6, dt=1.0 / 4000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
    # far above the 64 MB of paths the tests and the benchmark run
    assert simulation_bytes(model, 1000, 4000) * 50 < MEMORY_BUDGET


@pytest.mark.parametrize("dt", [1e-310, 1e-320, 5e-324])
def test_simulation_steps_refuses_a_step_whose_ratio_overflows(dt):
    """A subnormal dt is finite and positive, but the grid spacing over it
    overflows to inf: a GridMismatch naming dt, not an OverflowError from
    rounding the ratio."""
    grid = TimeGrid(M=50, T=1.0)
    with pytest.raises(GridMismatch, match=f"dt={dt!r} is too small"):
        simulation_steps(build_model(), grid, 10, dt)


def test_size_check_counts_only_the_stored_paths():
    # 10^5 players over 4000 steps: 6.4 GB with every path stored, under
    # 1 GB with the three a CLI run stores; computed, never allocated
    model = build_model()
    grid = TimeGrid(M=50, T=1.0)
    tracemalloc.start()
    try:
        assert simulation_steps(model, grid, 10 ** 5, 1.0 / 4000,
                                keep=3) == (1.0 / 4000, 4000)
        with pytest.raises(NTooLargeForMemory, match="over the budget"):
            simulation_steps(model, grid, 10 ** 5, 1.0 / 4000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
    assert (simulation_bytes(model, 10 ** 5, 4000)
            - simulation_bytes(model, 10 ** 5, 4000, keep=3)
            == (10 ** 5 - 3) * 4001 * 2 * 8)


def assert_sums_are_the_means(traj):
    """Each node's sums are bitwise np.add.reduce of its minors as one
    C-contiguous (N, n) block, and of that block's rows of each type, as
    the closed loop reduces them for the empirical means. The paths must
    all be stored."""
    assert traj.X.shape[0] == traj.N
    bounds = np.searchsorted(traj.types, np.arange(1, traj.model.K + 2))
    for j in range(traj.times.shape[0]):
        block = np.ascontiguousarray(traj.X[:, j])
        assert (traj.minor_sum[j].tobytes()
                == np.add.reduce(block, 0).tobytes()), j
        for k in range(traj.model.K):
            # a slice, as the loop takes it: a gather of the members would
            # be summed in another order
            rows = block[bounds[k]:bounds[k + 1]]
            assert (traj.type_sums[k, j].tobytes()
                    == np.add.reduce(rows, 0).tobytes()), (j, k)


def test_sums_are_the_means_when_a_chunk_holds_one_node():
    # S = 2 CHUNK_STEPS: the last chunk is node S alone; at n = 1 numpy
    # sums each node's 100 players pairwise, not one after another
    model = build_model()
    S = 2 * CHUNK_STEPS
    sol = solve_nce(model, TimeGrid(M=64, T=1.0))
    assert_sums_are_the_means(simulate(sol, 100, dt=1.0 / S, seed=4))


MEMORY_MODELS = {"scalar": (build_model, 1000, 3000),
                 "n3k3": (random_n3k3, 1000, 3000),
                 # at n = 10 the gathered type matrices and the (N, n)
                 # scratch arrays show past the stream allowance
                 "dims-10-1-1": (lambda: random_dims((10, 1, 1)), 300, 900),
                 # wide controls: a chunk of them per player would show
                 "dims-1-10-1": (lambda: random_dims((1, 10, 1)), 300, 900),
                 "dims-10-10-10": (lambda: random_dims((10, 10, 10)), 300,
                                   900)}


@pytest.mark.parametrize("name", sorted(MEMORY_MODELS))
def test_traced_memory_per_player_is_within_the_estimate(name):
    # the slope between two N cancels what does not grow with N (such as
    # the chunk's interpolated gains), and over two chunks a buffer one
    # chunk leaves bound would show
    make, lo, hi = MEMORY_MODELS[name]
    model = make()
    S = 2 * CHUNK_STEPS
    sol = solve_nce(model, steps_grid(S))

    def peak(N):
        tracemalloc.start()
        try:
            simulate(sol, N, dt=1.0 / S, keep=3)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    traced = (peak(hi) - peak(lo)) / (hi - lo)
    estimate = (simulation_bytes(model, hi, S, 3)
                - simulation_bytes(model, lo, S, 3)) / (hi - lo)
    assert traced <= estimate
    if name == "dims-1-10-1":
        # the minors' controls live in one row, not in one per chunk node
        assert traced < 8 * CHUNK_STEPS * model.n1


@pytest.mark.parametrize("name,N", [("dims-10-1-1", 2000), ("scalar", 1)])
def test_traced_memory_is_within_the_estimate(name, N):
    # what does not grow with N counts too: at n = 10 the chunk's
    # interpolated gains and the interpolation's temporaries are several
    # MB, and at one player the chunk's small arrays are most of a run
    model = MEMORY_MODELS[name][0]()
    S = 2 * CHUNK_STEPS
    keep = min(N, 3)
    sol = solve_nce(model, steps_grid(S))
    tracemalloc.start()
    try:
        simulate(sol, N, dt=1.0 / S, keep=keep)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= simulation_bytes(model, N, S, keep)


@pytest.mark.parametrize("keep", [0, 1, 3])
def test_kept_paths_and_sums_are_those_of_the_full_run(keep):
    model = two_type_scalar()
    sol = solve_master(model, TimeGrid(M=50, T=1.0))
    full = simulate(sol, 12, dt=1.0 / 300, seed=7, use_empirical=True)
    part = simulate(sol, 12, dt=1.0 / 300, seed=7, use_empirical=True,
                    keep=keep)
    assert part.N == 12 and part.X.shape[0] == part.U.shape[0] == keep
    for name in ("X", "U"):
        assert (getattr(part, name).tobytes()
                == getattr(full, name)[:keep].tobytes()), name
    for name in ("X0", "Zbar", "U0", "type_sums", "minor_sum"):
        assert (getattr(part, name).tobytes()
                == getattr(full, name).tobytes()), name
    assert np.array_equal(empirical_mean_error(part).per_type,
                          empirical_mean_error(full).per_type)
    for player in range(keep + 1):
        assert (evaluate_cost([part], player)
                == evaluate_cost([full], player))


@pytest.mark.parametrize("keep", [-1, 5, 1.0, True])
def test_simulate_rejects_a_bad_count_of_stored_paths(scalar_model,
                                                      scalar_nce, monkeypatch,
                                                      keep):
    def refuse(*args, **kwargs):
        raise AssertionError("stream created")

    monkeypatch.setattr(sim, "_player_rng", refuse)
    with pytest.raises(ValueError, match=r"stored paths must be an integer "
                                         r"in \[0, N=4\]"):
        simulate(scalar_nce, 4, keep=keep)


def test_trajectory_rejects_non_finite_sums(scalar_model, scalar_nce):
    traj = simulate(scalar_nce, 8, seed=5)
    for name in ("type_sums", "minor_sum"):
        bad = getattr(traj, name).copy()
        bad[..., 17, 0] = np.inf
        with pytest.raises(ValueError, match=f"^{name} contains non-finite"):
            dataclasses.replace(traj, **{name: bad})


def test_cost_player_must_have_a_stored_path(scalar_model, scalar_nce):
    full = simulate(scalar_nce, 4, seed=1)
    part = simulate(scalar_nce, 4, seed=1, keep=2)
    evaluate_cost([full], 4)
    evaluate_cost([part], 2)
    for traj, player in ((full, -1), (full, 5), (part, 3), (full, 1.0),
                         (full, True)):
        with pytest.raises(ValueError, match=f"got {player}$"):
            evaluate_cost([traj], player)


@pytest.mark.parametrize("counts,bad", [([2.9, 1.1], "2.9"),
                                        ([True, 2], "True"),
                                        (["2", "1"], "'2'"),
                                        (np.array([2.0, 1.0]), "2.0"),
                                        (np.array([True, True]), "True")])
def test_type_counts_must_be_integers(counts, bad):
    model = two_type_scalar()
    with pytest.raises(ValueError, match=f"^type count {bad} is not an "
                                         f"integer$"):
        sim.check_type_counts(model, 3, counts)


@pytest.mark.parametrize("counts", [[2, 1], [np.int32(2), 1], (np.uint8(1), 2),
                                    np.array([2, 1], dtype=np.uint16)])
def test_integer_type_counts_are_accepted(counts):
    got = sim.check_type_counts(two_type_scalar(), 3, counts)
    assert got.dtype == np.int64
    assert got.tolist() == [int(c) for c in counts]


# -- property tests: the chunk loop against the per-step reference loop -----

SIM_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)
# (grid, dt) choices: S just below, at and above one and two chunks, and
# steps of a third of the grid spacing
STEP_CHOICES = ([("steps", S) for m in (1, 2)
                 for S in (m * CHUNK_STEPS - 1, m * CHUNK_STEPS,
                           m * CHUNK_STEPS + 1)]
                + [("third", 85), ("third", 86)])
DIMS = st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3))
CASES = dict(dims=DIMS, K=st.integers(1, 3),
             model_seed=st.integers(0, 2 ** 32 - 1),
             # 9 or more players of a type: numpy sums them pairwise at n = 1
             counts=st.lists(st.integers(0, 12), min_size=3, max_size=3),
             steps=st.sampled_from(STEP_CHOICES), use_empirical=st.booleans(),
             feedback=st.sampled_from(sorted(SOLVERS)),
             seed=st.integers(0, 2 ** 16))


def zero_weights(n):
    z = np.zeros((n, n))
    return dict(Q0=z, Q0f=z, Q=z, Qf=z, Gamma0=z, Gamma0f=z, Gamma1=z,
                Gamma1f=z, Gamma2=z, Gamma2f=z, eta0=np.zeros(n),
                eta0f=np.zeros(n), eta=np.zeros(n), etaf=np.zeros(n))


def grid_and_step(steps):
    kind, size = steps
    if kind == "steps":
        return steps_grid(size), 1.0 / size
    grid = TimeGrid(M=size, T=1.0)
    return grid, grid.h / 3.0


def run_both(model, counts, steps, feedback, **kwargs):
    """(simulate's outcome, the reference's outcome, their warnings): an
    outcome is the path tuple or the NonFiniteState message."""
    grid, dt = grid_and_step(steps)
    sol = SOLVERS[feedback](model, grid)
    assume(not isinstance(sol, BlowUpReport))
    N = sum(counts)
    outcomes, caught = [], []
    for run in (simulate, simulate_reference):
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            try:
                got = run(sol, N, dt=dt, type_counts=counts, **kwargs)
            except NonFiniteState as exc:
                got = str(exc)
        if run is simulate and not isinstance(got, str):
            got = tuple(getattr(got, name) for name in PATHS)
        outcomes.append(got)
        caught.append({(w.category, str(w.message)) for w in seen})
    return outcomes, caught


def assert_same_outcome(got, want):
    """The same NonFiniteState message, or the same path bytes."""
    if isinstance(want, str):
        assert got == want
    else:
        assert not isinstance(got, str), got
        for name, a, b in zip(PATHS, got, want):
            assert a.tobytes() == b.tobytes(), name


@SIM_SETTINGS
@given(zero_weight_costs=st.booleans(),
       zero_noise=st.sampled_from(["off", "diffusion", "diffusion and start"]),
       **CASES)
# a reference path that starts at -0.0 with zero coefficients: every 1 x 1
# product of its drift is a signed zero
@example(zero_weight_costs=True, zero_noise="diffusion and start",
         dims=(1, 1, 2), K=1, model_seed=4_265_240_605, counts=[1, 0, 0],
         steps=("steps", 255), use_empirical=False, feedback="master", seed=0)
def test_simulate_is_bitwise_the_reference_loop(dims, K, model_seed, counts,
                                                steps, use_empirical,
                                                feedback, seed,
                                                zero_weight_costs, zero_noise):
    # zero weights give zero gains, so zero products of both signs meet;
    # zero diffusion makes every noise product a signed zero (simulate
    # multiplies where the reference loop takes a matmul sum), and with
    # zero covariances and -0.0 means the states start at zero
    counts = counts[:K]
    assume(sum(counts) >= 1)
    n, _, n2 = dims
    params = _random_params(np.random.default_rng(model_seed), K, dims)
    if zero_weight_costs:
        params = dataclasses.replace(params, **zero_weights(n))
    if zero_noise != "off":
        params = dataclasses.replace(params, D0=np.zeros((n, n2)),
                                     D=np.zeros((n, n2)))
    if zero_noise == "diffusion and start":
        params = dataclasses.replace(
            params, x0_cov=np.zeros((n, n)), xi_cov=np.zeros((n, n)),
            x0_mean=np.full(n, -0.0), alpha0=np.full(n, -0.0))
    (got, want), _ = run_both(validate_model(params), counts, steps, feedback,
                              seed=seed, use_empirical=use_empirical)
    assert not isinstance(want, str), want
    assert_same_outcome(got, want)


@SIM_SETTINGS
@given(**CASES)
def test_streamed_sums_are_the_means_of_the_paths(dims, K, model_seed, counts,
                                                  steps, use_empirical,
                                                  feedback, seed):
    counts = counts[:K]
    assume(sum(counts) >= 1)
    model = validate_model(_random_params(np.random.default_rng(model_seed),
                                          K, dims))
    grid, dt = grid_and_step(steps)
    sol = SOLVERS[feedback](model, grid)
    assume(not isinstance(sol, BlowUpReport))
    assert_sums_are_the_means(simulate(sol, sum(counts), dt=dt,
                                       seed=seed, type_counts=counts,
                                       use_empirical=use_empirical))


@SIM_SETTINGS
@given(A=st.sampled_from([-1e5, -2e4, -3e3]),
       unstable=st.sampled_from(["major", "every type", "last type",
                                 "deviations"]),
       chunk=st.sampled_from([CHUNK_STEPS, 1, 3]), **CASES)
def test_exploding_simulation_is_the_reference_loop(dims, K, model_seed,
                                                    counts, steps,
                                                    use_empirical, feedback,
                                                    seed, A, unstable, chunk):
    # |1 + dt A| > 1: the Euler recursion explodes inside the first chunk,
    # past it or (A = -3e3 on short runs) not at all; zero weights keep the
    # solve trivial. An unstable major explodes before the minors, an
    # unstable empty last type only in the reference path, and with
    # F = -A - 0.5 I the minors' deviations from their mean explode before
    # the mean and the reference path. Short chunks put a chunk's last
    # node on the blow-up. The chunk loop marches on past the blow-up and
    # must not warn where the per-step loop would not.
    counts = counts[:K]
    assume(sum(counts) >= 1)
    n = dims[0]
    params = _random_params(np.random.default_rng(model_seed), K, dims)
    if unstable == "major":
        params = dataclasses.replace(params, A0=A * np.eye(n))
    elif unstable == "deviations":
        params = dataclasses.replace(params, F=-(A + 0.5) * np.eye(n),
                                     A=np.tile(A * np.eye(n), (K, 1, 1)))
    else:
        Ak = params.A.copy()
        Ak[0 if unstable == "every type" else K - 1:] = A * np.eye(n)
        params = dataclasses.replace(params, A=Ak)
    params = dataclasses.replace(params, **zero_weights(n))
    with mock.patch.object(sim, "CHUNK_STEPS", chunk):
        (got, want), (got_warned, want_warned) = run_both(
            validate_model(params), counts, steps, feedback, seed=seed,
            use_empirical=use_empirical)
    assert_same_outcome(got, want)
    assert got_warned <= want_warned


@pytest.mark.parametrize("seed", [2 ** 64, -1, 1.5, True])
def test_simulate_rejects_seeds_outside_the_key_range(scalar_model,
                                                      scalar_nce, monkeypatch,
                                                      seed):
    """Seeds are Philox key words: integers in [0, 2**64), checked before
    any stream or array exists."""
    def refuse(*args, **kwargs):
        raise AssertionError("stream created")

    monkeypatch.setattr(sim, "_player_rng", refuse)
    with pytest.raises(ValueError, match=r"seed must be an integer in "
                                         r"\[0, 2\*\*64\)"):
        simulate(scalar_nce, 4, seed=seed)
    assert sim.check_seed(np.uint64(2 ** 64 - 1)) == 2 ** 64 - 1
