from dataclasses import fields, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lqmfg import (BadPi, DimensionMismatch, GridMismatch, NotPD, NotPSD,
                   TimeGrid, ValidatedModel, block_selector,
                   check_asymptotic_solvability, default_steps, lift_pi,
                   solve_finite_n, solve_lambda, solve_master, solve_nce,
                   solve_tiles, validate_model)
from lqmfg.sim import simulation_steps

from helpers import _random_params, build_model, scalar_coupled

SMALL = st.integers(min_value=1, max_value=3)


def test_grid_nodes_and_step():
    grid = TimeGrid(M=8, T=2.0)
    assert grid.h == pytest.approx(0.25)
    assert np.allclose(grid.nodes, np.linspace(0.0, 2.0, 9))
    assert grid == TimeGrid(M=8, T=2.0)
    assert grid != TimeGrid(M=8, T=1.0)


def test_grid_rejects_bad_steps():
    with pytest.raises(ValueError):
        TimeGrid(M=0, T=1.0)
    with pytest.raises(ValueError):
        TimeGrid(M=10, T=-1.0)
    for M in (2.5, 10.0, True, "10"):
        with pytest.raises(ValueError, match="integer M"):
            TimeGrid(M=M, T=1.0)
    for T in (np.inf, np.nan, True, "1.0"):
        with pytest.raises(ValueError, match="positive finite T"):
            TimeGrid(M=10, T=T)


ROUTES = {
    "nce": solve_nce,
    "master": solve_master,
    "lambda": solve_lambda,
    "finite_n": lambda model, grid: solve_finite_n(model, 3, grid),
    "tiles": lambda model, grid: solve_tiles(model, 3, grid),
    "solvability": lambda model, grid: check_asymptotic_solvability(
        model, [2, 4, 8], grid),
    "simulate": lambda model, grid: simulation_steps(model, grid, 10),
}


@pytest.mark.parametrize("route", ROUTES.values(), ids=ROUTES.keys())
def test_a_grid_of_another_horizon_is_refused(route):
    """A grid must span the model's horizon; the mismatch names both and is
    raised before any field is lifted, assembled or compiled."""
    with mock.patch("lqmfg.nce.lift_pi", side_effect=AssertionError), \
            mock.patch("lqmfg.master.lift_pi", side_effect=AssertionError), \
            mock.patch("lqmfg.asymptotic.assemble_finite_n",
                       side_effect=AssertionError), \
            mock.patch("lqmfg.asymptotic._field", side_effect=AssertionError):
        with pytest.raises(GridMismatch, match=r"T=2\.0 is not the model's T=1\.0"):
            route(scalar_coupled(), TimeGrid(M=10, T=2.0))


def test_default_steps_scales_with_horizon():
    assert default_steps(1.0) == 2000
    assert default_steps(5.0) == 2000
    assert default_steps(10.0) >= 4000


def test_default_steps_refuses_a_horizon_past_float_range():
    """400 steps per unit time overflow to inf here; the error names T and
    points to an explicit grid instead of an OverflowError."""
    with pytest.raises(ValueError, match=r"T = 1e\+308 .*--grid"):
        default_steps(1e308)


def test_validated_model_shapes():
    model = scalar_coupled()
    assert model.A.shape == (1, 1, 1)
    assert model.Q0.shape == (1, 1)
    assert not model.A0.flags.writeable


def test_dimension_mismatch_names_field():
    with pytest.raises(DimensionMismatch, match="B0"):
        build_model(B0=np.zeros((2, 1)))


def test_weight_psd_enforced():
    with pytest.raises(NotPSD, match="Q0"):
        build_model(Q0=np.array([[-0.5]]))
    with pytest.raises(NotPD, match="R"):
        build_model(R=np.array([[0.0]]))


# n, n1, n2 and K all differ from 1 and, but for n1 = K, from each other, so
# a shape can only pass with the right counts and every weight has an
# off-diagonal entry.
DIMS, TYPES = (2, 3, 4), 3
ARRAYS = [f for f in fields(ValidatedModel) if f.metadata]
WEIGHTS = [f for f in ARRAYS if f.metadata["weight"]]
VECTORS = [f for f in ARRAYS if len(f.metadata["shape"]) == 1]


def _params():
    return _random_params(np.random.default_rng(4), TYPES, dims=DIMS)


def _with(name, value):
    return validate_model(replace(_params(), **{name: value}))


def test_the_declaration_names_every_count():
    dims = dict(zip(("n", "n1", "n2", "K"), (*DIMS, TYPES)))
    model = validate_model(_params())
    for f in ARRAYS:
        shape = tuple(dims[d] for d in f.metadata["shape"])
        assert getattr(model, f.name).shape == shape, f.name


@pytest.mark.parametrize("f", ARRAYS, ids=lambda f: f.name)
def test_wrong_shape_or_non_finite_entry_names_the_field(f):
    a = np.asarray(getattr(_params(), f.name), dtype=np.float64)
    with pytest.raises(DimensionMismatch, match=rf"^{f.name}: expected shape"):
        _with(f.name, np.concatenate([a, a[..., :1]], axis=-1))
    for bad in (np.nan, np.inf, -np.inf):
        b = a.copy()
        b.flat[-1] = bad
        with pytest.raises(DimensionMismatch,
                           match=rf"^{f.name}: contains non-finite"):
            _with(f.name, b)
    with pytest.raises(DimensionMismatch,
                       match=rf"^'{f.name}' must be a numeric array"):
        _with(f.name, {1: 2})


@pytest.mark.parametrize("f", ARRAYS, ids=lambda f: f.name)
def test_the_model_copies_the_callers_arrays(f):
    """The caller's array stays writeable and its own: writing to it
    leaves the validated model unchanged."""
    params = _params()
    given = getattr(params, f.name)
    model = validate_model(params)
    held = getattr(model, f.name)
    before = held.copy()
    assert given.flags.writeable
    assert held is not given and not np.shares_memory(held, given)
    given += 1.0
    assert np.array_equal(held, before)


@pytest.mark.parametrize("f", WEIGHTS, ids=lambda f: f.name)
def test_weights_are_checked_for_symmetry_and_sign(f):
    a = np.asarray(getattr(_params(), f.name), dtype=np.float64)
    d = a.shape[0]
    error = NotPD if f.metadata["weight"] == "pd" else NotPSD
    with pytest.raises(error) as info:
        _with(f.name, a - (np.linalg.eigvalsh(a)[-1] + 1.0) * np.eye(d))
    assert info.value.name == f.name
    assert info.value.min_eigenvalue < 0.0
    skew = a.copy()
    skew[0, 1] += 2e-12
    with pytest.raises(DimensionMismatch, match=rf"^{f.name}: asymmetry"):
        _with(f.name, skew)
    skew[0, 1] -= 1.5e-12
    repaired = getattr(_with(f.name, skew), f.name)
    assert np.array_equal(repaired, repaired.T)


def test_control_weights_must_be_definite():
    for name in ("R0", "R"):
        with pytest.raises(NotPD) as info:
            _with(name, np.zeros((DIMS[1], DIMS[1])))
        assert info.value.name == name


@pytest.mark.parametrize("name,value", [
    ("n", 0), ("n1", 0), ("n2", -1), ("K", 0),
    ("T", 0.0), ("T", -1.0), ("T", np.inf), ("T", np.nan),
    ("rho", -0.1), ("rho", np.inf), ("rho", np.nan),
    ("n", 1.7), ("K", True), ("n1", "1"), ("T", "1.0"), ("rho", True),
    ("T", [1.0]), pytest.param("T", 10 ** 400, id="T-past-float-range"),
])
def test_bad_counts_horizon_or_discount_name_the_field(name, value):
    with pytest.raises(DimensionMismatch, match=rf"\b{name}\b"):
        _with(name, value)


@pytest.mark.parametrize("f", ARRAYS, ids=lambda f: f.name)
def test_a_scalar_stands_for_an_all_ones_shape(f):
    base = build_model()
    value = getattr(base, f.name).reshape(-1)[0]
    model = build_model(**{f.name: float(value)})
    assert getattr(model, f.name).shape == (1,) * len(f.metadata["shape"])
    assert np.array_equal(getattr(model, f.name), getattr(base, f.name))
    with pytest.raises(DimensionMismatch, match=rf"^{f.name}: expected shape"):
        _with(f.name, float(value))


@pytest.mark.parametrize("f", VECTORS, ids=lambda f: f.name)
def test_a_one_row_or_one_column_matrix_stands_for_a_vector(f):
    a = np.asarray(getattr(_params(), f.name), dtype=np.float64)
    model = validate_model(_params())
    for form in (a[None, :], a[:, None]):
        assert np.array_equal(getattr(_with(f.name, form), f.name),
                              getattr(model, f.name))


def test_a_single_drift_stands_for_a_at_one_type():
    a = np.array([[-0.5, 0.1], [0.2, -0.4]])
    params = _random_params(np.random.default_rng(4), 1, dims=(2, 1, 1))
    model = validate_model(replace(params, A=a))
    assert model.A.shape == (1, 2, 2)
    assert np.array_equal(model.A[0], a)
    with pytest.raises(DimensionMismatch, match=r"^A: expected shape"):
        _with("A", a)


def test_a_vector_does_not_stand_for_a_one_column_matrix():
    params = _random_params(np.random.default_rng(4), 1, dims=(2, 1, 1))
    for name in ("B0", "D0", "B", "D"):
        column = np.asarray(getattr(params, name))
        assert column.shape == (2, 1)
        with pytest.raises(DimensionMismatch, match=rf"^{name}: expected"):
            validate_model(replace(params, **{name: column[:, 0]}))


def test_pi_must_be_probability_vector():
    with pytest.raises(BadPi):
        build_model(pi=np.array([0.6, 0.6]), K=2,
                    A=np.array([[[-0.4]], [[-0.2]]]))
    with pytest.raises(BadPi):
        build_model(pi=np.array([-0.2, 1.2]), K=2,
                    A=np.array([[[-0.4]], [[-0.2]]]))


@given(K=SMALL, n=SMALL, k=SMALL, data=st.data())
@settings(max_examples=40, deadline=None, derandomize=True)
def test_block_selector_extracts_kth_block(K, n, k, data):
    if k > K:
        k = K
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
    stacked = rng.normal(size=K * n)
    sel = block_selector(k, K, n)
    assert sel.shape == (n, K * n)
    assert np.array_equal(sel @ stacked, stacked[(k - 1) * n:k * n])


def test_block_selector_rejects_out_of_range():
    from lqmfg import IndexOutOfRange
    with pytest.raises(IndexOutOfRange):
        block_selector(0, 2, 1)
    with pytest.raises(IndexOutOfRange):
        block_selector(3, 2, 1)


def _random_model(rng, n=2, K=2):
    def u(*shape):
        return rng.uniform(-0.5, 0.5, size=shape)

    def psd(d):
        w = rng.normal(size=(d, d))
        return w @ w.T / d

    pi = rng.uniform(0.1, 1.0, size=K)
    pi /= pi.sum()
    return build_model(
        n=n, n1=1, n2=1, K=K, pi=pi,
        A0=u(n, n), B0=u(n, 1), F0=u(n, n), D0=u(n, 1),
        A=u(K, n, n), B=u(n, 1), F=u(n, n), G=u(n, n), D=u(n, 1),
        Q0=psd(n), Q0f=psd(n), Q=psd(n), Qf=psd(n),
        Gamma0=u(n, n), Gamma0f=u(n, n), Gamma1=u(n, n), Gamma1f=u(n, n),
        Gamma2=u(n, n), Gamma2f=u(n, n),
        eta0=u(n), eta0f=u(n), eta=u(n), etaf=u(n),
        R0=psd(1) + 0.5 * np.eye(1), R=psd(1) + 0.5 * np.eye(1),
        alpha0=u(n), x0_mean=u(n), x0_cov=psd(n), xi_cov=psd(n),
    )


@given(seed=st.integers(0, 2**31))
@settings(max_examples=25, deadline=None, derandomize=True)
def test_lifted_weights_match_direct_congruence(seed):
    rng = np.random.default_rng(seed)
    model = _random_model(rng)
    lifted = lift_pi(model)
    n, K = model.n, model.K

    Gamma0_pi = np.hstack([model.pi[k] * model.Gamma0 for k in range(K)])
    S0 = np.hstack([np.eye(n), -Gamma0_pi])
    assert np.allclose(lifted.Q0_pi, S0.T @ model.Q0 @ S0, atol=1e-13)
    assert np.allclose(lifted.eta0_pi, S0.T @ (model.Q0 @ model.eta0),
                       atol=1e-13)

    Gamma2_pi = np.hstack([model.pi[k] * model.Gamma2 for k in range(K)])
    S1 = np.hstack([np.eye(n), -model.Gamma1, -Gamma2_pi])
    assert np.allclose(lifted.Q_pi, S1.T @ model.Q @ S1, atol=1e-13)
    assert np.allclose(lifted.eta_pi, S1.T @ (model.Q @ model.eta),
                       atol=1e-13)

    assert np.allclose(lifted.F0_pi,
                       np.kron(model.pi[None, :], model.F0), atol=1e-14)


@given(seed=st.integers(0, 2**31))
@settings(max_examples=25, deadline=None, derandomize=True)
def test_lifted_weights_are_psd(seed):
    rng = np.random.default_rng(seed)
    model = _random_model(rng)
    lifted = lift_pi(model)
    for W in (lifted.Q0_pi, lifted.Q0f_pi, lifted.Q_pi, lifted.Qf_pi):
        assert np.linalg.eigvalsh(W).min() >= -1e-12


def test_lifted_input_maps_are_zero_padded():
    model = _random_model(np.random.default_rng(5))
    lifted = lift_pi(model)
    n, n1, K = model.n, model.n1, model.K
    assert lifted.B0_lift.shape == (n * (K + 1), n1)
    assert np.array_equal(lifted.B0_lift[:n], model.B0)
    assert not lifted.B0_lift[n:].any()
    assert lifted.B_lift.shape == (n * (K + 2), n1)
    assert np.array_equal(lifted.B_lift[:n], model.B)
    assert not lifted.B_lift[n:].any()
