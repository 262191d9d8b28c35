import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lqmfg import (BadPi, DimensionMismatch, NotPD, NotPSD, TimeGrid,
                   block_selector, default_steps, lift_pi, validate_model)

from helpers import build_model, scalar_coupled

SMALL = st.integers(min_value=1, max_value=3)


def test_grid_nodes_and_step():
    grid = TimeGrid(M=8, T=2.0)
    assert grid.h == pytest.approx(0.25)
    assert np.allclose(grid.nodes, np.linspace(0.0, 2.0, 9))
    assert grid.same_as(TimeGrid(M=8, T=2.0))
    assert not grid.same_as(TimeGrid(M=8, T=1.0))


def test_grid_rejects_bad_steps():
    with pytest.raises(ValueError):
        TimeGrid(M=0, T=1.0)
    with pytest.raises(ValueError):
        TimeGrid(M=10, T=-1.0)


def test_default_steps_scales_with_horizon():
    assert default_steps(1.0) == 2000
    assert default_steps(5.0) == 2000
    assert default_steps(10.0) >= 4000


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
