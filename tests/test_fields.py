"""The route fields, evaluated stacked over types with hoisted constants,
are bitwise the per-type reference fields kept in helpers, and so are the
solves built on them."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lqmfg import (TimeGrid, lift_pi, solve_lambda, solve_master, solve_nce,
                   validate_model)
from lqmfg import asymptotic, master, nce
from lqmfg.ode import BlowUpReport

from helpers import (_random_params, build_model, lambda_field_ref,
                     master_field_ref, nce_field_ref, random_n3k3,
                     reference_solve, two_type_scalar)

FIELD_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True)


def random_model(K, n, seed):
    """A `_random_params` model with K types and state dimension n: the
    first seed from `seed` on whose first draw gives n."""
    while int(np.random.default_rng(seed).integers(1, 4)) != n:
        seed += 1
    model = validate_model(_random_params(np.random.default_rng(seed), K))
    assert (model.K, model.n) == (K, n)
    return model


def random_state(seed, kernels, tail, zeros, scale):
    """Flat state: symmetric kernel blocks of the given shapes, then `tail`
    free entries. A share `zeros` of the draws is set to +0.0 or -0.0, and
    everything is scaled by `scale`."""
    rng = np.random.default_rng(seed)

    def draw(shape):
        x = rng.standard_normal(shape) * scale
        hit = rng.random(shape) < zeros
        x[hit] = np.copysign(0.0, rng.standard_normal(hit.sum()))
        return x

    parts = []
    for shape in kernels:
        x = draw(shape)
        upper = np.triu(x)
        parts.append((upper + np.swapaxes(np.triu(x, 1), -1, -2)).ravel())
    parts.append(draw(tail))
    return np.concatenate(parts)


def route_field(route, model):
    """(field, reference field, kernel shapes, tail length) of a route."""
    K, n = model.K, model.n
    d0, d1 = n * (K + 1), n * (K + 2)
    kernels = [(d0, d0), (K, d1, d1)]
    if route == "nce":
        field = nce._Workspace(model, lift_pi(model)).field
        return field, nce_field_ref(model), kernels, d0 + K * d1
    if route == "master":
        field = master._Blocks(model, lift_pi(model)).field
        return field, master_field_ref(model), kernels, d0 + K * d1 + 1 + K
    M0 = model.B0 @ np.linalg.solve(model.R0, model.B0.T)
    M = model.B @ np.linalg.solve(model.R, model.B.T)
    field = asymptotic._lambda_field(model, M0, M)
    return field, lambda_field_ref(model), [], 9 * n * n


STATES = dict(
    state_seed=st.integers(0, 2 ** 32 - 1),
    zeros=st.sampled_from([0.0, 0.3, 1.0]),
    scale=st.sampled_from([1e-3, 1.0, 1e3, 1e9]),
    t=st.floats(0.0, 1.0),
)


@pytest.mark.parametrize("route", ["nce", "master"])
@FIELD_SETTINGS
@given(K=st.integers(1, 3), n=st.integers(1, 3),
       model_seed=st.integers(0, 10 ** 6), **STATES)
def test_route_field_is_bitwise_the_per_type_field(route, K, n, model_seed,
                                                   state_seed, zeros, scale, t):
    model = random_model(K, n, model_seed)
    field, ref, kernels, tail = route_field(route, model)
    w = random_state(state_seed, kernels, tail, zeros, scale)
    assert field(t, w).tobytes() == ref(t, w).tobytes()


@FIELD_SETTINGS
@given(n=st.integers(1, 3), model_seed=st.integers(0, 10 ** 6), **STATES)
def test_lambda_field_is_bitwise_the_inline_field(n, model_seed, state_seed,
                                                  zeros, scale, t):
    model = random_model(1, n, model_seed)
    field, ref, kernels, tail = route_field("lambda", model)
    w = random_state(state_seed, kernels, tail, zeros, scale)
    assert field(t, w).tobytes() == ref(t, w).tobytes()


def _flat(*paths):
    Mn = paths[0].values.shape[0]
    return np.concatenate([p.values.reshape(Mn, -1) for p in paths], axis=1)


MODELS = {"scalar": build_model, "twotype": two_type_scalar,
          "n3k3": random_n3k3,
          "gamma2-3": lambda: build_model(Gamma2=np.array([[3.0]]),
                                          Gamma2f=np.array([[3.0]]))}


@pytest.mark.parametrize("name", sorted(MODELS))
def test_solves_are_bitwise_the_reference_marches(name):
    model = MODELS[name]()
    grid = TimeGrid(M=200, T=1.0)
    Mn = grid.M + 1

    sol = solve_nce(model, grid)
    ref, ws = reference_solve("nce", model, grid)
    if isinstance(ref, BlowUpReport):
        assert sol == ref
    else:
        assert np.array_equal(_flat(sol.P0, sol.P, sol.s0, sol.s), ref.values)
        for j in range(Mn):
            P0, P, s0, s = ws.unpack(ref.values[j])
            Abar, Gbar = ws.consistency_blocks(P)
            assert np.array_equal(sol.Abar.values[j], Abar)
            assert np.array_equal(sol.Gbar.values[j], Gbar)
            assert np.array_equal(sol.mbar.values[j],
                                  ws.mbar_from_s(s).ravel())

    sol = solve_master(model, grid)
    ref, ws = reference_solve("master", model, grid)
    if isinstance(ref, BlowUpReport):
        assert sol == ref
    else:
        assert np.array_equal(
            _flat(sol.Pd0, sol.Pd, sol.sd0, sol.sd, sol.rd0, sol.rd),
            ref.values)
        for j in range(Mn):
            parts = ws.split(ref.values[j])
            Abar, Gbar = ws.mean_field_rows(parts[1])
            assert np.array_equal(sol.Abar_dag.values[j], Abar)
            assert np.array_equal(sol.Gbar_dag.values[j], Gbar)
            assert np.array_equal(sol.mbar_dag.values[j], ws.mbar_vec(parts[3]))

    if model.K == 1:
        sol = solve_lambda(model, grid)
        ref, _ = reference_solve("lambda", model, grid)
        if isinstance(ref, BlowUpReport):
            assert sol == ref
        else:
            blocks = [sol.blocks[key] for key in asymptotic.BLOCK_KEYS]
            assert np.array_equal(_flat(*blocks), ref.values)
