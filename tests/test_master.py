import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from lqmfg import (GridMismatch, NTooLargeForMemory, TimeGrid,
                   compare_nce_master, default_steps, lift_pi, master, nce,
                   solve_master, solve_nce)
from lqmfg.master import master_gains
from lqmfg.nce import nce_gains, solve_bytes
from lqmfg.ode import ESTIMATE_SLACK, BlowUpReport, MatrixPath

from helpers import (build_model, check_kernel_escape, decoupled_scalar,
                     growing_offsets, many_types, master_residual, node_l1,
                     zero_weight)

# route: (module, solve, constants per player: rd0 and each rd of master,
# Abar-sized arrays alive at the peak of its mean field when K >> 1)
ROUTES = {"nce": (nce, solve_nce, 0, 2), "master": (master, solve_master, 1, 3)}


def test_terminal_pins(scalar_master, scalar_model, scalar_grid):
    lifted = lift_pi(scalar_model)
    M = scalar_grid.M
    assert np.array_equal(scalar_master.Pd0.at(M), lifted.Q0f_pi)
    assert np.array_equal(scalar_master.sd0.at(M), -lifted.eta0f_pi)
    e0, ef = scalar_model.eta0f, scalar_model.etaf
    assert scalar_master.rd0.at(M) == e0 @ scalar_model.Q0f @ e0
    assert scalar_master.rd.at(M)[0] == ef @ scalar_model.Qf @ ef


def test_matches_nce_at_every_node(scalar_nce, scalar_master):
    report = compare_nce_master(scalar_nce, scalar_master, tol=1e-9)
    assert report.passed, report.summary()
    assert set(report.diffs) == {"P0", "s0", "P1", "s1", "Abar", "Gbar",
                                 "mbar"}


def test_matches_nce_two_dimensional(twodim_model, twodim_nce, scalar_grid):
    master = solve_master(twodim_model, scalar_grid)
    report = compare_nce_master(twodim_nce, master, tol=1e-9)
    assert report.passed, report.summary()


def test_compare_rejects_mismatched_grids(scalar_nce, scalar_model):
    other = solve_master(scalar_model, TimeGrid(M=200, T=1.0))
    with pytest.raises(GridMismatch):
        compare_nce_master(scalar_nce, other)


def test_residual_small_on_solved_model(scalar_model, scalar_master):
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(50):
        t = float(rng.uniform(0.05, 0.95))
        kappa = int(rng.integers(0, scalar_model.K + 1))
        r = master_residual(scalar_model, scalar_master,
                            (t, rng.normal(size=1), rng.normal(size=1),
                             rng.normal(size=1), kappa))
        assert math.isfinite(r)
        worst = max(worst, abs(r))
    assert worst <= 1e-6


def test_residual_detects_corrupted_kernel(scalar_model, scalar_master):
    rng = np.random.default_rng(7)
    samples = [(float(rng.uniform(0.1, 0.9)), rng.normal(size=1),
                rng.normal(size=1), rng.normal(size=1),
                int(rng.integers(0, 2))) for _ in range(40)]

    def worst(sol):
        return max(abs(master_residual(scalar_model, sol,
                                       (t, x0, zk, zbar, kappa)))
                   for t, x0, zk, zbar, kappa in samples)

    clean = worst(scalar_master)
    bad = scalar_master.Pd0.values.copy()
    bad[:, 0, 0] += 0.01
    corrupted = dataclasses.replace(
        scalar_master, Pd0=MatrixPath(scalar_master.grid, bad))
    assert worst(corrupted) >= 100.0 * max(clean, 1e-12)


def _controls(gains, x0, zk, zbar):
    """Major and type-1 minor controls from `nce_gains`/`master_gains`
    output, one state per time."""
    G0, g0, G, g, _ = gains
    xi0 = np.concatenate([x0, zbar], axis=1)[:, :, None]
    xik = np.concatenate([zk, x0, zbar], axis=1)[:, :, None]
    return (-((G0 @ xi0)[:, :, 0] + g0),
            -((G[:, 0] @ xik)[:, :, 0] + g[:, 0]))


def test_feedback_agrees_with_nce_route(scalar_nce, scalar_master):
    """The gains `simulate` reads give the same controls by either route."""
    rng = np.random.default_rng(3)
    times = rng.uniform(0.0, 1.0, size=25)
    states = rng.normal(size=(3, 25, 1))
    for a, b in zip(_controls(nce_gains(scalar_nce, times), *states),
                    _controls(master_gains(scalar_master, times), *states)):
        assert np.abs(a - b).max() < 1e-10


def test_zero_weight_constant_term_vanishes():
    model = zero_weight()
    grid = TimeGrid(M=100, T=1.0)
    sol = solve_master(model, grid)
    assert not sol.rd0.values.any()
    assert not sol.rd.values.any()


def test_constant_term_collects_noise_for_pure_terminal():
    # Decoupled scalar model, running weights removed: the only sources for
    # the constant term are the Brownian trace terms, so
    # r0(t) = D0^2 * int_t^T exp(-rho (u - t)) P0,11(u) du.
    base = decoupled_scalar(rho=0.0)
    grid = TimeGrid(M=800, T=1.0)
    sol = solve_master(base, grid)
    p11 = sol.Pd0.values[:, 0, 0]
    d0sq = base.D0[0, 0] ** 2
    # trapezoid on the solved path, backward cumulative
    h = grid.h
    integral = np.concatenate(
        [((p11[1:] + p11[:-1]) * 0.5 * h)[::-1].cumsum()[::-1], [0.0]])
    expected = d0sq * integral
    # eta terms vanish; compare on every node
    assert np.abs(sol.rd0.values - expected).max() < 1e-5

    # decoupling kills the minor kernel's x0 block, so only its own noise
    # accumulates
    q11 = sol.Pd.values[:, 0, 0, 0]
    dsq = base.D[0, 0] ** 2
    minor_int = np.concatenate(
        [((q11[1:] + q11[:-1]) * 0.5 * h)[::-1].cumsum()[::-1], [0.0]])
    assert np.abs(sol.rd.values[:, 0] - dsq * minor_int).max() < 1e-5


def test_blowup_matches_nce_verdict(blowup_models, scalar_grid):
    for model in blowup_models.values():
        a = solve_nce(model, scalar_grid)
        b = solve_master(model, scalar_grid)
        assert isinstance(a, BlowUpReport)
        assert isinstance(b, BlowUpReport)
        assert abs(a.escape_node - b.escape_node) <= 2


def test_marginal_crossings_are_no_escape():
    """Escape is judged on the kernels: a threshold that only kernels
    with offsets, or with offsets and constants, cross is no escape."""
    model = growing_offsets()
    grid = TimeGrid(M=100, T=1.0)
    sol = solve_master(model, grid)
    kernels = node_l1(sol.Pd0.values, sol.Pd.values)
    offsets = kernels + node_l1(sol.sd0.values, sol.sd.values)
    full = offsets + node_l1(sol.rd0.values, sol.rd.values)
    check_kernel_escape(lambda thr: solve_master(model, grid, threshold=thr),
                        kernels, offsets, full)


@pytest.mark.parametrize("route", ROUTES)
def test_stored_solve_is_sized_before_compiling(monkeypatch, route):
    """K = 250 scalar types on the default grid: the march path and the
    peak of the Abar, Gbar and mbar paths of 2001 nodes need about 258 GB,
    so the solve is refused naming the bytes before pi is lifted or a
    field compiled."""
    module, solve, per_type, abars = ROUTES[route]
    model = many_types(250)
    grid = TimeGrid(M=default_steps(model.T), T=model.T)

    def refuse(*args, **kwargs):
        raise AssertionError("compiled")

    monkeypatch.setattr(module, "compile_field", refuse)
    monkeypatch.setattr(module, "lift_pi", refuse)
    K, d0, d1 = 250, 251, 252
    floats = (d0 * d0 + K * d1 * d1 + d0 + K * d1 + per_type * (K + 1)
              + abars * K * K)
    need = 8 * 2001 * floats + ESTIMATE_SLACK
    assert need == solve_bytes(model, grid.M, per_type * (K + 1),
                               module._mean_field_floats(model))
    tracemalloc.start()
    try:
        with pytest.raises(NTooLargeForMemory,
                           match=f"^a stored {route} solve on 2001 nodes "
                                 f"needs {need} bytes, over the budget"):
            solve(model, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


@pytest.mark.parametrize("route", ROUTES)
def test_traced_solve_peak_is_within_its_size_check(route):
    """A stored solve's size check bounds its peak, and tightly: on a long
    grid of small states the traced peak of solve_nce and solve_master is
    at most solve_bytes, the march path with the peak of materializing
    Abar, Gbar and mbar, and within 10% of it. The march path alone, the
    only size the march checks, is 1.33x and 1.24x below these peaks."""
    module, solve, per_type, _ = ROUTES[route]
    model = build_model()
    solve(model, TimeGrid(M=20, T=1.0))                 # compiled untraced
    grid = TimeGrid(M=2500, T=1.0)
    tracemalloc.start()
    try:
        solve(model, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    count = solve_bytes(model, grid.M, per_type * (model.K + 1),
                        module._mean_field_floats(model))
    assert peak <= count <= 1.1 * peak
