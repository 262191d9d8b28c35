import math
import warnings

import numpy as np
import pytest

from lqmfg import (AsymmetryDrift, MatrixPath, NonFiniteField,
                   NTooLargeForMemory, SegmentOverflow, TimeGrid,
                   TimeOutOfRange,
                   check_asymptotic_solvability, integrate_backward, ode, sim,
                   solve_finite_n, solve_lambda, solve_master, solve_nce)
from lqmfg.ode import DEFAULT_BLOWUP_THRESHOLD, TIME_SLACK, BlowUpReport

from helpers import (build_model, check_kernel_escape, first_crossing,
                     integrate_forward_ref, riccati_closed_form, rk4_step_ref)


def test_zero_field_keeps_terminal():
    grid = TimeGrid(M=16, T=1.0)
    term = np.array([[1.0, 2.0], [3.0, 4.0]])
    path = integrate_backward(lambda t, w: np.zeros_like(w), term, grid)
    assert isinstance(path, MatrixPath)
    assert np.array_equal(path.at(grid.M), term)
    assert np.array_equal(path.at(0), term)


def test_linear_field_matches_exponential():
    c = 0.9
    grid = TimeGrid(M=200, T=1.0)
    term = np.array([2.0])
    path = integrate_backward(lambda t, w: c * w, term, grid)
    for j in (0, 50, 123):
        t = grid.nodes[j]
        expected = 2.0 * math.exp(c * (t - 1.0))
        assert path.at(j)[0] == pytest.approx(expected, abs=1e-9)


def test_terminal_is_stored_exactly():
    grid = TimeGrid(M=10, T=1.0)
    term = np.array([1.0 / 3.0, 2.0 / 7.0])
    path = integrate_backward(lambda t, w: np.sin(w), term, grid)
    assert np.array_equal(path.at(grid.M), term)


def test_quadratic_blowup_detected_before_half():
    # dp/d(T-t) = p^2 from p(T)=2 gives p = 2/(1-2(T-t)): pole at T-t=0.5.
    grid = TimeGrid(M=1000, T=1.0)
    res = integrate_backward(lambda t, w: -w * w, np.array([2.0]), grid)
    assert isinstance(res, BlowUpReport)
    t_escape = grid.nodes[res.escape_node]
    # the discrete state crosses the threshold within a node or two of the
    # pole, possibly one step past it
    assert abs(t_escape - 0.5) <= 2 * grid.h
    assert res.norm_at_escape > res.threshold


def test_threshold_is_configurable():
    grid = TimeGrid(M=100, T=1.0)
    res = integrate_backward(lambda t, w: -w, np.array([2.0]), grid,
                             threshold=2.5)
    assert isinstance(res, BlowUpReport)
    assert res.threshold == 2.5


def test_fourth_order_convergence_against_closed_form():
    a, b, r, q, qf, rho, T = 0.4, 1.0, 0.5, 0.8, 1.5, 0.2, 1.0
    exact = riccati_closed_form(a, b, r, q, qf, rho, T)(0.0)

    def field(t, w):
        p = w[0]
        return np.array([rho * p - 2.0 * a * p + (b * b / r) * p * p - q])

    errors = []
    for M in (25, 50, 100):
        grid = TimeGrid(M=M, T=T)
        path = integrate_backward(field, np.array([qf]), grid)
        errors.append(abs(path.at(0)[0] - exact))
    for coarse, fine in zip(errors, errors[1:]):
        assert 12.0 <= coarse / fine <= 20.0


def test_backward_then_forward_round_trip():
    def field(t, w):
        return np.array([0.3 * w[0] + math.sin(t), -0.2 * w[1]])

    grid = TimeGrid(M=200, T=1.0)
    back = integrate_backward(field, np.array([1.0, -0.5]), grid)
    fwd = integrate_forward_ref(field, back.at(0), grid)
    assert np.abs(fwd[grid.M] - back.at(grid.M)).max() < 1e-8


def test_integration_is_deterministic():
    def field(t, w):
        return np.tanh(w) * 0.7

    grid = TimeGrid(M=100, T=1.0)
    a = integrate_backward(field, np.array([0.3, 0.9]), grid)
    b = integrate_backward(field, np.array([0.3, 0.9]), grid)
    assert np.array_equal(a.values, b.values)


def test_non_finite_field_raises():
    grid = TimeGrid(M=10, T=1.0)
    with pytest.raises(NonFiniteField):
        integrate_backward(lambda t, w: np.full_like(w, np.nan),
                           np.array([1.0]), grid)


@pytest.mark.parametrize("solve", [
    solve_nce, solve_master, solve_lambda,
    lambda model, grid: solve_finite_n(model, 4, grid),
    lambda model, grid: check_asymptotic_solvability(model, [8, 16, 32],
                                                     grid)],
    ids=["nce", "master", "lambda", "finite-n", "solvability"])
def test_an_overflowing_route_raises_without_a_warning(solve):
    """A field whose constants overflow (rho = 1e300) ends in the typed
    error, and numpy warns of none of the overflows on the way."""
    model = build_model(rho=1e300)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteField):
            solve(model, TimeGrid(M=50, T=1.0))


def _staged_field(bad):
    """A field that returns bad[c] at its c-th call (0-based) and a
    constant finite derivative otherwise, whatever the state."""
    calls = []

    def field(t, w):
        value = bad.get(len(calls), 0.25)
        calls.append(t)
        out = np.full_like(w, 0.25)
        out[1] = value
        return out
    return field


def _with_reference_step(monkeypatch, run):
    """run() once with the step that checks each stage (and raises, so it
    reports no faulty member), once as is."""
    with monkeypatch.context() as m:
        m.setattr(ode, "_rk4_step",
                  lambda *args: (rk4_step_ref(*args), None))
        want = run()
    return want, run()


# call c (counted from 0) is stage k(c % 4 + 1) of step c // 4 + 1
@pytest.mark.parametrize("bad", [
    {5: np.nan},                     # NaN in k2 only
    {6: np.nan},                     # NaN in k3 only
    {7: np.nan},                     # NaN in k4 only
    {4: np.inf, 5: -np.inf / 2.0},   # k1 + 2 k2 = inf - inf is NaN
    {4: -np.inf, 7: np.inf},         # k1 + k4 = -inf + inf is NaN
    {0: np.inf},                     # inf in k1 at the terminal state
    {9: -np.inf},                    # -inf in k2 of the third step
], ids=["k2-nan", "k3-nan", "k4-nan", "k1+k2-inf", "k1+k4-inf", "k1-inf",
        "k2-neg-inf"])
def test_non_finite_stage_raises_as_with_a_check_per_stage(monkeypatch, bad):
    grid = TimeGrid(M=8, T=1.0)
    term = np.array([0.5, -0.25, 1.0])

    def run():
        with pytest.raises(NonFiniteField) as exc:
            integrate_backward(_staged_field(bad), term, grid)
        return str(exc.value)

    with warnings.catch_warnings():
        # the single check may combine non-finite stages; that must not
        # warn where the check per stage raised before combining
        warnings.simplefilter("error")
        want, got = _with_reference_step(monkeypatch, run)
    assert got == want
    step = min(bad) // 4
    assert got == ("field returned non-finite derivative near "
                   f"t={float(grid.nodes[grid.M - step])}")


def test_growth_past_the_threshold_reports_the_same_node(monkeypatch):
    grid = TimeGrid(M=100, T=1.0)
    term = np.array([1.0, -2.0])

    def run():
        return integrate_backward(lambda t, w: -30.0 * w, term, grid)

    want, got = _with_reference_step(monkeypatch, run)
    assert isinstance(got, BlowUpReport)
    assert got == want
    assert 0 < got.escape_node < grid.M


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_overflowing_combination_of_finite_stages_is_escape(monkeypatch):
    # every stage is finite, their weighted sum is not: no field fault, the
    # state itself escapes at the next node
    grid = TimeGrid(M=8, T=1.0)

    def run():
        return integrate_backward(lambda t, w: np.full_like(w, 1e308),
                                  np.array([1.0]), grid)

    want, got = _with_reference_step(monkeypatch, run)
    assert got == want
    assert got.escape_node == grid.M - 1
    assert got.norm_at_escape == np.inf


def test_asymmetric_field_with_projection_raises_drift():
    grid = TimeGrid(M=10, T=1.0)
    skew = np.array([[0.0, 1.0], [-1.0, 0.0]])

    def sym(w):
        return (w + w.T) / 2.0

    with pytest.raises(AsymmetryDrift):
        integrate_backward(lambda t, w: skew, np.eye(2), grid,
                           symmetrize=sym)


def test_symmetric_projection_accepts_symmetric_field():
    grid = TimeGrid(M=50, T=1.0)

    def field(t, w):
        return -(w + w.T) / 2.0 * 0.4

    def sym(w):
        return (w + w.T) / 2.0

    path = integrate_backward(field, np.eye(2), grid, symmetrize=sym)
    assert isinstance(path, MatrixPath)
    assert np.allclose(path.at(0), path.at(0).T)


def test_matrix_path_interp_is_linear():
    grid = TimeGrid(M=4, T=1.0)
    vals = np.arange(5.0).reshape(5, 1)
    path = MatrixPath(grid, vals)
    assert path.interp(0.0)[0] == 0.0
    assert path.interp(1.0)[0] == 4.0
    assert path.interp(0.375)[0] == pytest.approx(1.5)


def test_matrix_path_interp_of_times_stacks_single_times():
    grid = TimeGrid(M=7, T=1.3)
    vals = np.random.default_rng(0).standard_normal((8, 2, 3))
    path = MatrixPath(grid, vals)
    times = np.concatenate([grid.nodes, np.random.default_rng(1).uniform(0.0, 1.3, 50)])
    batch = path.interp(times)
    assert batch.shape == (times.size, 2, 3)
    for t, got in zip(times, batch):
        assert np.array_equal(got, path.interp(float(t)))
    # the single-time formula: weights on the bracketing nodes
    for t in times:
        pos = t / grid.h
        j = min(int(np.floor(pos)), grid.M - 1)
        w = pos - j
        assert np.array_equal(path.interp(float(t)), (1.0 - w) * vals[j] + w * vals[j + 1])


def test_matrix_path_interp_rejects_times_off_the_horizon():
    grid = TimeGrid(M=4, T=2.0)
    path = MatrixPath(grid, np.arange(5.0).reshape(5, 1))
    h = grid.h
    for t in (-h, 2.0 + h, -3 * TIME_SLACK * 2.0, 2.0 + 3 * TIME_SLACK * 2.0,
              float("nan"), float("inf")):
        with pytest.raises(TimeOutOfRange):
            path.interp(t)
        with pytest.raises(TimeOutOfRange):
            path.interp(np.array([0.0, 1.0, t]))
    assert path.interp(0.0)[0] == 0.0
    assert path.interp(2.0)[0] == 4.0
    assert np.array_equal(path.interp(np.array([0.0, 2.0]))[:, 0], [0.0, 4.0])
    # up to the slack the end segments extend linearly
    path.interp(np.array([-TIME_SLACK * 2.0, 2.0 + TIME_SLACK * 2.0]))
    assert path.interp(2.0 * (1.0 + 0.5 * TIME_SLACK))[0] == pytest.approx(4.0, abs=1e-8)
    assert path.interp(-0.5 * TIME_SLACK * 2.0)[0] == pytest.approx(0.0, abs=1e-8)


def test_matrix_path_rejects_wrong_node_count():
    grid = TimeGrid(M=4, T=1.0)
    with pytest.raises(ValueError):
        MatrixPath(grid, np.zeros((4, 1)))


def test_matrix_path_rejects_non_finite():
    grid = TimeGrid(M=1, T=1.0)
    with pytest.raises(ValueError):
        MatrixPath(grid, np.array([[np.inf], [0.0]]))


# -- one escape level: the kernels ------------------------------------------

def _stacked_field(t, w):
    """A 2x2 kernel with quadratic growth, driving two offsets, driving a
    constant; no segment reads the ones after it."""
    P = w[:4].reshape(2, 2)
    s = w[4:6]
    dP = -(P @ P) - 0.3 * np.eye(2)
    ds = -P @ s - 0.5
    dr = -(s @ s) - 0.1
    return np.concatenate([dP.ravel(), ds, [dr]])


def _sym_kernel(w):
    out = w.copy()
    P = w[:4].reshape(2, 2)
    out[:4] = ((P + P.T) / 2.0).ravel()
    return out


_STACKED_TERMINAL = np.array([0.5, 0.1, 0.1, 0.4, 0.2, -0.3, 0.05])


def _levels(path):
    a = np.abs(path.values)
    return [a[:, :p].sum(axis=1) for p in (4, 6, 7)]


def test_prefixes_leave_solved_path_unchanged():
    """The escape length, the kernels' prefix, changes no solved entry."""
    grid = TimeGrid(M=200, T=1.0)
    plain = integrate_backward(_stacked_field, _STACKED_TERMINAL, grid,
                               symmetrize=_sym_kernel)
    for length in (4, 7):
        kernels = integrate_backward(_stacked_field, _STACKED_TERMINAL, grid,
                                     symmetrize=_sym_kernel,
                                     escape_length=length)
        assert isinstance(kernels, MatrixPath)
        assert np.array_equal(plain.values, kernels.values)


def test_prefixes_report_the_innermost_level_that_escapes():
    """Escape is judged on the kernels' prefix alone: below the kernels'
    supremum their first crossing is reported, and a threshold that only
    the offsets, or the constant, push the state past is no escape."""
    grid = TimeGrid(M=200, T=1.0)
    path = integrate_backward(_stacked_field, _STACKED_TERMINAL, grid,
                              symmetrize=_sym_kernel)

    def run(threshold, escape_length=4):
        return integrate_backward(_stacked_field, _STACKED_TERMINAL, grid,
                                  threshold=threshold, symmetrize=_sym_kernel,
                                  escape_length=escape_length)

    kernel, offsets, full = _levels(path)
    check_kernel_escape(run, kernel, offsets, full)
    # judged on the whole state, the full state's earlier crossing is
    # reported
    thr = 0.5 * (kernel.max() + offsets.max())
    assert run(thr, None).escape_node == first_crossing(full, thr)


def test_terminal_escape_of_outer_level_keeps_marching():
    """Offsets past the threshold from the terminal on are no escape: the
    march goes on to t = 0 and returns the path."""
    grid = TimeGrid(M=50, T=1.0)
    term = np.array([1.0, 10.0])
    calls = []

    def field(t, w):
        calls.append(t)
        return np.array([-w[0], 0.0])

    path = integrate_backward(field, term, grid, threshold=5.0,
                              escape_length=1)
    assert isinstance(path, MatrixPath)
    assert np.all(path.values[:, 1] == 10.0)
    assert len(calls) == 4 * grid.M
    assert np.array_equal(term, [1.0, 10.0])


def test_levels_first_crossing_at_one_node_report_the_innermost():
    """When the escape prefix and the whole state first cross at one node,
    the report is the prefix's norm; the offset s jumps past the threshold
    in one step. Past the prefix, s is not judged at all."""
    grid = TimeGrid(M=10, T=1.0)

    def run(escape_length):
        return integrate_backward(
            lambda t, w: np.array([0.0, -100.0, 0.0]),
            np.array([0.1, 0.0, 1.0]), grid, threshold=5.0,
            escape_length=escape_length)

    rep = run(2)
    assert isinstance(rep, BlowUpReport)
    assert rep.escape_node == grid.M - 1
    assert math.isclose(rep.norm_at_escape, 10.1, rel_tol=1e-12)
    assert run(None).escape_node == grid.M - 1
    assert math.isclose(run(None).norm_at_escape, 11.1, rel_tol=1e-12)
    path = run(1)
    assert isinstance(path, MatrixPath)
    assert path.values[0, 1] == 100.0


def test_offset_segment_does_not_dilute_asymmetry_check():
    grid = TimeGrid(M=10, T=1.0)
    term = np.array([1.0, 0.0, 0.0, 1.0, 1e6])
    skew = np.array([0.0, 1e-6, -1e-6, 0.0, 0.0])

    def sym(w):
        out = w.copy()
        P = w[:4].reshape(2, 2)
        out[:4] = ((P + P.T) / 2.0).ravel()
        return out

    # measured against the whole state the drift looks like round-off
    path = integrate_backward(lambda t, w: skew, term, grid, symmetrize=sym)
    assert isinstance(path, MatrixPath)
    with pytest.raises(AsymmetryDrift):
        integrate_backward(lambda t, w: skew, term, grid, symmetrize=sym,
                           escape_length=4)


def _pole_field(calls):
    """A kernel entry decaying gently and an offset with a pole at
    t = 0.5 from s(1) = 2, which overflows float64 a few steps past it."""
    def field(t, w):
        calls.append(t)
        return np.stack([-0.1 * w[..., 0], -w[..., 1] * w[..., 1]], axis=-1)
    return field


def test_held_offsets_cannot_overflow():
    """An offset that overflows float64 under a bounded kernel ends the
    run in SegmentOverflow, naming its entry past the kernels, not in a
    report or a path; the same offset held at +0.0 by weight 0 cannot
    overflow, and the kernel marches on to t = 0."""
    grid = TimeGrid(M=1000, T=1.0)
    calls = []
    term = np.array([1.0, 2.0])
    with pytest.raises(NonFiniteField):
        # judged on the whole state, the overflow is a field fault
        integrate_backward(_pole_field(calls), term, grid, threshold=np.inf)
    calls.clear()
    with pytest.raises(SegmentOverflow) as exc:
        integrate_backward(_pole_field(calls), term, grid, escape_length=1)
    message = str(exc.value)
    assert message.startswith("the offsets and constants (state entries 1 to "
                              "1, past the kernels) overflowed float64 at "
                              "entry 1 near t=")
    assert message.endswith("; the kernels stayed below the escape threshold")
    t = float(message.split("near t=")[1].split(";")[0])
    assert 0.5 - 5 * grid.h <= t < 0.5
    assert exc.value.exit_code == 2
    calls.clear()
    path = integrate_backward(_pole_field(calls), term, grid, escape_length=1,
                              weights=np.array([1.0, 0.0]))
    assert isinstance(path, MatrixPath)
    assert not path.values[:, 1].any()
    assert len(calls) == 4 * grid.M


def test_a_batch_member_whose_offsets_overflow_is_frozen_alone():
    """In a batch, a member whose offset overflows raises SegmentOverflow
    after the march, as alone, and the other member's path is marched on
    unchanged: its solo run raises nothing."""
    grid = TimeGrid(M=1000, T=1.0)
    terms = np.array([[1.0, 2.0], [1.0, 0.5]])
    with pytest.raises(SegmentOverflow) as alone:
        integrate_backward(_pole_field([]), terms[0], grid, escape_length=1)
    calls = []
    with pytest.raises(SegmentOverflow) as batch:
        ode.integrate_members(_pole_field(calls), terms, grid,
                              escape_length=1)
    assert str(batch.value) == str(alone.value)
    assert len(calls) == 4 * grid.M
    assert isinstance(integrate_backward(_pole_field([]), terms[1], grid,
                                         escape_length=1), MatrixPath)


def _decay(t, w):
    return -0.5 * w * w


def _unbounded(t, w):
    """A kernel entry x and an offset s (both -w^2 / 2, the offset from a
    larger terminal), then an entry y whose derivative is -1e300 and
    squares from there: marched, y overflows within two steps."""
    x, s, y = w
    return np.array([-0.5 * x * x, -0.5 * s * s, -1e300 * (1.0 + y * y)])


def test_zero_weight_entry_is_held_at_positive_zero():
    """An entry of weight 0 stands for nothing: it is +0.0 at every node,
    from a negative terminal on, never counts toward escape, and leaves
    the live entries bitwise those of a run without it."""
    grid = TimeGrid(M=40, T=1.0)
    path = integrate_backward(_unbounded, np.array([1.0, 0.5, -3.0]), grid,
                              weights=np.array([1.0, 1.0, 0.0]))
    assert isinstance(path, MatrixPath)
    held = path.values[:, 2]
    assert not held.any() and not np.signbit(held).any()
    alone = integrate_backward(_decay, np.array([1.0, 0.5]), grid)
    assert path.values[:, :2].tobytes() == alone.values.tobytes()


def test_offset_crossing_leaves_the_mask_of_held_entries():
    """With escape length 1 and y of weight 0, y stays held while the
    offset s is not judged; the verdict is the one without y: a path at
    the default threshold, x's own report at 1.5 (below x(0) = 2), though
    x + s is past 1.5 from the first step on; and from s(1) = 4, whose
    pole is at t = 0.5, a SegmentOverflow at the same entry and time."""
    grid = TimeGrid(M=200, T=1.0)
    weights = np.array([1.0, 1.0, 0.0])

    def run(field, term, threshold=DEFAULT_BLOWUP_THRESHOLD):
        return integrate_backward(field, np.array(term), grid,
                                  threshold=threshold, escape_length=1,
                                  weights=weights[:len(term)])

    path = run(_unbounded, [1.0, 0.5, -3.0])
    assert (path.values[:, :2].tobytes()
            == run(_decay, [1.0, 0.5]).values.tobytes())
    rep = run(_unbounded, [1.0, 0.5, -3.0], 1.5)
    assert isinstance(rep, BlowUpReport)
    assert rep == run(_decay, [1.0, 0.5], 1.5) == run(_decay, [1.0], 1.5)
    errors = []
    for field, term in ((_unbounded, [1.0, 4.0, -3.0]), (_decay, [1.0, 4.0])):
        with pytest.raises(SegmentOverflow) as exc:
            run(field, term)
        errors.append(str(exc.value).split("past the kernels) ")[1])
    assert errors[0] == errors[1]


def test_prefixes_are_validated():
    grid = TimeGrid(M=4, T=1.0)
    term = np.zeros(5)
    for bad in (0, -1, 6):
        with pytest.raises(ValueError, match="escape length"):
            integrate_backward(lambda t, w: w, term, grid, escape_length=bad)
    # a prefix of a state of any shape counts its entries in flat order
    path = integrate_backward(lambda t, w: w, np.ones((2, 2)), grid,
                              threshold=1.5, escape_length=1)
    assert isinstance(path, MatrixPath)


def test_state_layout_packs_splits_and_symmetrizes():
    layout = ode.StateLayout([("P", (2, 2), "kernel"), ("s", (3,), "vector"),
                              ("r", (), "scalar")])
    assert layout.escape_length == 4
    P = np.array([[1.0, 2.0], [4.0, 3.0]])
    flat = layout.pack(P, [5.0, 6.0, 7.0], 8.0)
    assert np.array_equal(flat, [1.0, 2.0, 4.0, 3.0, 5.0, 6.0, 7.0, 8.0])
    parts = layout.split(flat)
    assert np.array_equal(parts[0], P)
    assert parts[2].shape == () and parts[2] == 8.0
    assert all(np.shares_memory(part, flat) for part in parts)
    # a path splits into segment paths over its leading node axis
    Ps, s, r = layout.split(np.stack([flat, 2.0 * flat]))
    assert (Ps.shape, s.shape, r.shape) == ((2, 2, 2), (2, 3), (2,))
    assert np.array_equal(Ps[1], 2.0 * P)
    assert np.array_equal(layout.sym(flat),
                          [1.0, 3.0, 3.0, 3.0, 5.0, 6.0, 7.0, 8.0])
    assert flat[1] == 2.0
    with pytest.raises(ValueError):
        layout.pack(P, [5.0, 6.0], 8.0)


@pytest.mark.parametrize("kinds", [("vector", "kernel"), ("scalar", "matrix"),
                                   ("scalar", "vector")])
def test_state_layout_refuses_segments_out_of_level_order(kinds):
    with pytest.raises(ValueError, match="out of level order"):
        ode.StateLayout([(f"x{i}", (2, 2), kind)
                         for i, kind in enumerate(kinds)])


def test_state_layout_paths_are_read_only_views_of_the_split():
    layout = ode.StateLayout([("P", (2, 2), "kernel"), ("G", (2, 2), "matrix"),
                              ("s", (2,), "vector"), ("r", (), "scalar")])
    assert layout.escape_length == 8
    grid = TimeGrid(M=3, T=1.0)
    path = ode.MatrixPath(grid, np.arange(4.0 * layout.size).reshape(4, -1))
    paths = layout.paths(path)
    assert list(paths) == ["P", "G", "s", "r"]
    for (name, got), want in zip(paths.items(), layout.split(path.values)):
        assert got.grid is grid
        assert np.array_equal(got.values, want) and got.values.shape == want.shape
        assert np.shares_memory(got.values, path.values)
        assert not got.values.flags.writeable, name


def test_path_storage_is_sized_before_allocating():
    """(M+1) * state * 8 bytes above the one MEMORY_BUDGET are refused
    before the path, the nodes or a field evaluation exist."""
    assert sim.MEMORY_BUDGET is ode.MEMORY_BUDGET
    calls = []

    def field(t, w):
        calls.append(t)
        return w

    grid = TimeGrid(M=10 ** 11, T=1.0)
    with pytest.raises(NTooLargeForMemory,
                       match="a path of 100000000001 states of 9 floats "
                             "needs 7200000000072 bytes"):
        integrate_backward(field, np.zeros((3, 3)), grid)
    # 2001 nodes of 268,000 floats: 4,289,072,000 bytes, just inside
    assert 8 * 2001 * 268_000 <= ode.MEMORY_BUDGET < 8 * 2001 * 268_400
    with pytest.raises(NTooLargeForMemory):
        integrate_backward(field, np.zeros(268_400), TimeGrid(M=2000, T=1.0))
    assert calls == []
