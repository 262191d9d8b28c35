import math
import warnings

import numpy as np
import pytest

from lqmfg import (AsymmetryDrift, MatrixPath, NonFiniteField,
                   NTooLargeForMemory, TimeGrid, TimeOutOfRange,
                   integrate_backward, ode, sim)
from lqmfg.ode import DEFAULT_BLOWUP_THRESHOLD, TIME_SLACK, BlowUpReport

from helpers import (check_escape_levels, first_crossing,
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


# -- nested escape levels ----------------------------------------------------

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
    grid = TimeGrid(M=200, T=1.0)
    plain = integrate_backward(_stacked_field, _STACKED_TERMINAL, grid,
                               symmetrize=_sym_kernel)
    nested = integrate_backward(_stacked_field, _STACKED_TERMINAL, grid,
                                symmetrize=_sym_kernel, prefixes=(4, 6))
    assert isinstance(nested, MatrixPath)
    assert np.array_equal(plain.values, nested.values)


def test_prefixes_report_the_innermost_level_that_escapes():
    grid = TimeGrid(M=200, T=1.0)
    path = integrate_backward(_stacked_field, _STACKED_TERMINAL, grid,
                              symmetrize=_sym_kernel)

    def run(threshold, prefixes=(4, 6)):
        return integrate_backward(_stacked_field, _STACKED_TERMINAL, grid,
                                  threshold=threshold,
                                  symmetrize=_sym_kernel, prefixes=prefixes)

    kernel, offsets, full = _levels(path)
    check_escape_levels(run, [kernel, offsets, full])
    # without prefixes the full state's earlier crossing is reported
    thr = 0.5 * (kernel.max() + offsets.max())
    assert run(thr, ()).escape_node == first_crossing(full, thr)


def test_terminal_escape_of_outer_level_keeps_marching():
    grid = TimeGrid(M=50, T=1.0)
    term = np.array([1.0, 10.0])
    calls = []

    def field(t, w):
        calls.append(t)
        return np.array([-w[0], 0.0])

    rep = integrate_backward(field, term, grid, threshold=5.0, prefixes=(1,))
    assert isinstance(rep, BlowUpReport)
    assert rep.escape_node == grid.M
    assert rep.norm_at_escape == 11.0
    assert len(calls) == 4 * grid.M
    # the caller's terminal is not touched by holding the tail at zero
    assert np.array_equal(term, [1.0, 10.0])


def test_levels_first_crossing_at_one_node_report_the_innermost():
    """When two outer levels first cross at one node, the inner one's
    report is the verdict, as when each level is marched alone; the
    offset s jumps past the threshold in one step."""
    grid = TimeGrid(M=10, T=1.0)
    rep = integrate_backward(lambda t, w: np.array([0.0, -100.0, 0.0]),
                             np.array([0.1, 0.0, 1.0]), grid, threshold=5.0,
                             prefixes=(1, 2))
    assert isinstance(rep, BlowUpReport)
    assert rep.escape_node == grid.M - 1
    assert math.isclose(rep.norm_at_escape, 10.1, rel_tol=1e-12)


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
                           prefixes=(4,))


def test_held_offsets_cannot_overflow():
    # The offset has a pole near t = 0.5 and would overflow soon after;
    # once it crosses the threshold it is held at zero and the kernel
    # marches on to t = 0.
    grid = TimeGrid(M=1000, T=1.0)
    calls = []

    def field(t, w):
        calls.append(t)
        return np.array([-0.1 * w[0], -w[1] * w[1]])

    term = np.array([1.0, 2.0])
    with pytest.raises(NonFiniteField), np.errstate(over="ignore"):
        # without the hold, marching past the pole overflows
        integrate_backward(field, term, grid, threshold=np.inf)
    calls.clear()
    rep = integrate_backward(field, term, grid, prefixes=(1,))
    assert isinstance(rep, BlowUpReport)
    assert abs(grid.nodes[rep.escape_node] - 0.5) <= 2 * grid.h
    assert len(calls) == 4 * grid.M


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


def test_outer_crossing_narrows_the_mask_of_held_entries():
    """With prefixes (1,) and y of weight 0, an offset crossing narrows
    the one mask to x while y stays held; the verdict is the one without
    y: the offset's crossing near its pole at t = 0.5 at the default
    threshold, and x's own report at 1.5, below x(0) = 2, though x + s
    crosses at T."""
    grid = TimeGrid(M=200, T=1.0)
    reps = []
    for threshold in (DEFAULT_BLOWUP_THRESHOLD, 1.5):
        rep = integrate_backward(_unbounded, np.array([1.0, 4.0, -3.0]), grid,
                                 threshold=threshold, prefixes=(1,),
                                 weights=np.array([1.0, 1.0, 0.0]))
        without = integrate_backward(_decay, np.array([1.0, 4.0]), grid,
                                     threshold=threshold, prefixes=(1,))
        assert isinstance(rep, BlowUpReport)
        assert rep == without
        reps.append(rep)
    assert abs(grid.nodes[reps[0].escape_node] - 0.5) <= 2 * grid.h
    assert reps[1] == integrate_backward(_decay, np.array([1.0]), grid,
                                         threshold=1.5)


def test_prefixes_are_validated():
    grid = TimeGrid(M=4, T=1.0)
    term = np.zeros(5)
    for bad in ((0,), (5,), (3, 3), (3, 2)):
        with pytest.raises(ValueError):
            integrate_backward(lambda t, w: w, term, grid, prefixes=bad)
    with pytest.raises(ValueError):
        integrate_backward(lambda t, w: w, np.zeros((2, 2)), grid,
                           prefixes=(2,))


def test_state_layout_packs_splits_and_symmetrizes():
    layout = ode.StateLayout([("P", (2, 2), "kernel"), ("s", (3,), "vector"),
                              ("r", (), "scalar")])
    assert layout.prefixes == (4, 7)
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


def test_state_layout_slots_are_columns_and_one_by_one_matrices():
    """The compiler's state: matrices as declared, a vector as a column, a
    scalar as a 1 x 1 matrix, each over the segment's stack axes."""
    layout = ode.StateLayout([
        ("P", (3, 2, 2), "kernel"), ("G", (2, 4), "matrix"),
        ("s0", (2,), "vector"), ("s", (3, 2), "vector"),
        ("r0", (), "scalar"), ("r", (3,), "scalar")])
    assert layout.slots == (("P", (3, 2, 2)), ("G", (2, 4)), ("s0", (2, 1)),
                            ("s", (3, 2, 1)), ("r0", (1, 1)), ("r", (3, 1, 1)))
    assert layout.prefixes == (20, 28)


def test_state_layout_paths_are_read_only_views_of_the_split():
    layout = ode.StateLayout([("P", (2, 2), "kernel"), ("G", (2, 2), "matrix"),
                              ("s", (2,), "vector"), ("r", (), "scalar")])
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
