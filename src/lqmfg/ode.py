"""Backward matrix/vector ODE integration with finite-escape detection.

All solution systems in this package are terminal value problems: a state
(possibly several Riccati kernels and offset vectors stacked into one flat
array) is given at t = T and integrated down to t = 0 with classical
fixed-step fourth-order Runge-Kutta. Fixed stepping keeps runs bit
reproducible, which the equivalence tests rely on.

The field callback always receives the forward-time derivative convention:
field(t, state) = d(state)/dt. Marching toward 0 simply applies RK4 with a
negative step.

Finite escape is detected at the nodes: the first node whose state exceeds
the l1-norm threshold (or contains a non-finite entry) yields a
BlowUpReport instead of a path. One RK4 step starting below the threshold
cannot overflow float64 for the polynomial fields used here, so a
non-finite stage derivative at a sub-threshold state is reported as a
NonFiniteField bug, not as escape.

A stacked state whose leading segments never depend on the trailing ones
(Riccati kernels, then offsets, then constants) is marched in one pass
with nested escape levels; see integrate_backward's `prefixes`.
"""

from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .errors import AsymmetryDrift, NonFiniteField, TimeOutOfRange
from .model import TimeGrid

DEFAULT_BLOWUP_THRESHOLD = 1e12
# Relative asymmetry beyond this after a step signals a mis-assembled
# field; measured relative to the state's magnitude so that legitimate
# near-escape growth (entries ~1e11) is still classified as blow-up.
ASYMMETRY_TOL = 1e-8
# Relative slack of a time beyond [0, T] that still counts as on the
# horizon: a step dt accepted as dividing the grid spacing up to this
# relative error puts the last of its nodes within it of T.
TIME_SLACK = 1e-9


@dataclass(frozen=True)
class MatrixPath:
    """A state trajectory sampled on every node of a TimeGrid.

    values[j] is the state at grid.nodes[j]; the state may be a matrix, a
    vector, or a flat stacked array, but its shape is fixed along the path.
    """

    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self):
        if self.values.shape[0] != self.grid.M + 1:
            raise ValueError(
                f"path has {self.values.shape[0]} states for {self.grid.M + 1} nodes"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValueError("path contains non-finite entries")
        self.values.setflags(write=False)

    @property
    def state_shape(self) -> tuple:
        return self.values.shape[1:]

    def at(self, j: int) -> np.ndarray:
        return self.values[j]

    def interp(self, t) -> np.ndarray:
        """Linear interpolation between the bracketing nodes.

        t is a time or a 1-D array of times; an array gives the states
        stacked along a new leading axis, each entry computed exactly as
        for the single time. Times outside [0, T] (beyond TIME_SLACK * T)
        raise TimeOutOfRange.
        """
        T = self.grid.T
        t = np.asarray(t, dtype=np.float64)
        outside = ~((t >= -TIME_SLACK * T) & (t <= T + TIME_SLACK * T))
        if outside.any():
            raise TimeOutOfRange(f"t={float(t[outside][0])} outside [0, {T}]")
        pos = t / self.grid.h
        j = np.clip(np.floor(pos).astype(np.intp), 0, self.grid.M - 1)
        w = (pos - j).reshape(t.shape + (1,) * len(self.state_shape))
        return (1.0 - w) * self.values[j] + w * self.values[j + 1]


@dataclass(frozen=True)
class BlowUpReport:
    """Where and how hard a backward integration escaped."""

    escape_node: int
    norm_at_escape: float
    threshold: float

    def __post_init__(self):
        if not (self.norm_at_escape > self.threshold) and np.isfinite(self.norm_at_escape):
            raise ValueError("escape norm does not exceed the threshold")


def _rk4_step(field, t: float, w: np.ndarray, dt: float) -> np.ndarray:
    k1 = field(t, w)
    k2 = field(t + dt / 2.0, w + (dt / 2.0) * k1)
    k3 = field(t + dt / 2.0, w + (dt / 2.0) * k2)
    k4 = field(t + dt, w + dt * k3)
    # Every stage enters the step with a nonzero weight, so a non-finite
    # stage always makes the step non-finite: one check on the step
    # suffices, and the stages are looked at only when it fails.
    with np.errstate(over="ignore", invalid="ignore"):
        step = w + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    if not np.isfinite(step).all() and not all(
            np.isfinite(k).all() for k in (k1, k2, k3, k4)):
        raise NonFiniteField(f"field returned non-finite derivative near t={t!r}")
    return step


def _hold(w: np.ndarray, active: int) -> np.ndarray:
    """Copy of the flat state `w` with every entry past `active` zeroed."""
    out = np.zeros_like(w)
    out[:active] = w[:active]
    return out


def _held_field(field, active: int):
    """`field` with every derivative entry past `active` zeroed."""
    def held(t, w):
        return _hold(field(t, w), active)
    return held


def integrate_backward(
    field: Callable[[float, np.ndarray], np.ndarray],
    terminal: np.ndarray,
    grid: TimeGrid,
    threshold: float = DEFAULT_BLOWUP_THRESHOLD,
    symmetrize: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    prefixes: Sequence[int] = (),
) -> Union[MatrixPath, BlowUpReport]:
    """March the terminal value problem from t = T down to t = 0.

    field(t, state) must return d(state)/dt (forward-time convention).
    When `symmetrize` is given it must be the projection onto the caller's
    symmetric subspace (e.g. re-symmetrizing each Riccati block of a
    stacked state); it is applied after every step, and projection
    distances beyond ASYMMETRY_TOL raise AsymmetryDrift since honest
    round-off stays orders of magnitude smaller.

    Returns the full MatrixPath, or a BlowUpReport naming the first node at
    which the state's l1 norm exceeded `threshold` or went non-finite.

    `prefixes` are increasing lengths of leading segments of a flat state
    whose derivatives never read the entries past them: e.g. (nP, nP + ns)
    for kernels, offsets and constants stacked in that order. Each prefix
    and the whole state is an escape level, innermost first, and the
    verdict is the one of marching each level on its own and taking the
    innermost level that escapes at all:
    - a crossing of the innermost prefix ends the run with its report;
    - a crossing of an outer level only (the innermost one crossing, if
      several do at one node) is remembered; from then on the entries past
      the next inner prefix are held at zero, in the state and in every
      stage derivative, and marching goes on at that inner level;
    - at t = 0 the innermost remembered report is returned.
    The entries inside the marched level are bitwise those of a run on
    that level alone. Asymmetry drift is measured against the magnitude of
    the innermost prefix, so an outer segment cannot dilute it.
    """
    terminal = np.asarray(terminal, dtype=np.float64)
    levels = tuple(int(p) for p in prefixes) + (terminal.size,)
    if prefixes and (terminal.ndim != 1 or levels[0] < 1
                     or any(a >= b for a, b in zip(levels, levels[1:]))):
        raise ValueError(f"prefixes {tuple(prefixes)} must increase strictly "
                         f"inside a flat state of size {terminal.size}")
    inner = levels[0]
    nodes = grid.nodes
    M = grid.M
    h = grid.h
    out = np.empty((M + 1,) + terminal.shape, dtype=np.float64)

    top = len(levels) - 1       # outermost level still marched
    remembered = None           # report of the innermost outer level crossed
    step_field = field
    w = terminal
    for j in range(M, -1, -1):
        if j < M:
            w = _rk4_step(step_field, nodes[j + 1], w, -h)
            if symmetrize is not None:
                proj = symmetrize(w)
                scale = max(1.0, float(np.abs(w[:inner]).max()))
                drift = float(np.abs(w - proj).max()) / scale
                if drift > ASYMMETRY_TOL:
                    raise AsymmetryDrift(
                        f"relative asymmetry {drift:.3e} after step to node {j}"
                    )
                w = proj
        a = np.abs(w)
        for lvl in range(top + 1):
            # a[:size] is the whole state, whatever its shape
            norm = float(a[:levels[lvl]].sum())
            if not np.isfinite(norm) or norm > threshold:
                report = BlowUpReport(escape_node=j, norm_at_escape=norm,
                                      threshold=threshold)
                if lvl == 0:
                    return report
                remembered, top = report, lvl - 1
                w = _hold(w, levels[top])
                step_field = _held_field(field, levels[top])
                break
        out[j] = w

    if remembered is not None:
        return remembered
    return MatrixPath(grid=grid, values=out)


def integrate_forward(
    field: Callable[[float, np.ndarray], np.ndarray],
    initial: np.ndarray,
    grid: TimeGrid,
) -> MatrixPath:
    """RK4 from t = 0 up to t = T (initial value companion, no escape check)."""
    initial = np.asarray(initial, dtype=np.float64)
    nodes = grid.nodes
    out = np.empty((grid.M + 1,) + initial.shape, dtype=np.float64)
    out[0] = initial
    w = initial
    for j in range(grid.M):
        w = _rk4_step(field, nodes[j], w, grid.h)
        out[j + 1] = w
    return MatrixPath(grid=grid, values=out)
