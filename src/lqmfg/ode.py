"""Backward matrix/vector ODE integration with finite-escape detection.

All solution systems in this package are terminal value problems: a state
(possibly several Riccati kernels and offset vectors stacked into one flat
array) is given at t = T and integrated down to t = 0 with classical
fixed-step fourth-order Runge-Kutta. Fixed stepping keeps runs bit
reproducible, which the equivalence tests rely on.

The field callback always receives the forward-time derivative convention:
field(t, state) = d(state)/dt. Marching toward 0 simply applies RK4 with a
negative step.

Finite escape is judged at the nodes on one level, the kernels: the
first node whose escape norm (escape_norms, the weighted l1 norm of the
leading `escape_length` entries of a stacked state, the kernels) exceeds
the threshold, or is non-finite, yields a BlowUpReport instead of a path. The
offsets and constants stacked after the kernels solve linear ODEs whose
coefficients are built from the kernels, so bounded kernels bound them
(Gronwall) and they are never judged. One RK4 step starting below the
threshold cannot overflow float64 for the polynomial fields used here, so
a non-finite stage derivative of the kernels at a sub-threshold state is
reported as a NonFiniteField bug, and an offset or constant that
overflows float64 as a SegmentOverflow, not as escape. Entries of escape
weight 0 are held at +0.0 by one mask, the package's one hold rule.

integrate_members marches B systems of one shape as one batch, their
states stacked on a leading member axis, through the one march loop;
integrate_backward is its one-member case, without the axis. Each member
has its own row of the mask. A member whose kernels escape, whose field
or offsets go non-finite or whose projection drifts is frozen by
clearing its row, and the exceptions are raised after the march in
member order, so each member's path, report or exception is bitwise the
one it gets alone.

Each system declares its flat state once, as a StateLayout of named segments
of four kinds (kernel, matrix, vector, scalar); its escape length, the
symmetric projection of its kernels and the segment views of a solved
path all follow from that one list. The projection (StateLayout.sym) is
one gather for all kernels: each kernel entry and the entry of its
transpose, found by a permutation fixed with the layout, are added in
that order and halved, which is (P + P^T) / 2.0 of every kernel bit for
bit; every other entry is copied as it is. The compiled routes' layouts
are built by equations.compile_field and cached with its tables.
"""

import math
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .errors import (AsymmetryDrift, NonFiniteField, NTooLargeForMemory,
                     SegmentOverflow, TimeOutOfRange)
from .model import TimeGrid

DEFAULT_BLOWUP_THRESHOLD = 1e12
# Bytes one stored path (or one simulation, see sim.simulation_bytes) may
# allocate; larger runs are refused by check_budget before anything is
# allocated.
MEMORY_BUDGET = 4 * 2 ** 30
# Bytes of Python objects and small arrays that a size estimate
# (sim.simulation_bytes, asymptotic.finite_n_bytes, nce.solve_bytes)
# allows beyond the arrays it counts; the first two trace 8 and 16 kB.
ESTIMATE_SLACK = 2 ** 15
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
        # The sum of the entries is finite only if every entry is, so the
        # mask of a byte per entry is built only when it is not. Summed
        # over the nodes first, a strided view (a segment of a stacked
        # path) needs no buffer of its own.
        with np.errstate(over="ignore", invalid="ignore"):
            total = np.add.reduce(np.add.reduce(self.values, 0), None)
            if not (math.isfinite(total) or np.isfinite(self.values).all()):
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


# Per segment kind, its level: the LQ hierarchy's kernels and the
# non-symmetric matrix blocks beside them (level 0, judged for escape),
# then offsets, then constants.
_KINDS = {"kernel": 0, "matrix": 0, "vector": 1, "scalar": 2}


class StateLayout:
    """Named segments of a flat stacked state, declared once.

    `segments` lists (name, shape, kind) in flat order, kind "kernel"
    (symmetric on the trailing two axes), "matrix", "vector" or "scalar",
    in level order: kernels and matrices, then vectors, then scalars, else
    ValueError. `escape_length` is the flat length of the kernels and
    matrices (integrate_backward's escape level).
    """

    def __init__(self, segments):
        names, shapes, kinds = zip(*segments)
        levels = [_KINDS[kind] for kind in kinds]
        if levels != sorted(levels):
            raise ValueError(f"segment kinds {kinds} are out of level order")
        bounds = [0]
        for shape in shapes:
            bounds.append(bounds[-1] + math.prod(shape))
        self.size = bounds[-1]
        self.names = names
        self.kinds = kinds
        self._segments = [(slice(lo, hi), shape)
                          for lo, hi, shape in zip(bounds, bounds[1:], shapes)]
        self.escape_length = bounds[levels.count(0)]
        # adjacent kernels of one size are one run, a stack of kernels
        runs = []
        for (seg, shape), kind in zip(self._segments, kinds):
            if kind != "kernel":
                continue
            stack = (-1,) + shape[-2:]
            if runs and runs[-1][1] == stack and runs[-1][0].stop == seg.start:
                seg = slice(runs.pop()[0].start, seg.stop)
            runs.append((seg, stack))
        self._transposed = None
        if len(runs) == 1:
            self._kernels = runs[0]
        else:
            # every kernel entry in flat order (a slice if they fill one
            # range), and the entry of the transpose each is averaged with
            flat = np.arange(self.size)
            blocks = [flat[seg].reshape(stack) for seg, stack in runs]
            entries = np.concatenate([flat[:0]] + [P.ravel() for P in blocks])
            self._transposed = np.concatenate(
                [flat[:0]] + [P.swapaxes(-1, -2).ravel() for P in blocks])
            self._kernels = entries
            if entries.size and entries[-1] - entries[0] + 1 == entries.size:
                self._kernels = slice(int(entries[0]), int(entries[-1]) + 1)

    def pack(self, *parts) -> np.ndarray:
        """The flat state holding `parts`, one per segment, in order."""
        flat = np.concatenate(parts, axis=None)
        if flat.size != self.size:
            raise ValueError(f"parts hold {flat.size} entries, layout {self.size}")
        return flat

    def split(self, a: np.ndarray) -> list:
        """Views of each segment of `a`, whose last axis is the flat state;
        leading axes (path nodes, say) are kept."""
        lead = a.shape[:-1]
        return [a[..., seg].reshape(lead + shape)
                for seg, shape in self._segments]

    def paths(self, path: MatrixPath) -> dict:
        """{name: MatrixPath}, read-only views of a solved path's segments."""
        return {name: MatrixPath(path.grid, part)
                for name, part in zip(self.names, self.split(path.values))}

    def sym(self, flat: np.ndarray) -> np.ndarray:
        """Copy of `flat` with (P + P^T) / 2 on every kernel segment; the
        flat state is the last axis, and leading axes (members, say) are
        kept. The other entries are left as copied.

        Each kernel entry is added to the entry of its transpose, in that
        order, and halved: the written (P + P.swapaxes(-1, -2)) / 2.0
        entry by entry. Kernels that form one run (adjacent, of one size)
        are added to their transposed view in place. Kernels of several
        runs are projected together: the entries of their transposes are
        one gather by a permutation fixed with the layout, which would be
        as large as the kernels and held as long as the layout is, so one
        run is not gathered."""
        out = flat.copy()
        lead = flat.shape[:-1]
        if self._transposed is None:
            seg, stack = self._kernels
            P = flat[..., seg].reshape(lead + stack)
            # a view: splitting the last axis copies nothing
            kernels = out[..., seg].reshape(lead + stack)
            np.add(P, P.swapaxes(-1, -2), out=kernels)
            np.divide(kernels, 2.0, out=kernels)
        else:
            at = (slice(None),) * len(lead) + (self._kernels,)
            out[at] = (flat[at] + flat[at[:-1] + (self._transposed,)]) / 2.0
        return out


def check_budget(what: str, need: int) -> None:
    """NTooLargeForMemory, naming `what`, if `need` bytes exceed
    MEMORY_BUDGET; the one size rule of every stored path and
    simulation, checked before anything is allocated."""
    if need > MEMORY_BUDGET:
        raise NTooLargeForMemory(
            f"{what} needs {need} bytes, over the budget of "
            f"{MEMORY_BUDGET} bytes")


def _path_storage(grid: TimeGrid, members: int, shape: tuple) -> np.ndarray:
    """Uninitialized storage, (members, M+1) + shape, for the states of
    `shape` of every member on every node of `grid`, sized by
    check_budget first."""
    size = math.prod(shape)
    paths = "a path" if members == 1 else f"{members} paths"
    check_budget(f"{paths} of {grid.M + 1} states of {size} floats",
                 8 * members * (grid.M + 1) * size)
    return np.empty((members, grid.M + 1) + shape, dtype=np.float64)


def _rk4_step(field, t: float, w: np.ndarray, dt: float):
    """One RK4 step, and None if it is finite, else the mask of the
    entries where a stage is non-finite (all False if no stage is)."""
    half = dt / 2.0
    k1 = field(t, w)
    k2 = field(t + half, w + half * k1)
    k3 = field(t + half, w + half * k2)
    k4 = field(t + dt, w + dt * k3)
    # Every stage enters the step with a nonzero weight, so a non-finite
    # stage always makes the step non-finite: one check on the step
    # suffices (the sum of its entries is finite only if every entry is),
    # and the stages are looked at only when it fails.
    step = w + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    if math.isfinite(np.add.reduce(step, None)) or np.isfinite(step).all():
        return step, None
    finite = (np.isfinite(k1) & np.isfinite(k2) & np.isfinite(k3)
              & np.isfinite(k4))
    return step, np.broadcast_to(~finite, step.shape)


def _hold(w: np.ndarray, live) -> np.ndarray:
    """Copy of `w` with every entry outside the mask `live` +0.0."""
    return np.where(live, w, 0.0)


def integrate_backward(
    field: Callable[[float, np.ndarray], np.ndarray],
    terminal: np.ndarray,
    grid: TimeGrid,
    threshold: float = DEFAULT_BLOWUP_THRESHOLD,
    symmetrize: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    escape_length: Optional[int] = None,
    weights: Optional[np.ndarray] = None,
) -> Union[MatrixPath, BlowUpReport]:
    """March the terminal value problem from t = T down to t = 0.

    field(t, state) must return d(state)/dt (forward-time convention).
    When `symmetrize` is given it must be the projection onto the caller's
    symmetric subspace (e.g. re-symmetrizing each Riccati block of a
    stacked state); it is applied after every step, and projection
    distances beyond ASYMMETRY_TOL raise AsymmetryDrift since honest
    round-off stays orders of magnitude smaller.

    Returns the full MatrixPath, or a BlowUpReport naming the first node
    whose escape norm (escape_norms) of the first `escape_length` entries
    (all if None) exceeded `threshold` or went non-finite. Those entries
    are the kernels, whose derivatives never read the entries past them:
    offsets and constants, stacked after the kernels, are bounded while
    the kernels are, so they are not judged. An entry past the kernels
    that overflows float64 all the same raises SegmentOverflow naming it;
    a non-finite stage derivative of the kernels raises NonFiniteField.
    Asymmetry drift is measured against the magnitude of the kernels, so
    an offset cannot dilute it. A path whose (M+1) * state.size * 8 bytes
    exceed MEMORY_BUDGET raises NTooLargeForMemory before anything is
    allocated. The march runs under one errstate that ignores overflow
    and invalid operations, so numpy warns of none of them: each
    non-finite outcome ends as that report or as one of those errors.

    `weights`, if given, has one non-negative factor per state entry, and
    the escape norm sums |entry| * weight: a state that stands for a
    larger one (one tile for each of its copies, say) is judged by the l1
    norm of the state it stands for; an entry of weight 0 stands for none.
    One mask of live entries, weights > 0 (all without weights), holds the
    state and every stage derivative at +0.0 outside it. Neither |state|
    nor the terminal outlives the step that reads it.

    This is the one-member case of the march of integrate_members.
    """
    # popped into the march, so that no frame here holds the terminal
    terminal = [np.asarray(terminal, dtype=np.float64)]
    return _march(field, terminal.pop(), (), grid, threshold, symmetrize,
                  escape_length, weights)[0]


def integrate_members(
    field: Callable[[float, np.ndarray], np.ndarray],
    terminals: np.ndarray,
    grid: TimeGrid,
    threshold: float = DEFAULT_BLOWUP_THRESHOLD,
    symmetrize: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    escape_length: Optional[int] = None,
    weights: Optional[np.ndarray] = None,
) -> list:
    """March B terminal value problems of one shape as one batch, and
    return one result per member: what integrate_backward returns for
    that member alone, bitwise.

    `terminals` stacks the members' states on a first axis of length B,
    and so do `weights` (if given) and the states that `field(t, states)`
    and `symmetrize(states)` take and return; row b of their results
    must depend on row b of the states alone. `escape_length`,
    `threshold` and `weights` mean what they mean for integrate_backward,
    per member.
    The path storage of the whole batch, B (M+1) state.size * 8 bytes, is
    checked against MEMORY_BUDGET before anything is allocated.

    Each member has its own row of the one mask of live entries, which
    starts as weights > 0. A member whose kernels cross is frozen: its
    whole row of the mask goes False, so the state and every stage
    derivative are +0.0 there, and its report is kept. So are a member's
    NonFiniteField, SegmentOverflow and AsymmetryDrift: they freeze that
    member alone, and after the march the first one in member order is
    raised, the exception a loop over the members in order would raise.
    The march ends once every member is frozen.
    """
    terminals = np.asarray(terminals, dtype=np.float64)
    return _march(field, terminals, terminals.shape[:1], grid, threshold,
                  symmetrize, escape_length, weights)


# A norm is finite and not over a threshold t iff it is at most
# fmin(t, _LARGEST): t = inf or NaN leaves the finiteness test alone.
_LARGEST = np.finfo(np.float64).max
# The reduction of ndarray.max, without its wrapper.
_max = np.maximum.reduce


def escape_norms(states, escape_length, weights=None) -> np.ndarray:
    """Per flat state (last axis), the l1 norm of its first `escape_length`
    entries, each |entry| times its weight (in place) if `weights` given."""
    a = np.abs(states[..., :escape_length])
    if weights is not None:
        a *= weights[..., :escape_length]
    return np.add.reduce(a, -1)


def _march(field, terminals, lead, grid, threshold, symmetrize,
           escape_length, weights) -> list:
    """The march of integrate_members over states of shape lead + the
    member shape: lead = (B,) for B members, or () for one member, whose
    field and projection then see its states as they are."""
    members = math.prod(lead)
    shape = terminals.shape[len(lead):]
    size = math.prod(shape)
    inner = size if escape_length is None else int(escape_length)
    if not 0 < inner <= size:
        raise ValueError(f"escape length {escape_length} outside a state of "
                         f"size {size}")
    live = True                     # the mask of live entries
    if weights is not None:
        if np.shape(weights) != terminals.shape:
            raise ValueError(f"weights of shape {np.shape(weights)} for "
                             f"states of shape {terminals.shape}")
        live = np.greater(weights, 0)
        weights = np.reshape(weights, (members, size))
    bound = float(np.fmin(threshold, _LARGEST))
    out = _path_storage(grid, members, shape)
    nodes = grid.nodes
    M = grid.M
    dt = -grid.h

    final = [None] * members        # a frozen member's report or exception

    def held(t, w):
        return _hold(field(t, w), live)     # `live` as last cleared

    def freeze(b, outcome):
        """Member b's row of the mask goes False; `outcome` is its result."""
        nonlocal live, step_field
        final[b] = outcome
        if live is True:
            live = np.ones(lead + shape, dtype=bool)
        live.reshape(members, size)[b] = False
        step_field = held

    step_field = field if np.all(live) else held
    w = _hold(terminals, live)
    del terminals
    # an overflowing field or step is not a fault: its non-finite
    # outcome is found and typed below, so numpy warns of none
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(M, -1, -1):
            if j < M:
                t = float(nodes[j + 1])
                w, bad = _rk4_step(step_field, t, w, dt)
                if bad is not None:
                    bad = bad.reshape(members, size)[:, :inner].any(axis=1)
                    over = ~np.isfinite(w.reshape(members, size)[:, inner:])
                    for b in np.flatnonzero(bad | over.any(axis=1)):
                        if bad[b]:
                            freeze(b, NonFiniteField(
                                "field returned non-finite derivative near "
                                f"t={t}"))
                        else:
                            freeze(b, SegmentOverflow(
                                f"the offsets and constants (state entries "
                                f"{inner} to {size - 1}, past the kernels) "
                                f"overflowed float64 at entry "
                                f"{inner + over[b].argmax()} near "
                                f"t={t}; the kernels stayed below "
                                f"the escape threshold"))
                    w = _hold(w, live)
                if symmetrize is not None:
                    proj = symmetrize(w)
                    peaks = _max(np.abs(w.reshape(members, size)[:, :inner]),
                                 1)
                    gaps = _max(np.abs(w - proj).reshape(members, size), 1)
                    w = proj
                    drifted = False
                    for b, (gap, peak) in enumerate(zip(gaps.tolist(),
                                                        peaks.tolist())):
                        drift = gap / max(1.0, peak)
                        if drift > ASYMMETRY_TOL:
                            drifted = True
                            freeze(b, AsymmetryDrift(
                                f"relative asymmetry {drift:.3e} after step "
                                f"to node {j}"))
                    if drifted:
                        w = _hold(w, live)
                if None not in final:
                    break
            crossed = False
            norms = escape_norms(w.reshape(members, size), inner, weights)
            for b, norm in enumerate(norms.tolist()):
                if norm <= bound or final[b] is not None:
                    continue
                crossed = True
                freeze(b, BlowUpReport(escape_node=j, norm_at_escape=norm,
                                       threshold=threshold))
            if crossed:
                if None not in final:
                    break
                w = _hold(w, live)
            out[:, j] = w

    for outcome in final:
        if isinstance(outcome, Exception):
            raise outcome
    return [final[b] or MatrixPath(grid=grid, values=out[b])
            for b in range(members)]
