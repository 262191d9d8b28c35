"""Monte Carlo simulation of the N+1-player closed loop.

Trajectories follow the actual finite-population dynamics (each minor is
driven by the true empirical average of all minors), while the feedback
controls are the decentralized limit strategies, which read the reference
mean-field path instead of the empirical average. The reference path is
co-integrated alongside with a plain Euler rule on the same step so that
a noise-free population reproduces it to rounding accuracy.

Noise streams are counter-based and keyed by (seed, player id): adding
players never perturbs the increments of existing ones, which is what
makes the across-N convergence measurements clean.

The step loop runs in chunks of CHUNK_STEPS steps. At the start of a
chunk the feedback gains and reference-path coefficients are
interpolated at all of its step times at once, and each player's
Brownian increments for the chunk are drawn from that player's stream
as one contiguous row of a player-major buffer, in the same order as one
draw of the whole horizon: paths do not depend on the chunk length. The
increments are then transformed by the noise matrices for the whole
chunk in one product each, written node-major into the next nodes'
state slots, and the states are checked for finiteness once per chunk.
Within a step, products of one shape are batched: the major's and every
type's gains on x0, on z and their offsets are (K+1)-member stacks built
once per chunk, so one matmul gives all their terms, and the drift's
products with x0 and with the minors' mean are two-member stacks. Each
member of a batched matmul is the BLAS call it would be alone, so every
float operation of a step is the one a step-by-step loop would do, and
paths are bit for bit those of such a loop.

When n = n1 = 1, for any K and n2 (the step never reads the noise
matrices), simulate takes the scalar step (_scalar_chunk) instead of
that matrix step (_march_chunk), chosen once per run. It makes the same
float operations with x0, the reference path z and the major's and
every type's control terms as Python floats, in their order: a 1 x 1
matmul is `a * b + 0.0`, since matmul adds its one product to +0.0, and
a 1 x 1 np.dot the bare `a * b`. The gains on z and Abar @ z stay numpy
matmuls when K >= 2, as their K-term sums are BLAS's, whose order
Python cannot reproduce, and the minors' N-row work stays the same
numpy calls. A numpy call on a 1-element array costs 0.35-1.3 us and a
Python float operation about 25 ns; the scalar step makes 14 numpy calls
at K = 1 and 22 at K = 2 where the matrix step makes 32 and 34.

The estimators read per-node sums of the minors' states, per type and
over all minors, so they need no stored path. The sum over all minors
is the one the step loop takes for the empirical mean, written where
the loop makes it; the per-type sums are reduced after each chunk from
the node-major block, as the loop reduces it. A caller chooses how many
leading minors' paths are stored (all by default). Memory is
O(keep S (n + n1) + K S n) for the stored paths and sums plus
O(N CHUNK_STEPS (n + n2)) for the chunk buffers and O(N n1) for the one
control row the steps reuse; a run whose estimate (simulation_bytes)
exceeds MEMORY_BUDGET is refused before anything is allocated.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyBatch, EmptyType, GridMismatch, NonFiniteState
from .master import MasterSolution, master_gains
from .model import TimeGrid, ValidatedModel, _is_integer, check_population
from .nce import NCESolution, nce_gains
from .ode import ESTIMATE_SLACK, MEMORY_BUDGET, TIME_SLACK, check_budget

DEFAULT_STEPS = 4000
# Steps marched per chunk of the simulation loop; the chunk buffers hold
# about N * CHUNK_STEPS * (n + n2) floats.
CHUNK_STEPS = 256
# One player's noise stream, a Philox generator and its list slot: 609
# bytes by the tracemalloc slope of 300 -> 900 generators, 630 by the RSS
# growth of 10^5 used generators in a fresh process (numpy 2.4.6, Python
# 3.11); rounded up. A simulation's bytes (simulation_bytes) are held to
# ode.MEMORY_BUDGET.
STREAM_BYTES = 640


@dataclass(frozen=True)
class Trajectory:
    """One realization of the N+1-player closed loop and the reference path.

    Minor players are listed type by type: `types` is non-decreasing and
    holds all N of them. `X` and `U` hold the paths of the leading
    minors that were kept (all N by default). `minor_sum[j]` is bit for
    bit `np.add.reduce(B, 0)` of node j's minors as one C-contiguous
    (N, n) block B, and `type_sums[k, j]` that of B's rows of type k+1:
    over their counts, the empirical means the closed loop read at j.
    """

    model: ValidatedModel
    grid: TimeGrid
    dt: float
    seed: int
    types: np.ndarray
    times: np.ndarray
    X0: np.ndarray
    X: np.ndarray
    Zbar: np.ndarray
    U0: np.ndarray
    U: np.ndarray
    type_sums: np.ndarray
    minor_sum: np.ndarray

    def __post_init__(self):
        if np.any(np.diff(self.types) < 0):
            raise ValueError("minor players are not listed type by type")
        for name in ("X0", "X", "Zbar", "U0", "U", "type_sums", "minor_sum"):
            arr = getattr(self, name)
            # one player's path at a time: a boolean copy of a whole
            # (N, S+1, n) path would set the simulation's memory peak
            players = arr.reshape((-1,) + arr.shape[-2:])
            if not all(np.isfinite(path).all() for path in players):
                raise ValueError(f"{name} contains non-finite entries")
            arr.setflags(write=False)

    @property
    def N(self) -> int:
        return self.types.shape[0]

    @property
    def steps(self) -> int:
        return self.times.shape[0] - 1

    def type_members(self, kappa: int) -> np.ndarray:
        return np.nonzero(self.types == kappa)[0]


@dataclass(frozen=True)
class CostEstimate:
    """Batch-averaged discounted cost of one player."""

    player: int
    mean: float
    std_error: float
    samples: int


@dataclass(frozen=True)
class MeanFieldError:
    """Distance between per-type empirical means and the reference path."""

    per_type: np.ndarray      # (K, S+1) euclidean errors per node
    times: np.ndarray

    @property
    def sup(self) -> float:
        return float(self.per_type.max())


def default_type_counts(model: ValidatedModel, N: int) -> np.ndarray:
    """Deterministic counts closest to pi*N (largest-remainder rounding)."""
    raw = model.pi * N
    counts = np.floor(raw).astype(np.int64)
    short = N - int(counts.sum())
    if short > 0:
        order = np.argsort(-(raw - counts))
        counts[order[:short]] += 1
    return counts


def check_type_counts(model: ValidatedModel, N: int, counts=None) -> np.ndarray:
    """The minors' per-type counts as int64, default_type_counts(model, N)
    when None; ValueError unless they are K non-negative integers (ints or
    numpy integers, not bools) summing to N."""
    if counts is None:
        counts = default_type_counts(model, N)
    else:
        values = np.asarray(counts, dtype=object)
        for value in values.flat:
            if not _is_integer(value):
                if isinstance(value, np.generic):
                    value = value.item()
                raise ValueError(f"type count {value!r} is not an integer")
        counts = values.astype(np.int64)
    if counts.shape != (model.K,) or counts.sum() != N or np.any(counts < 0):
        raise ValueError(f"type counts {counts} do not partition N={N}")
    return counts


def check_every_type(counts: np.ndarray) -> None:
    """EmptyType unless every type has a player, as the per-type
    empirical-mean error needs."""
    empty = np.flatnonzero(counts == 0)
    if empty.size:
        raise EmptyType(f"no players of type {empty[0] + 1} at "
                        f"N={int(counts.sum())} (type counts "
                        f"{','.join(str(int(c)) for c in counts)})")


def check_seed(seed) -> int:
    """`seed` as an int; ValueError unless it is an integer (not a bool)
    in [0, 2**64), the range of a Philox key word."""
    if not (_is_integer(seed) and 0 <= seed < 2 ** 64):
        raise ValueError(f"seed must be an integer in [0, 2**64), got {seed}")
    return int(seed)


def _player_rng(seed: int, player: int) -> "np.random.Generator":
    # a uint64 key: a list would turn a seed past int64's range into a float
    key = np.array([seed, player], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _cov_factor(cov: np.ndarray) -> np.ndarray:
    """Symmetric square-root factor; tolerates singular covariances."""
    w, V = np.linalg.eigh(cov)
    return V * np.sqrt(np.clip(w, 0.0, None))


def simulation_bytes(model: ValidatedModel, N: int, S: int,
                     keep: int = None) -> int:
    """Bytes `simulate` allocates for N minors over S steps when it stores
    the paths of `keep` of them (all when None): the stored paths and
    per-node sums; the chunk's interpolated gains and reference-path
    coefficients, their copies as the march's (K+1)-member stacks of the
    gains on x0 and on z and the offsets (at n = n1 = 1, the scalar
    step's rows of floats, which add each type's own gain, Gbar and mbar,
    and at K = 1 the gains on z and Abar), and the interpolation's
    temporaries: three copies of the largest state it reads (the K
    kernels of side d1 = n(K+2)) and eight floats per node of times,
    indices and weights; per player, the chunk buffers, the control row,
    its rows of the gathered type matrices A (n^2 floats) and of the step
    loop's two (N, n) scratch arrays, the finiteness mask of a chunk's
    states (one byte per float) and the noise stream; and ode.ESTIMATE_SLACK."""
    n, n1, n2, K = model.n, model.n1, model.n2, model.K
    keep = N if keep is None else keep
    steps, nodes = min(CHUNK_STEPS, S), min(CHUNK_STEPS, S + 1)
    d0, d1, nK = n * (K + 1), n * (K + 2), n * K
    paths = (S + 1) * (1 + 3 * n + 2 * n * K + n1 + keep * (n + n1))
    # G0, g0, G, g, Abar, Gbar, mbar and the stacks of G0, G and g0, g
    # (or the scalar step's rows) at each of the chunk's nodes
    rows = 3 * K + 3 if n == n1 == 1 else 0
    coeffs = nodes * (n1 * (d0 + 1) + K * n1 * (d1 + 1) + nK * (nK + n + 1)
                      + (K + 1) * n1 * (n + nK + 1) + rows
                      + 3 * K * d1 * d1 + 8)
    chunk = N * (steps * n2 + (steps + 1) * n + n1 + n * n + 2 * n)
    return (8 * (paths + coeffs + chunk) + N * (steps * n + STREAM_BYTES)
            + ESTIMATE_SLACK)


def simulation_steps(model: ValidatedModel, grid: TimeGrid, N: int,
                     dt: float = None, keep: int = None):
    """Check a simulation's size and step before anything is allocated;
    return (dt, S), the step (model.T / DEFAULT_STEPS when None) and the
    number of steps over the grid.

    An N that check_population refuses, a count `keep` of stored paths
    (N when None) that is not an integer in [0, N], and a non-finite or
    non-positive dt raise ValueError, a grid whose horizon is not model.T,
    or a dt that does not divide the grid spacing or is so small that the
    spacing over it overflows, raises GridMismatch, and a run whose
    simulation_bytes exceed MEMORY_BUDGET raises NTooLargeForMemory.
    """
    check_population(N)
    grid.require_horizon(model.T)
    if keep is not None and not (_is_integer(keep) and 0 <= keep <= N):
        raise ValueError(f"the number of stored paths must be an integer "
                         f"in [0, N={N}], got {keep!r}")
    if dt is None:
        dt = model.T / DEFAULT_STEPS
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"time step must be finite and positive, got dt={dt}")
    ratio = grid.h / dt
    if not math.isfinite(ratio):
        raise GridMismatch(f"dt={dt} is too small for the grid spacing "
                           f"{grid.h}: their ratio overflows")
    if abs(ratio - round(ratio)) > TIME_SLACK * max(1.0, ratio) or round(ratio) < 1:
        raise GridMismatch(f"dt={dt} does not divide the grid spacing {grid.h}")
    S = grid.M * int(round(ratio))
    check_budget(f"simulating N={N} players over {S} steps",
                 simulation_bytes(model, N, S, keep))
    return dt, S


def _right_factor(b):
    """(op, c) with op(a, c, out=out) the product a @ b, b with its inner
    dimension on axis -2. When that dimension is 1 the product has no sum
    and op is a broadcast multiply by b's one row, without a BLAS call;
    else op is np.matmul and c is b. numpy's matmul adds that single
    product to +0.0, so the two differ only where it gives -0.0 for +0.0,
    and -0.0 + y is y for every y but -0.0. Every caller adds the result
    to a value that is never -0.0, or reaches the state only through
    x + dt * drift, which is -0.0 only if the state x is, and no state is
    (the first is a mean plus a matmul sum, each later one an increment
    plus such an x + dt * drift). So their sums agree bit for bit."""
    if b.shape[-2] == 1:
        return np.multiply, b[..., 0, :]
    return np.matmul, b


def _march_chunk(model, coefficients, buffers, c0, S, dt, times,
                 type_slices, A_by_type, use_empirical):
    """Euler-Maruyama steps over the nodes of one chunk starting at step c0.

    The state at node c0 is in X0_path[c0], Z_path[c0] and X_chunk[0],
    and the later nodes' slots of X0_path and X_chunk hold their step's
    noise increment. The loop records each node's controls (the minors'
    in the one row U, the kept ones' also in U_path) and its minors' state
    sum (into minor_sum), and adds the rest of the step into the next
    node's slots; `drift` and `scratch` are (N, n) scratch arrays. States
    are checked once, after the loop: the first non-finite node raises
    NonFiniteState naming its step (a non-finite state stays non-finite,
    so that is the step a per-step check would name). Kept apart from
    `simulate` so that the hot loop is a short function: tracemalloc's
    per-allocation line lookup grows with the offset into the function.

    A step makes few numpy calls: products of one shape are the members
    of one batched matmul, and a matmul loops over its members with the
    BLAS call (or the plain loop) each would get alone, so every member
    is bitwise that product. At the start of the chunk the gains on x0,
    on z and the offsets become (K+1)-member stacks, member 0 the major's
    and member k + 1 type k's, so that one matmul each gives the major's
    and every type's terms. A0 and G (on x0) and F0 and F (on the minors'
    mean) are stacks of two. Products with an inner dimension of 1 are
    multiplies (_right_factor), the own drift too when n = 1, chosen once
    per chunk. Rows of different products are never stacked into one 2-d
    product: that would change which BLAS call makes each row, and with
    it the rounding.

    A 2-d by 1-d product added to a partial sum that is never -0.0 is
    np.dot, which is cheaper to call than `@` and bitwise the same there.
    Every operand has a unit stride in one axis (it is C- or
    F-contiguous, or a column slice of a C-contiguous array); np.dot
    copies an operand strided in both axes, and may then round
    differently. For a 1 x 1 matrix it returns the bare product, which
    can be -0.0 where `@` adds it to +0.0, so the first product of each
    sum stays a matmul.
    """
    G0, g0, G, g, (Abar, Gbar, mbar) = coefficients
    (X0_path, Z_path, U0_path, U_path, minor_sum, X_chunk, U, drift,
     scratch) = buffers
    n, N = model.n, X_chunk.shape[1]
    U_kept = U[:U_path.shape[0]]
    gains_x0 = np.concatenate([G0[:, None, :, :n], G[..., n:2 * n]], axis=1)
    gains_z = np.concatenate([G0[:, None, :, n:], G[..., 2 * n:]], axis=1)
    offsets = np.concatenate([g0[:, None], g], axis=1)
    on_x0 = np.stack([model.A0, model.G])
    on_mean = np.stack([model.F0, model.F])
    B0 = model.B0
    # a step's products with the stacks, and their members, bound once
    terms = np.empty(offsets.shape[1:])
    major = terms[0]
    by_x0, by_mean = np.empty((2, n)), np.empty((2, n))
    A0x0, Gx0 = by_x0
    F0xbar, Fxbar = by_mean
    # a 0-d array is cheaper to broadcast than a Python number, to the
    # same float64 product
    dt_a, N_a = np.array(dt), np.array(float(N))
    input_op, BT = _right_factor(model.B.T)
    if n == 1:
        own_op, A_own = np.multiply, A_by_type[:, 0]
    else:
        own_op, A_own = functools.partial(np.einsum, "nij,nj->ni"), A_by_type
    # the types that have players: (their member's terms, rows, control
    # rows, own-gain product)
    present = [(terms[k + 1], sl, U[sl])
               + _right_factor(np.swapaxes(G[:, k, :, :n], -1, -2))
               for k, sl in enumerate(type_slices) if sl.stop > sl.start]
    steps = min(G0.shape[0], S - c0)
    last = S - c0
    # each node's rows of the chunk's coefficients, states and outputs
    rows = zip(gains_x0, gains_z, offsets, Abar, Gbar, mbar, X_chunk,
               X0_path[c0:], Z_path[c0:], U0_path[c0:],
               U_path.swapaxes(0, 1)[c0:], minor_sum[c0:])
    with np.errstate(over="ignore", invalid="ignore"):
        for j, (gx, gz, go, abar, gbar, mb, Xcur, x0cur, zbar, u0, ukept,
                xsum) in enumerate(rows):
            if use_empirical:
                zfeed = np.concatenate(
                    [np.add.reduce(Xcur[sl], 0) / (sl.stop - sl.start)
                     if sl.stop > sl.start else zbar[k * n:(k + 1) * n]
                     for k, sl in enumerate(type_slices)])
            else:
                zfeed = zbar

            # the major's and every type's terms on x0 and z, one member
            # each
            np.matmul(gx, x0cur, out=terms)
            terms += gz @ zfeed
            terms += go
            np.negative(major, out=u0)
            for fixed, sl, Uk, op, H in present:
                op(Xcur[sl], H[j], out=Uk)
                Uk += fixed
            np.negative(U, out=U)
            ukept[...] = U_kept
            np.add.reduce(Xcur, 0, out=xsum)

            if j == last:
                break

            xbarN = xsum / N_a
            np.matmul(on_x0, x0cur, out=by_x0)
            np.matmul(on_mean, xbarN, out=by_mean)
            drift0 = A0x0 + np.dot(B0, u0)
            drift0 += F0xbar
            own_op(A_own, Xcur, out=drift)
            drift += input_op(U, BT, out=scratch)
            drift += Fxbar
            drift += Gx0
            zdrift = abar @ zbar + np.dot(gbar, x0cur) + mb

            # the next slots hold the noise: noise + (x + dt * drift) is
            # the per-step (x + dt * drift) + noise, bit for bit
            s = c0 + j
            x0next, Xnext = X0_path[s + 1], X_chunk[j + 1]
            x0next += x0cur + dt_a * drift0
            drift *= dt_a
            drift += Xcur
            Xnext += drift
            np.add(zbar, dt_a * zdrift, out=Z_path[s + 1])

        finite = (np.isfinite(X0_path[c0 + 1:c0 + steps + 1]).all(axis=1)
                  & np.isfinite(X_chunk[1:steps + 1]).all(axis=(1, 2))
                  & np.isfinite(Z_path[c0 + 1:c0 + steps + 1]).all(axis=1))
    if not finite.all():
        s = c0 + int(np.argmin(finite))
        t = float(times[s])
        raise NonFiniteState(f"state exploded at step {s + 1} (t={t + dt:.6g})")


def _scalar_chunk(model, coefficients, buffers, c0, S, dt, times,
                  type_slices, A_by_type, use_empirical):
    """_march_chunk's steps at n = n1 = 1, bit for bit, with x0, the
    reference path z and the major's and every type's control terms as
    Python floats, by the rules of the module docstring (the argument
    for `+ 0.0` is _right_factor's). Each node's coefficients are one row
    of floats, built once per chunk and read with one tolist; x0, z and
    the minors' sums are read, and x0, z and u0 written, through
    memoryviews of their paths. States are checked once per chunk, as
    _march_chunk checks them.
    """
    G0, g0, G, g, (Abar, Gbar, mbar) = coefficients
    (X0_path, Z_path, U0_path, U_path, minor_sum, X_chunk, U, drift,
     scratch) = buffers
    N, K = X_chunk.shape[1], model.K
    a0, b0, f0, f, gx0 = (float(m[0, 0]) for m in (
        model.A0, model.B0, model.F0, model.F, model.G))
    U_kept = U[:U_path.shape[0]]
    dt_a = np.array(dt)
    A_own, BT = A_by_type[:, 0], model.B.T[0]
    x0_mv, u0_mv = memoryview(X0_path[:, 0]), memoryview(U0_path[:, 0])
    z_mv, sum_mv = memoryview(Z_path), memoryview(minor_sum[:, 0])
    # each node's row: the K + 1 members' gains on x0, then their offsets
    # (member 0 the major's, member k + 1 type k's), the K types' own
    # gains, Gbar and mbar, and at K = 1 the members' gains on z and Abar
    gains_z = np.concatenate([G0[:, None, :, 1:], G[..., 2:]], axis=1)
    parts = [G0[:, :, 0], G[:, :, 0, 1], g0, g[:, :, 0], G[:, :, 0, 0],
             Gbar[:, :, 0], mbar]
    if K == 1:
        parts += [gains_z[:, :, 0, 0], Abar[:, 0]]
    offset, own = K + 1, 2 * K + 2
    gbar, mb, z_gain = own + K, own + 2 * K, own + 3 * K
    present = [(k, sl, U[sl]) for k, sl in enumerate(type_slices)
               if sl.stop > sl.start]
    last = S - c0
    x0, z = x0_mv[c0], Z_path[c0].tolist()
    rows = zip(np.concatenate(parts, axis=1), gains_z, Abar, X_chunk,
               U_path.swapaxes(0, 1)[c0:], minor_sum[c0:])
    with np.errstate(over="ignore", invalid="ignore"):
        for j, (row, gz, abar, Xcur, ukept, xsum) in enumerate(rows):
            s = c0 + j
            r = row.tolist()
            if use_empirical:
                zfeed = [np.add.reduce(Xcur[sl], 0).item()
                         / (sl.stop - sl.start) if sl.stop > sl.start
                         else z[k] for k, sl in enumerate(type_slices)]
            else:
                zfeed = z
            if K == 1:
                on_z = [r[z_gain] * zfeed[0] + 0.0,
                        r[z_gain + 1] * zfeed[0] + 0.0]
            else:
                on_z = (gz @ np.array(zfeed))[:, 0].tolist()
            u0 = -(r[0] * x0 + 0.0 + on_z[0] + r[offset])
            u0_mv[s] = u0
            for k, sl, Uk in present:
                np.multiply(Xcur[sl], r[own + k], out=Uk)
                Uk += r[k + 1] * x0 + 0.0 + on_z[k + 1] + r[offset + k + 1]
            np.negative(U, out=U)
            ukept[...] = U_kept
            np.add.reduce(Xcur, 0, out=xsum)

            if j == last:
                break

            xbar = sum_mv[s] / N
            drift0 = a0 * x0 + 0.0 + b0 * u0 + (f0 * xbar + 0.0)
            np.multiply(A_own, Xcur, out=drift)
            drift += np.multiply(U, BT, out=scratch)
            drift += f * xbar + 0.0
            drift += gx0 * x0 + 0.0
            # z + dt * (Abar @ z + Gbar x0 + mbar) reads this node's x0,
            # so z steps before x0
            if K == 1:
                z = [z[0] + dt * (r[z_gain + 2] * z[0] + 0.0 + r[gbar] * x0
                                  + r[mb])]
                z_mv[s + 1, 0] = z[0]
            else:
                z = [zk + dt * (a + c * x0 + d) for zk, a, c, d in
                     zip(z, (abar @ np.array(z)).tolist(), r[gbar:mb],
                         r[mb:z_gain])]
                for k, zk in enumerate(z):
                    z_mv[s + 1, k] = zk
            x0 = x0_mv[s + 1] + (x0 + dt * drift0)
            x0_mv[s + 1] = x0
            drift *= dt_a
            drift += Xcur
            X_chunk[j + 1] += drift

        steps = min(G0.shape[0], last)
        finite = (np.isfinite(X0_path[c0 + 1:c0 + steps + 1]).all(axis=1)
                  & np.isfinite(X_chunk[1:steps + 1]).all(axis=(1, 2))
                  & np.isfinite(Z_path[c0 + 1:c0 + steps + 1]).all(axis=1))
    if not finite.all():
        s = c0 + int(np.argmin(finite))
        t = float(times[s])
        raise NonFiniteState(f"state exploded at step {s + 1} (t={t + dt:.6g})")


def simulate(sol, N: int, dt: float = None, seed: int = 0, type_counts=None,
             use_empirical: bool = False, keep: int = None) -> Trajectory:
    """Euler-Maruyama closed-loop run of the major player and N minors.

    sol is a solved NCESolution or MasterSolution of sol.model; its grid
    spacing must be an integer multiple of dt. Initial states are drawn
    from the configured means and covariances, one counter-based stream
    per player (initial draw first, then the Brownian increments).
    use_empirical makes the feedback read the per-type empirical means
    instead of the reference path (off by default: the limit strategies
    are decentralized). `keep` is the number of leading minors whose
    paths the Trajectory stores (all N when None); the per-node sums the
    estimators read cover every minor, whatever `keep` is. The seed
    (check_seed), N, keep and dt (simulation_steps) and the type counts
    (check_type_counts; a type may have no players) are checked before
    anything is allocated; a state that stops being finite raises
    NonFiniteState naming the first non-finite step (states are checked
    once per chunk).

    Noise is drawn per chunk of CHUNK_STEPS steps from the same streams,
    so paths do not depend on the chunk length. Memory is
    O(keep S (n + n1) + K S n) for the stored paths and sums plus
    O(N CHUNK_STEPS (n + n2)) for the chunk buffers and O(N n1) for the
    control row, and must stay within MEMORY_BUDGET bytes (simulation_bytes).
    """
    if isinstance(sol, NCESolution):
        gains = nce_gains
    elif isinstance(sol, MasterSolution):
        gains = master_gains
    else:
        raise TypeError(f"unsupported solution type {type(sol).__name__}")
    model, grid = sol.model, sol.grid
    seed = check_seed(seed)
    dt, S = simulation_steps(model, grid, N, dt, keep)
    keep = N if keep is None else int(keep)

    type_counts = check_type_counts(model, N, type_counts)
    types = np.repeat(np.arange(1, model.K + 1), type_counts)

    n, n2, K = model.n, model.n2, model.K
    sqdt = math.sqrt(dt)
    steps = min(CHUNK_STEPS, S)
    times = np.arange(S + 1) * dt
    X0_path = np.empty((S + 1, n))
    X_path = np.empty((keep, S + 1, n))
    Z_path = np.empty((S + 1, n * K))
    U0_path = np.empty((S + 1, model.n1))
    U_path = np.empty((keep, S + 1, model.n1))
    type_sums = np.empty((K, S + 1, n))
    minor_sum = np.empty((S + 1, n))
    # player-major: each player's increments for a chunk are one
    # contiguous draw from its stream
    noise = np.empty((N, steps, n2))
    X_chunk = np.empty((steps + 1, N, n))
    U = np.empty((N, model.n1))

    rng0 = _player_rng(seed, 0)
    L0 = _cov_factor(model.x0_cov)
    X0_path[0] = model.x0_mean + L0 @ rng0.standard_normal(n)

    Li = _cov_factor(model.xi_cov)
    rngs = [_player_rng(seed, i + 1) for i in range(N)]
    for i, rng in enumerate(rngs):
        X_chunk[0, i] = model.alpha0 + Li @ rng.standard_normal(n)

    Z_path[0] = np.tile(model.alpha0, K)

    A_by_type = model.A[types - 1]               # (N, n, n)
    bounds = np.cumsum(type_counts).tolist()
    type_slices = list(map(slice, [0] + bounds[:-1], bounds))

    drift, scratch = np.empty((N, n)), np.empty((N, n))
    D0 = model.D0
    march = _scalar_chunk if n == model.n1 == 1 else _march_chunk
    noise_op, DT = _right_factor(model.D.T)
    for c0 in range(0, S + 1, CHUNK_STEPS):
        increments = min(c0 + CHUNK_STEPS, S) - c0
        dW0 = sqdt * rng0.standard_normal((increments, n2))
        dW = noise[:, :increments]
        for rng, row in zip(rngs, dW):
            rng.standard_normal(out=row)
        dW *= sqdt
        # each step's increments, transformed by the same per-step
        # products as one call: D0 @ dW0[j] and dW[:, j] @ D.T
        X0_path[c0 + 1:c0 + increments + 1] = (D0 @ dW0[:, :, None])[:, :, 0]
        noise_op(dW.transpose(1, 0, 2), DT, out=X_chunk[1:increments + 1])
        nodes = min(CHUNK_STEPS, S + 1 - c0)
        # the chunk's gains live only through its march, so the next
        # chunk's are interpolated without them
        march(model, gains(sol, times[c0:c0 + CHUNK_STEPS]),
              (X0_path, Z_path, U0_path, U_path, minor_sum, X_chunk, U,
               drift, scratch),
              c0, S, dt, times, type_slices, A_by_type, use_empirical)
        # each type's rows of each node's (N, n) block, reduced as the
        # loop reduces the whole block
        for k, sl in enumerate(type_slices):
            np.add.reduce(X_chunk[:nodes, sl], 1,
                          out=type_sums[k, c0:c0 + nodes])
        X_path[:, c0:c0 + nodes] = X_chunk[:nodes, :keep].transpose(1, 0, 2)
        X_chunk[0] = X_chunk[increments]

    return Trajectory(model=model, grid=grid, dt=dt, seed=seed, types=types,
                      times=times, X0=X0_path, X=X_path, Zbar=Z_path,
                      U0=U0_path, U=U_path, type_sums=type_sums,
                      minor_sum=minor_sum)


def empirical_mean_error(traj: Trajectory) -> MeanFieldError:
    """Per-node distance between each type's empirical mean (its per-node
    sum over its count) and its reference component."""
    model = traj.model
    n, K = model.n, model.K
    counts = np.bincount(traj.types, minlength=K + 1)[1:]
    check_every_type(counts)
    errors = np.empty((K, traj.times.shape[0]))
    for k in range(K):
        mean_path = traj.type_sums[k] / counts[k]               # (S+1, n)
        ref = traj.Zbar[:, k * n:(k + 1) * n]
        errors[k] = np.linalg.norm(mean_path - ref, axis=1)
    return MeanFieldError(per_type=errors, times=traj.times)


def _single_cost(traj: Trajectory, player: int) -> float:
    model = traj.model
    stored = traj.X.shape[0]
    if not (_is_integer(player) and 0 <= player <= stored):
        raise ValueError(f"player must be 0 (the major) or one of the "
                         f"{stored} minors whose paths are stored, "
                         f"got {player!r}")
    dt = traj.dt
    times = traj.times
    disc = np.exp(-model.rho * times)
    xbarN = traj.minor_sum / traj.N                       # (S+1, n)

    if player == 0:
        dev = traj.X0 - xbarN @ model.Gamma0.T - model.eta0
        run = (np.einsum("si,ij,sj->s", dev, model.Q0, dev)
               + np.einsum("si,ij,sj->s", traj.U0, model.R0, traj.U0))
        devT = traj.X0[-1] - model.Gamma0f @ xbarN[-1] - model.eta0f
        term = float(devT @ model.Q0f @ devT)
    else:
        i = player - 1
        Xi = traj.X[i]
        dev = Xi - traj.X0 @ model.Gamma1.T - xbarN @ model.Gamma2.T - model.eta
        Ui = traj.U[i]
        run = (np.einsum("si,ij,sj->s", dev, model.Q, dev)
               + np.einsum("si,ij,sj->s", Ui, model.R, Ui))
        devT = Xi[-1] - model.Gamma1f @ traj.X0[-1] - model.Gamma2f @ xbarN[-1] - model.etaf
        term = float(devT @ model.Qf @ devT)

    weighted = run * disc
    integral = dt * (weighted.sum() - 0.5 * (weighted[0] + weighted[-1]))
    return integral + float(disc[-1]) * term


def evaluate_cost(trajectories, player: int) -> CostEstimate:
    """Discounted cost of one player averaged over a trajectory batch.

    Player 0 is the major and player i >= 1 the i-th minor, whose path
    must be stored; any other player (a bool too) raises ValueError. Running cost by trapezoidal
    quadrature on the simulation step, plus the discounted terminal term;
    batch statistics use compensated summation so the result is
    independent of accumulation order.
    """
    return cost_estimate(player, [_single_cost(traj, player)
                                  for traj in trajectories])


def cost_estimate(player: int, costs) -> CostEstimate:
    """Mean and standard error of one player's per-trajectory costs, by
    compensated summation: independent of the order of accumulation."""
    if not costs:
        raise EmptyBatch("cost estimation needs at least one trajectory")
    m = len(costs)
    mean = math.fsum(costs) / m
    if m > 1:
        var = math.fsum((c - mean) ** 2 for c in costs) / (m - 1)
        se = math.sqrt(var / m)
    else:
        se = 0.0
    return CostEstimate(player=player, mean=mean, std_error=se, samples=m)
