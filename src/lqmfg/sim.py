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
Brownian increments for the chunk are drawn from that player's stream,
in the same order as one draw of the whole horizon: paths do not depend
on the chunk length. Memory is O(N S (n + n1)) for the stored paths plus
O(N CHUNK_STEPS (n + n1 + n2)) for the chunk buffers.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyBatch, EmptyType, GridMismatch, NonFiniteState
from .master import MasterSolution
from .model import TimeGrid, ValidatedModel
from .nce import NCESolution
from .ode import TIME_SLACK

DEFAULT_STEPS = 4000
# Steps marched per chunk of the simulation loop; the chunk buffers hold
# N * CHUNK_STEPS * (n + n1 + n2) floats.
CHUNK_STEPS = 256


@dataclass(frozen=True)
class Trajectory:
    """One realization of all N+1 states, controls, and the reference path.

    Minor players are listed type by type: `types` is non-decreasing.
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

    def __post_init__(self):
        if np.any(np.diff(self.types) < 0):
            raise ValueError("minor players are not listed type by type")
        for name in ("X0", "X", "Zbar", "U0", "U"):
            arr = getattr(self, name)
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains non-finite entries")
            arr.setflags(write=False)

    @property
    def N(self) -> int:
        return self.X.shape[0]

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
    def sup_per_type(self) -> np.ndarray:
        return self.per_type.max(axis=1)

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


def _player_rng(seed: int, player: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=[seed, player]))


def _cov_factor(cov: np.ndarray) -> np.ndarray:
    """Symmetric square-root factor; tolerates singular covariances."""
    w, V = np.linalg.eigh(cov)
    return V * np.sqrt(np.clip(w, 0.0, None))


def _nce_gains(sol: NCESolution, times: np.ndarray):
    """Feedback gains and reference-path coefficients of an NCE solution,
    stacked along a leading axis over `times`.

    Returns (G0, g0, G, g, mean_field): the major control is
    -(G0 @ (x0, z) + g0), a type-k minor's is -(G[:, k] @ (x, x0, z) + g[:, k]),
    and mean_field = (Abar, Gbar, mbar) drive the reference path.
    """
    model, lifted = sol.model, sol.lifted
    R0invB0 = np.linalg.solve(model.R0, lifted.B0_lift.T)
    RinvB = np.linalg.solve(model.R, lifted.B_lift.T)
    G0 = R0invB0 @ sol.P0.interp(times)
    # offsets as stacked columns: one matrix-vector product per time, the
    # same BLAS call (and rounding) as for a single time
    g0 = (R0invB0 @ sol.s0.interp(times)[:, :, None])[:, :, 0]
    G = RinvB @ sol.P.interp(times)
    g = sol.s.interp(times) @ RinvB.T
    return G0, g0, G, g, (sol.Abar.interp(times), sol.Gbar.interp(times),
                          sol.mbar.interp(times))


def _master_gains(sol: MasterSolution, times: np.ndarray):
    """Same as _nce_gains, read from the quadratic-solution coefficients."""
    model = sol.model
    n = model.n
    R0invB0 = np.linalg.solve(model.R0, model.B0.T)
    RinvB = np.linalg.solve(model.R, model.B.T)
    G0 = R0invB0 @ sol.Pd0.interp(times)[:, :n, :]
    g0 = (R0invB0 @ sol.sd0.interp(times)[:, :n, None])[:, :, 0]
    G = RinvB @ sol.Pd.interp(times)[:, :, :n, :]
    g = sol.sd.interp(times)[:, :, :n] @ RinvB.T
    return G0, g0, G, g, (sol.Abar_dag.interp(times),
                          sol.Gbar_dag.interp(times),
                          sol.mbar_dag.interp(times))


def _march_chunk(model, coefficients, dW0, dW, state, buffers, c0, S, dt,
                 times, type_slices, A_by_type, use_empirical):
    """Euler-Maruyama steps over the nodes of one chunk starting at step c0.

    Records each node's state and controls in `buffers` (major, reference
    and major-control paths, then the chunk's minor state and control
    buffers) and returns the state (x0, X, zbar) after the chunk. Kept
    apart from `simulate` so that the hot loop is a short function:
    tracemalloc's per-allocation line lookup grows with the offset into
    the function.
    """
    G0, g0, G, g, (Abar, Gbar, mbar) = coefficients
    X0_path, Z_path, U0_path, X_chunk, U_chunk = buffers
    x0cur, Xcur, zbar = state
    n = model.n
    Gx0, Gz = G0[:, :, :n], G0[:, :, n:]
    Hown, Hx0, Hz = G[..., :n], G[..., n:2 * n], G[..., 2 * n:]
    D0, D = model.D0, model.D
    for j in range(G0.shape[0]):
        s = c0 + j
        X0_path[s] = x0cur
        X_chunk[j] = Xcur
        Z_path[s] = zbar

        if use_empirical:
            zfeed = np.concatenate(
                [Xcur[sl].mean(axis=0) if sl.stop > sl.start else zbar[k * n:(k + 1) * n]
                 for k, sl in enumerate(type_slices)])
        else:
            zfeed = zbar

        u0 = -(Gx0[j] @ x0cur + Gz[j] @ zfeed + g0[j])
        U = U_chunk[j]
        for k, sl in enumerate(type_slices):
            if sl.stop == sl.start:
                continue
            fixed = Hx0[j, k] @ x0cur + Hz[j, k] @ zfeed + g[j, k]
            U[sl] = -(Xcur[sl] @ Hown[j, k].T + fixed)
        U0_path[s] = u0

        if s == S:
            break

        xbarN = Xcur.mean(axis=0)
        drift0 = model.A0 @ x0cur + model.B0 @ u0 + model.F0 @ xbarN
        driftX = (np.einsum("nij,nj->ni", A_by_type, Xcur)
                  + U @ model.B.T + model.F @ xbarN + model.G @ x0cur)
        zdrift = Abar[j] @ zbar + Gbar[j] @ x0cur + mbar[j]

        x0cur = x0cur + dt * drift0 + D0 @ dW0[j]
        Xcur = Xcur + dt * driftX + dW[j] @ D.T
        zbar = zbar + dt * zdrift
        if not (np.isfinite(x0cur).all() and np.isfinite(Xcur).all()
                and np.isfinite(zbar).all()):
            t = float(times[s])
            raise NonFiniteState(f"state exploded at step {s + 1} (t={t + dt:.6g})")
    return x0cur, Xcur, zbar


def simulate(model: ValidatedModel, N: int, sol, dt: float = None,
             seed: int = 0, type_counts=None,
             use_empirical: bool = False) -> Trajectory:
    """Euler-Maruyama closed-loop run of the major player and N minors.

    sol is a solved NCESolution or MasterSolution on this model; its grid
    spacing must be an integer multiple of dt. Initial states are drawn
    from the configured means and covariances, one counter-based stream
    per player (initial draw first, then the Brownian increments).
    use_empirical makes the feedback read the per-type empirical means
    instead of the reference path (off by default: the limit strategies
    are decentralized). N < 1 and a non-finite or non-positive dt raise
    ValueError; a state that stops being finite raises NonFiniteState
    naming the step.

    Noise is drawn per chunk of CHUNK_STEPS steps from the same streams,
    so paths do not depend on the chunk length. Memory is O(N S (n + n1))
    for the stored paths plus O(N CHUNK_STEPS (n + n1 + n2)) for the
    chunk's noise and path buffers.
    """
    if N < 1:
        raise ValueError(f"population size must be at least 1, got N={N}")
    if dt is None:
        dt = model.T / DEFAULT_STEPS
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"time step must be finite and positive, got dt={dt}")
    if isinstance(sol, NCESolution):
        gains = _nce_gains
    elif isinstance(sol, MasterSolution):
        gains = _master_gains
    else:
        raise TypeError(f"unsupported solution type {type(sol).__name__}")
    grid = sol.grid

    ratio = grid.h / dt
    if abs(ratio - round(ratio)) > TIME_SLACK * max(1.0, ratio) or round(ratio) < 1:
        raise GridMismatch(f"dt={dt} does not divide the grid spacing {grid.h}")
    S = grid.M * int(round(ratio))

    if type_counts is None:
        type_counts = default_type_counts(model, N)
    type_counts = np.asarray(type_counts, dtype=np.int64)
    if type_counts.shape != (model.K,) or type_counts.sum() != N or np.any(type_counts < 0):
        raise ValueError(f"type counts {type_counts} do not partition N={N}")
    types = np.repeat(np.arange(1, model.K + 1), type_counts)

    n, n2, K = model.n, model.n2, model.K
    sqdt = math.sqrt(dt)

    rng0 = _player_rng(seed, 0)
    L0 = _cov_factor(model.x0_cov)
    x0 = model.x0_mean + L0 @ rng0.standard_normal(n)

    Li = _cov_factor(model.xi_cov)
    Xcur = np.empty((N, n))
    rngs = [_player_rng(seed, i + 1) for i in range(N)]
    for i, rng in enumerate(rngs):
        Xcur[i] = model.alpha0 + Li @ rng.standard_normal(n)

    zbar = np.tile(model.alpha0, K)

    A_by_type = model.A[types - 1]               # (N, n, n)
    type_slices = []
    start = 0
    for c in type_counts:
        type_slices.append(slice(start, start + int(c)))
        start += int(c)

    times = np.arange(S + 1) * dt
    X0_path = np.empty((S + 1, n))
    X_path = np.empty((N, S + 1, n))
    Z_path = np.empty((S + 1, n * K))
    U0_path = np.empty((S + 1, model.n1))
    U_path = np.empty((N, S + 1, model.n1))
    rows = min(CHUNK_STEPS, S + 1)
    noise = np.empty((rows, N, n2))
    X_chunk = np.empty((rows, N, n))
    U_chunk = np.empty((rows, N, model.n1))

    state = (x0, Xcur, zbar)
    for c0 in range(0, S + 1, CHUNK_STEPS):
        coefficients = gains(sol, times[c0:c0 + CHUNK_STEPS])
        increments = min(c0 + CHUNK_STEPS, S) - c0
        dW0 = sqdt * rng0.standard_normal((increments, n2))
        dW = noise[:increments]
        for i, rng in enumerate(rngs):
            dW[:, i] = sqdt * rng.standard_normal((increments, n2))
        nodes = min(CHUNK_STEPS, S + 1 - c0)
        state = _march_chunk(model, coefficients, dW0, dW, state,
                             (X0_path, Z_path, U0_path, X_chunk, U_chunk),
                             c0, S, dt, times, type_slices, A_by_type,
                             use_empirical)
        X_path[:, c0:c0 + nodes] = X_chunk[:nodes].transpose(1, 0, 2)
        U_path[:, c0:c0 + nodes] = U_chunk[:nodes].transpose(1, 0, 2)

    return Trajectory(model=model, grid=grid, dt=dt, seed=seed, types=types,
                      times=times, X0=X0_path, X=X_path, Zbar=Z_path,
                      U0=U0_path, U=U_path)


def empirical_mean_error(traj: Trajectory) -> MeanFieldError:
    """Per-node distance between each type's empirical mean and its
    reference component."""
    model = traj.model
    n, K = model.n, model.K
    S1 = traj.times.shape[0]
    errors = np.empty((K, S1))
    for k in range(1, K + 1):
        members = traj.type_members(k)
        if members.size == 0:
            raise EmptyType(f"no players of type {k} in the trajectory")
        # a type's players are consecutive rows: a slice reads them
        # without copying their paths
        mean_path = traj.X[members[0]:members[-1] + 1].mean(axis=0)  # (S+1, n)
        ref = traj.Zbar[:, (k - 1) * n:k * n]
        errors[k - 1] = np.linalg.norm(mean_path - ref, axis=1)
    return MeanFieldError(per_type=errors, times=traj.times)


def _single_cost(model: ValidatedModel, traj: Trajectory, player: int) -> float:
    dt = traj.dt
    times = traj.times
    disc = np.exp(-model.rho * times)
    xbarN = traj.X.mean(axis=0)                           # (S+1, n)

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


def evaluate_cost(model: ValidatedModel, trajectories, player: int) -> CostEstimate:
    """Discounted cost of one player averaged over a trajectory batch.

    Running cost by trapezoidal quadrature on the simulation step, plus
    the discounted terminal term; batch statistics use compensated
    summation so the result is independent of accumulation order.
    """
    trajectories = list(trajectories)
    if not trajectories:
        raise EmptyBatch("cost estimation needs at least one trajectory")
    costs = [_single_cost(model, traj, player) for traj in trajectories]
    m = len(costs)
    mean = math.fsum(costs) / m
    if m > 1:
        var = math.fsum((c - mean) ** 2 for c in costs) / (m - 1)
        se = math.sqrt(var / m)
    else:
        se = 0.0
    return CostEstimate(player=player, mean=mean, std_error=se, samples=m)
