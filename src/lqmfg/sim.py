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
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyBatch, EmptyType, GridMismatch, NonFiniteState
from .master import MasterSolution
from .model import TimeGrid, ValidatedModel
from .nce import NCESolution

DEFAULT_STEPS = 4000


@dataclass(frozen=True)
class Trajectory:
    """One realization of all N+1 states, controls, and the reference path."""

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


class _NCEControls:
    """Control gains and reference-path coefficients from the NCE solution."""

    def __init__(self, sol: NCESolution):
        self.sol = sol
        model, lifted = sol.model, sol.lifted
        self.R0invB0 = np.linalg.solve(model.R0, lifted.B0_lift.T)
        self.RinvB = np.linalg.solve(model.R, lifted.B_lift.T)
        self.n = model.n
        self.mean_field = (sol.Abar, sol.Gbar, sol.mbar)

    def major(self, t: float):
        n = self.n
        G = self.R0invB0 @ self.sol.P0.interp(t)
        g = self.R0invB0 @ self.sol.s0.interp(t)
        return G[:, :n], G[:, n:], g

    def minor(self, t: float):
        n = self.n
        P = self.sol.P.interp(t)
        s = self.sol.s.interp(t)
        G = np.array([self.RinvB @ P[k] for k in range(P.shape[0])])
        g = s @ self.RinvB.T
        return G[:, :, :n], G[:, :, n:2 * n], G[:, :, 2 * n:], g


class _MasterControls:
    """Same interface, reading the quadratic-solution coefficients."""

    def __init__(self, sol: MasterSolution):
        self.sol = sol
        model = sol.model
        self.R0invB0 = np.linalg.solve(model.R0, model.B0.T)
        self.RinvB = np.linalg.solve(model.R, model.B.T)
        self.n = model.n
        self.mean_field = (sol.Abar_dag, sol.Gbar_dag, sol.mbar_dag)

    def major(self, t: float):
        n = self.n
        P0 = self.sol.Pd0.interp(t)
        s0 = self.sol.sd0.interp(t)
        G = self.R0invB0 @ P0[:n, :]
        return G[:, :n], G[:, n:], self.R0invB0 @ s0[:n]

    def minor(self, t: float):
        n = self.n
        P = self.sol.Pd.interp(t)
        s = self.sol.sd.interp(t)
        G = np.array([self.RinvB @ P[k][:n, :] for k in range(P.shape[0])])
        g = s[:, :n] @ self.RinvB.T
        return G[:, :, :n], G[:, :, n:2 * n], G[:, :, 2 * n:], g


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
    ValueError.
    """
    if N < 1:
        raise ValueError(f"population size must be at least 1, got N={N}")
    if dt is None:
        dt = model.T / DEFAULT_STEPS
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"time step must be finite and positive, got dt={dt}")
    if isinstance(sol, NCESolution):
        controls = _NCEControls(sol)
    elif isinstance(sol, MasterSolution):
        controls = _MasterControls(sol)
    else:
        raise TypeError(f"unsupported solution type {type(sol).__name__}")
    grid = sol.grid

    ratio = grid.h / dt
    if abs(ratio - round(ratio)) > 1e-9 * max(1.0, ratio) or round(ratio) < 1:
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
    dW0 = sqdt * rng0.standard_normal((S, n2))

    Li = _cov_factor(model.xi_cov)
    Xcur = np.empty((N, n))
    dW = np.empty((N, S, n2))
    for i in range(N):
        rng = _player_rng(seed, i + 1)
        Xcur[i] = model.alpha0 + Li @ rng.standard_normal(n)
        dW[i] = sqdt * rng.standard_normal((S, n2))

    Abar, Gbar, mbar = controls.mean_field
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

    x0cur = x0
    D0, D = model.D0, model.D
    for s in range(S + 1):
        t = float(times[s])
        X0_path[s] = x0cur
        X_path[:, s] = Xcur
        Z_path[s] = zbar

        if use_empirical:
            zfeed = np.concatenate(
                [Xcur[sl].mean(axis=0) if sl.stop > sl.start else zbar[k * n:(k + 1) * n]
                 for k, sl in enumerate(type_slices)])
        else:
            zfeed = zbar

        Gx0, Gz, g0 = controls.major(t)
        u0 = -(Gx0 @ x0cur + Gz @ zfeed + g0)
        Hown, Hx0, Hz, h = controls.minor(t)
        U = np.empty((N, model.n1))
        for k, sl in enumerate(type_slices):
            if sl.stop == sl.start:
                continue
            fixed = Hx0[k] @ x0cur + Hz[k] @ zfeed + h[k]
            U[sl] = -(Xcur[sl] @ Hown[k].T + fixed)
        U0_path[s] = u0
        U_path[:, s] = U

        if s == S:
            break

        xbarN = Xcur.mean(axis=0)
        drift0 = model.A0 @ x0cur + model.B0 @ u0 + model.F0 @ xbarN
        driftX = (np.einsum("nij,nj->ni", A_by_type, Xcur)
                  + U @ model.B.T + model.F @ xbarN + model.G @ x0cur)
        zdrift = Abar.interp(t) @ zbar + Gbar.interp(t) @ x0cur + mbar.interp(t)

        x0cur = x0cur + dt * drift0 + D0 @ dW0[s]
        Xcur = Xcur + dt * driftX + dW[:, s] @ D.T
        zbar = zbar + dt * zdrift
        if not (np.all(np.isfinite(x0cur)) and np.all(np.isfinite(Xcur))
                and np.all(np.isfinite(zbar))):
            raise NonFiniteState(f"state exploded at step {s + 1} (t={t + dt:.6g})")

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
        mean_path = traj.X[members].mean(axis=0)          # (S+1, n)
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
