"""Finite-population route for homogeneous minor players.

For K = 1 the N+1-player game has an exact feedback Nash solution through
one large coupled Riccati system. Exchangeability of the minor players
collapses that system to two representative matrices, and as N grows their
n-by-n tiles converge (after re-scaling) to a closed system of nine small
ODEs. This module builds and solves the large system (dense and
symmetry-reduced modes), solves the nine-block system, extracts the
matching blocks from the consistency-route solution, and runs the
structural and boundedness checks tying the three together.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (GridMismatch, KNotOne, NTooLargeForMemory,
                     PermutationMismatch)
from .master import DiffReport
from .model import TimeGrid, ValidatedModel
from .nce import NCESolution
from .ode import BlowUpReport, MatrixPath, integrate_backward

# Dense mode materializes (N+1) matrices of side (N+1)n; refuse beyond this.
DENSE_DIM_CAP = 2000
# Dense-vs-reduced and exchangeability disagreements beyond this are bugs.
EXCHANGE_TOL = 1e-8
# Tiles closer than this (l1, up to transpose) belong to one cluster.
TILE_TOL = 1e-8

# The nine block names shared by the small-ODE system, the consistency-route
# partition, and the scaled-tile limits. Leading "0"-superscript trio comes
# from the major player's kernel, the rest from the representative minor's.
BLOCK_KEYS = ("1_0", "2_0", "3_0", "0", "1", "2", "3", "a", "b")
_SYMMETRIC_KEYS = {"1_0", "3_0", "0", "1", "3"}

# N-scaling exponent per block: tile * N**e approaches the small-system
# block. Determined numerically (log-error regression); the convergence
# test pins the ~1/N rate.
SCALING_EXPONENTS = {"1_0": 0, "2_0": 1, "3_0": 2,
                     "0": 0, "1": 0, "a": 0, "2": 1, "b": 1, "3": 2}


def _require_k1(model: ValidatedModel):
    if model.K != 1:
        raise KNotOne(f"finite-population route needs K=1, got K={model.K}")


@dataclass(frozen=True)
class FiniteNSystem:
    """Stacked-state matrices of the N+1-player game."""

    model: ValidatedModel
    N: int
    Ahat: np.ndarray
    Ahat_rho2: np.ndarray
    Ahat_rho: np.ndarray
    M0: np.ndarray
    M: np.ndarray
    K0: np.ndarray
    K0f: np.ndarray
    Q0_big: np.ndarray
    Q0f_big: np.ndarray
    lin0: np.ndarray
    lin0_f: np.ndarray

    @property
    def dim(self) -> int:
        return (self.N + 1) * self.model.n

    def K_minor(self, i: int, final: bool = False) -> np.ndarray:
        """Deviation-weight row map of minor i (1-based block index)."""
        m = self.model
        n, N = m.n, self.N
        g1 = m.Gamma1f if final else m.Gamma1
        g2 = m.Gamma2f if final else m.Gamma2
        K = np.zeros((n, self.dim))
        K[:, :n] = -g1
        K[:, n:] = np.tile(-g2 / N, (1, N))
        K[:, i * n:(i + 1) * n] += np.eye(n)
        return K

    def Q_minor(self, i: int, final: bool = False) -> np.ndarray:
        W = self.model.Qf if final else self.model.Q
        K = self.K_minor(i, final)
        M = K.T @ W @ K
        return (M + M.T) / 2.0

    def lin_minor(self, i: int) -> np.ndarray:
        return self.K_minor(i).T @ (self.model.Q @ self.model.eta)

    def lin_minor_f(self, i: int) -> np.ndarray:
        return -self.K_minor(i, final=True).T @ (self.model.Qf @ self.model.etaf)


def assemble_finite_n(model: ValidatedModel, N: int,
                      dim_cap: int = DENSE_DIM_CAP) -> FiniteNSystem:
    """Stack the N+1 individual dynamics and costs into one state space."""
    _require_k1(model)
    if N < 1:
        raise ValueError(f"need at least one minor player, got N={N}")
    n = model.n
    d = (N + 1) * n
    if d > dim_cap:
        raise NTooLargeForMemory(f"(N+1)n = {d} exceeds cap {dim_cap}")
    A = model.A[0]

    Ahat = np.zeros((d, d))
    Ahat[:n, :n] = model.A0
    Ahat[:n, n:] = np.tile(model.F0 / N, (1, N))
    Ahat[n:, :n] = np.tile(model.G, (N, 1))
    Ahat[n:, n:] = np.kron(np.eye(N), A) + np.kron(np.ones((N, N)), model.F / N)

    K0 = np.zeros((n, d))
    K0[:, :n] = np.eye(n)
    K0[:, n:] = np.tile(-model.Gamma0 / N, (1, N))
    K0f = np.zeros((n, d))
    K0f[:, :n] = np.eye(n)
    K0f[:, n:] = np.tile(-model.Gamma0f / N, (1, N))

    Q0_big = K0.T @ model.Q0 @ K0
    Q0f_big = K0f.T @ model.Q0f @ K0f

    return FiniteNSystem(
        model=model, N=N,
        Ahat=Ahat,
        Ahat_rho2=Ahat - (model.rho / 2.0) * np.eye(d),
        Ahat_rho=Ahat - model.rho * np.eye(d),
        M0=model.B0 @ np.linalg.solve(model.R0, model.B0.T),
        M=model.B @ np.linalg.solve(model.R, model.B.T),
        K0=K0, K0f=K0f,
        Q0_big=(Q0_big + Q0_big.T) / 2.0,
        Q0f_big=(Q0f_big + Q0f_big.T) / 2.0,
        lin0=K0.T @ (model.Q0 @ model.eta0),
        lin0_f=-K0f.T @ (model.Q0f @ model.eta0f),
    )


def _swap_block_index(N: int, n: int, i: int) -> np.ndarray:
    """Index permutation exchanging state blocks of players 1 and i."""
    idx = np.arange((N + 1) * n)
    idx[n:2 * n] = np.arange(i * n, (i + 1) * n)
    idx[i * n:(i + 1) * n] = np.arange(n, 2 * n)
    return idx


@dataclass(frozen=True)
class FiniteNSolution:
    """Representative Riccati/offset paths of the N+1-player game.

    Players 2..N are recovered on demand by the block permutation swapping
    their slot with player 1's, so only the two representative paths are
    stored regardless of N.
    """

    model: ValidatedModel
    N: int
    grid: TimeGrid
    mode: str
    P0_big: MatrixPath
    P1_big: MatrixPath
    S0_big: MatrixPath
    S1_big: MatrixPath

    def P_big(self, i: int) -> MatrixPath:
        if i == 0:
            return self.P0_big
        if i == 1:
            return self.P1_big
        idx = _swap_block_index(self.N, self.model.n, i)
        return MatrixPath(self.grid, self.P1_big.values[:, idx][:, :, idx])

    def S_big(self, i: int) -> MatrixPath:
        if i == 0:
            return self.S0_big
        if i == 1:
            return self.S1_big
        idx = _swap_block_index(self.N, self.model.n, i)
        return MatrixPath(self.grid, self.S1_big.values[:, idx])

    def feedback(self, i: int, t: float, X: np.ndarray) -> np.ndarray:
        """Nash control of player i at full state X."""
        m = self.model
        n = m.n
        if i == 0:
            P = self.P0_big.interp(t)
            S = self.S0_big.interp(t)
            return -np.linalg.solve(m.R0, m.B0.T @ ((P @ X + S)[:n]))
        P = self.P1_big.interp(t)
        S = self.S1_big.interp(t)
        if i > 1:
            idx = _swap_block_index(self.N, n, i)
            P = P[idx][:, idx]
            S = S[idx]
        blk = slice(i * n, (i + 1) * n)
        return -np.linalg.solve(m.R, m.B.T @ ((P @ X + S)[blk]))


class _ReducedFields:
    """Symmetry-reduced fields: only players 0 and 1 are carried."""

    def __init__(self, sys: FiniteNSystem):
        self.sys = sys
        self.n = sys.model.n
        self.N = sys.N
        self.d = sys.dim
        self.Q1_big = sys.Q_minor(1)
        self.Q1f_big = sys.Q_minor(1, final=True)
        self.lin1 = sys.lin_minor(1)
        self.lin1_f = sys.lin_minor_f(1)

    def coupling(self, P1: np.ndarray) -> np.ndarray:
        """Sum over minors of (own-input gain) x (own Riccati matrix).

        Row-block j of minor j's matrix is row-block 1 of P1 with column
        blocks 1 and j exchanged; nothing beyond exchangeability is
        assumed.
        """
        n, N, d = self.n, self.N, self.d
        base = (self.sys.M @ P1[n:2 * n, :]).reshape(n, N + 1, n)
        W = np.zeros((d, d))
        # (row block j - 1, row in block, column block, column in block)
        rows = W[n:].reshape(N, n, N + 1, n)
        rows[:] = base
        rows[:, :, 1] = base[:, 1:].transpose(1, 0, 2)
        j = np.arange(1, N + 1)
        rows[j - 1, :, j] = base[:, 1]
        return W

    def dP(self, P0, P1, W):
        sys, n = self.sys, self.n
        Ar2 = sys.Ahat_rho2
        dP0 = (-(P0 @ Ar2 + Ar2.T @ P0)
               + P0[:, :n] @ (sys.M0 @ P0[:n, :])
               + P0 @ W + W.T @ P0 - sys.Q0_big)
        dP1 = (-(P1 @ Ar2 + Ar2.T @ P1)
               - P1[:, n:2 * n] @ (sys.M @ P1[n:2 * n, :])
               + P1[:, :n] @ (sys.M0 @ P0[:n, :])
               + P0[:, :n] @ (sys.M0 @ P1[:n, :])
               + P1 @ W + W.T @ P1 - self.Q1_big)
        return dP0, dP1

    def dS(self, P0, P1, W, S0, S1):
        sys, n, N = self.sys, self.n, self.N
        ArT = sys.Ahat_rho.T
        own = sys.M @ S1[n:2 * n]
        vS = np.concatenate([np.zeros(n), np.tile(own, N)])
        dS0 = (-ArT @ S0 + P0[:, :n] @ (sys.M0 @ S0[:n])
               + W.T @ S0 + P0 @ vS + sys.lin0)
        dS1 = (-ArT @ S1 + P0[:, :n] @ (sys.M0 @ S1[:n])
               + P1[:, :n] @ (sys.M0 @ S0[:n])
               - P1[:, n:2 * n] @ (sys.M @ S1[n:2 * n])
               + W.T @ S1 + P1 @ vS + self.lin1)
        return dS0, dS1


def _solve_reduced(sys: FiniteNSystem, grid: TimeGrid, threshold: float):
    """Players 0 and 1 only, Riccati and offsets in one pass; escape of
    the Riccati prefix comes first, then that of Riccati plus offsets."""
    red = _ReducedFields(sys)
    d = sys.dim
    sq = d * d

    def field(t, flat):
        P0 = flat[:sq].reshape(d, d)
        P1 = flat[sq:2 * sq].reshape(d, d)
        S0 = flat[2 * sq:2 * sq + d]
        S1 = flat[2 * sq + d:]
        W = red.coupling(P1)
        dP0, dP1 = red.dP(P0, P1, W)
        dS0, dS1 = red.dS(P0, P1, W, S0, S1)
        return np.concatenate([dP0.ravel(), dP1.ravel(), dS0, dS1])

    def sym(flat):
        out = flat.copy()
        for off in (0, sq):
            P = flat[off:off + sq].reshape(d, d)
            out[off:off + sq] = ((P + P.T) / 2.0).ravel()
        return out

    terminal = np.concatenate([sys.Q0f_big.ravel(), red.Q1f_big.ravel(),
                               sys.lin0_f, red.lin1_f])
    path = integrate_backward(field, terminal, grid, threshold=threshold,
                              symmetrize=sym, prefixes=(2 * sq,))
    if isinstance(path, BlowUpReport):
        return path

    Mn = grid.M + 1
    vals = path.values
    return FiniteNSolution(
        model=sys.model, N=sys.N, grid=grid, mode="symmetric",
        P0_big=MatrixPath(grid, vals[:, :sq].reshape(Mn, d, d)),
        P1_big=MatrixPath(grid, vals[:, sq:2 * sq].reshape(Mn, d, d)),
        S0_big=MatrixPath(grid, vals[:, 2 * sq:2 * sq + d].copy()),
        S1_big=MatrixPath(grid, vals[:, 2 * sq + d:].copy()),
    )


def _solve_dense(sys: FiniteNSystem, grid: TimeGrid, threshold: float):
    """All N+1 players integrated literally in one pass, Riccati prefix
    first in the escape verdict; validates the reduction."""
    N, n, d = sys.N, sys.model.n, sys.dim
    sq = d * d
    Q_big = [sys.Q0_big] + [sys.Q_minor(i) for i in range(1, N + 1)]
    Qf_big = [sys.Q0f_big] + [sys.Q_minor(i, final=True) for i in range(1, N + 1)]
    lin = [sys.lin0] + [sys.lin_minor(i) for i in range(1, N + 1)]
    lin_f = [sys.lin0_f] + [sys.lin_minor_f(i) for i in range(1, N + 1)]
    Ar2 = sys.Ahat_rho2
    ArT = sys.Ahat_rho.T

    def coupling(P):
        W = np.zeros((d, d))
        for k in range(1, N + 1):
            W[k * n:(k + 1) * n, :] = sys.M @ P[k, k * n:(k + 1) * n, :]
        return W

    def dP_all(P):
        W = coupling(P)
        dP = np.empty_like(P)
        dP[0] = (-(P[0] @ Ar2 + Ar2.T @ P[0])
                 + P[0][:, :n] @ (sys.M0 @ P[0][:n, :])
                 + P[0] @ W + W.T @ P[0] - Q_big[0])
        for i in range(1, N + 1):
            bi = slice(i * n, (i + 1) * n)
            dP[i] = (-(P[i] @ Ar2 + Ar2.T @ P[i])
                     - P[i][:, bi] @ (sys.M @ P[i][bi, :])
                     + P[i][:, :n] @ (sys.M0 @ P[0][:n, :])
                     + P[0][:, :n] @ (sys.M0 @ P[i][:n, :])
                     + P[i] @ W + W.T @ P[i] - Q_big[i])
        return dP, W

    def dS_all(P, W, S):
        vS = np.zeros(d)
        for k in range(1, N + 1):
            bk = slice(k * n, (k + 1) * n)
            vS[bk] = sys.M @ S[k, bk]
        dS = np.empty_like(S)
        dS[0] = (-ArT @ S[0] + P[0][:, :n] @ (sys.M0 @ S[0][:n])
                 + W.T @ S[0] + P[0] @ vS + lin[0])
        for i in range(1, N + 1):
            bi = slice(i * n, (i + 1) * n)
            dS[i] = (-ArT @ S[i] + P[0][:, :n] @ (sys.M0 @ S[i][:n])
                     + P[i][:, :n] @ (sys.M0 @ S[0][:n])
                     - P[i][:, bi] @ (sys.M @ S[i][bi])
                     + W.T @ S[i] + P[i] @ vS + lin[i])
        return dS

    nP = (N + 1) * sq

    def field(t, flat):
        P = flat[:nP].reshape(N + 1, d, d)
        S = flat[nP:].reshape(N + 1, d)
        dP, W = dP_all(P)
        return np.concatenate([dP.ravel(), dS_all(P, W, S).ravel()])

    def sym(flat):
        out = flat.copy()
        P = flat[:nP].reshape(N + 1, d, d)
        out[:nP] = ((P + P.transpose(0, 2, 1)) / 2.0).ravel()
        return out

    terminal = np.concatenate([q.ravel() for q in Qf_big] + lin_f)
    path = integrate_backward(field, terminal, grid, threshold=threshold,
                              symmetrize=sym, prefixes=(nP,))
    if isinstance(path, BlowUpReport):
        return path

    Mn = grid.M + 1
    P_all = path.values[:, :nP].reshape(Mn, N + 1, d, d)
    S_all = path.values[:, nP:].reshape(Mn, N + 1, d)

    # Exchangeability audit: every minor's matrices must be the block
    # permutation of player 1's.
    worst = 0.0
    for i in range(2, N + 1):
        idx = _swap_block_index(N, n, i)
        worst = max(worst,
                    float(np.max(np.abs(P_all[:, i] - P_all[:, 1][:, idx][:, :, idx]))),
                    float(np.max(np.abs(S_all[:, i] - S_all[:, 1][:, idx]))))
    if worst > EXCHANGE_TOL:
        raise PermutationMismatch(
            f"minor players differ from permuted player 1 by {worst:.3e}")

    return FiniteNSolution(
        model=sys.model, N=N, grid=grid, mode="dense",
        P0_big=MatrixPath(grid, P_all[:, 0].copy()),
        P1_big=MatrixPath(grid, P_all[:, 1].copy()),
        S0_big=MatrixPath(grid, S_all[:, 0].copy()),
        S1_big=MatrixPath(grid, S_all[:, 1].copy()),
    )


def solve_finite_n(model: ValidatedModel, N: int, grid: TimeGrid,
                   dense: bool = False, threshold: float = 1e12,
                   dim_cap: int = DENSE_DIM_CAP):
    """Solve the N+1-player Riccati/offset system.

    The default integrates only the two representative players via
    exchangeability. dense=True integrates all N+1 literally, audits the
    permutation structure, and cross-checks the reduced mode against it
    (PermutationMismatch beyond 1e-8 signals an implementation bug).
    """
    sys = assemble_finite_n(model, N, dim_cap=dim_cap)
    if not dense:
        return _solve_reduced(sys, grid, threshold)

    result = _solve_dense(sys, grid, threshold)
    reduced = _solve_reduced(sys, grid, threshold)
    if isinstance(result, BlowUpReport) or isinstance(reduced, BlowUpReport):
        if isinstance(result, BlowUpReport) != isinstance(reduced, BlowUpReport):
            raise PermutationMismatch(
                "dense and reduced modes disagree about finite escape")
        return result
    worst = max(
        float(np.max(np.abs(result.P0_big.values - reduced.P0_big.values))),
        float(np.max(np.abs(result.P1_big.values - reduced.P1_big.values))),
        float(np.max(np.abs(result.S0_big.values - reduced.S0_big.values))),
        float(np.max(np.abs(result.S1_big.values - reduced.S1_big.values))),
    )
    if worst > EXCHANGE_TOL:
        raise PermutationMismatch(
            f"dense vs reduced paths differ by {worst:.3e}")
    return result


@dataclass(frozen=True)
class LambdaSolution:
    """The nine-block limit system's solution paths."""

    model: ValidatedModel
    grid: TimeGrid
    blocks: dict
    M0: np.ndarray
    M: np.ndarray


def _lambda_field(model: ValidatedModel, M0: np.ndarray, M: np.ndarray):
    """The nine-block limit field d(L)/dt of a K = 1 model, L flat."""
    n = model.n
    A = model.A[0]
    A0, F0, F, G = model.A0, model.F0, model.F, model.G
    Q0, Q = model.Q0, model.Q
    G0, G1, G2 = model.Gamma0, model.Gamma1, model.Gamma2
    rho = model.rho
    # Model-only products are taken once here and subproducts that recur
    # within a stage once per stage. Each keeps the association of the
    # written-out equations (G1' Q G1 is (G1' Q) G1, L1_0 M0 L1_0 is
    # (L1_0 M0) L1_0), so every block is the same floats as with the
    # products inline.
    G1TQ = G1.T @ Q
    G0TQ0G0 = G0.T @ Q0 @ G0
    G1TQG1 = G1TQ @ G1
    G2TQG2 = G2.T @ Q @ G2
    G1TQG2 = G1TQ @ G2
    Q0G0 = Q0 @ G0
    QG2 = Q @ G2

    def fieldfn(t, flat):
        L = flat.reshape(9, n, n)
        L1_0, L2_0, L3_0, L0, L1, L2, L3, La, Lb = L
        rL = rho * L
        L1M0 = L1_0 @ M0
        L1M0A = L1M0 - A0.T                      # recurring major closed loop
        LaM = La @ M
        L1M = L1 @ M
        L2TM0 = L2_0.T @ M0
        # shared closed-loop combinations
        mean_cl = M @ (L1 + L2) - A - F          # drives every *-mean block
        cross = LaM - G.T                        # recurring major/minor mix
        d = np.empty_like(L)
        d[0] = (rL[0] + L1M0 @ L1_0 - (L1_0 @ A0 + A0.T @ L1_0)
                + L2_0 @ (M @ La.T - G) + cross @ L2_0.T - Q0)
        d[1] = (rL[1] + L1M0A @ L2_0 + L2_0 @ mean_cl
                - L1_0 @ F0 + cross @ L3_0 + Q0G0)
        d[2] = (rL[2] + L2TM0 @ L2_0 - L2_0.T @ F0 - F0.T @ L2_0
                + L3_0 @ mean_cl + mean_cl.T @ L3_0 - G0TQ0G0)
        d[3] = (rL[3] + LaM @ La.T - Lb @ G - G.T @ Lb.T
                + L0 @ (M0 @ L1_0 - A0) + L1M0A @ L0
                - La @ (G - M @ Lb.T) - (G.T - Lb @ M) @ La.T
                - G1TQG1)
        d[4] = rL[4] + L1M @ L1 - L1 @ A - A.T @ L1 - Q
        d[5] = (rL[5] + La.T @ (M0 @ L2_0 - F0) - L1 @ F
                + (L1M - A.T) @ L2 + L2 @ mean_cl + QG2)
        d[6] = (rL[6] + Lb.T @ M0 @ L2_0 + L2TM0 @ Lb
                + L2.T @ M @ L2 - Lb.T @ F0 - F0.T @ Lb
                - L2.T @ F - F.T @ L2
                + L3 @ mean_cl + mean_cl.T @ L3 - G2TQG2)
        d[7] = (rL[7] + L1M0A @ La + La @ (M @ L1 - A)
                - G.T @ L1 + cross @ L2.T + G1TQ)
        d[8] = (rL[8] + L0 @ M0 @ L2_0 + cross @ (L2 + L3)
                - L0 @ F0 - La @ F + Lb @ mean_cl
                + L1M0A @ Lb - G1TQG2)
        return d.ravel()

    return fieldfn


def solve_lambda(model: ValidatedModel, grid: TimeGrid,
                 threshold: float = 1e12):
    """Integrate the nine coupled n-by-n limit ODEs backward from T.

    Finite escape here is the verdict that the game family has no
    uniformly solvable large-population limit on this horizon.
    """
    _require_k1(model)
    n = model.n
    M0 = model.B0 @ np.linalg.solve(model.R0, model.B0.T)
    M = model.B @ np.linalg.solve(model.R, model.B.T)
    fieldfn = _lambda_field(model, M0, M)
    sym_idx = [i for i, k in enumerate(BLOCK_KEYS) if k in _SYMMETRIC_KEYS]

    def sym(flat):
        L = flat.reshape(9, n, n).copy()
        S = L[sym_idx]
        L[sym_idx] = (S + S.transpose(0, 2, 1)) / 2.0
        return L.ravel()

    Q0f, Qf = model.Q0f, model.Qf
    G0f, G1f, G2f = model.Gamma0f, model.Gamma1f, model.Gamma2f
    terminal = np.stack([
        Q0f, -Q0f @ G0f, G0f.T @ Q0f @ G0f,
        G1f.T @ Qf @ G1f, Qf, -Qf @ G2f, G2f.T @ Qf @ G2f,
        -G1f.T @ Qf, G1f.T @ Qf @ G2f,
    ])
    path = integrate_backward(fieldfn, terminal.ravel(), grid,
                              threshold=threshold, symmetrize=sym)
    if isinstance(path, BlowUpReport):
        return path
    vals = path.values.reshape(grid.M + 1, 9, n, n)
    blocks = {key: MatrixPath(grid, vals[:, i].copy())
              for i, key in enumerate(BLOCK_KEYS)}
    return LambdaSolution(model=model, grid=grid, blocks=blocks, M0=M0, M=M)


@dataclass(frozen=True)
class PhiSolution:
    """Nine-block re-partition of a K=1 consistency-route solution."""

    model: ValidatedModel
    grid: TimeGrid
    blocks: dict


def phi_from_nce(nce: NCESolution) -> PhiSolution:
    """Slice the K=1 kernels into the nine named blocks (pure views)."""
    model = nce.model
    if model.K != 1:
        raise KNotOne(f"block extraction needs K=1, got K={model.K}")
    n = model.n
    P0 = nce.P0.values
    P1 = nce.P.values[:, 0]
    grid = nce.grid
    pieces = {
        "1_0": P0[:, :n, :n], "2_0": P0[:, :n, n:], "3_0": P0[:, n:, n:],
        "1": P1[:, :n, :n], "a": P1[:, n:2 * n, :n], "2": P1[:, :n, 2 * n:],
        "0": P1[:, n:2 * n, n:2 * n], "b": P1[:, n:2 * n, 2 * n:],
        "3": P1[:, 2 * n:, 2 * n:],
    }
    blocks = {key: MatrixPath(grid, pieces[key]) for key in BLOCK_KEYS}
    return PhiSolution(model=model, grid=grid, blocks=blocks)


def compare_lambda_phi(lam: LambdaSolution, phi: PhiSolution,
                       tol: float = 1e-9) -> DiffReport:
    """Max-over-nodes l1 differences of the nine block pairs."""
    if not lam.grid.same_as(phi.grid):
        raise GridMismatch("solutions live on different grids")
    diffs = {}
    for key in BLOCK_KEYS:
        d = np.abs(lam.blocks[key].values - phi.blocks[key].values)
        diffs[key] = float(d.reshape(d.shape[0], -1).sum(axis=1).max())
    return DiffReport(diffs=diffs, tol=tol)


def _cluster_counts(tiles: np.ndarray, tol: float) -> np.ndarray:
    """Per-node count of greedy tile clusters, a tile identified with its
    transpose; `tiles` is (nodes, tiles per node, n, n).

    A tile-by-tile greedy scan makes a tile a representative iff no
    earlier representative lies within `tol` (l1) of it or of its
    transpose. Each round here takes, at every node, the first unmatched
    tile as the next representative and drops every tile it matches, so
    the same tiles become representatives, one per round. Distances are
    summed over the row-major flattened tile, as the scan sums them, so
    they are bitwise the scan's.
    """
    nodes, per_node, n = tiles.shape[:3]
    flat = tiles.reshape(nodes * per_node, n, n)
    counts = np.zeros(nodes, dtype=np.int64)
    live = np.arange(nodes * per_node)
    while live.size:
        node = live // per_node
        first = np.flatnonzero(np.diff(node, prepend=-1))
        counts[node[first]] += 1
        reps = np.repeat(flat[live[first]], np.diff(first, append=live.size),
                         axis=0)
        cand = flat[live]
        near = ((np.abs(cand - reps).reshape(-1, n * n).sum(axis=1) <= tol)
                | (np.abs(cand.transpose(0, 2, 1) - reps)
                   .reshape(-1, n * n).sum(axis=1) <= tol))
        near[first] = True
        live = live[~near]
    return counts


@dataclass(frozen=True)
class StructureReport:
    """Tile-cluster counts and scaled representative tiles of (P0, P1)."""

    N: int
    grid: TimeGrid
    tol: float
    cluster_counts: dict
    tiles: dict
    scaled_tiles: dict
    exponents: dict

    def counts_everywhere(self, name: str) -> tuple:
        c = self.cluster_counts[name]
        return int(c.min()), int(c.max())

    def summary(self) -> str:
        lines = [f"N={self.N}, tile tolerance {self.tol:.1e}"]
        for name in ("P0", "P1"):
            lo, hi = self.counts_everywhere(name)
            span = f"{lo}" if lo == hi else f"{lo}..{hi}"
            lines.append(f"{name}: {span} tile clusters across nodes")
        exps = ", ".join(f"{k}:N^{self.exponents[k]}" for k in BLOCK_KEYS)
        lines.append(f"tile scalings: {exps}")
        return "\n".join(lines)


# Representative tile positions (block row, block col) inside P0 / P1.
# Off-diagonal minor slots are used where N permits so the uniformity
# claim is exercised, falling back to the diagonal for tiny N.
def _rep_positions(N: int) -> dict:
    minor_pair = (1, 2) if N >= 2 else (1, 1)
    other = 2 if N >= 2 else 1
    other_pair = (2, 3) if N >= 3 else (other, other)
    return {
        "1_0": ("P0", (0, 0)), "2_0": ("P0", (0, 1)), "3_0": ("P0", minor_pair),
        "1": ("P1", (1, 1)), "0": ("P1", (0, 0)), "a": ("P1", (0, 1)),
        "2": ("P1", (1, other)), "b": ("P1", (0, other)),
        "3": ("P1", other_pair),
    }


def extract_block_structure(fin: FiniteNSolution,
                            tol: float = TILE_TOL) -> StructureReport:
    """Cluster the n-by-n tiles of P0(t), P1(t) and pull scaled limits.

    At every node the (N+1)^2 tiles, taken in row-major block order, are
    clustered greedily: a tile joins the first representative within
    `tol` (l1) of it or of its transpose, else it becomes one. All nodes
    of a path are clustered together, one round per cluster. Exchangeable
    matrices give at most 3 clusters in P0 and 6 in P1; the per-node
    counts are kept as a diagnostic.
    """
    n = fin.model.n
    N = fin.N
    Mn = fin.grid.M + 1
    B = N + 1
    counts = {}
    for name, path in (("P0", fin.P0_big), ("P1", fin.P1_big)):
        tiles = (path.values.reshape(Mn, B, n, B, n).transpose(0, 1, 3, 2, 4)
                 .reshape(Mn, B * B, n, n))
        counts[name] = _cluster_counts(tiles, tol)

    tiles = {}
    scaled = {}
    positions = _rep_positions(N)
    for key in BLOCK_KEYS:
        which, (bi, bj) = positions[key]
        path = fin.P0_big if which == "P0" else fin.P1_big
        tile = path.values[:, bi * n:(bi + 1) * n, bj * n:(bj + 1) * n]
        tiles[key] = MatrixPath(fin.grid, tile.copy())
        scaled[key] = MatrixPath(
            fin.grid, tile * float(N) ** SCALING_EXPONENTS[key])
    return StructureReport(N=N, grid=fin.grid, tol=tol,
                           cluster_counts=counts, tiles=tiles,
                           scaled_tiles=scaled,
                           exponents=dict(SCALING_EXPONENTS))


@dataclass(frozen=True)
class SolvabilityReport:
    """Per-N norm record with the bounded-tail and limit-system verdicts.

    `bounded` uses a finite stand-in for the definition's supremum over
    all large N: every requested N solved and the last three sup-node
    norms lie within 10% of one another. It is a heuristic, recorded as
    such.
    """

    N_list: tuple
    norms: tuple
    escapes: dict
    bounded: bool
    lambda_solvable: bool
    lambda_escape: BlowUpReport | None

    @property
    def consistent(self) -> bool:
        return self.bounded == self.lambda_solvable

    def summary(self) -> str:
        lines = []
        for N, norm in zip(self.N_list, self.norms):
            if norm is None:
                rep = self.escapes[N]
                lines.append(f"N={N}: escaped at node {rep.escape_node}")
            else:
                lines.append(f"N={N}: sup-node norm {norm:.6e}")
        lines.append(f"bounded tail (heuristic): {self.bounded}")
        lines.append(f"limit system solvable: {self.lambda_solvable}")
        lines.append(f"verdicts consistent: {self.consistent}")
        return "\n".join(lines)


def check_asymptotic_solvability(model: ValidatedModel, N_list,
                                 grid: TimeGrid,
                                 threshold: float = 1e12) -> SolvabilityReport:
    """Solve the finite system across N and test boundedness of the norms.

    N_list is sorted and de-duplicated first, so the verdict does not
    depend on the caller's order; an N below 1 raises ValueError before
    any solve. Records, per N, sup over nodes of |P0|_l1 + |P1|_l1, or the
    escape report, solving one N after another; compares the
    bounded-tail heuristic (on the three largest N) with the nine-block
    system's solvability verdict.
    """
    _require_k1(model)
    N_list = tuple(sorted({int(N) for N in N_list}))
    if N_list and N_list[0] < 1:
        raise ValueError(f"population sizes must be at least 1, got N={N_list[0]}")

    norms = []
    escapes = {}
    for N in N_list:
        res = solve_finite_n(model, N, grid, threshold=threshold)
        if isinstance(res, BlowUpReport):
            norms.append(None)
            escapes[N] = res
        else:
            per_node = (np.abs(res.P0_big.values).reshape(grid.M + 1, -1).sum(axis=1)
                        + np.abs(res.P1_big.values).reshape(grid.M + 1, -1).sum(axis=1))
            norms.append(float(per_node.max()))

    bounded = False
    if not escapes and len(norms) >= 3:
        tail = norms[-3:]
        lo, hi = min(tail), max(tail)
        bounded = hi <= 1.1 * lo + 1e-300

    lam = solve_lambda(model, grid, threshold=threshold)
    lam_escape = lam if isinstance(lam, BlowUpReport) else None
    return SolvabilityReport(
        N_list=N_list, norms=tuple(norms), escapes=escapes,
        bounded=bounded, lambda_solvable=lam_escape is None,
        lambda_escape=lam_escape)
