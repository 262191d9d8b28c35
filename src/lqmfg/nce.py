"""Consistency-equation solver (the fixed-point route to the equilibrium).

The equilibrium is characterized by a differential-algebraic system: one
Riccati kernel P0 of size n(K+1) for the major player's limiting problem,
K kernels P_kappa of size n(K+2) for the representative minor players, and
the algebraic consistency constraints that rebuild the postulated mean
field generator (Abar, Gbar, mbar) from the kernel blocks. Offsets
(s0, s_kappa) satisfy a linear backward system coupled through mbar.

The DAE is solved by substitution: the algebraic variables are eliminated
into the ODE fields, so each stage evaluation rebuilds Abar/Gbar from the
current kernels and mbar from the current offsets. The per-type blocks
are evaluated stacked over the K types, and the closed-loop drift
matrices are filled into templates whose constant parts are built once
per solve. The stacked (P, s) state is advanced in one pass, so the
offset system sees stage-exact kernel values; the kernels never read the
offsets, so their escape is judged on the kernel prefix of the state
alone.
"""

from dataclasses import dataclass

import numpy as np

from .errors import GridMismatch, IndexOutOfRange, TimeOutOfRange
from .model import PiLifted, TimeGrid, ValidatedModel, lift_pi
from .ode import BlowUpReport, MatrixPath, integrate_backward, integrate_forward


@dataclass(frozen=True)
class NCESolution:
    """Solution paths of the consistency DAE on one grid.

    P is stacked (K, n(K+2), n(K+2)); s is stacked (K, n(K+2)). Abar, Gbar
    and mbar are the materialized algebraic variables (mean field
    generator blocks); they satisfy their constraints exactly at every
    node by construction.
    """

    model: ValidatedModel
    lifted: PiLifted
    grid: TimeGrid
    P0: MatrixPath
    P: MatrixPath
    s0: MatrixPath
    s: MatrixPath
    Abar: MatrixPath
    Gbar: MatrixPath
    mbar: MatrixPath


class _Workspace:
    """Precomputed constants, drift templates and packing layout for one
    solve."""

    def __init__(self, model: ValidatedModel, lifted: PiLifted):
        self.model = model
        self.lifted = lifted
        n, K = model.n, model.K
        self.n = n
        self.K = K
        self.d0 = n * (K + 1)
        self.d1 = n * (K + 2)

        # Control-weighted input squares on the stacked spaces.
        self.K0mat = lifted.B0_lift @ np.linalg.solve(model.R0, lifted.B0_lift.T)
        self.Kmat = lifted.B_lift @ np.linalg.solve(model.R, lifted.B_lift.T)
        # Small-space pieces for the algebraic constraints.
        self.BRB = model.B @ np.linalg.solve(model.R, model.B.T)

        self.sizes = (self.d0 * self.d0, K * self.d1 * self.d1, self.d0, K * self.d1)
        # Drift matrices with their model-only blocks filled in; each
        # stage copies them and writes the kernel-dependent blocks.
        self.top = np.zeros((self.d0, self.d0))
        self.top[:n, :n] = model.A0
        self.top[:n, n:] = lifted.F0_pi
        self.minor = np.zeros((K, self.d1, self.d1))
        self.minor[:, :n, :n] = model.A
        self.minor[:, :n, n:2 * n] = model.G
        self.minor[:, :n, 2 * n:] = lifted.F_pi
        # flat positions of type k's own block column in row block k of
        # a (K, n, nK) stack, in (k, i, j) order
        k, i, j = np.ogrid[:K, :n, :n]
        self.own = (k * (n * K * n + n) + i * (K * n) + j).ravel()

    # -- packing ---------------------------------------------------------

    def pack(self, P0, P, s0, s):
        return np.concatenate([P0.ravel(), P.ravel(), s0.ravel(), s.ravel()])

    def unpack(self, flat):
        a, b, c, _ = self.sizes
        P0 = flat[:a].reshape(self.d0, self.d0)
        P = flat[a:a + b].reshape(self.K, self.d1, self.d1)
        s0 = flat[a + b:a + b + c]
        s = flat[a + b + c:].reshape(self.K, self.d1)
        return P0, P, s0, s

    # -- assembly --------------------------------------------------------

    def consistency_blocks(self, P):
        """Abar (nK x nK) and Gbar (nK x n) rebuilt from kernel blocks;
        P is (..., K, d1, d1) and the results carry its leading axes."""
        n, K = self.n, self.K
        BRB = self.BRB
        lead = P.shape[:-3]
        Abar = self.lifted.F_pi - BRB @ P[..., :n, 2 * n:]   # (..., K, n, nK)
        # type k's own dynamics sit in block column k of its row block
        Abar.reshape(lead + (-1,))[..., self.own] += (
            self.model.A - BRB @ P[..., :n, :n]).reshape(lead + (-1,))
        Gbar = self.model.G - BRB @ P[..., :n, n:2 * n]
        return (Abar.reshape(lead + (K * n, K * n)),
                Gbar.reshape(lead + (K * n, n)))

    def drift_blocks(self, P0, P):
        """The closed-loop drift matrices entering both Riccati tiers."""
        n = self.n
        Abar, Gbar = self.consistency_blocks(P)
        A0blk = self.top.copy()
        A0blk[n:, :n] = Gbar
        A0blk[n:, n:] = Abar
        Acal = self.minor.copy()
        Acal[:, n:, n:] = A0blk - self.K0mat @ P0
        return A0blk, Acal

    def dP(self, P0, P):
        """Forward-time derivatives of the stacked Riccati kernels."""
        rho = self.model.rho
        A0blk, Acal = self.drift_blocks(P0, P)
        dP0 = (rho * P0 - P0 @ A0blk - A0blk.T @ P0
               + P0 @ self.K0mat @ P0 - self.lifted.Q0_pi)
        dP = (rho * P - P @ Acal - Acal.transpose(0, 2, 1) @ P
              + P @ self.Kmat @ P - self.lifted.Q_pi)
        return dP0, dP, A0blk, Acal

    def mbar_from_s(self, s):
        """Constraint: mbar block kappa = -B R^{-1} B_lift^T s_kappa."""
        # B_lift^T s_kappa only sees the leading n entries of s_kappa
        w = np.linalg.solve(self.model.R, (s @ self.lifted.B_lift).T).T
        return -(w @ self.model.B.T)

    def ds(self, P0, P, s0, s, A0blk, Acal):
        """Forward-time derivatives of the offset vectors."""
        rho = self.model.rho
        n = self.n
        mbar = self.mbar_from_s(s)
        K0s = self.K0mat @ s0
        M0vec = np.zeros(self.d0)
        M0vec[n:] = mbar.ravel()
        ds0 = (rho * s0 - A0blk.T @ s0 + P0 @ K0s
               - P0 @ M0vec + self.lifted.eta0_pi)
        Mvec = np.zeros(self.d1)
        Mvec[n:] = M0vec - K0s
        ds = (rho * s
              - np.einsum("kji,kj->ki", Acal, s)
              + np.einsum("kij,kj->ki", P, s @ self.Kmat)
              - P @ Mvec + self.lifted.eta_pi)
        return ds0, ds

    def field(self, t, flat):
        """d(state)/dt of the flat (P0, P, s0, s) state, written into one
        new flat array."""
        P0, P, s0, s = self.unpack(flat)
        dP0, dP, A0blk, Acal = self.dP(P0, P)
        ds0, ds = self.ds(P0, P, s0, s, A0blk, Acal)
        out = np.empty_like(flat)
        for segment, value in zip(self.unpack(out), (dP0, dP, ds0, ds)):
            segment[...] = value
        return out

    # -- symmetry projection ----------------------------------------------

    def sym(self, flat):
        P0, P, s0, s = self.unpack(flat)
        return self.pack((P0 + P0.T) / 2.0, (P + P.transpose(0, 2, 1)) / 2.0, s0, s)


def solve_nce(model: ValidatedModel, grid: TimeGrid, threshold: float = 1e12):
    """Solve the consistency DAE; a BlowUpReport means no solution on [0,T].

    The kernels and offsets are integrated in one pass. An escape of the
    kernels is the no-solution verdict; if only kernels plus offsets cross
    the threshold, that marginal escape is still a no-solution verdict,
    reported where the joint norm crossed. The algebraic variables are
    then materialized at every node.
    """
    ws = _Workspace(model, lift_pi(model))
    K, d0, d1 = ws.K, ws.d0, ws.d1

    terminal = ws.pack(ws.lifted.Q0f_pi,
                          np.broadcast_to(ws.lifted.Qf_pi, (K, d1, d1)),
                          -ws.lifted.eta0f_pi,
                          np.broadcast_to(-ws.lifted.etaf_pi, (K, d1)))
    nP = ws.sizes[0] + ws.sizes[1]
    path = integrate_backward(ws.field, terminal, grid, threshold=threshold,
                              symmetrize=ws.sym, prefixes=(nP,))
    if isinstance(path, BlowUpReport):
        return path

    Mn = grid.M + 1
    P0_path = path.values[:, :ws.sizes[0]].reshape(Mn, d0, d0)
    P_path = path.values[:, ws.sizes[0]:nP].reshape(Mn, K, d1, d1)
    s0_path = path.values[:, nP:nP + d0]
    s_path = path.values[:, nP + d0:].reshape(Mn, K, d1)

    n = ws.n
    Abar_path, Gbar_path = ws.consistency_blocks(P_path)
    mbar_path = np.empty((Mn, K * n))
    for j in range(Mn):
        mbar_path[j] = ws.mbar_from_s(s_path[j]).ravel()

    return NCESolution(
        model=model, lifted=ws.lifted, grid=grid,
        P0=MatrixPath(grid, P0_path),
        P=MatrixPath(grid, P_path),
        s0=MatrixPath(grid, s0_path),
        s=MatrixPath(grid, s_path),
        Abar=MatrixPath(grid, Abar_path),
        Gbar=MatrixPath(grid, Gbar_path),
        mbar=MatrixPath(grid, mbar_path),
    )


def _check_time(model: ValidatedModel, t: float) -> None:
    if not (0.0 <= t <= model.T):
        raise TimeOutOfRange(f"t={t} outside [0, {model.T}]")


def nce_feedback(sol: NCESolution, model: ValidatedModel, t: float,
                 x0: np.ndarray, xi: np.ndarray, zbar: np.ndarray, kappa: int):
    """Equilibrium feedback controls (u0, ui) at time t.

    The major player's control reads the stacked state (x0, zbar); a
    type-kappa minor player's control reads (xi, x0, zbar). Paths are
    interpolated linearly between grid nodes.
    """
    _check_time(model, t)
    if not (1 <= kappa <= model.K):
        raise IndexOutOfRange(f"kappa={kappa} outside 1..{model.K}")
    x0 = np.asarray(x0, dtype=np.float64).reshape(-1)
    xi = np.asarray(xi, dtype=np.float64).reshape(-1)
    zbar = np.asarray(zbar, dtype=np.float64).reshape(-1)

    lifted = sol.lifted
    xi0 = np.concatenate([x0, zbar])
    u0 = -np.linalg.solve(model.R0,
                          lifted.B0_lift.T @ (sol.P0.interp(t) @ xi0 + sol.s0.interp(t)))
    xik = np.concatenate([xi, x0, zbar])
    Pk = sol.P.interp(t)[kappa - 1]
    sk = sol.s.interp(t)[kappa - 1]
    ui = -np.linalg.solve(model.R, lifted.B_lift.T @ (Pk @ xik + sk))
    return u0, ui


def propagate_mean_field(sol: NCESolution, model: ValidatedModel,
                         x0_path: np.ndarray, grid: TimeGrid) -> MatrixPath:
    """Regenerate the mean field from a given major-player path.

    Integrates dZbar = (Abar Zbar + Gbar x0 + mbar) dt forward from the
    common minor initial mean stacked over types, with the coefficient
    paths and the supplied x0 path interpolated linearly at RK4 stages.
    """
    if not grid.same_as(sol.grid):
        raise GridMismatch("mean-field grid differs from the solution grid")
    x0_path = np.asarray(x0_path, dtype=np.float64)
    if x0_path.shape != (grid.M + 1, model.n):
        raise GridMismatch(
            f"x0 path shape {x0_path.shape} does not match grid "
            f"({grid.M + 1} nodes, n={model.n})"
        )
    x0p = MatrixPath(grid, x0_path.copy())

    def field(t, z):
        return sol.Abar.interp(t) @ z + sol.Gbar.interp(t) @ x0p.interp(t) + sol.mbar.interp(t)

    z_init = np.tile(model.alpha0, model.K)
    return integrate_forward(field, z_init, grid)
