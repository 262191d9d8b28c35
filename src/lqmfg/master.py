"""Quadratic value-function route and its residual certificate.

The value functions of the limiting game are sought as quadratic forms
V0 = xi0' Pd0 xi0 + 2 sd0' xi0 + rd0 in xi0 = (x0, zbar) and
Vk = xik' Pdk xik + 2 sdk' xik + rdk in xik = (zk, x0, zbar). Plugging the
ansatz into the coupled first-order equations on (time, state, measure)
reduces them to backward matrix ODEs for the kernels, linear ODEs for the
offsets, and scalar quadratures for the constants.

This module assembles those ODE fields independently of the nce module
(different block construction and quadratic-term evaluation), solves them
with the shared integrator, and evaluates the pointwise residual of the
original equations as a correctness certificate. The residual's time
derivative comes from finite differences of the solved paths, never from
the ODE right-hand side, so coefficient corruption is actually detectable.

The per-type blocks are evaluated stacked over the K types, from drift
block templates whose constant parts are built once per solve.
"""

from dataclasses import dataclass

import numpy as np

from .errors import GridMismatch, IndexOutOfRange, TimeOutOfRange
from .model import PiLifted, TimeGrid, ValidatedModel, block_selector, lift_pi
from .nce import NCESolution
from .ode import BlowUpReport, MatrixPath, integrate_backward


@dataclass(frozen=True)
class MasterSolution:
    """Quadratic-solution coefficient paths plus derived mean-field blocks."""

    model: ValidatedModel
    lifted: PiLifted
    grid: TimeGrid
    Pd0: MatrixPath
    Pd: MatrixPath
    sd0: MatrixPath
    sd: MatrixPath
    rd0: MatrixPath
    rd: MatrixPath
    Abar_dag: MatrixPath
    Gbar_dag: MatrixPath
    mbar_dag: MatrixPath


@dataclass(frozen=True)
class ResidualSample:
    """One pointwise evaluation of an equation residual."""

    t: float
    x0: np.ndarray
    zk: np.ndarray
    zbar: np.ndarray
    kappa: int
    residual: float

    def __post_init__(self):
        if not np.isfinite(self.residual):
            raise ValueError("residual is not finite")


@dataclass(frozen=True)
class DiffReport:
    """Named max-over-nodes l1 discrepancies with a PASS verdict."""

    diffs: dict
    tol: float

    @property
    def passed(self) -> bool:
        return all(v <= self.tol for v in self.diffs.values())

    @property
    def max_diff(self) -> float:
        return max(self.diffs.values())

    def summary(self) -> str:
        lines = [f"{name}: {value:.3e}" for name, value in self.diffs.items()]
        verdict = "PASS" if self.passed else "FAIL"
        lines.append(f"max {self.max_diff:.3e} vs tol {self.tol:.1e}: {verdict}")
        return "\n".join(lines)


class _Blocks:
    """Assembly helpers for the quadratic-solution ODE fields."""

    def __init__(self, model: ValidatedModel, lifted: PiLifted):
        self.model = model
        self.lifted = lifted
        n, K = model.n, model.K
        self.n = n
        self.K = K
        self.d0 = n * (K + 1)
        self.d1 = n * (K + 2)
        self.M0 = model.B0 @ np.linalg.solve(model.R0, model.B0.T)
        self.M = model.B @ np.linalg.solve(model.R, model.B.T)
        self.selectors = np.stack([block_selector(l, K, n) for l in range(1, K + 1)])
        self.D0D0T = model.D0 @ model.D0.T
        self.DDT = model.D @ model.D.T
        self.eta0_q = float(model.eta0 @ model.Q0 @ model.eta0)
        self.eta_q = float(model.eta @ model.Q @ model.eta)
        self.layout = (self.d0 * self.d0, K * self.d1 * self.d1,
                       self.d0, K * self.d1, 1, K)
        self.bounds = np.cumsum((0,) + self.layout).tolist()
        # Drift blocks with their model-only parts filled in; each stage
        # copies them and writes the kernel-dependent blocks.
        self.top = np.zeros((self.d0, self.d0))
        self.top[:n, :n] = model.A0
        self.top[:n, n:] = lifted.F0_pi
        self.minor = np.zeros((K, self.d1, self.d1))
        self.minor[:, :n, :n] = model.A
        self.minor[:, :n, n:2 * n] = model.G
        self.minor[:, :n, 2 * n:] = lifted.F_pi

    def split(self, flat):
        """Views of the segments [Pd0, Pd, sd0, sd, rd0, rd] of the state
        (rd0 as a length-1 vector)."""
        K, d0, d1 = self.K, self.d0, self.d1
        b = self.bounds
        return (flat[b[0]:b[1]].reshape(d0, d0),
                flat[b[1]:b[2]].reshape(K, d1, d1),
                flat[b[2]:b[3]],
                flat[b[3]:b[4]].reshape(K, d1),
                flat[b[4]:b[5]],
                flat[b[5]:b[6]])

    def sym(self, flat):
        """Symmetrize the kernel segments; offsets and constants pass."""
        a, b = self.layout[0], self.layout[1]
        d0, d1, K = self.d0, self.d1, self.K
        out = flat.copy()
        P0 = flat[:a].reshape(d0, d0)
        out[:a] = ((P0 + P0.T) / 2.0).ravel()
        P = flat[a:a + b].reshape(K, d1, d1)
        out[a:a + b] = ((P + P.transpose(0, 2, 1)) / 2.0).ravel()
        return out

    def mean_field_rows(self, Pd):
        """Abar_dag and Gbar_dag rebuilt from each type's kernel blocks.

        Pd is (..., K, d1, d1); the K row blocks are stacked into
        (..., nK, nK) and (..., nK, n). Own-dynamics terms sit in the
        type's own block column (the 'selector at l' reading; the
        alternative fixed-last-block reading is incompatible with the
        consistency route for K >= 2).
        """
        n, K = self.n, self.K
        M = self.M
        lead = Pd.shape[:-3]
        Abar = ((self.model.A - M @ Pd[..., :n, :n]) @ self.selectors
                + self.lifted.F_pi - M @ Pd[..., :n, 2 * n:])
        Gbar = self.model.G - M @ Pd[..., :n, n:2 * n]
        return (Abar.reshape(lead + (K * n, K * n)),
                Gbar.reshape(lead + (K * n, n)))

    def mbar_vec(self, sd):
        """mbar_dag block l = -M sd_l,1 for sd of shape (..., K, d1),
        flattened to (..., nK)."""
        n = self.n
        return (-(sd[..., :n] @ self.M.T)).reshape(sd.shape[:-2] + (self.K * n,))

    def field(self, t, flat):
        """d(state)/dt of the flat state, written into one new flat array."""
        model, lifted = self.model, self.lifted
        n = self.n
        rho = model.rho
        M, M0 = self.M, self.M0
        Pd0, Pd, sd0, sd, rd0, rd = self.split(flat)
        out = np.empty_like(flat)
        dPd0, dPd, dsd0, dsd, drd0, drd = self.split(out)

        Abar_dag, Gbar_dag = self.mean_field_rows(Pd)
        A0blk = self.top.copy()
        A0blk[n:, :n] = Gbar_dag
        A0blk[n:, n:] = Abar_dag
        dPd0[...] = (rho * Pd0 - Pd0 @ A0blk - A0blk.T @ Pd0
                     + Pd0[:, :n] @ M0 @ Pd0[:n, :] - lifted.Q0_pi)
        Acal = self.minor.copy()
        Acal[:, n:2 * n, n:2 * n] = model.A0 - M0 @ Pd0[:n, :n]
        Acal[:, n:2 * n, 2 * n:] = lifted.F0_pi - M0 @ Pd0[:n, n:]
        Acal[:, 2 * n:, n:] = A0blk[n:]              # [Gbar_dag | Abar_dag]
        AcalT = Acal.transpose(0, 2, 1)
        dPd[...] = (rho * Pd - Pd @ Acal - AcalT @ Pd
                    + Pd[:, :, :n] @ M @ Pd[:, :n, :] - lifted.Q_pi)

        mbar = self.mbar_vec(sd)
        m0s = M0 @ sd0[:n]
        dsd0[...] = (rho * sd0 - A0blk.T @ sd0 + Pd0[:, :n] @ m0s
                     - Pd0[:, n:] @ mbar + lifted.eta0_pi)
        # Per-type vectors enter as (d, 1) columns and (1, d) rows, so each
        # type's stacked product is the same BLAS call as its own
        # matrix-vector product or dot.
        col = sd[:, :, None]
        row = sd[:, None, :]
        dsd[...] = (rho * sd - (AcalT @ col)[:, :, 0]
                    + (Pd[:, :, :n] @ (M @ col[:, :n]))[:, :, 0]
                    + Pd[:, :, n:2 * n] @ m0s
                    - Pd[:, :, 2 * n:] @ mbar + lifted.eta_pi)

        theta0 = (self.eta0_q
                  - sd0[:n] @ M0 @ sd0[:n]
                  + np.trace(Pd0[:n, :n] @ self.D0D0T)
                  + 2.0 * (sd0[n:] @ mbar))
        drd0[0] = rho * rd0[0] - theta0
        theta = (self.eta_q
                 - (row[:, :, :n] @ M @ col[:, :n])[:, 0, 0]
                 - 2.0 * (row[:, :, n:2 * n] @ m0s[:, None])[:, 0, 0]
                 + np.trace(Pd[:, n:2 * n, n:2 * n] @ self.D0D0T, axis1=1, axis2=2)
                 + np.trace(Pd[:, :n, :n] @ self.DDT, axis1=1, axis2=2)
                 + 2.0 * (row[:, :, 2 * n:] @ mbar[:, None])[:, 0, 0])
        drd[...] = rho * rd - theta
        return out


def solve_master(model: ValidatedModel, grid: TimeGrid, threshold: float = 1e12):
    """Solve the quadratic-coefficient ODE system, or report finite escape.

    Kernels, offsets and constants are integrated in one pass. Escape is
    judged level by level on the nested prefixes of the state: a kernel
    escape is the no-quadratic-solution verdict; otherwise the report is
    the one of kernels plus offsets if those cross, else that of the full
    stack (both marginal escapes, still no solution).
    """
    blocks = _Blocks(model, lift_pi(model))
    K, d0, d1 = blocks.K, blocks.d0, blocks.d1
    lifted = blocks.lifted

    terminal = np.concatenate([
        lifted.Q0f_pi.ravel(),
        np.broadcast_to(lifted.Qf_pi, (K, d1, d1)).ravel(),
        -lifted.eta0f_pi,
        np.broadcast_to(-lifted.etaf_pi, (K, d1)).ravel(),
        np.array([model.eta0f @ model.Q0f @ model.eta0f]),
        np.full(K, model.etaf @ model.Qf @ model.etaf),
    ])
    nP = blocks.layout[0] + blocks.layout[1]
    ns = blocks.layout[2] + blocks.layout[3]
    path = integrate_backward(blocks.field, terminal, grid, threshold=threshold,
                              symmetrize=blocks.sym, prefixes=(nP, nP + ns))
    if isinstance(path, BlowUpReport):
        return path

    Mn = grid.M + 1
    vals = path.values
    Pd0_path = vals[:, :blocks.layout[0]].reshape(Mn, d0, d0)
    Pd_path = vals[:, blocks.layout[0]:nP].reshape(Mn, K, d1, d1)
    sd0_path = vals[:, nP:nP + d0]
    sd_path = vals[:, nP + d0:nP + ns].reshape(Mn, K, d1)
    rd0_path = vals[:, nP + ns]
    rd_path = vals[:, nP + ns + 1:]

    Abar_path, Gbar_path = blocks.mean_field_rows(Pd_path)
    mbar_path = blocks.mbar_vec(sd_path)

    return MasterSolution(
        model=model, lifted=lifted, grid=grid,
        Pd0=MatrixPath(grid, Pd0_path),
        Pd=MatrixPath(grid, Pd_path),
        sd0=MatrixPath(grid, sd0_path),
        sd=MatrixPath(grid, sd_path),
        rd0=MatrixPath(grid, rd0_path.copy()),
        rd=MatrixPath(grid, rd_path.copy()),
        Abar_dag=MatrixPath(grid, Abar_path),
        Gbar_dag=MatrixPath(grid, Gbar_path),
        mbar_dag=MatrixPath(grid, mbar_path),
    )


# 4th-order finite-difference weights: interior central stencil plus
# one-sided stencils for the first/last two nodes.
_FD_CENTER = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0
_FD_EDGE0 = np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / 12.0
_FD_EDGE1 = np.array([-3.0, -10.0, 18.0, -6.0, 1.0]) / 12.0


def _fd_derivative(values: np.ndarray, h: float, j: int) -> np.ndarray:
    """Time derivative of a sampled path at node j, O(h^4)."""
    M = values.shape[0] - 1
    if M < 4:
        raise ValueError("need at least 5 nodes for the derivative stencil")
    if 2 <= j <= M - 2:
        window, weights = values[j - 2:j + 3], _FD_CENTER
    elif j == 0:
        window, weights = values[0:5], _FD_EDGE0
    elif j == 1:
        window, weights = values[0:5], _FD_EDGE1
    elif j == M - 1:
        window, weights = values[M - 4:M + 1], -_FD_EDGE1[::-1]
    else:
        window, weights = values[M - 4:M + 1], -_FD_EDGE0[::-1]
    return np.tensordot(weights, window, axes=(0, 0)) / h


def master_residual(model: ValidatedModel, sol: MasterSolution, sample) -> float:
    """Pointwise residual of the value-function equation at one sample.

    sample = (t, x0, zk, zbar, kappa) with kappa = 0 selecting the major
    player's equation. The evaluation snaps t to the nearest grid node,
    takes d/dt of the quadratic coefficients by finite differences of the
    solved paths, and subtracts the closed-form right-hand side assembled
    term by term (measure derivatives enter only through zbar; their
    second-order terms vanish for quadratic V). Returns the signed
    residual scaled by 1/(1 + |V|).
    """
    t, x0, zk, zbar, kappa = sample
    if not (0.0 < t < model.T):
        raise TimeOutOfRange(f"residual samples need t strictly inside (0, {model.T})")
    if not (0 <= kappa <= model.K):
        raise IndexOutOfRange(f"kappa={kappa} outside 0..{model.K}")
    x0 = np.asarray(x0, dtype=np.float64).reshape(-1)
    zk = np.asarray(zk, dtype=np.float64).reshape(-1)
    zbar = np.asarray(zbar, dtype=np.float64).reshape(-1)

    grid = sol.grid
    h = grid.h
    j = int(round(t / h))
    j = min(max(j, 1), grid.M - 1)
    n = model.n
    rho = model.rho
    blocks = _Blocks(model, sol.lifted)

    Abar = sol.Abar_dag.at(j)
    Gbar = sol.Gbar_dag.at(j)
    mbar = sol.mbar_dag.at(j)
    xi0 = np.concatenate([x0, zbar])

    if kappa == 0:
        P = sol.Pd0.at(j)
        s = sol.sd0.at(j)
        r = float(sol.rd0.at(j))
        dP = _fd_derivative(sol.Pd0.values, h, j)
        ds = _fd_derivative(sol.sd0.values, h, j)
        dr = float(_fd_derivative(sol.rd0.values, h, j))

        V = xi0 @ P @ xi0 + 2.0 * (s @ xi0) + r
        dV = xi0 @ dP @ xi0 + 2.0 * (ds @ xi0) + dr

        grad_x0 = P[:n, :] @ xi0 + s[:n]           # half of d V/d x0
        drift0 = model.A0 @ x0 + sol.lifted.F0_pi @ zbar
        chi_1 = 2.0 * grad_x0 @ drift0
        chi_2 = grad_x0 @ blocks.M0 @ grad_x0
        dev = x0 - sol.lifted.Gamma0_pi @ zbar - model.eta0
        chi_3 = dev @ model.Q0 @ dev
        chi_4 = float(np.trace(P[:n, :n] @ blocks.D0D0T))
        mean_drift = Gbar @ x0 + Abar @ zbar + mbar
        chi_56 = 2.0 * (P[n:, :] @ xi0 + s[n:]) @ mean_drift
        chi = chi_1 - chi_2 + chi_3 + chi_4 + chi_56
    else:
        P = sol.Pd.at(j)[kappa - 1]
        s = sol.sd.at(j)[kappa - 1]
        r = float(sol.rd.at(j)[kappa - 1])
        dP = _fd_derivative(sol.Pd.values, h, j)[kappa - 1]
        ds = _fd_derivative(sol.sd.values, h, j)[kappa - 1]
        dr = float(_fd_derivative(sol.rd.values, h, j)[kappa - 1])

        xik = np.concatenate([zk, x0, zbar])
        V = xik @ P @ xik + 2.0 * (s @ xik) + r
        dV = xik @ dP @ xik + 2.0 * (ds @ xik) + dr

        P0 = sol.Pd0.at(j)
        s0 = sol.sd0.at(j)
        grad_row2 = P[n:2 * n, :] @ xik + s[n:2 * n]
        closed0 = ((model.A0 - blocks.M0 @ P0[:n, :n]) @ x0
                   + (sol.lifted.F0_pi - blocks.M0 @ P0[:n, n:]) @ zbar
                   - blocks.M0 @ s0[:n])
        chi_12 = 2.0 * grad_row2 @ closed0
        chi_37 = float(np.trace(P[n:2 * n, n:2 * n] @ blocks.D0D0T)
                       + np.trace(P[:n, :n] @ blocks.DDT))
        grad_zk = P[:n, :] @ xik + s[:n]
        drift_k = model.A[kappa - 1] @ zk + model.G @ x0 + sol.lifted.F_pi @ zbar
        chi_4 = 2.0 * grad_zk @ drift_k
        chi_5 = grad_zk @ blocks.M @ grad_zk
        dev = zk - model.Gamma1 @ x0 - sol.lifted.Gamma2_pi @ zbar - model.eta
        chi_6 = dev @ model.Q @ dev
        mean_drift = Gbar @ x0 + Abar @ zbar + mbar
        chi_89 = 2.0 * (P[2 * n:, :] @ xik + s[2 * n:]) @ mean_drift
        chi = chi_12 + chi_37 + chi_4 - chi_5 + chi_6 + chi_89

    lhs = rho * V - dV
    return float((lhs - chi) / (1.0 + abs(V)))


def residual_sample(model, sol, t, x0, zk, zbar, kappa) -> ResidualSample:
    value = master_residual(model, sol, (t, x0, zk, zbar, kappa))
    return ResidualSample(t=t, x0=np.asarray(x0), zk=np.asarray(zk),
                          zbar=np.asarray(zbar), kappa=kappa, residual=value)


def master_feedback(sol: MasterSolution, model: ValidatedModel, t: float,
                    x0, zk, zbar, kappa: int):
    """Feedback controls read off the value-function gradients."""
    if not (0.0 <= t <= model.T):
        raise TimeOutOfRange(f"t={t} outside [0, {model.T}]")
    if not (1 <= kappa <= model.K):
        raise IndexOutOfRange(f"kappa={kappa} outside 1..{model.K}")
    x0 = np.asarray(x0, dtype=np.float64).reshape(-1)
    zk = np.asarray(zk, dtype=np.float64).reshape(-1)
    zbar = np.asarray(zbar, dtype=np.float64).reshape(-1)
    n = model.n

    P0 = sol.Pd0.interp(t)
    s0 = sol.sd0.interp(t)
    u0 = -np.linalg.solve(model.R0,
                          model.B0.T @ (P0[:n, :n] @ x0 + P0[:n, n:] @ zbar + s0[:n]))
    Pk = sol.Pd.interp(t)[kappa - 1]
    sk = sol.sd.interp(t)[kappa - 1]
    uk = -np.linalg.solve(model.R,
                          model.B.T @ (Pk[:n, :n] @ zk + Pk[:n, n:2 * n] @ x0
                                       + Pk[:n, 2 * n:] @ zbar + sk[:n]))
    return u0, uk


def _max_node_l1(a: np.ndarray, b: np.ndarray) -> float:
    d = np.abs(a - b).reshape(a.shape[0], -1)
    return float(d.sum(axis=1).max())


def compare_nce_master(nce_sol: NCESolution, master_sol: MasterSolution,
                       tol: float = 1e-8) -> DiffReport:
    """Max-over-nodes l1 discrepancies between the two solution routes."""
    if not nce_sol.grid.same_as(master_sol.grid):
        raise GridMismatch("solutions live on different grids")
    K = nce_sol.model.K
    diffs = {"P0": _max_node_l1(nce_sol.P0.values, master_sol.Pd0.values),
             "s0": _max_node_l1(nce_sol.s0.values, master_sol.sd0.values)}
    for k in range(K):
        diffs[f"P{k + 1}"] = _max_node_l1(nce_sol.P.values[:, k],
                                          master_sol.Pd.values[:, k])
        diffs[f"s{k + 1}"] = _max_node_l1(nce_sol.s.values[:, k],
                                          master_sol.sd.values[:, k])
    diffs["Abar"] = _max_node_l1(nce_sol.Abar.values, master_sol.Abar_dag.values)
    diffs["Gbar"] = _max_node_l1(nce_sol.Gbar.values, master_sol.Gbar_dag.values)
    diffs["mbar"] = _max_node_l1(nce_sol.mbar.values, master_sol.mbar_dag.values)
    return DiffReport(diffs=diffs, tol=tol)
