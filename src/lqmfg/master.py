"""Quadratic value-function route.

The value functions of the limiting game are sought as quadratic forms
V0 = xi0' Pd0 xi0 + 2 sd0' xi0 + rd0 in xi0 = (x0, zbar) and
Vk = xik' Pdk xik + 2 sdk' xik + rdk in xik = (zk, x0, zbar). Plugging the
ansatz into the coupled first-order equations on (time, state, measure)
reduces them to backward matrix ODEs for the kernels, linear ODEs for the
offsets, and scalar quadratures for the constants.

This module assembles those ODE fields independently of the nce module
(different block construction and quadratic-term evaluation) and solves
them with the shared integrator. The pointwise residual of the original
equations, the correctness certificate of acceptance criterion 3, is
kept with the tests (tests/helpers.py::master_residual): its time
derivative comes from finite differences of the solved paths, never from
the ODE right-hand side, so coefficient corruption is actually detectable.

The field is written as equation text (_MASTER_NAMES, _MASTER_EQUATIONS),
with the per-type blocks stacked over the K types and the drift blocks
assembled from blocks, and compiled by `equations.compile_equations`
into index tables cached per shape; the np.trace terms of the constants'
equations stay single numpy calls.
"""

from dataclasses import dataclass

import numpy as np

from .equations import compile_field
from .errors import GridMismatch
from .model import PiLifted, TimeGrid, ValidatedModel, block_selector, lift_pi
from .nce import NCESolution
from .ode import (DEFAULT_BLOWUP_THRESHOLD, BlowUpReport, MatrixPath,
                  integrate_backward)


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


# d(Pd0, Pd, sd0, sd, rd0, rd)/dt, one equation per state segment.
# Vectors are (d, 1) columns, the K types are stacked on a leading axis,
# and the constants rd0, rd are (1, 1) per type.
_MASTER_NAMES = {
    # type l's row blocks of Abar_dag and Gbar_dag, its own dynamics
    # selected into its own block column
    "Abar": "((A - M @ Pd[:, :n, :n]) @ sel + F_pi"
            " - M @ Pd[:, :n, 2 * n:]).reshape(K * n, K * n)",
    "Gbar": "(G - M @ Pd[:, :n, n:2 * n]).reshape(K * n, n)",
    "A0blk": "block([[A0, F0_pi], [Gbar, Abar]])",
    "Acal": "block([[A, G, F_pi],"
            " [Znn, A0 - M0 @ Pd0[:n, :n], F0_pi - M0 @ Pd0[:n, n:]],"
            " [ZKn, A0blk[n:, :]]])",
    # mbar_dag block l = -M sd_l,1
    "mbar": "(-(sd[:, :n].T.reshape(K, n) @ M.T)).reshape(K * n, 1)",
    "m0s": "M0 @ sd0[:n]",
    "theta0": "eta0_q - sd0[:n].T @ M0 @ sd0[:n] + trace(Pd0[:n, :n] @ D0D0T)"
              " + 2.0 * (sd0[n:].T @ mbar)",
    "theta": "eta_q - sd[:, :n].T @ M @ sd[:, :n]"
             " - 2.0 * (sd[:, n:2 * n].T @ m0s)"
             " + trace(Pd[:, n:2 * n, n:2 * n] @ D0D0T)"
             " + trace(Pd[:, :n, :n] @ DDT) + 2.0 * (sd[:, 2 * n:].T @ mbar)",
}
_MASTER_EQUATIONS = (
    "rho * Pd0 - Pd0 @ A0blk - A0blk.T @ Pd0"
    " + Pd0[:, :n] @ M0 @ Pd0[:n, :] - Q0_pi",
    "rho * Pd - Pd @ Acal - Acal.T @ Pd"
    " + Pd[:, :, :n] @ M @ Pd[:, :n, :] - Q_pi",
    "rho * sd0 - A0blk.T @ sd0 + Pd0[:, :n] @ m0s - Pd0[:, n:] @ mbar"
    " + eta0_pi",
    "rho * sd - Acal.T @ sd + Pd[:, :, :n] @ (M @ sd[:, :n])"
    " + Pd[:, :, n:2 * n] @ m0s - Pd[:, :, 2 * n:] @ mbar + eta_pi",
    "rho * rd0 - theta0",
    "rho * rd - theta",
)


class _Blocks:
    """Constants, state layout and compiled field of the
    quadratic-solution ODEs (the layout cached with the field's
    tables)."""

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
        consts = {
            "A0": model.A0, "F0_pi": lifted.F0_pi, "A": model.A,
            "G": model.G, "F_pi": lifted.F_pi, "M0": self.M0, "M": self.M,
            "sel": self.selectors, "D0D0T": self.D0D0T, "DDT": self.DDT,
            "eta0_q": np.full((1, 1), self.eta0_q),
            "eta_q": np.full((1, 1), self.eta_q),
            "Q0_pi": lifted.Q0_pi, "Q_pi": lifted.Q_pi,
            "eta0_pi": lifted.eta0_pi[:, None], "eta_pi": lifted.eta_pi[:, None],
            "Znn": np.zeros((n, n)), "ZKn": np.zeros((K * n, n)),
            "rho": model.rho,
        }
        # d(state)/dt of the flat state, as a new flat array
        self.layout, self.field = compile_field(
            [("Pd0", (self.d0, self.d0), "kernel"),
             ("Pd", (K, self.d1, self.d1), "kernel"),
             ("sd0", (self.d0,), "vector"), ("sd", (K, self.d1), "vector"),
             ("rd0", (), "scalar"), ("rd", (K,), "scalar")],
            [consts], _MASTER_NAMES, _MASTER_EQUATIONS, {"n": n, "K": K})

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


def solve_master(model: ValidatedModel, grid: TimeGrid,
                 threshold: float = DEFAULT_BLOWUP_THRESHOLD):
    """Solve the quadratic-coefficient ODE system, or report finite escape.

    Kernels, offsets and constants are integrated in one pass. Escape is
    judged level by level on the nested prefixes of the state: a kernel
    escape is the no-quadratic-solution verdict; otherwise the report is
    the one of kernels plus offsets if those cross, else that of the full
    stack (both marginal escapes, still no solution).
    """
    blocks = _Blocks(model, lift_pi(model))
    K, d1, layout = blocks.K, blocks.d1, blocks.layout
    lifted = blocks.lifted

    terminal = layout.pack(
        lifted.Q0f_pi,
        np.broadcast_to(lifted.Qf_pi, (K, d1, d1)),
        -lifted.eta0f_pi,
        np.broadcast_to(-lifted.etaf_pi, (K, d1)),
        model.eta0f @ model.Q0f @ model.eta0f,
        np.full(K, model.etaf @ model.Qf @ model.etaf),
    )
    path = integrate_backward(blocks.field, terminal, grid, threshold=threshold,
                              symmetrize=layout.sym, prefixes=layout.prefixes)
    if isinstance(path, BlowUpReport):
        return path

    paths = layout.paths(path)
    Abar_path, Gbar_path = blocks.mean_field_rows(paths["Pd"].values)
    mbar_path = blocks.mbar_vec(paths["sd"].values)

    return MasterSolution(
        model=model, lifted=lifted, grid=grid, **paths,
        Abar_dag=MatrixPath(grid, Abar_path),
        Gbar_dag=MatrixPath(grid, Gbar_path),
        mbar_dag=MatrixPath(grid, mbar_path),
    )


def master_gains(sol: MasterSolution, times: np.ndarray):
    """Same as `nce.nce_gains`, read from the quadratic-solution
    coefficients: the gains act on (x0, z) and (zk, x0, z)."""
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
