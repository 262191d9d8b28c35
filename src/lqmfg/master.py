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
equations stay single numpy calls. `_field(model, lifted)` writes the
model's constants and returns `(layout, field)` from `compile_field`, as
the other compiled routes do, and `_mean_field(model, lifted, Pd, sd)`
rebuilds Abar_dag, Gbar_dag and mbar_dag at every node of the solved
path.
"""

from dataclasses import dataclass

import numpy as np

from .equations import compile_field
from .errors import GridMismatch
from .model import PiLifted, TimeGrid, ValidatedModel, block_selector, lift_pi
from .nce import NCESolution, solve_bytes
from .ode import (DEFAULT_BLOWUP_THRESHOLD, BlowUpReport, MatrixPath,
                  check_budget, integrate_backward)


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


def _field(model: ValidatedModel, lifted: PiLifted):
    """(layout, field): the compiled field of the flat (Pd0, Pd, sd0, sd,
    rd0, rd) state, the layout cached with the field's tables per shape."""
    n, K = model.n, model.K
    d0, d1 = n * (K + 1), n * (K + 2)
    consts = {
        "A0": model.A0, "F0_pi": lifted.F0_pi, "A": model.A,
        "G": model.G, "F_pi": lifted.F_pi,
        "M0": model.B0 @ np.linalg.solve(model.R0, model.B0.T),
        "M": model.B @ np.linalg.solve(model.R, model.B.T),
        "sel": np.stack([block_selector(l, K, n) for l in range(1, K + 1)]),
        "D0D0T": model.D0 @ model.D0.T, "DDT": model.D @ model.D.T,
        "eta0_q": np.full((1, 1), float(model.eta0 @ model.Q0 @ model.eta0)),
        "eta_q": np.full((1, 1), float(model.eta @ model.Q @ model.eta)),
        "Q0_pi": lifted.Q0_pi, "Q_pi": lifted.Q_pi,
        "eta0_pi": lifted.eta0_pi[:, None], "eta_pi": lifted.eta_pi[:, None],
        "Znn": np.zeros((n, n)), "ZKn": np.zeros((K * n, n)),
        "rho": model.rho,
    }
    return compile_field(
        [("Pd0", (d0, d0), "kernel"), ("Pd", (K, d1, d1), "kernel"),
         ("sd0", (d0,), "vector"), ("sd", (K, d1), "vector"),
         ("rd0", (), "scalar"), ("rd", (K,), "scalar")],
        [consts], _MASTER_NAMES, _MASTER_EQUATIONS, {"n": n, "K": K})


def _mean_field(model: ValidatedModel, lifted: PiLifted, Pd, sd):
    """Abar_dag (..., nK, nK) and Gbar_dag (..., nK, n) rebuilt from each
    type's kernel blocks Pd (..., K, d1, d1), its K row blocks stacked,
    and mbar_dag (..., nK), block l = -M sd_l,1, from the offsets sd
    (..., K, d1).

    Own-dynamics terms sit in the type's own block column (the 'selector
    at l' reading; the alternative fixed-last-block reading is
    incompatible with the consistency route for K >= 2).
    """
    n, K = model.n, model.K
    M = model.B @ np.linalg.solve(model.R, model.B.T)
    selectors = np.stack([block_selector(l, K, n) for l in range(1, K + 1)])
    lead = Pd.shape[:-3]
    Abar = ((model.A - M @ Pd[..., :n, :n]) @ selectors
            + lifted.F_pi - M @ Pd[..., :n, 2 * n:])
    Gbar = model.G - M @ Pd[..., :n, n:2 * n]
    mbar = -(sd[..., :n] @ M.T)
    return (Abar.reshape(lead + (K * n, K * n)),
            Gbar.reshape(lead + (K * n, n)), mbar.reshape(lead + (K * n,)))


def _mean_field_floats(model: ValidatedModel) -> int:
    """Floats per node that _mean_field holds at its peak: Abar (a =
    (nK)^2 floats), Gbar (b = K n^2) and mbar (v = nK) as they are made,
    with the temporaries alive beside them."""
    n, K = model.n, model.K
    a, b, v = (n * K) ** 2, K * n * n, n * K
    return max(3 * a,                 # (A - M Pd) sel + F_pi, M @ Pd, Abar
               a + 2 * b,             # M @ Pd[..., n:2n] beside Gbar
               a + b + 2 * v)         # sd @ M.T beside mbar


def solve_master(model: ValidatedModel, grid: TimeGrid,
                 threshold: float = DEFAULT_BLOWUP_THRESHOLD):
    """Solve the quadratic-coefficient ODE system, or report finite escape.

    Kernels, offsets and constants are integrated in one pass. Escape is
    judged on the kernels alone, the no-quadratic-solution verdict: the
    offsets solve a linear system with coefficients built from the
    kernels and the constants integrate bounded terms, so bounded
    kernels bound both. A solve whose peak (nce.solve_bytes, with its
    K + 1 constants and this route's _mean_field_floats) exceeds the
    memory budget raises NTooLargeForMemory before anything is lifted or
    compiled.
    """
    grid.require_horizon(model.T)
    check_budget(f"a stored master solve on {grid.M + 1} nodes",
                 solve_bytes(model, grid.M, constants=model.K + 1,
                             mean_field=_mean_field_floats(model)))
    lifted = lift_pi(model)
    layout, field = _field(model, lifted)
    K, d1 = model.K, model.n * (model.K + 2)
    terminal = layout.pack(
        lifted.Q0f_pi,
        np.broadcast_to(lifted.Qf_pi, (K, d1, d1)),
        -lifted.eta0f_pi,
        np.broadcast_to(-lifted.etaf_pi, (K, d1)),
        model.eta0f @ model.Q0f @ model.eta0f,
        np.full(K, model.etaf @ model.Qf @ model.etaf),
    )
    path = integrate_backward(field, terminal, grid, threshold=threshold,
                              symmetrize=layout.sym,
                              escape_length=layout.escape_length)
    if isinstance(path, BlowUpReport):
        return path

    paths = layout.paths(path)
    Abar, Gbar, mbar = _mean_field(model, lifted, paths["Pd"].values,
                                   paths["sd"].values)
    return MasterSolution(
        model=model, lifted=lifted, grid=grid, **paths,
        Abar_dag=MatrixPath(grid, Abar), Gbar_dag=MatrixPath(grid, Gbar),
        mbar_dag=MatrixPath(grid, mbar),
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
    if nce_sol.grid != master_sol.grid:
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
