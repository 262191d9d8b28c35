"""Consistency-equation solver (the fixed-point route to the equilibrium).

The equilibrium is characterized by a differential-algebraic system: one
Riccati kernel P0 of size n(K+1) for the major player's limiting problem,
K kernels P_kappa of size n(K+2) for the representative minor players, and
the algebraic consistency constraints that rebuild the postulated mean
field generator (Abar, Gbar, mbar) from the kernel blocks. Offsets
(s0, s_kappa) satisfy a linear backward system coupled through mbar.

The DAE is solved by substitution: the algebraic variables are eliminated
into the ODE fields, so each stage evaluation rebuilds Abar/Gbar from the
current kernels and mbar from the current offsets. The field is written
as equation text (_NCE_NAMES, _NCE_EQUATIONS), with the per-type blocks
stacked over the K types and the closed-loop drift matrices assembled
from blocks, and compiled by `equations.compile_equations` into index
tables cached per shape; the two einsum offset terms and the
np.linalg.solve of the mbar constraint stay single numpy calls. The
text is this route's own: the value-function route and the limit system
share only the evaluator with it, as they share the integrator. Kernels
and offsets are advanced together in one pass, so the offset system sees
stage-exact kernel values; the kernels never read the offsets, so their
escape is judged on the kernels alone.
"""

from dataclasses import dataclass

import numpy as np

from .equations import compile_field
from .model import PiLifted, TimeGrid, ValidatedModel, lift_pi
from .ode import (DEFAULT_BLOWUP_THRESHOLD, BlowUpReport, MatrixPath,
                  integrate_backward)


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


# d(P0, P, s0, s)/dt, one equation per state segment. Vectors are
# (d, 1) columns, the K types are stacked on a leading axis, and S is the
# (K, d1) matrix whose rows are the type offsets.
_NCE_NAMES = {
    # the consistency constraints: type k's row blocks of Abar and Gbar,
    # its own dynamics added in its own block column
    "Abar": "(F_pi - BRB @ P[:, :n, 2 * n:]"
            " + diag(A - BRB @ P[:, :n, :n])).reshape(K * n, K * n)",
    "Gbar": "(G - BRB @ P[:, :n, n:2 * n]).reshape(K * n, n)",
    # the closed-loop drift matrices of both Riccati tiers
    "A0blk": "block([[A0, F0_pi], [Gbar, Abar]])",
    "Acal": "block([[A, G, F_pi], [Z, A0blk - K0mat @ P0]])",
    "S": "s.reshape(K, d1)",
    # the constraint mbar block kappa = -B R^{-1} B_lift^T s_kappa
    "mbar": "-(solve(R, (S @ B_lift).T).T @ B.T)",
    "K0s": "K0mat @ s0",
    "M0vec": "block([[Zn], [mbar.reshape(K * n, 1)]])",
    "Mvec": "block([[Zn], [M0vec - K0s]])",
}
_NCE_EQUATIONS = (
    "rho * P0 - P0 @ A0blk - A0blk.T @ P0 + P0 @ K0mat @ P0 - Q0_pi",
    "rho * P - P @ Acal - Acal.T @ P + P @ Kmat @ P - Q_pi",
    "rho * s0 - A0blk.T @ s0 + P0 @ K0s - P0 @ M0vec + eta0_pi",
    "rho * s - einsum('kji,kj->ki', Acal, S).reshape(K, d1, 1)"
    " + einsum('kij,kj->ki', P, S @ Kmat).reshape(K, d1, 1)"
    " - P @ Mvec + eta_pi",
)


class _Workspace:
    """Precomputed constants for one solve, with the state layout and
    compiled field (the layout cached with the field's tables)."""

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

        # flat positions of type k's own block column in row block k of
        # a (K, n, nK) stack, in (k, i, j) order
        k, i, j = np.ogrid[:K, :n, :n]
        self.own = (k * (n * K * n + n) + i * (K * n) + j).ravel()

        consts = {
            "A0": model.A0, "F0_pi": lifted.F0_pi, "A": model.A,
            "G": model.G, "F_pi": lifted.F_pi, "BRB": self.BRB,
            "K0mat": self.K0mat, "Kmat": self.Kmat,
            "Q0_pi": lifted.Q0_pi, "Q_pi": lifted.Q_pi,
            "eta0_pi": lifted.eta0_pi[:, None], "eta_pi": lifted.eta_pi[:, None],
            "Z": np.zeros((self.d0, n)), "Zn": np.zeros((n, 1)),
            "R": model.R, "B_lift": lifted.B_lift, "B": model.B,
            "rho": model.rho,
        }
        # d(state)/dt of the flat (P0, P, s0, s) state, as a new flat array
        self.layout, self.field = compile_field(
            [("P0", (self.d0, self.d0), "kernel"),
             ("P", (K, self.d1, self.d1), "kernel"),
             ("s0", (self.d0,), "vector"), ("s", (K, self.d1), "vector")],
            [consts], _NCE_NAMES, _NCE_EQUATIONS,
            {"n": n, "K": K, "d1": self.d1})

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

    def mbar_from_s(self, s):
        """Constraint: mbar block kappa = -B R^{-1} B_lift^T s_kappa; s is
        (..., K, d1) and the result (..., K, n) carries its leading axes,
        each node's rows as the same calls give them for that node alone."""
        # B_lift^T s_kappa only sees the leading n entries of s_kappa
        w = np.linalg.solve(self.model.R,
                            (s @ self.lifted.B_lift).swapaxes(-1, -2))
        return -(w.swapaxes(-1, -2) @ self.model.B.T)


def solve_nce(model: ValidatedModel, grid: TimeGrid,
              threshold: float = DEFAULT_BLOWUP_THRESHOLD):
    """Solve the consistency DAE; a BlowUpReport means no solution on [0,T].

    The kernels and offsets are integrated in one pass. An escape of the
    kernels is the no-solution verdict; if only kernels plus offsets cross
    the threshold, that marginal escape is still a no-solution verdict,
    reported where the joint norm crossed. The algebraic variables are
    then materialized at every node.
    """
    ws = _Workspace(model, lift_pi(model))
    K, d1, layout = ws.K, ws.d1, ws.layout

    terminal = layout.pack(ws.lifted.Q0f_pi,
                           np.broadcast_to(ws.lifted.Qf_pi, (K, d1, d1)),
                           -ws.lifted.eta0f_pi,
                           np.broadcast_to(-ws.lifted.etaf_pi, (K, d1)))
    path = integrate_backward(ws.field, terminal, grid, threshold=threshold,
                              symmetrize=layout.sym, prefixes=layout.prefixes)
    if isinstance(path, BlowUpReport):
        return path

    paths = layout.paths(path)
    Abar_path, Gbar_path = ws.consistency_blocks(paths["P"].values)
    mbar_path = ws.mbar_from_s(paths["s"].values).reshape(grid.M + 1, K * ws.n)

    return NCESolution(
        model=model, lifted=ws.lifted, grid=grid, **paths,
        Abar=MatrixPath(grid, Abar_path),
        Gbar=MatrixPath(grid, Gbar_path),
        mbar=MatrixPath(grid, mbar_path),
    )


def nce_gains(sol: NCESolution, times: np.ndarray):
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

