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

Two functions carry the route: `_field(model, lifted)` writes the
model's constants and returns `(layout, field)` from `compile_field`, as
the other compiled routes do, and `_mean_field(model, lifted, P, s)`
materializes Abar, Gbar and mbar at every node of the solved path.
"""

from dataclasses import dataclass

import numpy as np

from .equations import compile_field
from .model import PiLifted, TimeGrid, ValidatedModel, lift_pi
from .ode import (DEFAULT_BLOWUP_THRESHOLD, ESTIMATE_SLACK, BlowUpReport,
                  MatrixPath, check_budget, integrate_backward)


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


def _field(model: ValidatedModel, lifted: PiLifted):
    """(layout, field): the compiled field of the flat (P0, P, s0, s)
    state, the layout cached with the field's tables per shape."""
    n, K = model.n, model.K
    d0, d1 = n * (K + 1), n * (K + 2)
    consts = {
        "A0": model.A0, "F0_pi": lifted.F0_pi, "A": model.A,
        "G": model.G, "F_pi": lifted.F_pi,
        # control-weighted input squares: small-space for the algebraic
        # constraints, on the stacked spaces for the Riccati tiers
        "BRB": model.B @ np.linalg.solve(model.R, model.B.T),
        "K0mat": lifted.B0_lift @ np.linalg.solve(model.R0, lifted.B0_lift.T),
        "Kmat": lifted.B_lift @ np.linalg.solve(model.R, lifted.B_lift.T),
        "Q0_pi": lifted.Q0_pi, "Q_pi": lifted.Q_pi,
        "eta0_pi": lifted.eta0_pi[:, None], "eta_pi": lifted.eta_pi[:, None],
        "Z": np.zeros((d0, n)), "Zn": np.zeros((n, 1)),
        "R": model.R, "B_lift": lifted.B_lift, "B": model.B,
        "rho": model.rho,
    }
    return compile_field(
        [("P0", (d0, d0), "kernel"), ("P", (K, d1, d1), "kernel"),
         ("s0", (d0,), "vector"), ("s", (K, d1), "vector")],
        [consts], _NCE_NAMES, _NCE_EQUATIONS, {"n": n, "K": K, "d1": d1})


def _mean_field(model: ValidatedModel, lifted: PiLifted, P, s):
    """The consistency constraints at every node: Abar (..., nK, nK) and
    Gbar (..., nK, n) rebuilt from the kernel blocks P (..., K, d1, d1),
    and mbar (..., nK), block kappa = -B R^{-1} B_lift^T s_kappa, from the
    offsets s (..., K, d1); each node's rows as the same calls give them
    for that node alone."""
    n, K = model.n, model.K
    BRB = model.B @ np.linalg.solve(model.R, model.B.T)
    lead = P.shape[:-3]
    Abar = lifted.F_pi - BRB @ P[..., :n, 2 * n:]        # (..., K, n, nK)
    # type k's own dynamics sit in block column k of its row block: the
    # flat positions of those blocks in a (K, n, nK) stack, in (k, i, j)
    # order
    k, i, j = np.ogrid[:K, :n, :n]
    own = (k * (n * K * n + n) + i * (K * n) + j).ravel()
    Abar.reshape(lead + (-1,))[..., own] += (
        model.A - BRB @ P[..., :n, :n]).reshape(lead + (-1,))
    Gbar = model.G - BRB @ P[..., :n, n:2 * n]
    # B_lift^T s_kappa only sees the leading n entries of s_kappa
    w = np.linalg.solve(model.R, (s @ lifted.B_lift).swapaxes(-1, -2))
    mbar = -(w.swapaxes(-1, -2) @ model.B.T)
    return (Abar.reshape(lead + (K * n, K * n)),
            Gbar.reshape(lead + (K * n, n)), mbar.reshape(lead + (K * n,)))


def _mean_field_floats(model: ValidatedModel) -> int:
    """Floats per node that _mean_field holds at its peak: Abar (a =
    (nK)^2 floats), Gbar (b = K n^2) and mbar (v = nK) as they are made,
    with the temporaries alive beside them, w = K n1 floats for each of
    the solve's operand and result."""
    n, K = model.n, model.K
    a, b, v, w = (n * K) ** 2, K * n * n, n * K, K * model.n1
    return a + max(a,                 # BRB @ P[..., :n, 2n:] beside Abar
                   3 * b,             # own blocks: the gather, BRB @ P, A - it
                   b + 2 * w,         # Gbar, s @ B_lift and its solve
                   b + w + 2 * v)     # Gbar, the solve, its product, mbar


def solve_bytes(model: ValidatedModel, M: int, constants: int,
                mean_field: int) -> int:
    """Bytes a stored solve holds at its peak on M + 1 nodes, counted from
    the model's dims: per node, the march's state of kernels
    (d0^2 + K d1^2 floats), offsets (d0 + K d1) and `constants` scalars
    (none for solve_nce, K + 1 for solve_master), and `mean_field` floats,
    the peak of the route's materializing of Abar, Gbar and mbar (its
    _mean_field_floats); and ode.ESTIMATE_SLACK."""
    n, K = model.n, model.K
    d0, d1 = n * (K + 1), n * (K + 2)
    floats = d0 * d0 + K * d1 * d1 + d0 + K * d1 + constants + mean_field
    return 8 * (M + 1) * floats + ESTIMATE_SLACK


def solve_nce(model: ValidatedModel, grid: TimeGrid,
              threshold: float = DEFAULT_BLOWUP_THRESHOLD):
    """Solve the consistency DAE; a BlowUpReport means no solution on [0,T].

    The kernels and offsets are integrated in one pass. An escape of the
    kernels is the no-solution verdict; the offsets, which solve a linear
    system with coefficients built from the kernels, are bounded while
    the kernels are and are not judged. The algebraic variables are then
    materialized at every node. A solve whose peak (solve_bytes) exceeds
    the memory budget raises NTooLargeForMemory before anything is lifted
    or compiled.
    """
    grid.require_horizon(model.T)
    check_budget(f"a stored nce solve on {grid.M + 1} nodes",
                 solve_bytes(model, grid.M, constants=0,
                             mean_field=_mean_field_floats(model)))
    lifted = lift_pi(model)
    layout, field = _field(model, lifted)
    K, d1 = model.K, model.n * (model.K + 2)
    terminal = layout.pack(lifted.Q0f_pi,
                           np.broadcast_to(lifted.Qf_pi, (K, d1, d1)),
                           -lifted.eta0f_pi,
                           np.broadcast_to(-lifted.etaf_pi, (K, d1)))
    path = integrate_backward(field, terminal, grid, threshold=threshold,
                              symmetrize=layout.sym,
                              escape_length=layout.escape_length)
    if isinstance(path, BlowUpReport):
        return path

    paths = layout.paths(path)
    Abar, Gbar, mbar = _mean_field(model, lifted, paths["P"].values,
                                   paths["s"].values)
    return NCESolution(
        model=model, lifted=lifted, grid=grid, **paths,
        Abar=MatrixPath(grid, Abar), Gbar=MatrixPath(grid, Gbar),
        mbar=MatrixPath(grid, mbar),
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

