"""Finite-population route for homogeneous minor players.

For K = 1 the N+1-player game has an exact feedback Nash solution through
one large coupled Riccati system. Exchangeability of the minor players
collapses that system to two representative matrices, and those to nine
distinct n-by-n kernel tiles and five offset n-blocks whose closed ODE
has N only in scalar coefficients; re-scaled by powers of N it is the
limit system (nine kernel blocks, five offsets) plus terms in e = 1/N.
The limit system is written once, as _LIMIT_EQUATIONS; the tile text
appends the e-terms. One solve (_solve_system) marches either: the tile
system at e = 1/N (solve_tiles; cost independent of N, the one source of
scaled tiles, and the boundedness check runs on it) and the limit system
at e = 0 (solve_lambda), both with the kernels as the inner escape level
and kernels plus offsets as the outer one. It marches one member per e
given, as one batch: check_asymptotic_solvability solves the tile
systems of all its N in one march (_solve_tiles), each member bitwise
its solve alone, while solve_lambda, the independent cross-check, stays
a solve of its own.

This module also builds the large system and solves it reduced to the
two representative players (the matrices whose tiles the structure check
clusters and counts), reads the limit system's blocks off the
consistency-route solution (phi_from_nce: kernels by block, offsets by
s0 -> (s0, sm), s -> (t1, t0, to)), and runs the structural and
boundedness checks tying them together.

The reduced field (_ReducedFields) is hand-written, not compiled: the
compiler's index tables would hold d^2 addresses per operand at side
d = (N+1)n. It evaluates the two players as one stack. Their kernels,
and their offsets, are adjacent in the flat state, so a product that
both take with one shared operand is one stacked matmul: a gemm (a gemv
for a column) per member, bitwise that member's own product. Sums are
added in the one-player text's left-to-right order into views of one
fresh output array. The offsets' coupling terms stay W.T @ s, as s @ W
is another BLAS call and rounds differently. solve_finite_n sizes the
whole solve (finite_n_bytes) before anything is assembled.
"""

from dataclasses import dataclass

import numpy as np

from .equations import compile_field
from .errors import GridMismatch, KNotOne
from .master import DiffReport, _max_node_l1
from .model import TimeGrid, ValidatedModel
from .nce import NCESolution
from .ode import (DEFAULT_BLOWUP_THRESHOLD, ESTIMATE_SLACK, BlowUpReport,
                  MatrixPath, StateLayout, check_budget, integrate_backward,
                  integrate_members)
from .sim import check_population

# Tiles closer than this (l1, up to transpose) belong to one cluster.
TILE_TOL = 1e-8

# The nine block names shared by the small-ODE system, the consistency-route
# partition, and the scaled-tile limits. Leading "0"-superscript trio comes
# from the major player's kernel, the rest from the representative minor's.
BLOCK_KEYS = ("1_0", "2_0", "3_0", "0", "1", "2", "3", "a", "b")
_SYMMETRIC_KEYS = {"1_0", "3_0", "0", "1", "3"}

# N-scaling exponent per block: tile * N**e approaches the small-system
# block. With them the scaled tile field at 1/N = 0 is the limit field
# (tests/test_asymptotic.py::test_tile_field_at_zero_is_the_lambda_field);
# criterion 6 and the tile tests pin the ~1/N rate.
SCALING_EXPONENTS = {"1_0": 0, "2_0": 1, "3_0": 2,
                     "0": 0, "1": 0, "a": 0, "2": 1, "b": 1, "3": 2}


def _require_k1(model: ValidatedModel):
    if model.K != 1:
        raise KNotOne(f"finite-population route needs K=1, got K={model.K}")


# Largest population size: up to 2**53 every integer, N - 1 included, is
# a float, so the coefficients N, 1/N and (N - 1)/N stay distinct.
MAX_POPULATION = 2 ** 53


def _require_population(model: ValidatedModel, N: int):
    _require_k1(model)
    check_population(N)
    if N > MAX_POPULATION:
        raise ValueError(f"population size N={N} exceeds 2**53, the "
                         f"largest N that float arithmetic tells from N - 1")


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


def assemble_finite_n(model: ValidatedModel, N: int) -> FiniteNSystem:
    """Stack the N+1 individual dynamics and costs into one state space;
    NTooLargeForMemory, before any allocation, if its peak of seven
    matrices of side (N+1)n (five kept, two temporaries) exceeds the
    memory budget."""
    _require_population(model, N)
    n = model.n
    d = (N + 1) * n
    check_budget(f"assembling N={N} minor players ({d}x{d} matrices)",
                 8 * 7 * d * d)
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
    M0, M = _input_weights(model)

    return FiniteNSystem(
        model=model, N=N,
        Ahat=Ahat,
        Ahat_rho2=Ahat - (model.rho / 2.0) * np.eye(d),
        Ahat_rho=Ahat - model.rho * np.eye(d),
        M0=M0, M=M,
        K0=K0, K0f=K0f,
        Q0_big=(Q0_big + Q0_big.T) / 2.0,
        Q0f_big=(Q0f_big + Q0f_big.T) / 2.0,
        lin0=K0.T @ (model.Q0 @ model.eta0),
        lin0_f=-K0f.T @ (model.Q0f @ model.eta0f),
    )


@dataclass(frozen=True)
class FiniteNSolution:
    """Representative Riccati/offset paths of the N+1-player game.

    Player i in 2..N holds player 1's paths with state blocks 1 and i
    exchanged (exchangeability, which the tests audit against a march of
    all N+1 players), so only the two representative paths are stored
    regardless of N.
    """

    model: ValidatedModel
    N: int
    grid: TimeGrid
    P0_big: MatrixPath
    P1_big: MatrixPath
    S0_big: MatrixPath
    S1_big: MatrixPath


class _ReducedFields:
    """Symmetry-reduced field of players 0 and 1: field(t, flat) is the
    derivative of the flat state P0, P1, S0, S1 (two kernels, then two
    offsets, of side d = (N+1)n), evaluated on the (2, d, d) and (2, d)
    views PP = (P0, P1) and SS = (S0, S1) by the stacking rules of the
    module docstring, bitwise tests/helpers.py::ReducedFieldsRef.

    Of the system it keeps only the arrays it reads. The operands of the
    sums land in one (2, d, d) scratch array, and the coupling matrix W
    and the padded own-input vector in buffers of their own, all set up
    once per solve. The output array is new at each call (RK4 holds four
    stages at once) and shares no memory with them.
    """

    def __init__(self, sys: FiniteNSystem):
        n, N, d = sys.model.n, sys.N, sys.dim
        self.n, self.N, self.d = n, N, d
        self.M0, self.M = sys.M0, sys.M
        self.Ar2, self.Q0_big = sys.Ahat_rho2, sys.Q0_big
        self.negArT = -sys.Ahat_rho.T
        self.lins = np.stack([sys.lin0, sys.lin_minor(1)])
        self.Q1_big = sys.Q_minor(1)
        # row block 0 of W and block 0 of vS stay +0.0
        self._W = np.zeros((d, d))
        self._vS = np.zeros(d)
        self._scratch = np.empty((2, d, d))
        # W's minor rows as (row block j - 1, row in block, column block,
        # column in block), their column block 1, and their blocks
        # (j - 1, j): block j of row block j - 1 starts j (n d + n) floats
        # into W, and block N ends on W's last float
        rows = self._W[n:].reshape(N, n, N + 1, n)
        item = self._W.itemsize
        self._rows, self._col1 = rows, rows[:, :, 1]
        self._diag = np.lib.stride_tricks.as_strided(
            rows[0, 0, 1], shape=(N, n, n),
            strides=((n * d + n) * item, d * item, item))

    def coupling(self, MP1: np.ndarray) -> np.ndarray:
        """Sum over minors of (own-input gain) x (own Riccati matrix),
        from MP1 = M @ (row block 1 of P1), in a buffer that the next
        call overwrites.

        Row-block j of minor j's matrix is row-block 1 of P1 with column
        blocks 1 and j exchanged; nothing beyond exchangeability is
        assumed.
        """
        base = MP1.reshape(self.n, self.N + 1, self.n)
        self._rows[:] = base
        self._col1[:] = base[:, 1:].transpose(1, 0, 2)
        self._diag[:] = base[:, 1]
        return self._W

    def field(self, t, flat: np.ndarray) -> np.ndarray:
        n, d = self.n, self.d
        sq = d * d
        PP = flat[:2 * sq].reshape(2, d, d)
        SS = flat[2 * sq:].reshape(2, d)
        P0n, P1n, P1m = PP[0, :, :n], PP[1, :, :n], PP[1, :, n:2 * n]
        M0PP = self.M0 @ PP[:, :n, :]
        MP1 = self.M @ PP[1, n:2 * n, :]
        W = self.coupling(MP1)
        Ar2 = self.Ar2
        out = np.empty(2 * sq + 2 * d)
        dPP = out[:2 * sq].reshape(2, d, d)
        dSS = out[2 * sq:].reshape(2, d)
        scr = self._scratch

        # dP0 = -(P0 Ar2 + Ar2' P0) + P0n M0P0 + P0 W + W' P0 - Q0
        # dP1 = -(P1 Ar2 + Ar2' P1) - P1m MP1 + P1n M0P0 + P0n M0P1
        #       + P1 W + W' P1 - Q1
        np.matmul(PP, Ar2, out=dPP)
        dPP += np.matmul(Ar2.T, PP, out=scr)
        np.negative(dPP, out=dPP)
        dPP[1] -= np.matmul(P1m, MP1, out=scr[0])
        dPP += np.matmul(PP[:, :, :n], M0PP[0], out=scr)
        dPP[1] += np.matmul(P0n, M0PP[1], out=scr[0])
        dPP += np.matmul(PP, W, out=scr)
        dPP += np.matmul(W.T, PP, out=scr)
        dPP[0] -= self.Q0_big
        dPP[1] -= self.Q1_big

        # dS0 = -Ar' S0 + P0n M0S0 + W' S0 + P0 vS + lin0
        # dS1 = -Ar' S1 + P0n M0S1 + P1n M0S0 - P1m own + W' S1 + P1 vS
        #       + lin1
        cols = SS[:, :, None]
        dcols = dSS[:, :, None]
        M0SS = self.M0 @ SS[:, :n, None]
        own = self.M @ SS[1, n:2 * n]
        vS = self._vS
        vS[n:].reshape(self.N, n)[:] = own
        np.matmul(self.negArT, cols, out=dcols)
        dcols += P0n @ M0SS
        dSS[1] += P1n @ M0SS[0, :, 0]
        dSS[1] -= P1m @ own
        dcols += W.T @ cols
        dSS += PP @ vS
        dSS += self.lins
        return out


def _solve_reduced(sys: FiniteNSystem, grid: TimeGrid, threshold: float):
    """Players 0 and 1 only, Riccati and offsets in one pass; escape of
    the Riccati prefix comes first, then that of Riccati plus offsets.
    The march holds neither `sys` (the field keeps the arrays it reads)
    nor the packed terminal, popped into the call."""
    model, N, d = sys.model, sys.N, sys.dim
    field = _ReducedFields(sys).field
    layout = StateLayout([("P0_big", (d, d), "kernel"),
                          ("P1_big", (d, d), "kernel"),
                          ("S0_big", (d,), "vector"), ("S1_big", (d,), "vector")])
    terminal = [layout.pack(sys.Q0f_big, sys.Q_minor(1, final=True),
                            sys.lin0_f, sys.lin_minor_f(1))]
    del sys
    path = integrate_backward(field, terminal.pop(), grid, threshold=threshold,
                              symmetrize=layout.sym, prefixes=layout.prefixes)
    if isinstance(path, BlowUpReport):
        return path

    return FiniteNSolution(model=model, N=N, grid=grid, **layout.paths(path))


def finite_n_bytes(n: int, N: int, M: int) -> int:
    """Peak bytes of solve_finite_n for N minors of state dimension n on
    M + 1 nodes, d = (N+1)n: the path, 2(d^2 + d) floats per node; seven
    d-square matrices the field holds through the march (Ahat_rho2 and
    Q0_big of the assembled system, Q1, -Ahat_rho^T, W and two-matrix
    scratch); eight flat states of 2(d^2 + d) floats at the peak of an
    RK4 step (the state, four stages and three temporaries of their
    weighted sum, which numpy reuses only above 256 KiB); (5 + 5n) d
    floats of vectors and n-row matrices; and ode.ESTIMATE_SLACK. The
    assembly peaks (seven d-square matrices) before the path exists."""
    d = (N + 1) * n
    state = 2 * (d * d + d)
    return (8 * ((M + 1) * state + 7 * d * d + 8 * state + (5 + 5 * n) * d)
            + ESTIMATE_SLACK)


def solve_finite_n(model: ValidatedModel, N: int, grid: TimeGrid,
                   threshold: float = DEFAULT_BLOWUP_THRESHOLD):
    """Solve the N+1-player Riccati/offset system, integrating only the
    two representative players via exchangeability. A solve above the
    memory budget (finite_n_bytes) raises NTooLargeForMemory before
    anything is assembled.
    """
    _require_population(model, N)
    check_budget(f"solving N={N} minor players on {grid.M + 1} nodes",
                 finite_n_bytes(model.n, N, grid.M))
    return _solve_reduced(assemble_finite_n(model, N), grid, threshold)


# The limit system and the tile system. At N minors, exchangeability
# leaves the kernels P0, P1 of players 0 and 1 nine distinct n-by-n tiles,
# one per BLOCK_KEYS entry: P0's (major, major) "1_0", (major, minor)
# "2_0" and (minor, minor) "3_0"; P1's (major, major) "0", (own, own) "1",
# (major, own) "a", (own, other) "2", (major, other) "b" and (other, other)
# "3". "3_0" and "3" stand for every such pair, diagonal included. The
# offsets S0, S1 are five n-blocks: S0's major block s0 and minor block
# sm, S1's major block t0, own block t1 and other-minor block to. Each is
# carried scaled, tile * N**exponent, so its field is the limit field in
# e = 1/N: _LIMIT_EQUATIONS with the other minors' share e1 = 1 - e, plus
# the e-terms of _TILE_E_TERMS, derived from _ReducedFields by summing
# over the minors' blocks. The limit system (e = 0) is the nine kernel
# blocks and the five offset blocks of _LIMIT_EQUATIONS.
OFFSET_KEYS = ("s0", "sm", "t0", "t1", "to")
_TILE_EXPONENTS = {**SCALING_EXPONENTS, "s0": 0, "sm": 1, "t0": 0, "t1": 0,
                   "to": 1}

# d(L)/dt of the nine kernel blocks, one equation per block in BLOCK_KEYS
# order. Python's grammar fixes the association: @ before + and -, each
# to the left (L1_0 @ M0 @ L1_0 is (L1_0 @ M0) @ L1_0); X.T is X's
# transpose and the names below stand for their subtrees.
#
# e1 is the other minors' share of a sum over minors: 1 in the limit,
# (N - 1) / N at N minors.
_LAMBDA_NAMES = {
    "mean_cl": "M @ (L1 + e1 * L2) - A - F",  # drives every *-mean block
    "cross": "La @ M - G.T",                  # recurring major/minor mix
}
_LAMBDA_EQUATIONS = (
    "rho * L1_0 + L1_0 @ M0 @ L1_0 - (L1_0 @ A0 + A0.T @ L1_0)"
    " + L2_0 @ (M @ La.T - G) + cross @ L2_0.T - Q0",
    "rho * L2_0 + (L1_0 @ M0 - A0.T) @ L2_0 + L2_0 @ mean_cl"
    " - L1_0 @ F0 + cross @ L3_0 + Q0 @ G0",
    "rho * L3_0 + L2_0.T @ M0 @ L2_0 - L2_0.T @ F0 - F0.T @ L2_0"
    " + L3_0 @ mean_cl + mean_cl.T @ L3_0 - G0.T @ Q0 @ G0",
    "rho * L0 + La @ M @ La.T - e1 * (Lb @ G) - e1 * (G.T @ Lb.T)"
    " + L0 @ (M0 @ L1_0 - A0) + (L1_0 @ M0 - A0.T) @ L0"
    " - La @ (G - e1 * (M @ Lb.T)) - (G.T - e1 * (Lb @ M)) @ La.T"
    " - G1.T @ Q @ G1",
    "rho * L1 + L1 @ M @ L1 - L1 @ A - A.T @ L1 - Q",
    "rho * L2 + La.T @ (M0 @ L2_0 - F0) - L1 @ F"
    " + (L1 @ M - A.T) @ L2 + L2 @ mean_cl + Q @ G2",
    "rho * L3 + Lb.T @ M0 @ L2_0 + L2_0.T @ M0 @ Lb"
    " + L2.T @ M @ L2 - Lb.T @ F0 - F0.T @ Lb - L2.T @ F - F.T @ L2"
    " + L3 @ mean_cl + mean_cl.T @ L3 - G2.T @ Q @ G2",
    "rho * La + (L1_0 @ M0 - A0.T) @ La + La @ (M @ L1 - A)"
    " - G.T @ L1 + e1 * (cross @ L2.T) + G1.T @ Q",
    "rho * Lb + L0 @ M0 @ L2_0 + cross @ (L2 + e1 * L3)"
    " - L0 @ F0 - La @ F + Lb @ mean_cl"
    " + (L1_0 @ M0 - A0.T) @ Lb - G1.T @ Q @ G2",
)
# d/dt of the five offset blocks, in OFFSET_KEYS order; they read the
# kernels, the kernels never read them.
_OFFSET_EQUATIONS = (
    "rho * s0 + (L1_0 @ M0 - A0.T) @ s0 + cross @ sm + L2_0 @ M @ t1"
    " + Q0 @ eta0",
    "rho * sm + (L2_0.T @ M0 - F0.T) @ s0 + mean_cl.T @ sm"
    " + L3_0 @ M @ t1 - G0.T @ Q0 @ eta0",
    "rho * t0 + (L1_0 @ M0 - A0.T) @ t0 + L0 @ M0 @ s0"
    " + cross @ (t1 + e1 * to) + e1 * (Lb @ M @ t1) - G1.T @ Q @ eta",
    "rho * t1 - A.T @ t1 + La.T @ M0 @ s0 + (L1 + e1 * L2) @ M @ t1"
    " + Q @ eta",
    "rho * to + mean_cl.T @ to - F.T @ t1 + (L2_0.T @ M0 - F0.T) @ t0"
    " + Lb.T @ M0 @ s0 + (L2.T + e1 * L3) @ M @ t1 - G2.T @ Q @ eta",
)
_LIMIT_EQUATIONS = _LAMBDA_EQUATIONS + _OFFSET_EQUATIONS
_TILE_E_TERMS = {
    "1": "La.T @ (M0 @ L2_0 - F0) + (L2_0.T @ M0 - F0.T) @ La"
         " - (L1 + e1 * L2) @ F - F.T @ (L1 + e1 * L2).T"
         " + e1 * (L2 @ M @ L2) + e1 * (L2.T @ M @ L2.T) + G2.T @ Q + Q @ G2"
         " - e * (G2.T @ Q @ G2)",
    "2": "L2 @ F - F0.T @ Lb - F.T @ (L2 + e1 * L3) + L2_0.T @ M0 @ Lb"
         " - L2 @ M @ L2 + e1 * (L2.T @ M @ L3) - G2.T @ Q @ G2",
    "3": "L3 @ (F - M @ L2) + (F.T - L2.T @ M) @ L3",
    "a": "L0 @ (M0 @ L2_0 - F0) - (La + e1 * Lb) @ F + e1 * (Lb @ M @ L2)"
         " - G1.T @ Q @ G2",
    "b": "Lb @ (F - M @ L2)",
    "t1": "(L2_0.T @ M0 - F0.T) @ t0 - F.T @ (t1 + e1 * to)"
          " + e1 * (L2.T @ M @ to) - G2.T @ Q @ eta",
    "to": "(F.T - L2.T @ M) @ to",
}
_TILE_EQUATIONS = tuple(
    f"{text} + e * ({_TILE_E_TERMS[key]})" if key in _TILE_E_TERMS else text
    for key, text in zip(BLOCK_KEYS + OFFSET_KEYS, _LIMIT_EQUATIONS))


def _input_weights(model: ValidatedModel):
    """(M0, M) = (B0 R0^-1 B0^T, B R^-1 B^T)."""
    return (model.B0 @ np.linalg.solve(model.R0, model.B0.T),
            model.B @ np.linalg.solve(model.R, model.B.T))


def _field(model: ValidatedModel, equations: tuple, *es: float):
    """(layout, field): the field of `equations` (_LIMIT_EQUATIONS or
    _TILE_EQUATIONS) with one member per e = 1/N of `es` (e = 0 is the
    limit), over the nine kernel blocks L + key in BLOCK_KEYS order, then
    the five offsets in OFFSET_KEYS order; compiled, with its layout, once
    per text and n, as N only sets the scalar slots e and e1. At N = 1
    (e1 = 0) the tiles of the other minors, which do not exist, feed no
    other tile."""
    n = model.n
    M0, M = _input_weights(model)
    consts = {"M0": M0, "M": M, "A0": model.A0, "A": model.A[0],
              "F0": model.F0, "F": model.F, "G": model.G, "Q0": model.Q0,
              "Q": model.Q, "G0": model.Gamma0, "G1": model.Gamma1,
              "G2": model.Gamma2, "rho": model.rho,
              "eta0": model.eta0.reshape(n, 1), "eta": model.eta.reshape(n, 1)}
    return compile_field(
        [("L" + key, (n, n), "kernel" if key in _SYMMETRIC_KEYS else "matrix")
         for key in BLOCK_KEYS] + [(key, (n,), "vector") for key in OFFSET_KEYS],
        [{**consts, "e": e, "e1": 1.0 - e} for e in es], _LAMBDA_NAMES,
        equations)


def _tile_terminal(model: ValidatedModel, e: float) -> tuple:
    """Scaled tiles of Q0f_big, Q_minor(1, final=True), lin0_f and
    lin_minor_f(1), in state order; at e = 0 the limit system's
    terminal."""
    Q0f, Qf = model.Q0f, model.Qf
    G0f, G1f, G2f = model.Gamma0f, model.Gamma1f, model.Gamma2f
    K = np.eye(model.n) - e * G2f          # own block of minor 1's selector
    eta0f, etaf = model.eta0f.reshape(-1, 1), model.etaf.reshape(-1, 1)
    return (Q0f, -Q0f @ G0f, G0f.T @ Q0f @ G0f,
            G1f.T @ Qf @ G1f, K.T @ Qf @ K, -K.T @ Qf @ G2f,
            G2f.T @ Qf @ G2f, -G1f.T @ Qf @ K, G1f.T @ Qf @ G2f,
            -Q0f @ eta0f, G0f.T @ Q0f @ eta0f, G1f.T @ Qf @ etaf,
            -K.T @ Qf @ etaf, G2f.T @ Qf @ etaf)


def _tile_weights(N: int) -> list:
    """Per tile, its l1 weight in the (N+1)n-square P0, P1 and (N+1)n
    S0, S1 it stands for: the tile's multiplicity there over its scale."""
    o = N - 1
    copies = {"1_0": 1, "2_0": 2 * N, "3_0": N * N, "0": 1, "1": 1,
              "2": 2 * o, "3": o * o, "a": 2, "b": 2 * o,
              "s0": 1, "sm": N, "t0": 1, "t1": 1, "to": o}
    return [copies[key] / N ** _TILE_EXPONENTS[key]
            for key in BLOCK_KEYS + OFFSET_KEYS]


def _solve_system(model: ValidatedModel, grid: TimeGrid, threshold: float,
                  equations: tuple, es: list, weights=None) -> list:
    """March `equations` at every e = 1/N of `es`, one member of one batch
    per e, each from _tile_terminal(model, e): the kernels are the inner
    escape level, kernels and offsets the outer one. `weights` (one row
    of l1 factors per member, as integrate_members takes them) may hold
    zeros: such an entry stands for no entry (the other minors' tiles at
    N = 1), and the march holds it at +0.0, so that its own field cannot
    escape. A single member marches through integrate_backward, as every
    other solo route does.

    Returns, per member, (flat path values, kernel blocks, offsets) or the
    BlowUpReport.
    """
    layout, field = _field(model, equations, *es)
    terminals = np.stack([layout.pack(*_tile_terminal(model, e)) for e in es])
    keywords = dict(threshold=threshold, symmetrize=layout.sym,
                    prefixes=layout.prefixes)
    if len(es) == 1:
        paths = [integrate_backward(
            field, terminals[0], grid,
            weights=None if weights is None else weights[0], **keywords)]
    else:
        paths = integrate_members(field, terminals, grid, weights=weights,
                                  **keywords)
    results = []
    for path in paths:
        if isinstance(path, BlowUpReport):
            results.append(path)
            continue
        parts = layout.paths(path)
        results.append((path.values,
                        {key: parts["L" + key] for key in BLOCK_KEYS},
                        {key: parts[key] for key in OFFSET_KEYS}))
    return results


@dataclass(frozen=True)
class LambdaSolution:
    """The limit system's paths: `blocks[key]` the n-by-n kernel block of
    BLOCK_KEYS `key`, `offsets[key]` the offset n-vector of OFFSET_KEYS
    `key`."""

    model: ValidatedModel
    grid: TimeGrid
    blocks: dict
    offsets: dict


def solve_lambda(model: ValidatedModel, grid: TimeGrid,
                 threshold: float = DEFAULT_BLOWUP_THRESHOLD):
    """Integrate the limit system, nine n-by-n kernel blocks and five
    offset n-vectors, backward from T.

    Finite escape of the kernels is the verdict that the game family has
    no uniformly solvable large-population limit on this horizon; an
    escape of kernels plus offsets alone is still no solution, reported
    where the joint norm crossed.
    """
    _require_k1(model)
    res, = _solve_system(model, grid, threshold, _LIMIT_EQUATIONS, [0.0])
    if isinstance(res, BlowUpReport):
        return res
    _, blocks, offsets = res
    return LambdaSolution(model=model, grid=grid, blocks=blocks,
                          offsets=offsets)


@dataclass(frozen=True)
class TileSolution:
    """Scaled tiles of the N+1-player Riccati/offset paths.

    `blocks[key]` is the tile of BLOCK_KEYS `key` times
    N**SCALING_EXPONENTS[key], `offsets[key]` the offset block of
    OFFSET_KEYS `key` (n-vectors) times N for sm and to; `kernel_norms`
    is, per node, |P0|_l1 + |P1|_l1 of the (N+1)n-square kernels the tiles
    stand for.
    """

    model: ValidatedModel
    N: int
    grid: TimeGrid
    blocks: dict
    offsets: dict
    kernel_norms: np.ndarray


def solve_tiles(model: ValidatedModel, N: int, grid: TimeGrid,
                threshold: float = DEFAULT_BLOWUP_THRESHOLD):
    """Solve the N+1-player Riccati/offset system on its distinct tiles:
    9n^2 + 5n floats and O(n^3) work per step for every N.

    Escape is decided, as by solve_finite_n, on the l1 norms of the
    (N+1)n-square kernels, then of kernels and offsets, that the tiles
    stand for.
    """
    return _solve_tiles(model, [N], grid, threshold)[0]


def _solve_tiles(model: ValidatedModel, N_list, grid: TimeGrid,
                 threshold: float) -> list:
    """solve_tiles at every N of `N_list`, the tile systems marched as one
    batch: one result per N, in order, each bitwise its solve alone (an
    exception is the one the first N raising it alone raises)."""
    for N in N_list:
        _require_population(model, N)
    n = model.n
    weights = np.stack([np.repeat(_tile_weights(N), [n * n] * len(BLOCK_KEYS)
                                  + [n] * len(OFFSET_KEYS)) for N in N_list])
    results = _solve_system(model, grid, threshold, _TILE_EQUATIONS,
                            [1.0 / N for N in N_list], weights)
    kernel = len(BLOCK_KEYS) * n * n
    solutions = []
    for N, w, res in zip(N_list, weights, results):
        if not isinstance(res, BlowUpReport):
            values, blocks, offsets = res
            norms = (np.abs(values[:, :kernel]) * w[:kernel]).sum(axis=1)
            res = TileSolution(model=model, N=N, grid=grid, blocks=blocks,
                               offsets=offsets, kernel_norms=norms)
        solutions.append(res)
    return solutions


def phi_from_nce(nce: NCESolution) -> LambdaSolution:
    """The K=1 consistency-route solution in the limit system's blocks
    (pure views): the kernels sliced into the nine blocks, the offsets
    by s0 -> (s0, sm) and s -> (t1, t0, to)."""
    model = nce.model
    if model.K != 1:
        raise KNotOne(f"block extraction needs K=1, got K={model.K}")
    n = model.n
    P0 = nce.P0.values
    P1 = nce.P.values[:, 0]
    s0 = nce.s0.values
    s1 = nce.s.values[:, 0]
    grid = nce.grid
    pieces = {
        "1_0": P0[:, :n, :n], "2_0": P0[:, :n, n:], "3_0": P0[:, n:, n:],
        "1": P1[:, :n, :n], "a": P1[:, n:2 * n, :n], "2": P1[:, :n, 2 * n:],
        "0": P1[:, n:2 * n, n:2 * n], "b": P1[:, n:2 * n, 2 * n:],
        "3": P1[:, 2 * n:, 2 * n:],
        "s0": s0[:, :n], "sm": s0[:, n:], "t1": s1[:, :n],
        "t0": s1[:, n:2 * n], "to": s1[:, 2 * n:],
    }
    return LambdaSolution(
        model=model, grid=grid,
        blocks={key: MatrixPath(grid, pieces[key]) for key in BLOCK_KEYS},
        offsets={key: MatrixPath(grid, pieces[key]) for key in OFFSET_KEYS})


def compare_lambda_phi(lam: LambdaSolution, phi: LambdaSolution,
                       tol: float = 1e-9) -> DiffReport:
    """Max-over-nodes l1 differences of the nine kernel block pairs."""
    if not lam.grid.same_as(phi.grid):
        raise GridMismatch("solutions live on different grids")
    diffs = {key: _max_node_l1(lam.blocks[key].values, phi.blocks[key].values)
             for key in BLOCK_KEYS}
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
    """Per-node tile-cluster counts of (P0, P1)."""

    N: int
    grid: TimeGrid
    tol: float
    cluster_counts: dict

    def counts_everywhere(self, name: str) -> tuple:
        c = self.cluster_counts[name]
        return int(c.min()), int(c.max())

    def summary(self) -> str:
        lines = [f"N={self.N}, tile tolerance {self.tol:.1e}"]
        for name in ("P0", "P1"):
            lo, hi = self.counts_everywhere(name)
            span = f"{lo}" if lo == hi else f"{lo}..{hi}"
            lines.append(f"{name}: {span} tile clusters across nodes")
        exps = ", ".join(f"{k}:N^{SCALING_EXPONENTS[k]}" for k in BLOCK_KEYS)
        lines.append(f"tile scalings: {exps}")
        return "\n".join(lines)


def extract_block_structure(fin: FiniteNSolution,
                            tol: float = TILE_TOL) -> StructureReport:
    """Count the clusters of the n-by-n tiles of P0(t), P1(t).

    At every node the (N+1)^2 tiles, taken in row-major block order, are
    clustered greedily: a tile joins the first representative within
    `tol` (l1) of it or of its transpose, else it becomes one. All nodes
    of a path are clustered together, one round per cluster. Exchangeable
    matrices give at most 3 clusters in P0 and 6 in P1; the per-node
    counts are kept as a diagnostic.
    """
    n = fin.model.n
    Mn = fin.grid.M + 1
    B = fin.N + 1
    counts = {}
    for name, path in (("P0", fin.P0_big), ("P1", fin.P1_big)):
        tiles = (path.values.reshape(Mn, B, n, B, n).transpose(0, 1, 3, 2, 4)
                 .reshape(Mn, B * B, n, n))
        counts[name] = _cluster_counts(tiles, tol)
    return StructureReport(N=fin.N, grid=fin.grid, tol=tol,
                           cluster_counts=counts)


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
                                 threshold: float = DEFAULT_BLOWUP_THRESHOLD
                                 ) -> SolvabilityReport:
    """Solve the finite system across N and test boundedness of the norms.

    N_list is sorted and de-duplicated first, so the verdict does not
    depend on the caller's order; before any solve, ValueError refuses
    N not integers in [1, MAX_POPULATION] and fewer than three distinct N.
    Records, per N, sup over nodes of |P0|_l1 + |P1|_l1, or the escape
    report, solving the tile systems (whose cost does not depend on N) of
    all N as one batch (_solve_tiles), each member bitwise its solve_tiles
    alone; compares the bounded-tail heuristic (on the three largest N)
    with the limit system's solvability verdict, which solve_lambda
    solves on its own as the independent cross-check.
    """
    _require_k1(model)
    N_list = tuple(sorted({check_population(N) for N in N_list}))
    for N in N_list[:1] + N_list[-1:]:
        _require_population(model, N)
    if len(N_list) < 3:
        raise ValueError(f"the bounded-tail heuristic reads the norms of the "
                         f"three largest N: need at least three distinct N, "
                         f"got {len(N_list)}")

    norms = []
    escapes = {}
    for N, res in zip(N_list, _solve_tiles(model, N_list, grid, threshold)):
        if isinstance(res, BlowUpReport):
            norms.append(None)
            escapes[N] = res
        else:
            norms.append(float(res.kernel_norms.max()))

    bounded = False
    if not escapes:
        tail = norms[-3:]
        lo, hi = min(tail), max(tail)
        bounded = hi <= 1.1 * lo + 1e-300

    lam = solve_lambda(model, grid, threshold=threshold)
    lam_escape = lam if isinstance(lam, BlowUpReport) else None
    return SolvabilityReport(
        N_list=N_list, norms=tuple(norms), escapes=escapes,
        bounded=bounded, lambda_solvable=lam_escape is None,
        lambda_escape=lam_escape)
