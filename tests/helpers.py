"""Shared fixtures-in-code: closed-form oracles and model factories.

Every expected value used by the tests is computed here independently of
the library's solvers (closed forms, direct algebra, or rejection-free
constructions), so the tests never compare the code against itself.
"""

import math

import numpy as np

from lqmfg import (GridMismatch, MasterSolution, ModelParams, NCESolution,
                   NonFiniteField, NonFiniteState, TimeGrid, validate_model,
                   solve_nce)
from lqmfg.asymptotic import SCALING_EXPONENTS, assemble_finite_n
from lqmfg.model import PiLifted, ValidatedModel, block_selector, lift_pi
from lqmfg.ode import (DEFAULT_BLOWUP_THRESHOLD, BlowUpReport, MatrixPath,
                       StateLayout, integrate_backward)
from lqmfg.sim import (DEFAULT_STEPS, _cov_factor, _player_rng,
                       default_type_counts)


def riccati_closed_form(a, b, r, q, qf, rho, T):
    """Solution of the scalar terminal-value problem

        dp/dt = rho*p - 2*a*p + (b^2/r)*p^2 - q,   p(T) = qf,

    by separation of variables. Returns a callable p(t)."""
    alpha = b * b / r
    abar = a - rho / 2.0
    lam = math.sqrt(abar * abar + alpha * q)
    p_plus = (abar + lam) / alpha
    p_minus = (abar - lam) / alpha
    w0 = (qf - p_plus) / (qf - p_minus)

    def p(t):
        w = w0 * math.exp(-2.0 * lam * (T - t))
        return (p_plus - p_minus * w) / (1.0 - w)

    return p


def l1(a) -> float:
    return float(np.sum(np.abs(a)))


def max_node_l1(a, b) -> float:
    """Max over leading axis of entrywise-l1 distance."""
    diff = np.abs(np.asarray(a) - np.asarray(b))
    return float(diff.reshape(diff.shape[0], -1).sum(axis=1).max())


# -- model factories --------------------------------------------------------

def build_model(**overrides):
    """Scalar one-type base model; pass keyword overrides for variants."""
    one = np.array([[1.0]])
    fields = dict(
        n=1, n1=1, n2=1, K=1, T=1.0, rho=0.1, pi=np.array([1.0]),
        A0=np.array([[-0.3]]), B0=one, F0=np.array([[0.2]]),
        D0=np.array([[0.1]]),
        A=np.array([[[-0.4]]]), B=one, F=np.array([[0.1]]),
        G=np.array([[0.15]]), D=np.array([[0.1]]),
        Q0=one, Q0f=one, Q=one, Qf=one,
        Gamma0=np.array([[0.2]]), Gamma0f=np.array([[0.2]]),
        Gamma1=np.array([[0.1]]), Gamma1f=np.array([[0.1]]),
        Gamma2=np.array([[0.2]]), Gamma2f=np.array([[0.2]]),
        eta0=np.array([0.1]), eta0f=np.array([0.1]),
        eta=np.array([0.05]), etaf=np.array([0.05]),
        R0=one, R=one,
        alpha0=np.array([0.3]), x0_mean=np.array([0.5]),
        x0_cov=np.array([[0.04]]), xi_cov=np.array([[0.04]]),
    )
    fields.update(overrides)
    return validate_model(ModelParams(**fields))


def scalar_coupled():
    return build_model()


def two_dim_coupled():
    """n=2, K=1, non-diagonal stable couplings."""
    def m(*rows):
        return np.array(rows, dtype=np.float64)

    q = m([0.8, 0.2], [0.2, 0.5])
    return build_model(
        n=2, n1=2, n2=2,
        A0=m([-0.4, 0.2], [-0.1, -0.3]), B0=m([1.0, 0.0], [0.2, 0.8]),
        F0=m([0.15, -0.1], [0.05, 0.1]), D0=m([0.1, 0.0], [0.02, 0.08]),
        A=np.array([m([-0.5, 0.1], [0.2, -0.4])]),
        B=m([0.9, 0.1], [0.0, 1.0]),
        F=m([0.1, 0.05], [-0.05, 0.1]), G=m([0.12, 0.0], [0.04, 0.1]),
        D=m([0.1, 0.01], [0.0, 0.09]),
        Q0=q, Q0f=q, Q=q, Qf=q,
        Gamma0=m([0.2, 0.05], [0.0, 0.15]), Gamma0f=m([0.2, 0.05], [0.0, 0.15]),
        Gamma1=m([0.1, 0.0], [0.05, 0.1]), Gamma1f=m([0.1, 0.0], [0.05, 0.1]),
        Gamma2=m([0.15, 0.02], [0.0, 0.2]), Gamma2f=m([0.15, 0.02], [0.0, 0.2]),
        eta0=np.array([0.1, -0.05]), eta0f=np.array([0.1, -0.05]),
        eta=np.array([0.05, 0.0]), etaf=np.array([0.05, 0.0]),
        R0=m([1.0, 0.1], [0.1, 0.8]), R=m([1.0, 0.0], [0.0, 1.2]),
        alpha0=np.array([0.3, -0.2]), x0_mean=np.array([0.5, 0.1]),
        x0_cov=0.04 * np.eye(2), xi_cov=0.04 * np.eye(2),
    )


def two_type_scalar():
    """K=2 variant of the scalar base model."""
    return build_model(K=2, pi=np.array([0.6, 0.4]),
                       A=np.array([[[-0.4]], [[-0.2]]]))


def many_types(K):
    """The scalar base model with K equally likely types."""
    return build_model(K=K, pi=np.full(K, 1.0 / K),
                       A=np.full((K, 1, 1), -0.4))


def zero_weight(**overrides):
    """All cost weights and offsets zero: kernels and offsets vanish."""
    z1 = np.array([[0.0]])
    z = np.array([0.0])
    fields = dict(Q0=z1, Q0f=z1, Q=z1, Qf=z1,
                  Gamma0=z1, Gamma0f=z1, Gamma1=z1, Gamma1f=z1,
                  Gamma2=z1, Gamma2f=z1,
                  eta0=z, eta0f=z, eta=z, etaf=z)
    fields.update(overrides)
    return build_model(**fields)


def decoupled_scalar(rho=0.1):
    """No cross couplings or deviations: kernels reduce to two scalar
    Riccati problems with closed forms."""
    z1 = np.array([[0.0]])
    z = np.array([0.0])
    return build_model(rho=rho, F0=z1, F=z1, G=z1,
                       A0=np.array([[0.25]]), A=np.array([[[-0.15]]]),
                       Q0=np.array([[0.8]]), Q0f=np.array([[1.5]]),
                       Q=np.array([[0.6]]), Qf=np.array([[0.9]]),
                       R0=np.array([[0.5]]), R=np.array([[0.7]]),
                       Gamma0=z1, Gamma0f=z1, Gamma1=z1, Gamma1f=z1,
                       Gamma2=z1, Gamma2f=z1,
                       eta0=z, eta0f=z, eta=z, etaf=z)



def growing_offsets():
    """Small terminal weights, large running weights and targets: kernel,
    offset and constant norms all grow backward from T, so their suprema
    sit at t = 0 and threshold crossings fall inside the horizon."""
    def w(v):
        return np.array([[v]])

    return build_model(Q0f=w(0.1), Qf=w(0.1), Q0=w(2.0), Q=w(2.0),
                       eta0=np.array([0.8]), eta=np.array([0.6]),
                       eta0f=np.array([0.0]), etaf=np.array([0.0]))


def node_l1(*paths):
    """Per-node l1 norm of the states of several paths taken together."""
    return sum(np.abs(p).reshape(p.shape[0], -1).sum(axis=1) for p in paths)


def first_crossing(norms, threshold):
    """First node, marching backward from T, whose norm exceeds the
    threshold (None if no node does)."""
    over = np.flatnonzero(norms > threshold)
    return int(over[-1]) if over.size else None


def check_kernel_escape(solve, kernels, *outer):
    """Check the escape verdict of `solve(threshold)` against the per-node
    l1 norms of its solved path's kernels, and of the longer prefixes
    `outer` of its state (kernels with offsets, say).

    Escape is judged on the kernels alone. A threshold below the kernels'
    supremum is reported at their first crossing, with their norm, though
    every outer norm crossed earlier. A threshold between the kernels'
    supremum and an outer one is crossed inside the horizon by that outer
    norm alone, and is no escape: `solve` returns its solution.
    """
    sup = float(kernels.max())
    threshold = 0.9 * sup
    node = first_crossing(kernels, threshold)
    for norms in outer:
        assert first_crossing(norms, threshold) > node
    rep = solve(threshold)
    assert isinstance(rep, BlowUpReport)
    assert rep.escape_node == node
    assert math.isclose(rep.norm_at_escape, kernels[node], rel_tol=1e-12)

    for norms in outer:
        assert norms.max() > 1.1 * sup
        threshold = 0.5 * (sup + float(norms.max()))
        assert 0 < first_crossing(norms, threshold) < len(norms) - 1
        assert not isinstance(solve(threshold), BlowUpReport)


# -- reference loops for vectorized library code ----------------------------

def tile_view(mat, n):
    """(B*B, n, n) tiles of a (Bn, Bn) matrix, row-major block order."""
    B = mat.shape[0] // n
    return mat.reshape(B, n, B, n).transpose(0, 2, 1, 3).reshape(-1, n, n)


def greedy_cluster_count(tiles, tol):
    """Scan the tiles in order; a tile joins the first representative
    within tol (l1) of it or of its transpose, else it becomes one."""
    reps = []
    for t in tiles:
        matched = False
        for r in reps:
            if (np.abs(t - r).sum() <= tol
                    or np.abs(t.T - r).sum() <= tol):
                matched = True
                break
        if not matched:
            reps.append(t)
    return len(reps)


def coupling_loop(sys, P1):
    """Coupling matrix of the reduced finite-N fields, one minor's row
    block at a time: row block 1 of P1 times the input gain, with column
    blocks 1 and j exchanged for minor j."""
    n, N, d = sys.model.n, sys.N, sys.dim
    base = sys.M @ P1[n:2 * n, :]
    W = np.zeros((d, d))
    W[n:2 * n, :] = base
    for j in range(2, N + 1):
        row = base.copy()
        row[:, n:2 * n] = base[:, j * n:(j + 1) * n]
        row[:, j * n:(j + 1) * n] = base[:, n:2 * n]
        W[j * n:(j + 1) * n, :] = row
    return W


def swap_block_index(N, n, i):
    """Index permutation exchanging state blocks of players 1 and i."""
    idx = np.arange((N + 1) * n)
    idx[n:2 * n] = np.arange(i * n, (i + 1) * n)
    idx[i * n:(i + 1) * n] = np.arange(n, 2 * n)
    return idx


def dense_march(model, N, grid, threshold=DEFAULT_BLOWUP_THRESHOLD):
    """All N+1 players of the finite-N game marched literally in one pass,
    Riccati prefix first in the escape verdict: the oracle of the
    symmetry-reduced `solve_finite_n`, which carries players 0 and 1 only.

    Returns the kernels (nodes, N+1, d, d) and offsets (nodes, N+1, d) of
    players 0..N, or the BlowUpReport.
    """
    sys = assemble_finite_n(model, N)
    n, d = model.n, sys.dim
    Q_big = [sys.Q0_big] + [sys.Q_minor(i) for i in range(1, N + 1)]
    Qf_big = [sys.Q0f_big] + [sys.Q_minor(i, final=True)
                              for i in range(1, N + 1)]
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

    layout = StateLayout([("P", (N + 1, d, d), "kernel"),
                          ("S", (N + 1, d), "vector")])

    def field(t, flat):
        P, S = layout.split(flat)
        dP, W = dP_all(P)
        return layout.pack(dP, dS_all(P, W, S))

    terminal = layout.pack(np.stack(Qf_big), np.stack(lin_f))
    path = integrate_backward(field, terminal, grid, threshold=threshold,
                              symmetrize=layout.sym,
                              escape_length=layout.escape_length)
    if isinstance(path, BlowUpReport):
        return path
    return layout.split(path.values)


def representatives(P, S):
    """Players 0 and 1 of a dense march, named as on FiniteNSolution."""
    return {"P0_big": P[:, 0], "P1_big": P[:, 1],
            "S0_big": S[:, 0], "S1_big": S[:, 1]}


def exchange_gap(P, S):
    """Largest entry gap, over nodes and minors i in 2..N of a dense march,
    between minor i's paths and player 1's with state blocks 1 and i
    exchanged."""
    N = P.shape[1] - 1
    n = P.shape[2] // (N + 1)
    worst = 0.0
    for i in range(2, N + 1):
        idx = swap_block_index(N, n, i)
        worst = max(worst,
                    float(np.max(np.abs(P[:, i] - P[:, 1][:, idx][:, :, idx]))),
                    float(np.max(np.abs(S[:, i] - S[:, 1][:, idx]))))
    return worst


# N-scaling exponent of each tile and offset block the tile solver carries
TILE_EXPONENTS = {**SCALING_EXPONENTS, "s0": 0, "sm": 1, "t0": 0, "t1": 0,
                  "to": 1}


def finite_tiles(P0, P1, S0, S1, N):
    """The distinct tiles of players 0 and 1 (paths of (N+1)n-square
    kernels and (N+1)n offsets), scaled as the tile solver carries them:
    BLOCK_KEYS tiles times N**SCALING_EXPONENTS, offset blocks s0, sm,
    t0, t1, to times N for sm and to. The other-minor tiles exist only
    for N >= 2; "3_0" and "3" are read off the diagonal when no second
    minor (other minor) is there."""
    n = P0.shape[-1] // (N + 1)

    def tile(P, i, j):
        return P[..., i * n:(i + 1) * n, j * n:(j + 1) * n]

    def block(S, i):
        return S[..., i * n:(i + 1) * n]

    raw = {"1_0": tile(P0, 0, 0), "2_0": tile(P0, 0, 1),
           "3_0": tile(P0, 1, min(2, N)), "0": tile(P1, 0, 0),
           "1": tile(P1, 1, 1), "a": tile(P1, 0, 1),
           "s0": block(S0, 0), "sm": block(S0, 1), "t0": block(S1, 0),
           "t1": block(S1, 1)}
    if N >= 2:
        raw.update({"2": tile(P1, 1, 2), "b": tile(P1, 0, 2),
                    "3": tile(P1, 2, min(3, N)), "to": block(S1, 2)})
    return {key: tile * float(N) ** TILE_EXPONENTS[key]
            for key, tile in raw.items()}


def expand_tiles(tiles, N):
    """(P0, P1, S0, S1) of the (N+1)n-square exchangeable kernels and the
    offsets whose scaled tiles are `tiles` (keyed as finite_tiles gives
    them, offsets as n-vectors); the inverse of finite_tiles."""
    raw = {key: tile / float(N) ** TILE_EXPONENTS[key]
           for key, tile in tiles.items()}

    def assemble(tile, kinds):
        # block (i, j) holds the tile of its block kinds, or the transpose
        # of the tile of the kinds exchanged
        rows = [[tile[a, b] if (a, b) in tile else tile[b, a].T
                 for b in kinds] for a in kinds]
        return np.block(rows)

    P0 = assemble({(0, 0): raw["1_0"], (0, 1): raw["2_0"],
                   (1, 1): raw["3_0"]}, [0] + [1] * N)
    P1 = assemble({(0, 0): raw["0"], (0, 1): raw["a"], (1, 1): raw["1"],
                   (0, 2): raw.get("b"), (1, 2): raw.get("2"),
                   (2, 2): raw.get("3")}, [0, 1] + [2] * (N - 1))
    S0 = np.concatenate([raw["s0"]] + [raw["sm"]] * N)
    S1 = np.concatenate([raw["t0"], raw["t1"]] + [raw.get("to")] * (N - 1))
    return P0, P1, S0, S1


def tile_solution_tiles(sol):
    """Every tile and offset block of a TileSolution, by key."""
    return {key: path.values
            for key, path in (*sol.blocks.items(), *sol.offsets.items())}


def _interp_at(path, t):
    """The per-step scalar interpolation the reference loop used."""
    h = path.grid.h
    pos = t / h
    j = int(np.floor(pos))
    j = min(max(j, 0), path.grid.M - 1)
    w = pos - j
    return (1.0 - w) * path.values[j] + w * path.values[j + 1]


class _NCEControlsRef:
    """Per-time gains of an NCE solution, as the reference loop read them."""

    def __init__(self, sol):
        self.sol = sol
        model, lifted = sol.model, sol.lifted
        self.R0invB0 = np.linalg.solve(model.R0, lifted.B0_lift.T)
        self.RinvB = np.linalg.solve(model.R, lifted.B_lift.T)
        self.n = model.n
        self.mean_field = (sol.Abar, sol.Gbar, sol.mbar)

    def major(self, t):
        n = self.n
        G = self.R0invB0 @ _interp_at(self.sol.P0, t)
        g = self.R0invB0 @ _interp_at(self.sol.s0, t)
        return G[:, :n], G[:, n:], g

    def minor(self, t):
        n = self.n
        P = _interp_at(self.sol.P, t)
        s = _interp_at(self.sol.s, t)
        G = np.array([self.RinvB @ P[k] for k in range(P.shape[0])])
        g = s @ self.RinvB.T
        return G[:, :, :n], G[:, :, n:2 * n], G[:, :, 2 * n:], g


class _MasterControlsRef:
    """Per-time gains of a master solution, as the reference loop read them."""

    def __init__(self, sol):
        self.sol = sol
        model = sol.model
        self.R0invB0 = np.linalg.solve(model.R0, model.B0.T)
        self.RinvB = np.linalg.solve(model.R, model.B.T)
        self.n = model.n
        self.mean_field = (sol.Abar_dag, sol.Gbar_dag, sol.mbar_dag)

    def major(self, t):
        n = self.n
        P0 = _interp_at(self.sol.Pd0, t)
        s0 = _interp_at(self.sol.sd0, t)
        G = self.R0invB0 @ P0[:n, :]
        return G[:, :n], G[:, n:], self.R0invB0 @ s0[:n]

    def minor(self, t):
        n = self.n
        P = _interp_at(self.sol.Pd, t)
        s = _interp_at(self.sol.sd, t)
        G = np.array([self.RinvB @ P[k][:n, :] for k in range(P.shape[0])])
        g = s[:, :n] @ self.RinvB.T
        return G[:, :, :n], G[:, :, n:2 * n], G[:, :, 2 * n:], g


def simulate_reference(sol, N, dt=None, seed=0, type_counts=None,
                       use_empirical=False):
    """The step-by-step closed loop: all noise drawn up front, gains
    interpolated at every step. Returns (X0, X, Zbar, U0, U)."""
    model = sol.model
    if dt is None:
        dt = model.T / DEFAULT_STEPS
    if isinstance(sol, NCESolution):
        controls = _NCEControlsRef(sol)
    elif isinstance(sol, MasterSolution):
        controls = _MasterControlsRef(sol)
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

    A_by_type = model.A[types - 1]
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
        zdrift = (_interp_at(Abar, t) @ zbar + _interp_at(Gbar, t) @ x0cur
                  + _interp_at(mbar, t))

        x0cur = x0cur + dt * drift0 + D0 @ dW0[s]
        Xcur = Xcur + dt * driftX + dW[:, s] @ D.T
        zbar = zbar + dt * zdrift
        if not (np.all(np.isfinite(x0cur)) and np.all(np.isfinite(Xcur))
                and np.all(np.isfinite(zbar))):
            raise NonFiniteState(f"state exploded at step {s + 1} (t={t + dt:.6g})")

    return X0_path, X_path, Z_path, U0_path, U_path


# -- random suite ------------------------------------------------------------

SUITE_SIZE = 20
SUITE_M = 2000


def _random_params(rng, K, dims=None):
    """Random coefficients (magnitudes <= 0.5) with K types; (n, n1, n2)
    are drawn first unless `dims` gives them."""
    if dims is None:
        n = int(rng.integers(1, 4))
        n1 = int(rng.integers(1, 3))
        n2 = int(rng.integers(1, 3))
    else:
        n, n1, n2 = dims

    def u(*shape):
        return rng.uniform(-0.5, 0.5, size=shape)

    def psd(d):
        w = rng.uniform(-0.7, 0.7, size=(d, d))
        return w @ w.T / (2.0 * d)

    def pd(d):
        return psd(d) + 0.25 * np.eye(d)

    pi = rng.uniform(0.2, 1.0, size=K)
    pi = pi / pi.sum()
    return ModelParams(
        n=n, n1=n1, n2=n2, K=K, T=1.0, rho=float(rng.uniform(0.0, 0.3)),
        pi=pi,
        A0=u(n, n), B0=u(n, n1), F0=u(n, n), D0=u(n, n2),
        A=u(K, n, n), B=u(n, n1), F=u(n, n), G=u(n, n), D=u(n, n2),
        Q0=psd(n), Q0f=psd(n), Q=psd(n), Qf=psd(n),
        Gamma0=u(n, n), Gamma0f=u(n, n), Gamma1=u(n, n), Gamma1f=u(n, n),
        Gamma2=u(n, n), Gamma2f=u(n, n),
        eta0=u(n), eta0f=u(n), eta=u(n), etaf=u(n),
        R0=pd(n1), R=pd(n1),
        alpha0=u(n), x0_mean=u(n),
        x0_cov=0.2 * psd(n) + 0.01 * np.eye(n),
        xi_cov=0.2 * psd(n) + 0.01 * np.eye(n),
    )


def route_draw(K, n, n1, seed, heavy):
    """Random model parameters of the route-agreement properties; `heavy`
    tracks the mean deviation strongly at cheap control, and about a
    quarter of those models escape on [0, T]."""
    params = _random_params(np.random.default_rng(seed), K, dims=(n, n1, 1))
    if heavy:
        params.Gamma2 = 8.0 * params.Gamma2
        params.Gamma2f = 8.0 * params.Gamma2f
        params.R, params.R0 = 0.2 * params.R, 0.2 * params.R0
        params.Q0, params.Q, params.Qf = (8.0 * params.Q0, 8.0 * params.Q,
                                          8.0 * params.Qf)
    return params


def suite_model(idx):
    """Random stable model #idx: coefficient magnitudes <= 0.5, T=1.
    Draws are rejected (seed bumped) until the kernels solve on [0,T]."""
    K = 1 + idx % 3
    seed = 1000 + idx
    check = TimeGrid(M=400, T=1.0)
    while True:
        model = validate_model(_random_params(np.random.default_rng(seed), K))
        if not isinstance(solve_nce(model, check), BlowUpReport):
            return model
        seed += 10007


def random_n3k3():
    """Random stable model with n = 3, K = 3 and n1 = n2 = 2."""
    model = validate_model(_random_params(np.random.default_rng(1001), 3))
    assert (model.n, model.n1, model.n2, model.K) == (3, 2, 2, 3)
    return model


def suite_k1_indices():
    return [i for i in range(SUITE_SIZE) if i % 3 == 0]


# -- blow-up families --------------------------------------------------------

def _deviation_heavy(gam0, gam2, qs):
    """Base for non-solvable constructions: cheap control, strong
    mean-deviation tracking."""
    one = np.array([[1.0]])
    return build_model(
        rho=0.0,
        A0=np.array([[0.3]]), A=np.array([[[0.3]]]),
        F0=np.array([[0.3]]), F=np.array([[0.3]]), G=np.array([[0.3]]),
        Q0=qs * one, Q0f=qs * one, Q=qs * one, Qf=qs * one,
        Gamma0=np.array([[gam0]]), Gamma0f=np.array([[gam0]]),
        Gamma1=np.array([[0.3]]), Gamma1f=np.array([[0.3]]),
        Gamma2=np.array([[gam2]]), Gamma2f=np.array([[gam2]]),
        eta0=np.array([0.0]), eta0f=np.array([0.0]),
        R0=np.array([[0.05]]), R=np.array([[0.05]]),
    )


BLOWUP_FAMILIES = {
    "both-deviations": (lambda c: _deviation_heavy(c, c, 1.0), 2.0, 3.0),
    "weight-scale": (lambda c: _deviation_heavy(2.0, 2.0, c), 1.0, 50.0),
    "mean-deviation": (lambda c: _deviation_heavy(0.5, c, 1.0), 1.0, 2.0),
}


def bisect_blowup(family, grid, iters=20, margin=1.1):
    """Bisect the family's scale for the escape boundary, then step a fixed
    10% past it so the escape is interior rather than marginal."""
    fn, lo, hi = BLOWUP_FAMILIES[family]
    assert not isinstance(solve_nce(fn(lo), grid), BlowUpReport)
    assert isinstance(solve_nce(fn(hi), grid), BlowUpReport)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if isinstance(solve_nce(fn(mid), grid), BlowUpReport):
            hi = mid
        else:
            lo = mid
    return fn(margin * hi)



# -- reference integrator step -----------------------------------------------

def rk4_step_ref(field, t, w, dt):
    """The RK4 step with a finiteness check on each of the four stages
    before they are combined."""
    k1 = field(t, w)
    k2 = field(t + dt / 2.0, w + (dt / 2.0) * k1)
    k3 = field(t + dt / 2.0, w + (dt / 2.0) * k2)
    k4 = field(t + dt, w + dt * k3)
    if not (np.all(np.isfinite(k1)) and np.all(np.isfinite(k2))
            and np.all(np.isfinite(k3)) and np.all(np.isfinite(k4))):
        raise NonFiniteField(
            f"field returned non-finite derivative near t={float(t)}")
    return w + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def integrate_forward_ref(field, initial, grid):
    """States on every node of `grid`, marched with RK4 from t = 0 up to
    T (an initial value problem, no escape check)."""
    out = np.empty((grid.M + 1,) + np.shape(initial))
    out[0] = initial
    for j in range(grid.M):
        out[j + 1] = rk4_step_ref(field, grid.nodes[j], out[j], grid.h)
    return out


def propagate_mean_field_ref(sol, x0_path):
    """The mean field regenerated from a major-player path on the nodes of
    an NCESolution: dZbar = (Abar Zbar + Gbar x0 + mbar) dt forward from
    the minor initial mean stacked over types, with the coefficient paths
    and the x0 path interpolated linearly at the RK4 stages."""
    model = sol.model
    x0p = MatrixPath(sol.grid, np.array(x0_path, dtype=np.float64))

    def field(t, z):
        return (sol.Abar.interp(t) @ z + sol.Gbar.interp(t) @ x0p.interp(t)
                + sol.mbar.interp(t))

    return integrate_forward_ref(field, np.tile(model.alpha0, model.K),
                                 sol.grid)


# -- reference route fields --------------------------------------------------
#
# The nce, master and lambda ODE fields as they were written per type and
# per block (np.block, one loop iteration per type, every product spelled
# out in the field). The library evaluates them stacked over K with
# hoisted constants; the tests compare both bitwise.

class NCEWorkspaceRef:
    """Precomputed constants and packing layout for one solve."""

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
        """Abar (nK x nK) and Gbar (nK x n) rebuilt from kernel blocks."""
        n, K = self.n, self.K
        P11 = P[:, :n, :n]
        P12 = P[:, :n, n:2 * n]
        P13 = P[:, :n, 2 * n:]
        Abar = np.empty((K * n, K * n))
        Gbar = np.empty((K * n, n))
        for k in range(K):
            row = self.lifted.F_pi - self.BRB @ P13[k]
            row[:, k * n:(k + 1) * n] += self.model.A[k] - self.BRB @ P11[k]
            Abar[k * n:(k + 1) * n, :] = row
            Gbar[k * n:(k + 1) * n, :] = self.model.G - self.BRB @ P12[k]
        return Abar, Gbar

    def drift_blocks(self, P0, P):
        """The closed-loop drift matrices entering both Riccati tiers."""
        n, K, d0, d1 = self.n, self.K, self.d0, self.d1
        Abar, Gbar = self.consistency_blocks(P)
        A0blk = np.empty((d0, d0))
        A0blk[:n, :n] = self.model.A0
        A0blk[:n, n:] = self.lifted.F0_pi
        A0blk[n:, :n] = Gbar
        A0blk[n:, n:] = Abar
        Acal = np.zeros((K, d1, d1))
        Acal[:, :n, :n] = self.model.A
        Acal[:, :n, n:2 * n] = self.model.G
        Acal[:, :n, 2 * n:] = self.lifted.F_pi
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
        mbar = self.mbar_from_s(s)
        M0vec = np.concatenate([np.zeros(self.n), mbar.ravel()])
        ds0 = (rho * s0 - A0blk.T @ s0 + P0 @ (self.K0mat @ s0)
               - P0 @ M0vec + self.lifted.eta0_pi)
        Mvec = np.concatenate([np.zeros(self.n), M0vec - self.K0mat @ s0])
        ds = (rho * s
              - np.einsum("kji,kj->ki", Acal, s)
              + np.einsum("kij,kj->ki", P, s @ self.Kmat)
              - P @ Mvec + self.lifted.eta_pi)
        return ds0, ds

    # -- symmetry projection ----------------------------------------------

    def sym(self, flat):
        P0, P, s0, s = self.unpack(flat)
        return self.pack((P0 + P0.T) / 2.0, (P + P.transpose(0, 2, 1)) / 2.0, s0, s)


def nce_field_ref(model):
    """The per-type consistency-route field of `model`."""
    ws = NCEWorkspaceRef(model, lift_pi(model))

    def field(t, flat):
        P0, P, s0, s = ws.unpack(flat)
        dP0, dP, A0blk, Acal = ws.dP(P0, P)
        ds0, ds = ws.ds(P0, P, s0, s, A0blk, Acal)
        return ws.pack(dP0, dP, ds0, ds)

    return field


class MasterBlocksRef:
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
        self.selectors = [block_selector(l, K, n) for l in range(1, K + 1)]
        self.D0D0T = model.D0 @ model.D0.T
        self.DDT = model.D @ model.D.T
        self.eta0_q = float(model.eta0 @ model.Q0 @ model.eta0)
        self.eta_q = float(model.eta @ model.Q @ model.eta)
        self.layout = (self.d0 * self.d0, K * self.d1 * self.d1,
                       self.d0, K * self.d1, 1, K)

    def split(self, flat):
        """Unpack the segments [Pd0, Pd, sd0, sd, rd0, rd] of the state."""
        K, d0, d1 = self.K, self.d0, self.d1
        shapes = [(d0, d0), (K, d1, d1), (d0,), (K, d1), (), (K,)]
        parts = []
        pos = 0
        for size, shape in zip(self.layout, shapes):
            seg = flat[pos:pos + size]
            parts.append(seg.reshape(shape) if shape else seg[0])
            pos += size
        return parts

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

        Own-dynamics terms sit in the type's own block column (the
        'selector at l' reading; the alternative fixed-last-block reading
        is incompatible with the consistency route for K >= 2).
        """
        n, K = self.n, self.K
        rows_A = []
        rows_G = []
        for l in range(K):
            Pl = Pd[l]
            P11 = Pl[:n, :n]
            P12 = Pl[:n, n:2 * n]
            P13 = Pl[:n, 2 * n:]
            rows_A.append((self.model.A[l] - self.M @ P11) @ self.selectors[l]
                          + self.lifted.F_pi - self.M @ P13)
            rows_G.append(self.model.G - self.M @ P12)
        return np.vstack(rows_A), np.vstack(rows_G)

    def top_block(self, Abar_dag, Gbar_dag):
        n = self.n
        return np.block([[self.model.A0, self.lifted.F0_pi],
                         [Gbar_dag, Abar_dag]])

    def minor_block(self, kappa, Pd0, Abar_dag, Gbar_dag):
        n, d1 = self.n, self.d1
        P011 = Pd0[:n, :n]
        P012 = Pd0[:n, n:]
        Ak = np.zeros((d1, d1))
        Ak[:n, :n] = self.model.A[kappa]
        Ak[:n, n:2 * n] = self.model.G
        Ak[:n, 2 * n:] = self.lifted.F_pi
        Ak[n:2 * n, n:2 * n] = self.model.A0 - self.M0 @ P011
        Ak[n:2 * n, 2 * n:] = self.lifted.F0_pi - self.M0 @ P012
        Ak[2 * n:, n:2 * n] = Gbar_dag
        Ak[2 * n:, 2 * n:] = Abar_dag
        return Ak

    def mbar_vec(self, sd):
        """mbar_dag block l = -M sd_l,1, flattened to length nK."""
        n = self.n
        return (-(sd[:, :n] @ self.M.T)).ravel()

    def derivatives(self, parts):
        """Forward-time derivatives of all six segments."""
        model, lifted = self.model, self.lifted
        n, K = self.n, self.K
        rho = model.rho

        Pd0, Pd = parts[0], parts[1]
        Abar_dag, Gbar_dag = self.mean_field_rows(Pd)
        A0blk = self.top_block(Abar_dag, Gbar_dag)
        dPd0 = (rho * Pd0 - Pd0 @ A0blk - A0blk.T @ Pd0
                + Pd0[:, :n] @ self.M0 @ Pd0[:n, :] - lifted.Q0_pi)
        dPd = np.empty_like(Pd)
        Acals = []
        for k in range(K):
            Ak = self.minor_block(k, Pd0, Abar_dag, Gbar_dag)
            Acals.append(Ak)
            dPd[k] = (rho * Pd[k] - Pd[k] @ Ak - Ak.T @ Pd[k]
                      + Pd[k][:, :n] @ self.M @ Pd[k][:n, :] - lifted.Q_pi)

        sd0, sd = parts[2], parts[3]
        mbar = self.mbar_vec(sd)
        dsd0 = (rho * sd0 - A0blk.T @ sd0
                + Pd0[:, :n] @ (self.M0 @ sd0[:n])
                - Pd0[:, n:] @ mbar + lifted.eta0_pi)
        dsd = np.empty_like(sd)
        for k in range(K):
            sk = sd[k]
            dsd[k] = (rho * sk - Acals[k].T @ sk
                      + Pd[k][:, :n] @ (self.M @ sk[:n])
                      + Pd[k][:, n:2 * n] @ (self.M0 @ sd0[:n])
                      - Pd[k][:, 2 * n:] @ mbar + lifted.eta_pi)

        rd0, rd = parts[4], parts[5]
        theta0 = (self.eta0_q
                  - sd0[:n] @ self.M0 @ sd0[:n]
                  + np.trace(Pd0[:n, :n] @ self.D0D0T)
                  + 2.0 * (sd0[n:] @ mbar))
        drd0 = rho * rd0 - theta0
        drd = np.empty(K)
        for k in range(K):
            sk = sd[k]
            theta_k = (self.eta_q
                       - sk[:n] @ self.M @ sk[:n]
                       - 2.0 * (sk[n:2 * n] @ (self.M0 @ sd0[:n]))
                       + np.trace(Pd[k][n:2 * n, n:2 * n] @ self.D0D0T)
                       + np.trace(Pd[k][:n, :n] @ self.DDT)
                       + 2.0 * (sk[2 * n:] @ mbar))
            drd[k] = rho * rd[k] - theta_k
        return [dPd0, dPd, dsd0, dsd, drd0, drd]


# 4th-order finite-difference weights: interior central stencil plus
# one-sided stencils for the first/last two nodes.
_FD_CENTER = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0
_FD_EDGE0 = np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / 12.0
_FD_EDGE1 = np.array([-3.0, -10.0, 18.0, -6.0, 1.0]) / 12.0


def _fd_derivative(values, h, j):
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


def master_residual(model, sol, sample):
    """Pointwise residual of the value-function equation at one sample:
    the correctness certificate of a MasterSolution (criterion 3).

    sample = (t, x0, zk, zbar, kappa), t inside (0, T), with kappa = 0
    selecting the major player's equation and 1..K a minor type's. The
    evaluation snaps t to the nearest interior grid node, takes d/dt of
    the quadratic coefficients by finite differences of the solved paths
    (never from the ODE right-hand side, so coefficient corruption shows),
    and subtracts the closed-form right-hand side assembled term by term
    (measure derivatives enter only through zbar; their second-order terms
    vanish for quadratic V). Returns the signed residual scaled by
    1/(1 + |V|).
    """
    t, x0, zk, zbar, kappa = sample
    x0 = np.asarray(x0, dtype=np.float64).reshape(-1)
    zk = np.asarray(zk, dtype=np.float64).reshape(-1)
    zbar = np.asarray(zbar, dtype=np.float64).reshape(-1)

    grid = sol.grid
    h = grid.h
    j = int(round(t / h))
    j = min(max(j, 1), grid.M - 1)
    n = model.n
    rho = model.rho
    M0 = model.B0 @ np.linalg.solve(model.R0, model.B0.T)
    M = model.B @ np.linalg.solve(model.R, model.B.T)
    D0D0T, DDT = model.D0 @ model.D0.T, model.D @ model.D.T

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
        chi_2 = grad_x0 @ M0 @ grad_x0
        dev = x0 - sol.lifted.Gamma0_pi @ zbar - model.eta0
        chi_3 = dev @ model.Q0 @ dev
        chi_4 = float(np.trace(P[:n, :n] @ D0D0T))
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
        closed0 = ((model.A0 - M0 @ P0[:n, :n]) @ x0
                   + (sol.lifted.F0_pi - M0 @ P0[:n, n:]) @ zbar
                   - M0 @ s0[:n])
        chi_12 = 2.0 * grad_row2 @ closed0
        chi_37 = float(np.trace(P[n:2 * n, n:2 * n] @ D0D0T)
                       + np.trace(P[:n, :n] @ DDT))
        grad_zk = P[:n, :] @ xik + s[:n]
        drift_k = model.A[kappa - 1] @ zk + model.G @ x0 + sol.lifted.F_pi @ zbar
        chi_4 = 2.0 * grad_zk @ drift_k
        chi_5 = grad_zk @ M @ grad_zk
        dev = zk - model.Gamma1 @ x0 - sol.lifted.Gamma2_pi @ zbar - model.eta
        chi_6 = dev @ model.Q @ dev
        mean_drift = Gbar @ x0 + Abar @ zbar + mbar
        chi_89 = 2.0 * (P[2 * n:, :] @ xik + s[2 * n:]) @ mean_drift
        chi = chi_12 + chi_37 + chi_4 - chi_5 + chi_6 + chi_89

    lhs = rho * V - dV
    return float((lhs - chi) / (1.0 + abs(V)))


def master_field_ref(model):
    """The per-type value-function-route field of `model`."""
    blocks = MasterBlocksRef(model, lift_pi(model))

    def field(t, flat):
        derivs = blocks.derivatives(blocks.split(flat))
        return np.concatenate([np.atleast_1d(d).ravel() for d in derivs])

    return field


def lambda_field_ref(model):
    """The nine-block limit field of a K = 1 `model`, every product inline."""
    n = model.n
    A = model.A[0]
    A0, F0, F, G = model.A0, model.F0, model.F, model.G
    Q0, Q = model.Q0, model.Q
    G0, G1, G2 = model.Gamma0, model.Gamma1, model.Gamma2
    M0 = model.B0 @ np.linalg.solve(model.R0, model.B0.T)
    M = model.B @ np.linalg.solve(model.R, model.B.T)
    rho = model.rho

    def fieldfn(t, flat):
        L = flat.reshape(9, n, n)
        L1_0, L2_0, L3_0, L0, L1, L2, L3, La, Lb = L
        # shared closed-loop combinations
        mean_cl = M @ (L1 + L2) - A - F          # drives every *-mean block
        cross = La @ M - G.T                     # recurring major/minor mix
        d = np.empty_like(L)
        d[0] = (rho * L1_0 + L1_0 @ M0 @ L1_0 - (L1_0 @ A0 + A0.T @ L1_0)
                + L2_0 @ (M @ La.T - G) + cross @ L2_0.T - Q0)
        d[1] = (rho * L2_0 + (L1_0 @ M0 - A0.T) @ L2_0 + L2_0 @ mean_cl
                - L1_0 @ F0 + cross @ L3_0 + Q0 @ G0)
        d[2] = (rho * L3_0 + L2_0.T @ M0 @ L2_0 - L2_0.T @ F0 - F0.T @ L2_0
                + L3_0 @ mean_cl + mean_cl.T @ L3_0 - G0.T @ Q0 @ G0)
        d[3] = (rho * L0 + La @ M @ La.T - Lb @ G - G.T @ Lb.T
                + L0 @ (M0 @ L1_0 - A0) + (L1_0 @ M0 - A0.T) @ L0
                - La @ (G - M @ Lb.T) - (G.T - Lb @ M) @ La.T
                - G1.T @ Q @ G1)
        d[4] = rho * L1 + L1 @ M @ L1 - L1 @ A - A.T @ L1 - Q
        d[5] = (rho * L2 + La.T @ (M0 @ L2_0 - F0) - L1 @ F
                + (L1 @ M - A.T) @ L2 + L2 @ mean_cl + Q @ G2)
        d[6] = (rho * L3 + Lb.T @ M0 @ L2_0 + L2_0.T @ M0 @ Lb
                + L2.T @ M @ L2 - Lb.T @ F0 - F0.T @ Lb
                - L2.T @ F - F.T @ L2
                + L3 @ mean_cl + mean_cl.T @ L3 - G2.T @ Q @ G2)
        d[7] = (rho * La + (L1_0 @ M0 - A0.T) @ La + La @ (M @ L1 - A)
                - G.T @ L1 + cross @ L2.T + G1.T @ Q)
        d[8] = (rho * Lb + L0 @ M0 @ L2_0 + cross @ (L2 + L3)
                - L0 @ F0 - La @ F + Lb @ mean_cl
                + (L1_0 @ M0 - A0.T) @ Lb - G1.T @ Q @ G2)
        return d.ravel()

    return fieldfn


def lambda_sym_ref(n):
    """The limit system's symmetrization: kernel blocks 1_0, 3_0, 0, 1, 3;
    the five offset n-vectors after the nine blocks pass through."""
    sym_idx = [0, 2, 3, 4, 6]

    def sym(flat):
        L = flat[:9 * n * n].reshape(9, n, n).copy()
        L[sym_idx] = (L[sym_idx] + L[sym_idx].transpose(0, 2, 1)) / 2.0
        return np.concatenate([L.ravel(), flat[9 * n * n:]])

    return sym


class ReducedFieldsRef:
    """The symmetry-reduced finite-N fields, one product per term (players
    0 and 1 only): the oracle of the field asymptotic._finite_field
    builds."""

    def __init__(self, sys):
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


def finite_sym_ref(d):
    """The reduced finite-N symmetrization: kernels P0 and P1 of side d,
    then the offsets S0 and S1."""
    sq = d * d

    def sym(flat):
        out = flat.copy()
        for off in (0, sq):
            P = flat[off:off + sq].reshape(d, d)
            out[off:off + sq] = ((P + P.T) / 2.0).ravel()
        return out

    return sym


def dense_sym_ref(N, d):
    """The dense finite-N symmetrization: N+1 kernels of side d, then N+1
    offsets."""
    nP = (N + 1) * d * d

    def sym(flat):
        out = flat.copy()
        P = flat[:nP].reshape(N + 1, d, d)
        out[:nP] = ((P + P.transpose(0, 2, 1)) / 2.0).ravel()
        return out

    return sym


def reference_solve(route, model, grid, N=None,
                    threshold=DEFAULT_BLOWUP_THRESHOLD):
    """March `route`'s reference field from its terminal state with the
    route's own symmetrization and escape levels; "finite-n" marches the
    reduced N+1-player system.

    Returns (flat path or BlowUpReport, reference workspace): the
    workspace rebuilds the derived mean-field paths node by node.
    """
    lifted = lift_pi(model)
    K = model.K
    if route == "nce":
        ws = NCEWorkspaceRef(model, lifted)
        d1 = ws.d1
        terminal = ws.pack(lifted.Q0f_pi,
                           np.broadcast_to(lifted.Qf_pi, (K, d1, d1)),
                           -lifted.eta0f_pi,
                           np.broadcast_to(-lifted.etaf_pi, (K, d1)))
        nP = ws.sizes[0] + ws.sizes[1]
        return integrate_backward(nce_field_ref(model), terminal, grid,
                                  threshold=threshold, symmetrize=ws.sym,
                                  escape_length=nP), ws
    if route == "master":
        ws = MasterBlocksRef(model, lifted)
        d1 = ws.d1
        terminal = np.concatenate([
            lifted.Q0f_pi.ravel(),
            np.broadcast_to(lifted.Qf_pi, (K, d1, d1)).ravel(),
            -lifted.eta0f_pi,
            np.broadcast_to(-lifted.etaf_pi, (K, d1)).ravel(),
            np.array([model.eta0f @ model.Q0f @ model.eta0f]),
            np.full(K, model.etaf @ model.Qf @ model.etaf),
        ])
        nP = ws.layout[0] + ws.layout[1]
        return integrate_backward(master_field_ref(model), terminal, grid,
                                  threshold=threshold, symmetrize=ws.sym,
                                  escape_length=nP), ws
    if route == "finite-n":
        red = ReducedFieldsRef(assemble_finite_n(model, N))
        sys = red.sys
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

        terminal = np.concatenate([sys.Q0f_big.ravel(), red.Q1f_big.ravel(),
                                   sys.lin0_f, red.lin1_f])
        return integrate_backward(field, terminal, grid, threshold=threshold,
                                  symmetrize=finite_sym_ref(d),
                                  escape_length=2 * sq), None
    Q0f, Qf = model.Q0f, model.Qf
    G0f, G1f, G2f = model.Gamma0f, model.Gamma1f, model.Gamma2f
    terminal = np.stack([
        Q0f, -Q0f @ G0f, G0f.T @ Q0f @ G0f,
        G1f.T @ Qf @ G1f, Qf, -Qf @ G2f, G2f.T @ Qf @ G2f,
        -G1f.T @ Qf, G1f.T @ Qf @ G2f,
    ])
    return integrate_backward(lambda_field_ref(model), terminal.ravel(), grid,
                              threshold=threshold,
                              symmetrize=lambda_sym_ref(model.n)), None
