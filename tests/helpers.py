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
from lqmfg.model import PiLifted, ValidatedModel, block_selector, lift_pi
from lqmfg.ode import BlowUpReport, integrate_backward
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


def check_escape_levels(solve, levels):
    """Check the escape verdict of `solve(threshold)` against per-node norms
    of the nested state levels of its solved path (innermost first).

    For every level above the innermost, a threshold between the level
    below's supremum and this level's supremum must be reported at this
    level's first crossing. A threshold below the innermost supremum must
    be reported at the innermost crossing, even though every outer level
    crossed earlier.
    """
    sups = [float(norms.max()) for norms in levels]
    for lvl in range(1, len(levels)):
        assert sups[lvl] > 1.1 * sups[lvl - 1]
        threshold = 0.5 * (sups[lvl - 1] + sups[lvl])
        node = first_crossing(levels[lvl], threshold)
        assert 0 < node < len(levels[lvl]) - 1
        for outer in levels[lvl + 1:]:
            assert first_crossing(outer, threshold) > node
        rep = solve(threshold)
        assert isinstance(rep, BlowUpReport)
        assert rep.escape_node == node
        assert math.isclose(rep.norm_at_escape, levels[lvl][node],
                            rel_tol=1e-12)

    threshold = 0.9 * sups[0]
    node = first_crossing(levels[0], threshold)
    for outer in levels[1:]:
        assert first_crossing(outer, threshold) > node
    rep = solve(threshold)
    assert isinstance(rep, BlowUpReport)
    assert rep.escape_node == node
    assert math.isclose(rep.norm_at_escape, levels[0][node], rel_tol=1e-12)


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


def simulate_reference(model, N, sol, dt=None, seed=0, type_counts=None,
                       use_empirical=False):
    """The step-by-step closed loop: all noise drawn up front, gains
    interpolated at every step. Returns (X0, X, Zbar, U0, U)."""
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


def _random_params(rng, K):
    n = int(rng.integers(1, 4))
    n1 = int(rng.integers(1, 3))
    n2 = int(rng.integers(1, 3))

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
        raise NonFiniteField(f"field returned non-finite derivative near t={t!r}")
    return w + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


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


def reference_solve(route, model, grid):
    """March `route`'s reference field from its terminal state with the
    route's own symmetrization and escape levels.

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
                                  symmetrize=ws.sym, prefixes=(nP,)), ws
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
        ns = ws.layout[2] + ws.layout[3]
        return integrate_backward(master_field_ref(model), terminal, grid,
                                  symmetrize=ws.sym,
                                  prefixes=(nP, nP + ns)), ws
    n = model.n
    sym_idx = [0, 2, 3, 4, 6]          # blocks 1_0, 3_0, 0, 1, 3

    def sym(flat):
        L = flat.reshape(9, n, n).copy()
        L[sym_idx] = (L[sym_idx] + L[sym_idx].transpose(0, 2, 1)) / 2.0
        return L.ravel()

    Q0f, Qf = model.Q0f, model.Qf
    G0f, G1f, G2f = model.Gamma0f, model.Gamma1f, model.Gamma2f
    terminal = np.stack([
        Q0f, -Q0f @ G0f, G0f.T @ Q0f @ G0f,
        G1f.T @ Qf @ G1f, Qf, -Qf @ G2f, G2f.T @ Qf @ G2f,
        -G1f.T @ Qf, G1f.T @ Qf @ G2f,
    ])
    return integrate_backward(lambda_field_ref(model), terminal.ravel(), grid,
                              symmetrize=sym), None
