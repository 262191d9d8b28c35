"""Shared fixtures-in-code: closed-form oracles and model factories.

Every expected value used by the tests is computed here independently of
the library's solvers (closed forms, direct algebra, or rejection-free
constructions), so the tests never compare the code against itself.
"""

import math

import numpy as np

from lqmfg import ModelParams, TimeGrid, validate_model, solve_nce
from lqmfg.ode import BlowUpReport


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


def zero_weight():
    """All cost weights and offsets zero: kernels and offsets vanish."""
    z1 = np.array([[0.0]])
    z = np.array([0.0])
    return build_model(Q0=z1, Q0f=z1, Q=z1, Qf=z1,
                       Gamma0=z1, Gamma0f=z1, Gamma1=z1, Gamma1f=z1,
                       Gamma2=z1, Gamma2f=z1,
                       eta0=z, eta0f=z, eta=z, etaf=z)


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
