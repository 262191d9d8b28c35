"""The route fields, evaluated stacked over types with hoisted constants,
are bitwise the per-type reference fields kept in helpers, and so are the
solves built on them and the symmetrization of each solve's state."""

import ast

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lqmfg import (TimeGrid, assemble_finite_n, lift_pi, solve_finite_n,
                   solve_lambda, solve_master, solve_nce, solve_tiles,
                   validate_model)
from lqmfg import asymptotic, equations, master, nce
from lqmfg.ode import BlowUpReport

import helpers
from helpers import (MasterBlocksRef, NCEWorkspaceRef, ReducedFieldsRef,
                     _random_params, build_model, dense_march, dense_sym_ref,
                     finite_sym_ref, growing_offsets, lambda_field_ref,
                     lambda_sym_ref, master_field_ref, nce_field_ref, node_l1,
                     random_n3k3, reference_solve, scalar_coupled,
                     two_dim_coupled, two_type_scalar)

FIELD_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True)


def random_model(K, n, seed):
    """A `_random_params` model with K types and state dimension n: the
    first seed from `seed` on whose first draw gives n."""
    while int(np.random.default_rng(seed).integers(1, 4)) != n:
        seed += 1
    model = validate_model(_random_params(np.random.default_rng(seed), K))
    assert (model.K, model.n) == (K, n)
    return model


def random_state(seed, kernels, tail, zeros, scale):
    """Flat state: symmetric kernel blocks of the given shapes, then `tail`
    free entries. A share `zeros` of the draws is set to +0.0 or -0.0, and
    everything is scaled by `scale`."""
    rng = np.random.default_rng(seed)

    def draw(shape):
        x = rng.standard_normal(shape) * scale
        hit = rng.random(shape) < zeros
        x[hit] = np.copysign(0.0, rng.standard_normal(hit.sum()))
        return x

    parts = []
    for shape in kernels:
        x = draw(shape)
        upper = np.triu(x)
        parts.append((upper + np.swapaxes(np.triu(x, 1), -1, -2)).ravel())
    parts.append(draw(tail))
    return np.concatenate(parts)


def route_field(route, model):
    """(field, reference field, kernel shapes, tail length) of a route."""
    K, n = model.K, model.n
    d0, d1 = n * (K + 1), n * (K + 2)
    kernels = [(d0, d0), (K, d1, d1)]
    if route == "nce":
        field = nce._Workspace(model, lift_pi(model)).field
        return field, nce_field_ref(model), kernels, d0 + K * d1
    if route == "master":
        field = master._Blocks(model, lift_pi(model)).field
        return field, master_field_ref(model), kernels, d0 + K * d1 + 1 + K
    # the kernel slice of the limit field, over a state with offsets
    kernels = 9 * n * n
    limit = asymptotic._field(model, asymptotic._LIMIT_EQUATIONS, 0.0)
    ref = lambda_field_ref(model)
    return (lambda t, w: limit(t, w)[:kernels],
            lambda t, w: ref(t, w[:kernels]), [], kernels + 5 * n)


STATES = dict(
    state_seed=st.integers(0, 2 ** 32 - 1),
    zeros=st.sampled_from([0.0, 0.3, 1.0]),
    scale=st.sampled_from([1e-3, 1.0, 1e3, 1e9]),
    t=st.floats(0.0, 1.0),
)


@pytest.mark.parametrize("route", ["nce", "master"])
@FIELD_SETTINGS
@given(K=st.integers(1, 3), n=st.integers(1, 3),
       model_seed=st.integers(0, 10 ** 6), **STATES)
def test_route_field_is_bitwise_the_per_type_field(route, K, n, model_seed,
                                                   state_seed, zeros, scale, t):
    model = random_model(K, n, model_seed)
    field, ref, kernels, tail = route_field(route, model)
    w = random_state(state_seed, kernels, tail, zeros, scale)
    assert field(t, w).tobytes() == ref(t, w).tobytes()


@FIELD_SETTINGS
@given(n=st.integers(1, 3), model_seed=st.integers(0, 10 ** 6), **STATES)
def test_lambda_field_is_bitwise_the_inline_field(n, model_seed, state_seed,
                                                  zeros, scale, t):
    model = random_model(1, n, model_seed)
    field, ref, kernels, tail = route_field("lambda", model)
    w = random_state(state_seed, kernels, tail, zeros, scale)
    assert field(t, w).tobytes() == ref(t, w).tobytes()


def route_fields(route, K, n, model_seed):
    """(field, reference field, kernel shapes, tail length) of a random
    model; the lambda route has K = 1."""
    K = 1 if route == "lambda" else K
    return route_field(route, random_model(K, n, model_seed))


@pytest.mark.parametrize("route", ["lambda", "nce", "master"])
@settings(max_examples=40, deadline=None, derandomize=True)
@given(K=st.integers(1, 3), n=st.integers(1, 3),
       seeds=st.tuples(*[st.integers(0, 10 ** 6)] * 4),
       zeros=st.sampled_from([0.0, 0.3]))
def test_lambda_fields_keep_their_results_and_pools_apart(route, K, n, seeds,
                                                          zeros):
    """The field evaluates through a pool of its own: a result stays as
    it was after later calls, and two fields of different models (of one
    shape, so of one compiled table) called in alternation each give
    their own model's reference field."""
    (f, f_ref, kernels, tail), (g, g_ref, _, _) = (
        route_fields(route, K, n, s) for s in seeds[:2])
    v, w = (random_state(s, kernels, tail, zeros, 1.0) for s in seeds[2:])
    first = f(0.0, v)
    kept = first.copy()
    for state in (w, v, w):
        assert f(0.0, state).tobytes() == f_ref(0.0, state).tobytes()
        assert g(0.0, state).tobytes() == g_ref(0.0, state).tobytes()
    assert first.tobytes() == kept.tobytes()
    assert not np.shares_memory(first, f(0.0, v))


@pytest.mark.parametrize("route", ["lambda", "nce", "master"])
@FIELD_SETTINGS
@given(K=st.integers(1, 3), n=st.integers(1, 3),
       model_seed=st.integers(0, 10 ** 6),
       state_seed=st.integers(0, 2 ** 32 - 1),
       scale=st.floats(1e11, 1e12), zeros=st.sampled_from([0.0, 0.3]))
def test_lambda_field_is_bitwise_the_inline_field_near_escape(
        route, K, n, model_seed, state_seed, scale, zeros):
    """Entries of 1e11 to 1e12, as RK4 stages meet them just below the
    escape threshold, where products reach 1e24 and more."""
    field, ref, kernels, tail = route_fields(route, K, n, model_seed)
    w = random_state(state_seed, kernels, tail, zeros, 1.0)
    w = w / max(np.abs(w).max(), 1e-300) * scale
    assert field(0.0, w).tobytes() == ref(0.0, w).tobytes()


def compile_arguments(module, build):
    """The arguments that build() hands to `module.compile_field`."""
    seen = []

    def capture(*args):
        seen.append(args)
        return equations.compile_field(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(module, "compile_field", capture)
        build()
    return seen[-1]


def member_fields(route, models, es):
    """Per member (model, e), the compile_field arguments and the field
    of its solo route; e is the tile system's 1/N, None for the others."""
    out = []
    for model, e in zip(models, es):
        if route == "nce":
            def build():
                return nce._Workspace(model, lift_pi(model)).field
            module = nce
        elif route == "master":
            def build():
                return master._Blocks(model, lift_pi(model)).field
            module = master
        else:
            text = (asymptotic._LIMIT_EQUATIONS if route == "limit"
                    else asymptotic._TILE_EQUATIONS)

            def build():
                return asymptotic._field(model, text, e)
            module = asymptotic
        out.append((compile_arguments(module, build), build()))
    return out


@pytest.mark.parametrize("route", ["nce", "master", "limit", "tile"])
@settings(max_examples=25, deadline=None, derandomize=True)
@given(K=st.integers(1, 3), n=st.integers(1, 3), n1=st.integers(1, 2),
       B=st.integers(2, 4), model_seed=st.integers(0, 10 ** 6), **STATES)
def test_member_field_is_bitwise_each_solo_field(route, K, n, n1, B,
                                                 model_seed, state_seed,
                                                 zeros, scale, t):
    """One field over B members, different models of one shape (and, for
    the tile text, different e = 1/N, N = 1 included), gives each member
    bitwise the derivative its solo field gives, from a (B, S) stack of
    states; the members' rows of the pool do not mix."""
    if route in ("limit", "tile"):
        K = 1
    models = [validate_model(_random_params(
        np.random.default_rng(model_seed + b), K, dims=(n, n1, 1)))
        for b in range(B)]
    es = [1.0 / N for N in (1, 2, 7, 2 ** 40)[:B]] if route == "tile" \
        else [0.0] * B
    members = member_fields(route, models, es)
    (state, _, *rest), _ = members[0]
    field = equations.compile_field(
        state, [args[1][0] for args, _ in members], *rest)
    size = sum(np.prod(shape) for _, shape in state)
    rng = np.random.default_rng(state_seed)
    w = np.stack([random_state(int(rng.integers(2 ** 32)), [], size, zeros,
                               scale) for _ in range(B)])
    got = field(t, w)
    assert got.shape == (B, size)
    for b, (_, solo) in enumerate(members):
        assert got[b].tobytes() == solo(t, w[b]).tobytes()


@pytest.mark.parametrize("route", ["lambda", "nce", "master"])
def test_a_second_solve_of_one_shape_compiles_nothing(route):
    """The compiled tables are cached per equation text and shapes: after
    one solve, a solve of another model of the same shape parses no
    text, and its field is still its own model's reference field."""
    K = 1 if route == "lambda" else 2
    first, second = (validate_model(_random_params(
        np.random.default_rng(seed), K, dims=(2, 2, 1))) for seed in (5, 6))
    solve = {"lambda": solve_lambda, "nce": solve_nce,
             "master": solve_master}[route]
    grid = TimeGrid(M=20, T=1.0)
    solve(first, grid)

    def no_parse(*args, **kwargs):
        raise AssertionError("equation text parsed again")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ast, "parse", no_parse)
        solve(second, grid)
        field, ref, kernels, tail = route_field(route, second)
    w = random_state(7, kernels, tail, 0.0, 1.0)
    assert field(0.0, w).tobytes() == ref(0.0, w).tobytes()


@FIELD_SETTINGS
@given(n=st.integers(1, 3), N=st.sampled_from([1, 2, 3, 8, 32]),
       model_seed=st.integers(0, 10 ** 6), **STATES)
def test_finite_field_is_bitwise_the_reference_field(n, N, model_seed,
                                                     state_seed, zeros, scale,
                                                     t):
    sys = assemble_finite_n(random_model(1, n, model_seed), N)
    d = sys.dim
    w = random_state(state_seed, [(2, d, d)], 2 * d, zeros, scale)
    got = asymptotic._ReducedFields(sys).field(t, w)
    assert got.tobytes() == reference_finite_field(sys, w).tobytes()


def reference_finite_field(sys, w):
    """ReducedFieldsRef's derivatives at the flat state w, concatenated
    in state order."""
    d = sys.dim
    P0, P1 = w[:2 * d * d].reshape(2, d, d)
    S0, S1 = w[2 * d * d:].reshape(2, d)
    ref = ReducedFieldsRef(sys)
    W = ref.coupling(P1)
    return np.concatenate([part.ravel() for part in
                           ref.dP(P0, P1, W) + ref.dS(P0, P1, W, S0, S1)])


@pytest.mark.parametrize("n,N", [(1, 1), (2, 3), (3, 8)])
def test_finite_field_returns_a_fresh_array_each_call(n, N):
    """RK4 holds all four stages at once: a later call must leave an
    earlier result as it was, and no result may share memory with the
    buffers the field keeps between calls. Each result is still the
    reference field of its own state, so nothing a call leaves in those
    buffers leaks into the next."""
    sys = assemble_finite_n(random_model(1, n, 11 + n), N)
    d = sys.dim
    red = asymptotic._ReducedFields(sys)
    states = [random_state(seed, [(2, d, d)], 2 * d, zeros, 1.0)
              for seed, zeros in ((1, 0.0), (2, 0.3), (3, 0.0))]
    results = [red.field(0.0, w) for w in states]
    kept = [a for a in vars(red).values() if isinstance(a, np.ndarray)]
    for i, (w, got) in enumerate(zip(states, results)):
        assert got.tobytes() == reference_finite_field(sys, w).tobytes()
        assert not np.shares_memory(got, w)
        assert not any(np.shares_memory(got, a) for a in kept)
        assert not any(np.shares_memory(got, other)
                       for other in results[i + 1:])


def _flat(*paths):
    Mn = paths[0].values.shape[0]
    return np.concatenate([p.values.reshape(Mn, -1) for p in paths], axis=1)


MODELS = {"scalar": build_model, "twotype": two_type_scalar,
          "n3k3": random_n3k3,
          "gamma2-3": lambda: build_model(Gamma2=np.array([[3.0]]),
                                          Gamma2f=np.array([[3.0]]))}


@pytest.mark.parametrize("name", sorted(MODELS))
def test_solves_are_bitwise_the_reference_marches(name):
    model = MODELS[name]()
    grid = TimeGrid(M=200, T=1.0)
    Mn = grid.M + 1

    sol = solve_nce(model, grid)
    ref, ws = reference_solve("nce", model, grid)
    if isinstance(ref, BlowUpReport):
        assert sol == ref
    else:
        assert np.array_equal(_flat(sol.P0, sol.P, sol.s0, sol.s), ref.values)
        for j in range(Mn):
            P0, P, s0, s = ws.unpack(ref.values[j])
            Abar, Gbar = ws.consistency_blocks(P)
            assert np.array_equal(sol.Abar.values[j], Abar)
            assert np.array_equal(sol.Gbar.values[j], Gbar)
            assert np.array_equal(sol.mbar.values[j],
                                  ws.mbar_from_s(s).ravel())

    sol = solve_master(model, grid)
    ref, ws = reference_solve("master", model, grid)
    if isinstance(ref, BlowUpReport):
        assert sol == ref
    else:
        assert np.array_equal(
            _flat(sol.Pd0, sol.Pd, sol.sd0, sol.sd, sol.rd0, sol.rd),
            ref.values)
        for j in range(Mn):
            parts = ws.split(ref.values[j])
            Abar, Gbar = ws.mean_field_rows(parts[1])
            assert np.array_equal(sol.Abar_dag.values[j], Abar)
            assert np.array_equal(sol.Gbar_dag.values[j], Gbar)
            assert np.array_equal(sol.mbar_dag.values[j], ws.mbar_vec(parts[3]))

    if model.K == 1:
        sol = solve_lambda(model, grid)
        ref, _ = reference_solve("lambda", model, grid)
        if isinstance(ref, BlowUpReport):
            assert sol == ref
        else:
            blocks = [sol.blocks[key] for key in asymptotic.BLOCK_KEYS]
            assert np.array_equal(_flat(*blocks), ref.values)


def _reduced_flat(model, N, grid, threshold=1e12):
    """solve_finite_n's state path as the reference march lays it out."""
    sol = solve_finite_n(model, N, grid, threshold=threshold)
    if isinstance(sol, BlowUpReport):
        return sol
    return _flat(sol.P0_big, sol.P1_big, sol.S0_big, sol.S1_big)


def _dense_flat(model, N, grid, threshold=1e12):
    """Players 0 and 1 of the dense march, laid out as `_reduced_flat`."""
    res = dense_march(model, N, grid, threshold)
    if isinstance(res, BlowUpReport):
        return res
    P, S = res
    Mn = P.shape[0]
    return np.concatenate([P[:, :2].reshape(Mn, -1),
                           S[:, :2].reshape(Mn, -1)], axis=1)


FINITE_MODELS = {"scalar": scalar_coupled, "twodim": two_dim_coupled,
                 "offsets": growing_offsets}


@pytest.mark.parametrize("name", sorted(FINITE_MODELS))
def test_finite_n_solves_are_bitwise_the_reference_march(name):
    """The reduced mode at N = 4, and the dense march at N = 1 (where its
    products are the reduced ones; at larger N it sums the exchanged
    players in another order), are bitwise the reference march, and so
    are their escape reports at the kernel and the offset level."""
    model = FINITE_MODELS[name]()
    grid = TimeGrid(M=100, T=1.0)
    for N, solvers in ((4, (_reduced_flat,)),
                       (1, (_reduced_flat, _dense_flat))):
        ref, _ = reference_solve("finite-n", model, grid, N=N)
        for solve in solvers:
            assert np.array_equal(solve(model, N, grid), ref.values)

        sq = assemble_finite_n(model, N).dim ** 2
        kernels = node_l1(ref.values[:, :2 * sq])
        joint = node_l1(ref.values)
        for threshold in (0.9 * kernels.max(),
                          0.5 * (kernels.max() + joint.max())):
            want, _ = reference_solve("finite-n", model, grid, N=N,
                                      threshold=threshold)
            assert isinstance(want, BlowUpReport)
            for solve in solvers:
                assert solve(model, N, grid, threshold=threshold) == want


def solve_keywords(route, model, N):
    """The keywords (`symmetrize`, `prefixes`, ...) that `route`'s solve
    hands to integrate_backward, captured without marching."""
    seen = []

    def capture(field, terminal, grid, **keywords):
        seen.append(keywords)
        return BlowUpReport(escape_node=0, norm_at_escape=np.inf,
                            threshold=keywords["threshold"])

    grid = TimeGrid(M=4, T=1.0)
    module = {"nce": nce, "master": master,
              "dense": helpers}.get(route, asymptotic)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(module, "integrate_backward", capture)
        if route == "nce":
            solve_nce(model, grid)
        elif route == "master":
            solve_master(model, grid)
        elif route == "lambda":
            solve_lambda(model, grid)
        elif route == "tiles":
            solve_tiles(model, N, grid)
        elif route == "finite-n":
            solve_finite_n(model, N, grid)
        else:
            dense_march(model, N, grid)
    return seen[-1]


def reference_sym(route, model, N):
    if route == "nce":
        return NCEWorkspaceRef(model, lift_pi(model)).sym
    if route == "master":
        return MasterBlocksRef(model, lift_pi(model)).sym
    if route == "lambda":
        return lambda_sym_ref(model.n)
    d = (N + 1) * model.n
    return finite_sym_ref(d) if route == "finite-n" else dense_sym_ref(N, d)


def state_size(route, model, N):
    K, n = model.K, model.n
    d0, d1, d = n * (K + 1), n * (K + 2), (N + 1) * n
    return {"nce": d0 * d0 + K * d1 * d1 + d0 + K * d1,
            "master": d0 * d0 + K * d1 * d1 + d0 + K * d1 + 1 + K,
            "lambda": 9 * n * n + 5 * n,
            "finite-n": 2 * d * d + 2 * d,
            "dense": (N + 1) * (d * d + d)}[route]


def canonical_nan(a):
    return np.where(np.isnan(a), np.nan, a)


@pytest.mark.parametrize("route",
                         ["nce", "master", "lambda", "finite-n", "dense"])
@settings(max_examples=60, deadline=None, derandomize=True)
@given(K=st.integers(1, 3), n=st.integers(1, 3), N=st.integers(1, 4),
       model_seed=st.integers(0, 10 ** 6),
       state_seed=st.integers(0, 2 ** 32 - 1),
       special=st.sampled_from([0.0, 0.05, 0.5]),
       nan_signs=st.sampled_from([(np.nan,), (np.nan, -np.nan)]))
def test_layout_sym_is_bytewise_the_reference_sym(route, K, n, N, model_seed,
                                                  state_seed, special,
                                                  nan_signs):
    """Also on states with inf and NaN entries: a NaN outside the kernels
    stays in the projection, so the drift against it is NaN and never
    raises AsymmetryDrift.

    The sum of two NaNs of opposite sign is either of them, depending on
    which numpy inner loop runs (the reference itself gives one sign for a
    block alone and the other inside a stack of blocks). States holding
    NaNs of both signs are therefore compared up to the sign of the NaNs;
    every other entry is compared byte for byte."""
    if route not in ("nce", "master"):
        K = 1
    model = random_model(K, n, model_seed)
    rng = np.random.default_rng(state_seed)
    w = rng.standard_normal(state_size(route, model, N))
    hit = rng.random(w.size) < special
    w[hit] = rng.choice([np.inf, -np.inf, *nan_signs], hit.sum())
    with np.errstate(invalid="ignore"):            # inf + -inf
        got = solve_keywords(route, model, N)["symmetrize"](w)
        want = reference_sym(route, model, N)(w)
    if len(nan_signs) > 1:
        got, want = canonical_nan(got), canonical_nan(want)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("route", ["nce", "master", "lambda", "tiles",
                                   "finite-n", "dense"])
@pytest.mark.parametrize("K,n,N", [(1, 1, 1), (3, 2, 4)])
def test_derived_prefixes_are_the_hand_set_levels(route, K, n, N):
    """The escape prefixes each solve derives from its segment kinds are
    the levels once set by hand: the kernels, and for master the kernels,
    then kernels and offsets."""
    if route not in ("nce", "master"):
        K = 1
    d0, d1, d = n * (K + 1), n * (K + 2), (N + 1) * n
    kernels = d0 * d0 + K * d1 * d1
    want = {"nce": (kernels,), "master": (kernels, kernels + d0 + K * d1),
            "lambda": (9 * n * n,), "tiles": (9 * n * n,),
            "finite-n": (2 * d * d,), "dense": ((N + 1) * d * d,)}[route]
    keywords = solve_keywords(route, random_model(K, n, 3), N)
    assert tuple(keywords["prefixes"]) == want
