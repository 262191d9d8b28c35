"""The route fields, evaluated stacked over types with hoisted constants,
are bitwise the per-type reference fields kept in helpers, and so are the
solves built on them and the symmetrization of each solve's state."""

import ast
import functools
import inspect
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lqmfg import (TimeGrid, assemble_finite_n, check_asymptotic_solvability,
                   lift_pi, load_model, solve_finite_n, solve_lambda,
                   solve_master, solve_nce, solve_tiles, validate_model)
from lqmfg import asymptotic, equations, master, nce, ode
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
        _, field = nce._field(model, lift_pi(model))
        return field, nce_field_ref(model), kernels, d0 + K * d1
    if route == "master":
        _, field = master._field(model, lift_pi(model))
        return field, master_field_ref(model), kernels, d0 + K * d1 + 1 + K
    # the kernel slice of the limit field, over a state with offsets
    kernels = 9 * n * n
    _, limit = asymptotic._field(model, asymptotic._LIMIT_EQUATIONS, 0.0)
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
        if route in ("nce", "master"):
            module = nce if route == "nce" else master

            def build():
                return module._field(model, lift_pi(model))[1]
        else:
            text = (asymptotic._LIMIT_EQUATIONS if route == "limit"
                    else asymptotic._TILE_EQUATIONS)

            def build():
                return asymptotic._field(model, text, e)[1]
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
    (segments, _, *rest), _ = members[0]
    layout, field = equations.compile_field(
        segments, [args[1][0] for args, _ in members], *rest)
    size = layout.size
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


def test_a_second_solve_of_one_shape_builds_nothing_shape_only(monkeypatch):
    """The state layouts and generated code are cached with the compiled
    tables: after the nce, master and limit solves and a three-N tile
    batch of one model, the same solves of another model of the same
    shape build no StateLayout and generate no code."""
    built = []
    init, generate = ode.StateLayout.__init__, equations._evaluator

    def layout(self, *args):
        built.append("layout")
        init(self, *args)

    monkeypatch.setattr(ode.StateLayout, "__init__", layout)
    monkeypatch.setattr(equations, "_evaluator",
                        lambda *args: built.append("code") or generate(*args))
    equations.compile_equations.cache_clear()
    grid = TimeGrid(M=20, T=1.0)
    for seed in (5, 6):
        model = validate_model(_random_params(
            np.random.default_rng(seed), 1, dims=(2, 2, 1)))
        solve_nce(model, grid)
        solve_master(model, grid)
        solve_lambda(model, grid)
        check_asymptotic_solvability(model, [2, 4, 8], grid)
        if seed == 5:
            assert built.count("code") == 4 and "layout" in built
            built.clear()
    assert built == []


@FIELD_SETTINGS
@given(n=st.integers(1, 3), N=st.sampled_from([1, 2, 3, 8, 32]),
       model_seed=st.integers(0, 10 ** 6), **STATES)
def test_finite_field_is_bitwise_the_reference_field(n, N, model_seed,
                                                     state_seed, zeros, scale,
                                                     t):
    sys = assemble_finite_n(random_model(1, n, model_seed), N)
    d = sys.dim
    w = random_state(state_seed, [(2, d, d)], 2 * d, zeros, scale)
    got = asymptotic._finite_field(sys)[1](t, w)
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
    field = asymptotic._finite_field(sys)[1]
    states = [random_state(seed, [(2, d, d)], 2 * d, zeros, 1.0)
              for seed, zeros in ((1, 0.0), (2, 0.3), (3, 0.0))]
    results = [field(0.0, w) for w in states]
    kept = [cell.cell_contents for cell in field.__closure__
            if isinstance(cell.cell_contents, np.ndarray)]
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
    are their escape reports at the kernel level and their paths at a
    threshold that only kernels with offsets cross."""
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
        want, _ = reference_solve("finite-n", model, grid, N=N,
                                  threshold=0.9 * kernels.max())
        assert isinstance(want, BlowUpReport)
        for solve in solvers:
            assert solve(model, N, grid, threshold=0.9 * kernels.max()) == want
            got = solve(model, N, grid,
                        threshold=0.5 * (kernels.max() + joint.max()))
            assert np.array_equal(got, ref.values)


def solve_keywords(route, model, N):
    """The keywords (`symmetrize`, `escape_length`, ...) that `route`'s solve
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
    """The escape length each solve derives from its segment kinds is the
    kernels' prefix once set by hand."""
    if route not in ("nce", "master"):
        K = 1
    d0, d1, d = n * (K + 1), n * (K + 2), (N + 1) * n
    kernels = d0 * d0 + K * d1 * d1
    want = {"nce": kernels, "master": kernels, "lambda": 9 * n * n,
            "tiles": 9 * n * n, "finite-n": 2 * d * d,
            "dense": (N + 1) * d * d}[route]
    keywords = solve_keywords(route, random_model(K, n, 3), N)
    assert keywords["escape_length"] == want


SHIPPED = Path(__file__).resolve().parents[1] / "models"
PREFIX_MODELS = {
    "scalar": lambda: load_model(str(SHIPPED / "scalar.model")),
    "twotype": lambda: load_model(str(SHIPPED / "twotype.model")),
    "rand-n3k3": random_n3k3,
    "rand-n2k1": lambda: random_model(1, 2, 3),
}


@functools.cache
def prefix_field(route, name):
    """(field, state size, escape length) of `route`'s solve of
    PREFIX_MODELS[name]; the tile and finite-n fields at N = 3."""
    model = PREFIX_MODELS[name]()
    if route in ("nce", "master"):
        layout, field = (nce if route == "nce" else master)._field(
            model, lift_pi(model))
    elif route == "finite-n":
        layout, field = asymptotic._finite_field(assemble_finite_n(model, 3))
    else:
        text, e = ((asymptotic._LIMIT_EQUATIONS, 0.0) if route == "lambda"
                   else (asymptotic._TILE_EQUATIONS, 1.0 / 3.0))
        layout, field = asymptotic._field(model, text, e)
    return field, layout.size, layout.escape_length


@pytest.mark.parametrize("route,name", [
    *((route, name) for route in ("nce", "master") for name in PREFIX_MODELS),
    *((route, name) for route in ("lambda", "tiles", "finite-n")
      for name in ("scalar", "rand-n2k1"))])
@settings(max_examples=20, deadline=None, derandomize=True)
@given(state_seed=st.integers(0, 2 ** 32 - 1),
       scale=st.sampled_from([1e-3, 1.0, 1e3]),
       tail_scale=st.sampled_from([1e-3, 1.0, 1e3, 1e9]),
       t=st.floats(0.0, 1.0))
def test_kernel_derivatives_never_read_past_the_escape_prefix(
        route, name, state_seed, scale, tail_scale, t):
    """The one escape level rests on this: perturbing every entry past
    the kernels (the offsets, and master's constants) leaves the kernel
    part of each route's derivative byte for byte as it was, so offsets
    and constants cannot feed the kernels' escape."""
    field, size, escape = prefix_field(route, name)
    assert 0 < escape < size
    rng = np.random.default_rng(state_seed)
    w = rng.standard_normal(size) * scale
    kernels = field(t, w)[:escape].copy()
    w[escape:] += rng.standard_normal(size - escape) * tail_scale
    assert field(t, w)[:escape].tobytes() == kernels.tobytes()


def written_sym(layout, flat):
    """The projection as written, one kernel segment at a time:
    (P + P.swapaxes(-1, -2)) / 2.0, every other segment as given."""
    lead = flat.shape[:-1]
    return np.concatenate(
        [((P + P.swapaxes(-1, -2)) / 2.0 if kind == "kernel" else P)
         .reshape(lead + (-1,))
         for P, kind in zip(layout.split(flat), layout.kinds)], axis=-1)


@pytest.mark.parametrize("route",
                         ["nce", "master", "tiles", "finite-n", "dense"])
@pytest.mark.parametrize("K,n,N", [(1, 1, 1), (2, 2, 2), (3, 3, 3)])
@pytest.mark.parametrize("B", [None, 3])
@pytest.mark.parametrize("nan", [np.nan, -np.nan], ids=["nan", "neg-nan"])
def test_layout_sym_is_bitwise_the_written_projection(route, K, n, N, B,
                                                      nan):
    """Every layout a solve builds projects as the written per-segment
    rule, bit for bit, with and without a member axis, on states holding
    -0.0, +-inf and NaN (of one sign; the sum of NaNs of both signs may
    take either's, see test_layout_sym_is_bytewise_the_reference_sym);
    matrix, vector and scalar segments come back exactly as given."""
    if route not in ("nce", "master"):
        K = 1
    model = random_model(K, n, 11)
    layout = solve_keywords(route, model, N)["symmetrize"].__self__
    if route == "tiles":
        assert "matrix" in layout.kinds
    rng = np.random.default_rng([K, n, N])
    w = rng.standard_normal((B or 1, layout.size))
    for value, share in ((-0.0, 0.1), (np.inf, 0.05), (-np.inf, 0.05),
                         (nan, 0.05)):
        w[rng.random(w.shape) < share] = value
    w = w if B else w[0]
    with np.errstate(invalid="ignore"):            # inf + -inf
        got = layout.sym(w)
        want = written_sym(layout, w)
        rows = [layout.sym(x) for x in w] if B else []
    assert got.shape == w.shape
    assert got.tobytes() == want.tobytes()
    for b, row in enumerate(rows):
        assert row.tobytes() == got[b].tobytes()
    for given, kept, kind in zip(layout.split(w), layout.split(got),
                                 layout.kinds):
        if kind != "kernel":
            assert kept.tobytes() == given.tobytes()
    assert not np.shares_memory(got, w)


def table_arguments(route, seeds):
    """(compile_equations arguments, constants per model) of `route`'s
    text for the models of `seeds`, all of one shape (the tile text at
    e = 1/2, 1/3, ...)."""
    args = []
    for i, seed in enumerate(seeds):
        model = validate_model(_random_params(
            np.random.default_rng(seed), 1 if route == "tile" else 2,
            dims=(2, 1, 1)))
        if route in ("nce", "master"):
            module = nce if route == "nce" else master
            args.append(compile_arguments(
                module, lambda: module._field(model, lift_pi(model))))
        else:
            args.append(compile_arguments(
                asymptotic, lambda: asymptotic._field(
                    model, asymptotic._TILE_EQUATIONS, 1.0 / (i + 2))))
    state, members, names, texts, *dims = args[0]
    consts = tuple((name, np.shape(value))
                   for name, value in members[0].items())
    key = (tuple(state), consts, tuple(names.items()), tuple(texts),
           tuple(dims[0].items()) if dims else ())
    return key, [a[1][0] for a in args]


@pytest.mark.parametrize("route", ["nce", "master", "tile"])
def test_fields_of_one_table_keep_their_bits_apart(route):
    """Fields built from one table, two models of one shape alone
    and three models as one B = 3 field, called in alternation, each give
    the derivative a field of their own gives; a result aliases neither
    the field's pool nor an earlier result, and stays as it was. The
    table generates its code once, when it is built, and fields of one
    or three members share it; building them generates none."""
    key, consts = table_arguments(route, [21, 22, 23])
    made = []
    generate = equations._evaluator
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(equations, "_evaluator",
                   lambda *args: made.append("code") or generate(*args))
        tables = equations.Equations(*key)      # the cached one is shared
        assert made == ["code"]
        mp.setattr(equations, "compile", made.append, raising=False)
        mp.setattr(equations, "exec", made.append, raising=False)
        f, g = tables.field(consts[:1]), tables.field(consts[1:2])
        stack = tables.field(consts)
    assert made == ["code"]
    assert f.__code__ is g.__code__ is tables.field(consts[2:]).__code__
    assert stack.__code__ is tables.field(consts[1:]).__code__
    assert stack.__code__ is f.__code__        # one factory for every pool
    rng = np.random.default_rng(5)
    states = [rng.standard_normal(tables.state_size) for _ in range(3)]
    W = np.stack(states)
    # each expected value from a field used for that one call
    want = {(i, s): tables.field(consts[i:i + 1])(0.0, states[s]).tobytes()
            for i in range(3) for s in range(3)}
    kept = []
    for s in (0, 1, 2, 1, 0):
        for i, field in ((0, f), (1, g)):
            got = field(0.0, states[s])
            assert got.tobytes() == want[i, s]
            kept.append((got, want[i, s]))
        got = stack(0.0, W[[s, (s + 1) % 3, (s + 2) % 3]])
        assert got.shape == W.shape
        for b in range(3):
            assert got[b].tobytes() == want[b, (s + b) % 3]
        kept.append((got, b"".join(want[b, (s + b) % 3] for b in range(3))))
    for field in (f, g, stack):
        bound = [x for x in inspect.getclosurevars(field).nonlocals.values()
                 if isinstance(x, np.ndarray)]
        assert bound
        for got, _ in kept:
            assert not any(np.shares_memory(got, x) for x in bound)
    for (a, _), (b, _) in zip(kept, kept[1:]):
        assert not np.shares_memory(a, b)
    assert all(got.tobytes() == bits for got, bits in kept)


def test_state_layout_slots_are_columns_and_one_by_one_matrices(monkeypatch):
    """The compiler's state: matrices as declared, a vector as a column, a
    scalar as a 1 x 1 matrix, each over the segment's stack axes; the
    layout the tables keep is the one of the declared segments."""
    seen = []
    parse = equations._Parser.__init__

    def capture(self, state, *args):
        seen.append(tuple(state))
        parse(self, state, *args)

    monkeypatch.setattr(equations._Parser, "__init__", capture)
    segments = (("P", (3, 2, 2), "kernel"), ("G", (2, 4), "matrix"),
                ("s0", (2,), "vector"), ("s", (3, 2), "vector"),
                ("r0", (), "scalar"), ("r", (3,), "scalar"))
    tables = equations.Equations(segments, (), (), tuple(
        name for name, _, _ in segments), ())
    assert seen == [(("P", (3, 2, 2)), ("G", (2, 4)), ("s0", (2, 1)),
                     ("s", (3, 2, 1)), ("r0", (1, 1)), ("r", (3, 1, 1)))]
    assert tables.layout.names == ("P", "G", "s0", "s", "r0", "r")
    assert tables.layout.escape_length == 20
    w = np.arange(1.0, tables.layout.size + 1)
    assert tables.field([{}])(0.0, w).tobytes() == w.tobytes()


def random_spd(rng, m, cond):
    """A random symmetric positive definite m x m matrix of condition
    number `cond`."""
    Q, _ = np.linalg.qr(rng.standard_normal((m, m)))
    R = (Q * np.geomspace(1.0, 1.0 / cond, m)) @ Q.T
    return (R + R.T) / 2.0


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("cond", [1.0, 1e6, 1e12])
@pytest.mark.parametrize("k", [1, 3])
def test_solve_op_is_bitwise_np_linalg_solve(m, cond, k):
    """The evaluator's solve, on random SPD matrices up to condition
    number 1e12, is np.linalg.solve bit for bit; it calls the LAPACK
    gufunc np.linalg.solve calls, a private numpy name pinned here. In a
    field of three members (condition numbers 1, 1e6 and 1e12), one
    stacked call, each member is bitwise its own np.linalg.solve."""
    gufunc = equations._umath_linalg.solve
    assert isinstance(gufunc, np.ufunc)
    assert gufunc.signature == "(m,m),(m,n)->(m,n)"
    rng = np.random.default_rng([m, k, int(np.log10(cond))])
    for _ in range(20):
        R = random_spd(rng, m, cond)
        _, field = equations.compile_field([("X", (m, k), "matrix")],
                                           [{"R": R}], {}, ["solve(R, X)"])
        for _ in range(5):
            x = rng.standard_normal(m * k)
            want = np.linalg.solve(R, x.reshape(m, k)).ravel()
            assert field(0.0, x).tobytes() == want.tobytes()
    for _ in range(5):
        Rs = [random_spd(rng, m, c) for c in (1.0, 1e6, 1e12)]
        _, field = equations.compile_field(
            [("X", (m, k), "matrix")], [{"R": R} for R in Rs], {},
            ["solve(R, X)"])
        x = rng.standard_normal((3, m * k))
        got = field(0.0, x)
        assert got.shape == x.shape
        for R, row, xb in zip(Rs, got, x):
            want = np.linalg.solve(R, xb.reshape(m, k)).ravel()
            assert row.tobytes() == want.tobytes()


@pytest.mark.parametrize("R", [np.zeros((1, 1)), np.ones((2, 2)),
                               np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0],
                                         [0.0, 1.0, 1.0]])])
def test_solve_op_raises_on_a_singular_matrix(R):
    """Alone, and as the one singular member among three of a stacked
    solve."""
    m = len(R)
    _, field = equations.compile_field([("X", (m, 2), "matrix")],
                                       [{"R": R}], {}, ["solve(R, X)"])
    x = np.arange(1.0, 2 * m + 1)
    with pytest.raises(np.linalg.LinAlgError, match="Singular matrix"):
        np.linalg.solve(R, x.reshape(m, 2))
    with pytest.raises(np.linalg.LinAlgError, match="Singular matrix"):
        field(0.0, x)
    eye = np.eye(m)
    for members in ([R, eye, 2.0 * eye], [eye, R, 2.0 * eye],
                    [eye, 2.0 * eye, R]):
        _, field = equations.compile_field(
            [("X", (m, 2), "matrix")], [{"R": M} for M in members], {},
            ["solve(R, X)"])
        with pytest.raises(np.linalg.LinAlgError, match="Singular matrix"):
            field(0.0, np.stack([x, x, x]))
