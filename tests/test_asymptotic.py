import tracemalloc
import weakref

import numpy as np
import pytest

from lqmfg import (AsymmetryDrift, GridMismatch, KNotOne, NonFiniteField,
                   NTooLargeForMemory, TileSolution, TimeGrid,
                   assemble_finite_n, check_asymptotic_solvability,
                   compare_lambda_phi, extract_block_structure, phi_from_nce,
                   solve_finite_n, solve_lambda, solve_nce, solve_tiles,
                   validate_model)
from lqmfg import asymptotic as asym
from lqmfg import ode
from lqmfg.asymptotic import (_LIMIT_EQUATIONS, _TILE_EQUATIONS, BLOCK_KEYS,
                              OFFSET_KEYS, TILE_TOL, _cluster_counts, _field,
                              _finite_field, finite_n_bytes)
from lqmfg.ode import MEMORY_BUDGET, BlowUpReport, integrate_backward

from helpers import (_random_params, build_model, check_kernel_escape,
                     coupling_loop, decoupled_scalar, dense_march,
                     exchange_gap, expand_tiles, finite_tiles,
                     greedy_cluster_count, growing_offsets, max_node_l1,
                     node_l1, representatives, riccati_closed_form,
                     scalar_coupled, suite_k1_indices, tile_solution_tiles,
                     tile_view, two_dim_coupled, two_type_scalar,
                     zero_weight)


def test_minor_selector_row_for_two_players():
    model = scalar_coupled()
    sys = assemble_finite_n(model, 2)
    g1 = model.Gamma1[0, 0]
    g2 = model.Gamma2[0, 0]
    assert np.allclose(sys.K_minor(1), [[-g1, 1.0 - g2 / 2.0, -g2 / 2.0]])
    assert np.allclose(sys.K_minor(2), [[-g1, -g2 / 2.0, 1.0 - g2 / 2.0]])
    g0 = model.Gamma0[0, 0]
    assert np.allclose(sys.K0, [[1.0, -g0 / 2.0, -g0 / 2.0]])


def test_minor_selector_final_uses_terminal_deviations():
    model = build_model(Gamma1f=np.array([[0.7]]), Gamma2f=np.array([[0.9]]))
    sys = assemble_finite_n(model, 2)
    assert np.allclose(sys.K_minor(1, final=True),
                       [[-0.7, 1.0 - 0.45, -0.45]])


def test_drift_matrix_reproduces_dynamics():
    model = zero_weight()
    rng = np.random.default_rng(11)
    N = 3
    sys = assemble_finite_n(model, N)
    x0 = rng.normal(size=1)
    xs = rng.normal(size=(N, 1))
    stacked = np.concatenate([x0] + list(xs))
    drift = sys.Ahat @ stacked
    mean = xs.mean(axis=0)
    assert np.allclose(drift[:1], model.A0 @ x0 + model.F0 @ mean, atol=1e-14)
    for i in range(N):
        want = model.A[0] @ xs[i] + model.F @ mean + model.G @ x0
        assert np.allclose(drift[1 + i:2 + i], want, atol=1e-14)


def test_cost_matrices_are_congruences():
    model = scalar_coupled()
    sys = assemble_finite_n(model, 2)
    K1 = sys.K_minor(1)
    assert np.allclose(sys.Q_minor(1), K1.T @ model.Q @ K1, atol=1e-14)
    assert np.allclose(sys.Q0_big, sys.K0.T @ model.Q0 @ sys.K0, atol=1e-14)


def test_assembly_guards():
    with pytest.raises(KNotOne):
        assemble_finite_n(two_type_scalar(), 4)
    with pytest.raises(ValueError):
        assemble_finite_n(scalar_coupled(), 0)
    # seven 100001 x 100001 matrices at the peak, 560 GB: refused by the
    # memory budget before anything is allocated
    tracemalloc.start()
    try:
        with pytest.raises(NTooLargeForMemory,
                           match="needs 560011200056 bytes, over the budget"):
            assemble_finite_n(scalar_coupled(), 10 ** 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


@pytest.mark.parametrize("N,M", [
    pytest.param(100, 4, id="100"), pytest.param(200, 4, id="200"),
    (200, 20), (300, 1), (300, 4), (1, 2500)])
def test_traced_solve_peak_is_within_the_estimate(N, M):
    """The one estimate of a finite-N solve bounds its traced peak, and
    not by much: path, the field's held matrices and RK4 stages. At
    N = 100 numpy makes a new array for every temporary of the RK4 sum;
    from N = 200 the states pass 256 KiB and it reuses them. At N = 300
    and M = 1 the path is smallest next to what the march holds. At
    N = 1 on a long grid the states are small and the nodes many, so
    what the march holds per node beyond the path counts most: the
    grid's nodes, one float each (and no finiteness mask of the path)."""
    model = build_model()
    grid = TimeGrid(M=M, T=1.0)
    tracemalloc.start()
    try:
        solve_finite_n(model, N, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    estimate = finite_n_bytes(model.n, N, grid.M)
    assert peak <= estimate < 1.1 * peak


def test_traced_lambda_peak_is_within_its_path_bytes():
    """A stored solve allocates little beyond its path: on a long grid of
    small states, solve_lambda's traced peak stays within 10% of its
    path's bytes. The march holds the grid's nodes as one float64 array,
    not a list of floats, and the path's finiteness is checked without a
    mask of its entries."""
    model = build_model()
    layout = _field(model, _LIMIT_EQUATIONS, 0.0)[0]    # compiled untraced
    grid = TimeGrid(M=20000, T=1.0)
    tracemalloc.start()
    try:
        solve_lambda(model, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * 8 * (grid.M + 1) * layout.size


def test_traced_tile_batch_peak_is_within_its_path_bytes():
    """The tile batch of eight N holds little beyond its paths: one
    kernel norm per node and N, and, while it takes each member's norms
    (ode.escape_norms), one temporary of that member's kernel path, whose
    absolute values the weights multiply in place. Its traced peak stays
    within 1.18x its path storage (1.25x with a second temporary for the
    weighted values)."""
    model = build_model()
    Ns = [2, 4, 8, 16, 32, 64, 128, 256]
    asym._solve_tiles(model, Ns, TimeGrid(M=20, T=1.0), 1e12)   # compiled
    grid = TimeGrid(M=4000, T=1.0)
    tracemalloc.start()
    try:
        asym._solve_tiles(model, Ns, grid, 1e12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.18 * 8 * len(Ns) * (grid.M + 1) * 14  # 9 + 5 floats


def test_finite_n_march_holds_no_assembled_system(monkeypatch):
    """The march reads only the arrays the field copied: the assembled
    system is released before integrate_backward runs."""
    refs = []

    def assemble(model, N):
        sys = assemble_finite_n(model, N)
        refs.append(weakref.ref(sys))
        return sys

    def march(*args, **kwargs):
        refs.append(refs[0]())
        return integrate_backward(*args, **kwargs)

    monkeypatch.setattr(asym, "assemble_finite_n", assemble)
    monkeypatch.setattr(asym, "integrate_backward", march)
    solve_finite_n(scalar_coupled(), 3, TimeGrid(M=20, T=1.0))
    assert refs[1:] == [None]


def test_solve_size_counts_the_march_before_assembling(monkeypatch):
    """N = 5000 on two nodes: the path alone (0.8 GB) and the assembly
    alone (1.4 GB) fit the budget, the march's working set does not; the
    solve is refused before anything is assembled."""
    model = build_model()
    d = 5001
    assert 8 * 2 * 2 * (d * d + d) < MEMORY_BUDGET
    assert 8 * 7 * d * d < MEMORY_BUDGET
    need = finite_n_bytes(1, 5000, 1)
    assert need > MEMORY_BUDGET

    def refuse(*args, **kwargs):
        raise AssertionError("assembled")

    monkeypatch.setattr(asym, "assemble_finite_n", refuse)
    tracemalloc.start()
    try:
        with pytest.raises(NTooLargeForMemory,
                           match=f"needs {need} bytes, over the budget"):
            solve_finite_n(model, 5000, TimeGrid(M=1, T=1.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_zero_weight_solution_is_zero():
    grid = TimeGrid(M=50, T=1.0)
    fin = solve_finite_n(zero_weight(), 4, grid)
    assert not fin.P0_big.values.any()
    assert not fin.P1_big.values.any()
    assert not fin.S0_big.values.any()
    assert not fin.S1_big.values.any()


def test_single_minor_decoupled_matches_closed_form():
    model = decoupled_scalar()
    grid = TimeGrid(M=400, T=1.0)
    fin = solve_finite_n(model, 1, grid)
    p0 = riccati_closed_form(model.A0[0, 0], model.B0[0, 0], model.R0[0, 0],
                             model.Q0[0, 0], model.Q0f[0, 0], model.rho,
                             model.T)
    p1 = riccati_closed_form(model.A[0, 0, 0], model.B[0, 0], model.R[0, 0],
                             model.Q[0, 0], model.Qf[0, 0], model.rho,
                             model.T)
    for j in (0, 133, 400):
        t = grid.nodes[j]
        assert fin.P0_big.at(j)[0, 0] == pytest.approx(p0(t), abs=1e-9)
        assert fin.P1_big.at(j)[1, 1] == pytest.approx(p1(t), abs=1e-9)


def test_dense_and_reduced_modes_agree(scalar_model):
    grid = TimeGrid(M=100, T=1.0)
    P, S = dense_march(scalar_model, 3, grid)
    assert exchange_gap(P, S) <= 1e-8
    reduced = solve_finite_n(scalar_model, 3, grid)
    for name, want in representatives(P, S).items():
        assert np.abs(want - getattr(reduced, name).values).max() < 1e-12


def test_cluster_counts_on_coupled_model(scalar_model):
    grid = TimeGrid(M=80, T=1.0)
    fin = solve_finite_n(scalar_model, 6, grid)
    rep = extract_block_structure(fin)
    assert rep.counts_everywhere("P0") == (3, 3)
    assert rep.counts_everywhere("P1") == (6, 6)


def test_cluster_counts_degenerate_model():
    grid = TimeGrid(M=40, T=1.0)
    fin = solve_finite_n(zero_weight(), 6, grid)
    rep = extract_block_structure(fin)
    assert rep.counts_everywhere("P0") == (1, 1)
    assert rep.counts_everywhere("P1") == (1, 1)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_cluster_counts_match_greedy_scan_on_random_tiles(n):
    # tiles near three prototypes, each exact, within 1e-10 or within 1e-6
    # of one, about a third of them replaced by their exact transposes
    rng = np.random.default_rng(40 + n)
    protos = rng.standard_normal((3, n, n))
    tiles = protos[rng.integers(0, 3, size=(6, 30))]
    scale = rng.choice([0.0, 1e-10, 1e-6], size=(6, 30, 1, 1))
    tiles = tiles + scale * rng.standard_normal(tiles.shape)
    flip = rng.random((6, 30)) < 0.3
    tiles[flip] = tiles[flip].transpose(0, 2, 1)
    for tol in (0.0, 1e-12, TILE_TOL, 1e-4, 10.0):
        want = [greedy_cluster_count(t, tol) for t in tiles]
        assert _cluster_counts(tiles, tol).tolist() == want


def _edge_pairs(rng, n):
    """Tile pairs (a, b) with the l1 distance the greedy scan computes
    between b and a, directly or through b's transpose."""
    a = rng.standard_normal((n, n))
    b = a + 1e-8 * rng.random((n, n))
    pairs = [(a, b, np.abs(b - a).sum())]
    if n > 1:
        bt = a.T + 1e-8 * rng.random((n, n))
        pairs.append((a, bt, np.abs(bt.T - a).sum()))
    if n == 3:
        # summed pairwise, not left to right: 1e16 + 8 ones is not 1e16
        c = np.ones((3, 3))
        c[0, 1] = 1e16
        pairs.append((np.zeros((3, 3)), c, np.abs(c).sum()))
    return pairs


@pytest.mark.parametrize("n", [1, 2, 3])
def test_cluster_counts_at_the_tolerance_edge(n):
    rng = np.random.default_rng(7 + n)
    for a, b, dist in _edge_pairs(rng, n):
        tiles = np.stack([a, b])
        for tol, want in ((np.nextafter(dist, 0.0), 2), (dist, 1),
                          (np.nextafter(dist, np.inf), 1)):
            assert greedy_cluster_count(tiles, tol) == want
            assert _cluster_counts(tiles[None], tol).tolist() == [want]


@pytest.mark.parametrize("N", [1, 2, 3, 6])
@pytest.mark.parametrize("make", [scalar_coupled, two_dim_coupled])
def test_cluster_counts_match_greedy_scan_on_solved_paths(make, N):
    fin = solve_finite_n(make(), N, TimeGrid(M=30, T=1.0))
    n = fin.model.n
    for tol in (TILE_TOL, 0.0):
        rep = extract_block_structure(fin, tol=tol)
        for name, path in (("P0", fin.P0_big), ("P1", fin.P1_big)):
            want = [greedy_cluster_count(tile_view(P, n), tol)
                    for P in path.values]
            assert rep.cluster_counts[name].tolist() == want
        if tol == 0.0 and N >= 3:
            # round-off splits exchangeable tiles: the structure check fails
            assert rep.counts_everywhere("P1")[1] > 6


@pytest.mark.parametrize("N", [1, 2, 3, 8, 33])
@pytest.mark.parametrize("make", [scalar_coupled, two_dim_coupled])
def test_coupling_matches_row_block_loop(make, N):
    """W is rebuilt in one buffer per solve: each fill, the first and a
    later one, is the loop's matrix, zero row block included."""
    sys = assemble_finite_n(make(), N)
    rng = np.random.default_rng(N)
    d = sys.dim
    field = _finite_field(sys)[1]
    W = dict(zip(field.__code__.co_freevars,
                 (cell.cell_contents for cell in field.__closure__)))["W"]
    for _ in range(2):
        P1 = rng.standard_normal((d, d))
        field(0.0, np.concatenate([np.zeros(d * d), P1.ravel(),
                                   np.zeros(2 * d)]))
        assert W.tobytes() == coupling_loop(sys, P1).tobytes()


def test_lambda_terminal_pins(scalar_model):
    grid = TimeGrid(M=50, T=1.0)
    lam = solve_lambda(scalar_model, grid)
    m = scalar_model
    want = {
        "1_0": m.Q0f, "2_0": -m.Q0f @ m.Gamma0f,
        "3_0": m.Gamma0f.T @ m.Q0f @ m.Gamma0f,
        "0": m.Gamma1f.T @ m.Qf @ m.Gamma1f, "1": m.Qf,
        "2": -m.Qf @ m.Gamma2f, "3": m.Gamma2f.T @ m.Qf @ m.Gamma2f,
        "a": -m.Gamma1f.T @ m.Qf, "b": m.Gamma1f.T @ m.Qf @ m.Gamma2f,
    }
    eta0f, etaf = m.eta0f, m.etaf
    want.update({
        "s0": -m.Q0f @ eta0f, "sm": m.Gamma0f.T @ m.Q0f @ eta0f,
        "t0": m.Gamma1f.T @ m.Qf @ etaf, "t1": -m.Qf @ etaf,
        "to": m.Gamma2f.T @ m.Qf @ etaf,
    })
    for key in BLOCK_KEYS:
        assert np.allclose(lam.blocks[key].at(grid.M), want[key], atol=1e-15)
    for key in OFFSET_KEYS:
        assert np.allclose(lam.offsets[key].at(grid.M), want[key], atol=1e-15)


def test_lambda_equals_limit_kernel_blocks(scalar_model, scalar_nce,
                                           scalar_grid):
    lam = solve_lambda(scalar_model, scalar_grid)
    report = compare_lambda_phi(lam, phi_from_nce(scalar_nce), tol=1e-9)
    assert report.passed, report.summary()
    assert set(report.diffs) == set(BLOCK_KEYS)


def test_lambda_equals_limit_kernel_blocks_2d(twodim_model, twodim_nce,
                                              scalar_grid):
    lam = solve_lambda(twodim_model, scalar_grid)
    report = compare_lambda_phi(lam, phi_from_nce(twodim_nce), tol=1e-9)
    assert report.passed, report.summary()


@pytest.mark.parametrize("name", ["scalar", "twodim"])
def test_lambda_offsets_are_the_nce_offsets(name, request, scalar_grid):
    """The limit system's offsets are nce's under s0 -> (s0, sm) and
    s -> (t1, t0, to), at criterion 2's bound."""
    model = request.getfixturevalue(f"{name}_model")
    phi = phi_from_nce(request.getfixturevalue(f"{name}_nce"))
    lam = solve_lambda(model, scalar_grid)
    for key in OFFSET_KEYS:
        assert phi.offsets[key].state_shape == (model.n,)
        gap = max_node_l1(lam.offsets[key].values, phi.offsets[key].values)
        assert gap <= 1e-9, (key, gap)


def test_lambda_escape_is_judged_on_the_kernels_alone():
    """solve_lambda escapes where its kernels cross the threshold, and not
    where only its kernels with offsets do."""
    model = growing_offsets()
    grid = TimeGrid(M=100, T=1.0)
    lam = solve_lambda(model, grid)
    kernels = node_l1(*(lam.blocks[key].values for key in BLOCK_KEYS))
    joint = kernels + node_l1(*(lam.offsets[key].values
                                for key in OFFSET_KEYS))
    check_kernel_escape(lambda thr: solve_lambda(model, grid, threshold=thr),
                        kernels, joint)


def test_limit_blocks_terminal_ties_lift(twodim_nce, twodim_model,
                                         scalar_grid):
    phi = phi_from_nce(twodim_nce)
    m = twodim_model
    assert np.allclose(phi.blocks["2_0"].at(scalar_grid.M),
                       -m.Q0f @ m.Gamma0f, atol=1e-15)
    assert np.allclose(phi.blocks["a"].at(scalar_grid.M),
                       -m.Gamma1f.T @ m.Qf, atol=1e-15)


def test_compare_rejects_mismatched_grids(scalar_model, scalar_nce):
    lam = solve_lambda(scalar_model, TimeGrid(M=100, T=1.0))
    with pytest.raises(GridMismatch):
        compare_lambda_phi(lam, phi_from_nce(scalar_nce))


def test_phi_requires_single_type():
    sol = solve_nce(two_type_scalar(), TimeGrid(M=50, T=1.0))
    with pytest.raises(KNotOne,
                       match="^block extraction needs K=1, got K=2$"):
        phi_from_nce(sol)


def test_solvability_consistent_on_stable_model(scalar_model):
    grid = TimeGrid(M=100, T=1.0)
    rep = check_asymptotic_solvability(scalar_model, [4, 8, 16], grid)
    assert rep.bounded
    assert rep.lambda_solvable
    assert rep.consistent
    assert all(n is not None for n in rep.norms)


def test_solvability_consistent_on_blowup_model(blowup_models, scalar_grid):
    model = blowup_models["both-deviations"]
    rep = check_asymptotic_solvability(model, [4, 8, 16], scalar_grid)
    assert not rep.lambda_solvable
    assert isinstance(rep.lambda_escape, BlowUpReport)
    assert not rep.bounded
    assert rep.consistent
    assert "consistent: True" in rep.summary()


def test_lambda_blowup_reports_escape(blowup_models, scalar_grid):
    res = solve_lambda(blowup_models["weight-scale"], scalar_grid)
    assert isinstance(res, BlowUpReport)


def test_marginal_escape_reduced_mode():
    model = growing_offsets()
    grid = TimeGrid(M=100, T=1.0)
    fin = solve_finite_n(model, 3, grid)
    kernels = node_l1(fin.P0_big.values, fin.P1_big.values)
    joint = kernels + node_l1(fin.S0_big.values, fin.S1_big.values)
    check_kernel_escape(
        lambda thr: solve_finite_n(model, 3, grid, threshold=thr),
        kernels, joint)


def test_marginal_escape_dense_mode():
    # the dense march, the oracle of the reduced mode, judges escape on
    # its kernels as the reduced mode does
    model = growing_offsets()
    grid = TimeGrid(M=100, T=1.0)
    P, S = dense_march(model, 3, grid)
    kernels = node_l1(P)
    joint = kernels + node_l1(S)
    check_kernel_escape(lambda thr: dense_march(model, 3, grid, thr),
                        kernels, joint)


def test_solvability_verdict_ignores_list_order(scalar_model):
    grid = TimeGrid(M=60, T=1.0)
    ordered = check_asymptotic_solvability(scalar_model, [4, 8, 16], grid)
    shuffled = check_asymptotic_solvability(scalar_model, [16, 4, 8, 16, 4],
                                            grid)
    assert shuffled.N_list == ordered.N_list == (4, 8, 16)
    assert shuffled.norms == ordered.norms
    assert shuffled.summary() == ordered.summary()


def test_solvability_rejects_small_n_before_solving(scalar_model,
                                                    monkeypatch):

    def no_solve(*args, **kwargs):
        raise AssertionError("solved before validating N")

    monkeypatch.setattr(asym, "solve_tiles", no_solve)
    monkeypatch.setattr(asym, "_solve_tiles", no_solve)
    monkeypatch.setattr(asym, "solve_lambda", no_solve)
    with pytest.raises(ValueError):
        check_asymptotic_solvability(scalar_model, [8, 0, 4],
                                     TimeGrid(M=20, T=1.0))


@pytest.mark.parametrize("N_list", [[5], [], [8, 8, 16], [16, 4, 16, 4]])
def test_solvability_needs_three_distinct_n(scalar_model, monkeypatch,
                                            N_list):
    """The bounded-tail heuristic reads the three largest N: fewer
    distinct N raise ValueError naming the rule and the count before any
    solve."""

    def no_solve(*args, **kwargs):
        raise AssertionError("solved before counting N")

    monkeypatch.setattr(asym, "solve_tiles", no_solve)
    monkeypatch.setattr(asym, "_solve_tiles", no_solve)
    monkeypatch.setattr(asym, "solve_lambda", no_solve)
    with pytest.raises(ValueError, match=f"need at least three distinct N, "
                                         f"got {len(set(N_list))}$"):
        check_asymptotic_solvability(scalar_model, N_list,
                                     TimeGrid(M=20, T=1.0))


# -- tile solver ------------------------------------------------------------

OTHER_KEYS = ("2", "3", "b", "to")


def _random_tiles(rng, n, N):
    """Scaled tiles of a random exchangeable state, keyed as finite_tiles
    gives them (no other-minor tiles at N = 1)."""
    tiles = {}
    for key in BLOCK_KEYS:
        X = rng.normal(size=(n, n))
        tiles[key] = X + X.T if key in ("1_0", "3_0", "0", "1", "3") else X
    tiles.update({key: rng.normal(size=n) for key in OFFSET_KEYS})
    if N == 1:
        for key in OTHER_KEYS:
            del tiles[key]
    return tiles


def _flat(tiles, n):
    """The tile solver's flat state: BLOCK_KEYS then OFFSET_KEYS, absent
    tiles zero."""
    return np.concatenate([tiles.get(key, np.zeros((n, n))).ravel()
                           for key in BLOCK_KEYS]
                          + [tiles.get(key, np.zeros(n))
                             for key in OFFSET_KEYS])


def _unflat(flat, n):
    sizes = [n * n] * len(BLOCK_KEYS) + [n] * len(OFFSET_KEYS)
    parts = np.split(flat, np.cumsum(sizes)[:-1])
    return {key: part.reshape((n, n) if key in BLOCK_KEYS else (n,))
            for key, part in zip(BLOCK_KEYS + OFFSET_KEYS, parts)}


def _random_k1(seed, n):
    return validate_model(_random_params(np.random.default_rng(seed), 1,
                                         dims=(n, n, 1)))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_tile_field_is_the_reduced_field_on_exchangeable_states(n):
    """The tile equations are derived by hand from _finite_field: on a
    random exchangeable state, the scaled tiles of the reduced derivatives
    are the tile field."""
    rng = np.random.default_rng(20 + n)
    model = _random_k1(40 + n, n)
    for N in (1, 2, 3, 5):
        tiles = _random_tiles(rng, n, N)
        sys = assemble_finite_n(model, N)
        d = sys.dim
        flat = np.concatenate([part.ravel()
                               for part in expand_tiles(tiles, N)])
        deriv = _finite_field(sys)[1](0.0, flat)
        want = finite_tiles(*deriv[:2 * d * d].reshape(2, d, d),
                            *deriv[2 * d * d:].reshape(2, d), N)
        got = _unflat(_field(model, _TILE_EQUATIONS, 1.0 / N)[1](
            0.0, _flat(tiles, n)), n)
        for key, w in want.items():
            assert (np.abs(got[key] - w).max()
                    <= 1e-12 * max(1.0, np.abs(w).max())), (N, key)


def test_other_minor_tiles_feed_nothing_at_one_minor():
    """At N = 1 there is no other minor: whatever its tiles hold, the
    derivatives of the others are bitwise unchanged, and the solve holds
    them at +0.0 at every node, whatever the sign of their terminal."""
    rng = np.random.default_rng(5)
    for n in (1, 2):
        model = _random_k1(50 + n, n)
        _, field = _field(model, _TILE_EQUATIONS, 1.0)
        tiles = _random_tiles(rng, n, 1)
        base = _unflat(field(0.0, _flat(tiles, n)), n)
        noisy = dict(tiles, **{key: 1e3 * value for key, value in
                               _random_tiles(rng, n, 2).items()
                               if key in OTHER_KEYS})
        got = _unflat(field(0.0, _flat(noisy, n)), n)
        for key in tiles:
            assert np.array_equal(got[key], base[key]), key
        sol = solve_tiles(model, 1, TimeGrid(M=20, T=1.0))
        paths = tile_solution_tiles(sol)
        assert not any(paths[key].any() for key in OTHER_KEYS)
        assert not any(np.signbit(paths[key]).any() for key in OTHER_KEYS)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_tile_field_at_zero_is_the_lambda_field(n):
    """Scaled by SCALING_EXPONENTS, the tile field at e = 1/N = 0 is the
    limit field, kernels and offsets: the exponents are this identity, not
    a fit."""
    rng = np.random.default_rng(60 + n)
    model = _random_k1(70 + n, n)
    state = _flat(_random_tiles(rng, n, 2), n)
    got = _field(model, _TILE_EQUATIONS, 0.0)[1](0.0, state)
    want = _field(model, _LIMIT_EQUATIONS, 0.0)[1](0.0, state)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def _tile_gap(sol, want):
    got = tile_solution_tiles(sol)
    return max(float(np.abs(got[key] - w).max()) for key, w in want.items())


def test_tiles_match_the_reduced_solve(suite_models):
    grid = TimeGrid(M=10, T=1.0)
    models = [scalar_coupled(), two_dim_coupled()] + [
        suite_models[i] for i in suite_k1_indices()]
    for model in models:
        for N in (1, 2, 3, 5, 10, 32, 100):
            fin = solve_finite_n(model, N, grid)
            tiles = solve_tiles(model, N, grid)
            want = finite_tiles(fin.P0_big.values, fin.P1_big.values,
                                fin.S0_big.values, fin.S1_big.values, N)
            assert _tile_gap(tiles, want) <= 1e-10, (model.n, N)
            norms = node_l1(fin.P0_big.values, fin.P1_big.values)
            assert np.allclose(tiles.kernel_norms, norms, rtol=1e-12,
                               atol=0.0)


def test_tiles_match_the_dense_march():
    grid = TimeGrid(M=40, T=1.0)
    for model in (scalar_coupled(), two_dim_coupled()):
        for N in (1, 2, 5, 20):
            P, S = dense_march(model, N, grid)
            want = finite_tiles(P[:, 0], P[:, 1], S[:, 0], S[:, 1], N)
            assert _tile_gap(solve_tiles(model, N, grid), want) <= 1e-10


def test_tile_escape_levels_match_the_reduced_norms():
    """The tile solver escapes where the (N+1)n-square kernels that its
    tiles stand for cross the threshold, and not where only the kernels
    with offsets do."""
    model = growing_offsets()
    grid = TimeGrid(M=100, T=1.0)
    fin = solve_finite_n(model, 3, grid)
    kernels = node_l1(fin.P0_big.values, fin.P1_big.values)
    joint = kernels + node_l1(fin.S0_big.values, fin.S1_big.values)
    check_kernel_escape(lambda thr: solve_tiles(model, 3, grid, threshold=thr),
                        kernels, joint)


def same_tiles(got, want):
    """Whether two tile solves (or escape reports) are bitwise one."""
    if isinstance(want, BlowUpReport):
        return got == want
    return (isinstance(got, TileSolution) and got.N == want.N
            and got.grid == want.grid
            and got.kernel_norms.tobytes() == want.kernel_norms.tobytes()
            and all(a.tobytes() == b.tobytes() for a, b in zip(
                tile_solution_tiles(got).values(),
                tile_solution_tiles(want).values())))


def batch_of_solo_solves(model, Ns, grid, threshold=1e12):
    """The tile batch of `Ns`, each member checked bitwise its solo solve."""
    batch = asym._solve_tiles(model, Ns, grid, threshold)
    for N, got in zip(Ns, batch):
        want = solve_tiles(model, N, grid, threshold=threshold)
        assert same_tiles(got, want)
    return batch


def test_tile_batch_members_are_their_solo_solves():
    """N = 1, whose absent tiles stay +0.0, marches in one batch with
    N >= 2; a threshold between the members' kernel suprema (2.4; they
    are 2.01, 2.26, 2.47 and 2.54) lets some escape, at different nodes,
    while the others solve; lower ones make every member escape, at its
    own node, and one that only kernels with offsets cross (4.2) none.
    Every member is bitwise its solve_tiles alone."""
    grid = TimeGrid(M=100, T=1.0)
    model = growing_offsets()
    Ns = [1, 2, 8, 64]
    batch = batch_of_solo_solves(model, Ns, grid)
    held = tile_solution_tiles(batch[0])
    assert not any(held[key].any() or np.signbit(held[key]).any()
                   for key in OTHER_KEYS)
    mixed = batch_of_solo_solves(model, Ns, grid, 2.4)
    assert [isinstance(res, BlowUpReport) for res in mixed] == [
        False, False, True, True]
    assert mixed[2].escape_node != mixed[3].escape_node
    assert not any(isinstance(res, BlowUpReport)
                   for res in batch_of_solo_solves(model, Ns, grid, 4.2))
    for threshold in (1.2, 1.5, 1.9):
        reports = batch_of_solo_solves(model, Ns, grid, threshold)
        assert len({rep.escape_node for rep in reports}) == len(Ns)


def test_tile_batch_keeps_an_offsets_only_crossing_per_member():
    """A member whose offsets alone cross is no escape and marches on in
    the batch, as alone, beside the other members."""
    model = growing_offsets()
    grid = TimeGrid(M=100, T=1.0)
    fin = solve_finite_n(model, 3, grid)
    kernels = node_l1(fin.P0_big.values, fin.P1_big.values)
    joint = kernels + node_l1(fin.S0_big.values, fin.S1_big.values)
    check_kernel_escape(
        lambda thr: batch_of_solo_solves(model, [1, 3, 8], grid, thr)[1],
        kernels, joint)


def _faulty_tile_fields(monkeypatch, faults):
    """Make the tile fields fault: member e = 1/N of `faults` gets, at
    every t <= faults[N][1], NaN in its first derivative entry ("nan")
    or +1 on entry (0, 1) alone of its first kernel block ("skew")."""
    compiled = asym._field

    def field_of(model, equations, *es):
        layout, field = compiled(model, equations, *es)

        def faulty(t, w):
            out = field(t, w)
            rows = out.reshape(len(es), -1)
            for b, e in enumerate(es):
                kind, until = faults.get(round(1.0 / e), (None, -1.0))
                if kind == "nan" and t <= until:
                    rows[b, 0] = np.nan
                elif t <= until:
                    rows[b, 1] += 1.0
            return out
        return layout, faulty

    monkeypatch.setattr(asym, "_field", field_of)


@pytest.mark.parametrize("faults", [
    {4: ("skew", 0.5), 16: ("nan", 0.9)},
    {4: ("nan", 0.5), 16: ("skew", 0.9)},
    {16: ("nan", 0.7)},
    {8: ("skew", 0.3)},
], ids=["drift-first-in-N", "fault-first-in-N", "last-member",
        "middle-member"])
def test_tile_batch_raises_what_the_first_faulty_n_raises_alone(monkeypatch,
                                                                faults):
    """A member's NonFiniteField or AsymmetryDrift freezes it alone; after
    the march the first such member in N order raises, the exception it
    raises alone, even where a later member faulted earlier in time."""
    model = two_dim_coupled()
    grid = TimeGrid(M=100, T=1.0)
    Ns = [2, 4, 8, 16]
    _faulty_tile_fields(monkeypatch, faults)
    first = min(faults)
    kind = {"nan": NonFiniteField, "skew": AsymmetryDrift}[faults[first][0]]
    with pytest.raises(kind) as alone:
        solve_tiles(model, first, grid)
    with pytest.raises(kind) as batch:
        check_asymptotic_solvability(model, Ns, grid)
    assert str(batch.value) == str(alone.value)
    for N in Ns:
        if N not in faults:
            assert isinstance(solve_tiles(model, N, grid), TileSolution)


def test_tile_batch_path_storage_counts_every_member(monkeypatch,
                                                     scalar_model):
    """A batch whose paths together exceed MEMORY_BUDGET is refused before
    its paths are allocated or a step is taken, though each member alone
    fits (and reaches the march)."""
    grid = TimeGrid(M=10 ** 6, T=1.0)
    one = 8 * (grid.M + 1) * 14            # 9 + 5 floats per node
    monkeypatch.setattr(ode, "MEMORY_BUDGET", 2 * one)

    def refuse(*args, **kwargs):
        raise AssertionError("marched")

    monkeypatch.setattr(ode, "_rk4_step", refuse)
    for N in (4, 8, 16):
        with pytest.raises(AssertionError, match="marched"):
            solve_tiles(scalar_model, N, grid)
    tracemalloc.start()
    try:
        with pytest.raises(NTooLargeForMemory,
                           match=f"3 paths of {grid.M + 1} states of 14 "
                                 f"floats needs {3 * one} bytes"):
            check_asymptotic_solvability(scalar_model, [4, 8, 16], grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < one


def test_tile_rate_holds_out_to_ten_thousand(scalar_model):
    grid = TimeGrid(M=200, T=1.0)
    lam = solve_lambda(scalar_model, grid)
    Ns = (10, 100, 1000, 10000)
    devs = []
    for N in Ns:
        tiles = solve_tiles(scalar_model, N, grid)
        devs.append(max(float(np.abs(tiles.blocks[key].values
                                     - lam.blocks[key].values).max())
                        for key in BLOCK_KEYS))
    slope = float(np.polyfit(np.log(Ns), np.log(devs), 1)[0])
    assert -1.3 <= slope <= -0.7, devs


def test_tile_offsets_approach_the_lambda_offsets_at_rate_one_over_n(
        scalar_model):
    grid = TimeGrid(M=200, T=1.0)
    lam = solve_lambda(scalar_model, grid)
    Ns = (10, 100, 1000, 10000)
    devs = []
    for N in Ns:
        tiles = solve_tiles(scalar_model, N, grid)
        devs.append(max(float(np.abs(tiles.offsets[key].values
                                     - lam.offsets[key].values).max())
                        for key in OFFSET_KEYS))
    slope = float(np.polyfit(np.log(Ns), np.log(devs), 1)[0])
    assert -1.3 <= slope <= -0.7, devs


def test_tile_verdict_at_a_million_is_the_lambda_verdict(blowup_models,
                                                         scalar_grid):
    for name, model in blowup_models.items():
        tiles = solve_tiles(model, 10 ** 6, scalar_grid)
        lam = solve_lambda(model, scalar_grid)
        assert isinstance(tiles, BlowUpReport), name
        assert tiles.escape_node == lam.escape_node, name


def test_solvability_accepts_the_largest_float_population(scalar_model):
    grid = TimeGrid(M=20, T=1.0)
    rep = check_asymptotic_solvability(scalar_model, [2 ** 51, 2 ** 52,
                                                      2 ** 53], grid)
    assert rep.consistent and rep.bounded
    with pytest.raises(ValueError, match=r"N=9007199254740993 exceeds 2\*\*53"):
        check_asymptotic_solvability(scalar_model, [4, 2 ** 53 + 1], grid)


@pytest.mark.parametrize("N", [2.5, 3.0, True, np.float64(4.0)])
def test_population_sizes_must_be_integers(scalar_model, monkeypatch, N):
    """An N that is not an int or a numpy integer (a bool included) raises
    ValueError naming it before any solve, where the sweep would truncate
    it and the solves would carry it."""

    def no_solve(*args, **kwargs):
        raise AssertionError("solved before validating N")

    monkeypatch.setattr(asym, "_solve_system", no_solve)
    monkeypatch.setattr(asym, "_finite_field", no_solve)
    grid = TimeGrid(M=20, T=1.0)
    calls = (lambda: assemble_finite_n(scalar_model, N),
             lambda: solve_finite_n(scalar_model, N, grid),
             lambda: solve_tiles(scalar_model, N, grid),
             lambda: check_asymptotic_solvability(scalar_model, [N, 8, 16],
                                                  grid))
    for call in calls:
        with pytest.raises(ValueError, match=f"^population size must be an "
                                             f"integer, got N={N}$"):
            call()


def test_numpy_integer_population_sizes_are_accepted(scalar_model):
    grid = TimeGrid(M=20, T=1.0)
    rep = check_asymptotic_solvability(
        scalar_model, [np.int64(4), np.uint16(8), 16], grid)
    assert rep.N_list == (4, 8, 16)
    assert all(type(N) is int for N in rep.N_list)
    assert solve_tiles(scalar_model, np.int32(4), grid).N == 4
