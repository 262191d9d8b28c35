"""Full verification gate.

One test per advertised guarantee, each ending in a single PASS/FAIL
line.  Everything here runs at desk scale; the whole module is a few
minutes of CPU.
"""
import dataclasses

import numpy as np

from lqmfg import (BlowUpReport, MatrixPath, TimeGrid, compare_lambda_phi,
                   compare_nce_master, empirical_mean_error,
                   extract_block_structure, integrate_backward, phi_from_nce,
                   simulate, solve_finite_n, solve_lambda, solve_nce)

from lqmfg.asymptotic import BLOCK_KEYS, OFFSET_KEYS

from helpers import (dense_march, exchange_gap, finite_tiles,
                     master_residual, max_node_l1, representatives,
                     riccati_closed_form, suite_k1_indices)


def _verdict(num: int, label: str, ok: bool, detail: str):
    line = f"criterion {num} ({label}): {'PASS' if ok else 'FAIL'} [{detail}]"
    print(line)
    assert ok, line


def test_criterion_1_kernel_and_offset_equivalence(suite_nce, suite_master):
    worst = 0.0
    for a, b in zip(suite_nce, suite_master):
        report = compare_nce_master(a, b, tol=1e-9)
        for name, diff in report.diffs.items():
            if name[0] in "Ps":
                worst = max(worst, diff)
    _verdict(1, "route equivalence on 20-model suite", worst <= 1e-9,
             f"worst max-node l1 diff {worst:.3e}")


def test_criterion_2_lambda_phi_equivalence(suite_models, suite_nce,
                                            suite_grid, blowup_models,
                                            scalar_grid):
    worst = worst_offset = 0.0
    for i in suite_k1_indices():
        lam = solve_lambda(suite_models[i], suite_grid)
        assert not isinstance(lam, BlowUpReport)
        phi = phi_from_nce(suite_nce[i])
        report = compare_lambda_phi(lam, phi, tol=1e-9)
        worst = max(worst, max(report.diffs.values()))
        for key in OFFSET_KEYS:
            worst_offset = max(worst_offset, max_node_l1(
                lam.offsets[key].values, phi.offsets[key].values))

    node_gap = 0
    for name, model in blowup_models.items():
        a = solve_nce(model, scalar_grid)
        b = solve_lambda(model, scalar_grid)
        assert isinstance(a, BlowUpReport), name
        assert isinstance(b, BlowUpReport), name
        node_gap = max(node_gap, abs(a.escape_node - b.escape_node))

    ok = worst <= 1e-9 and worst_offset <= 1e-9 and node_gap <= 2
    _verdict(2, "block-system equivalence and shared escape",
             ok, f"worst block diff {worst:.3e}, worst offset diff "
             f"{worst_offset:.3e}, escape node gap {node_gap}")


def test_criterion_3_residual_certificate(suite_models, suite_master):
    worst_clean = 0.0
    worst_ratio = np.inf
    for i, (model, sol) in enumerate(zip(suite_models, suite_master)):
        rng = np.random.default_rng(5500 + i)
        samples = []
        for _ in range(100):
            t = float(rng.uniform(0.02, 0.98)) * model.T
            kappa = int(rng.integers(0, model.K + 1))
            samples.append((t, rng.normal(size=model.n),
                            rng.normal(size=model.n),
                            rng.normal(size=model.n * model.K), kappa))
        clean = max(master_residual(model, sol, s) for s in samples)
        worst_clean = max(worst_clean, clean)

        bad_vals = sol.Pd0.values.copy()
        bad_vals[:, 0, 0] += 0.01
        bad_sol = dataclasses.replace(
            sol, Pd0=MatrixPath(sol.grid, bad_vals))
        bad = max(master_residual(model, bad_sol, s) for s in samples)
        worst_ratio = min(worst_ratio, bad / max(clean, 1e-12))

    ok = worst_clean <= 1e-6 and worst_ratio >= 100.0
    _verdict(3, "interior residual and perturbation sensitivity", ok,
             f"worst residual {worst_clean:.3e}, "
             f"weakest inflation {worst_ratio:.1f}x")


def test_criterion_4_kernel_positive_semidefinite(suite_nce):
    worst = np.inf
    for sol in suite_nce:
        worst = min(worst, float(np.linalg.eigvalsh(sol.P0.values).min()))
        for k in range(sol.P.values.shape[1]):
            worst = min(worst,
                        float(np.linalg.eigvalsh(sol.P.values[:, k]).min()))
    _verdict(4, "kernels stay positive semidefinite", worst >= -1e-8,
             f"min eigenvalue {worst:.3e}")


def test_criterion_5_finite_population_structure(suite_models):
    grid = TimeGrid(M=300, T=1.0)
    counts_ok = True
    worst_mode_diff = worst_exchange = 0.0
    for i in suite_k1_indices():
        model = suite_models[i]
        sym = solve_finite_n(model, 10, grid)
        assert not isinstance(sym, BlowUpReport)
        report = extract_block_structure(sym)
        counts_ok &= report.counts_everywhere("P0") == (3, 3)
        counts_ok &= report.counts_everywhere("P1") == (6, 6)

        P, S = dense_march(model, 10, grid)
        worst_exchange = max(worst_exchange, exchange_gap(P, S))
        for name, want in representatives(P, S).items():
            diff = np.abs(getattr(sym, name).values - want).max()
            worst_mode_diff = max(worst_mode_diff, diff)

    ok = counts_ok and worst_mode_diff <= 1e-10 and worst_exchange <= 1e-8
    _verdict(5, "3/6 tile clusters and dense-march agreement", ok,
             f"counts everywhere {counts_ok}, "
             f"mode diff {worst_mode_diff:.3e}, "
             f"exchange gap {worst_exchange:.3e}")


def test_criterion_6_tile_convergence_rate(scalar_model):
    grid = TimeGrid(M=200, T=1.0)
    lam = solve_lambda(scalar_model, grid)
    Ns = (4, 8, 16, 32, 64)
    devs = []
    for N in Ns:
        fin = solve_finite_n(scalar_model, N, grid)
        scaled = finite_tiles(fin.P0_big.values, fin.P1_big.values,
                              fin.S0_big.values, fin.S1_big.values, N)
        dev = max(np.abs(scaled[key] - lam.blocks[key].values).max()
                  for key in BLOCK_KEYS)
        devs.append(dev)
    slope = float(np.polyfit(np.log(Ns), np.log(devs), 1)[0])
    ok = -1.3 <= slope <= -0.7
    _verdict(6, "scaled tiles approach limit blocks at rate 1/N", ok,
             f"log-log slope {slope:.3f}, deviations "
             + " ".join(f"{d:.2e}" for d in devs))


def test_criterion_7_mean_field_consistency(scalar_model):
    grid = TimeGrid(M=250, T=1.0)
    sol = solve_nce(scalar_model, grid)
    Ns = (25, 100, 400)
    means = []
    for N in Ns:
        sups = [empirical_mean_error(
            simulate(sol, N, dt=0.002, seed=s)).sup
            for s in range(20)]
        means.append(float(np.mean(sups)))
    slope = float(np.polyfit(np.log(Ns), np.log(means), 1)[0])
    ok = -0.65 <= slope <= -0.35
    _verdict(7, "empirical mean converges to the reference path", ok,
             f"log-log slope {slope:.3f}, mean sup errors "
             + " ".join(f"{m:.2e}" for m in means))


def test_criterion_8_feedback_law_equivalence(suite_models, suite_nce,
                                              suite_master):
    worst = 0.0
    for i in range(5):
        model = suite_models[i]
        dt = suite_nce[i].grid.h
        a = simulate(suite_nce[i], 10, dt=dt, seed=77)
        b = simulate(suite_master[i], 10, dt=dt, seed=77)
        worst = max(worst, float(np.abs(a.X - b.X).max()),
                    float(np.abs(a.X0 - b.X0).max()),
                    float(np.abs(a.U - b.U).max()),
                    float(np.abs(a.U0 - b.U0).max()))
    _verdict(8, "identically seeded runs coincide across feedback routes",
             worst <= 1e-8, f"sup path difference {worst:.3e}")


def test_criterion_9_integrator_order():
    oracle = riccati_closed_form(0.4, 1.0, 0.5, 0.8, 1.5, 0.2, 1.0)

    def field(t, p):
        return 0.2 * p - 0.8 * p + 2.0 * p * p - np.array([[0.8]])

    errors = []
    for M in (25, 50, 100):
        grid = TimeGrid(M=M, T=1.0)
        path = integrate_backward(field, np.array([[1.5]]), grid)
        err = max(abs(path.at(j)[0, 0] - oracle(grid.nodes[j]))
                  for j in range(M + 1))
        errors.append(err)
    ratios = [errors[i] / errors[i + 1] for i in range(len(errors) - 1)]
    ok = all(12.0 <= r <= 20.0 for r in ratios)
    _verdict(9, "fourth-order convergence against the closed form", ok,
             "halving ratios " + " ".join(f"{r:.2f}" for r in ratios))
