"""Escape reports pinned on every blow-up model.

The route values were recorded from the three-pass integration (kernels
alone, then with offsets, then with constants) that the single stacked
pass replaced; the stacked pass must name the same node with the same
norm. The finite-population values were recorded from the reduced
(N+1)n-square solve before the tile solver existed; the tile solver must
name the same nodes with the same norms.
"""

import math

import numpy as np
import pytest

from lqmfg import (TimeGrid, solve_finite_n, solve_lambda, solve_master,
                   solve_nce, solve_tiles)
from lqmfg.ode import BlowUpReport

from helpers import BLOWUP_FAMILIES, build_model, node_l1

SOLVERS = {"nce": solve_nce, "master": solve_master, "lambda": solve_lambda}

# (model, M, route) -> (escape_node, norm_at_escape)
PINS = {
    ("both-deviations", 100, "nce"): (96, 2.5350992510425544e+137),
    ("both-deviations", 100, "master"): (96, 2.535099251042621e+137),
    ("both-deviations", 100, "lambda"): (96, 2.3478252570500968e+137),
    ("weight-scale", 100, "nce"): (97, 5.631723306372664e+29),
    ("weight-scale", 100, "master"): (97, 5.631723306372656e+29),
    ("weight-scale", 100, "lambda"): (97, 4.872932918118145e+29),
    ("mean-deviation", 100, "nce"): (92, 3.728557853920358e+36),
    ("mean-deviation", 100, "master"): (92, 3.728557853921612e+36),
    ("mean-deviation", 100, "lambda"): (92, 3.142732999788067e+36),
    ("gamma2-3", 100, "nce"): (47, 5.4473374684484486e+57),
    ("gamma2-3", 100, "master"): (47, 5.447337468448555e+57),
    ("gamma2-3", 100, "lambda"): (47, 5.131280376875711e+57),
    ("gamma2-4", 100, "nce"): (65, 2.412551512333435e+17),
    ("gamma2-4", 100, "master"): (65, 2.412551512333836e+17),
    ("gamma2-4", 100, "lambda"): (65, 2.2685293728794378e+17),
    ("both-deviations", 400, "nce"): (390, 1.0277621054658139e+26),
    ("both-deviations", 400, "master"): (390, 1.027762105465826e+26),
    ("both-deviations", 400, "lambda"): (390, 9.292963565756087e+25),
    ("weight-scale", 400, "nce"): (391, 3.2426598232231806e+23),
    ("weight-scale", 400, "master"): (391, 3.242659823219621e+23),
    ("weight-scale", 400, "lambda"): (391, 2.826084535772655e+23),
    ("mean-deviation", 400, "nce"): (372, 6.0526025041856395e+25),
    ("mean-deviation", 400, "master"): (372, 6.0526025041794806e+25),
    ("mean-deviation", 400, "lambda"): (372, 4.629191362942247e+25),
    ("gamma2-3", 400, "nce"): (193, 1.2647380587340089e+28),
    ("gamma2-3", 400, "master"): (193, 1.2647380587329997e+28),
    ("gamma2-3", 400, "lambda"): (193, 1.1611397163086784e+28),
    ("gamma2-4", 400, "nce"): (263, 2.2916657051033616e+19),
    ("gamma2-4", 400, "master"): (263, 2.291665705103154e+19),
    ("gamma2-4", 400, "lambda"): (263, 2.1541947804441215e+19),
}

# (model, M, N) -> (escape_node, norm_at_escape) of the finite system, or
# (None, sup over nodes of |P0|_l1 + |P1|_l1) where it stays bounded
FINITE_PINS = {
    ("both-deviations", 100, 4): (None, 38.75079542359225),
    ("both-deviations", 100, 8): (None, 81.1637495842372),
    ("both-deviations", 100, 16): (89, 2.5011434233976554e+94),
    ("weight-scale", 100, 4): (None, 36.49522338401505),
    ("weight-scale", 100, 8): (None, 145.25141788198067),
    ("weight-scale", 100, 16): (95, 7.167537992171029e+80),
    ("mean-deviation", 100, 4): (None, 7.082785080900653),
    ("mean-deviation", 100, 8): (None, 30.69643988399578),
    ("mean-deviation", 100, 16): (None, 141.01833129398037),
    ("gamma2-3", 100, 4): (None, 10.276878103477022),
    ("gamma2-3", 100, 8): (None, 32.96640961953173),
    ("gamma2-3", 100, 16): (None, 124.07591894788793),
    ("gamma2-4", 100, 4): (None, 13.310079598941007),
    ("gamma2-4", 100, 8): (None, 42.33136677653532),
    ("gamma2-4", 100, 16): (None, 155.2766055361572),
    ("both-deviations", 400, 4): (None, 38.6385125634052),
    ("both-deviations", 400, 8): (None, 81.23852476119886),
    ("both-deviations", 400, 16): (None, 531.3425744013862),
    ("weight-scale", 400, 4): (None, 36.7142499599614),
    ("weight-scale", 400, 8): (None, 145.04933229295392),
    ("weight-scale", 400, 16): (None, 665.0430847034172),
    ("mean-deviation", 400, 4): (None, 7.083147264365609),
    ("mean-deviation", 400, 8): (None, 30.700857149990764),
    ("mean-deviation", 400, 16): (None, 140.78038151730988),
    ("gamma2-3", 400, 4): (None, 10.27687810144202),
    ("gamma2-3", 400, 8): (None, 32.96640961533757),
    ("gamma2-3", 400, 16): (None, 124.0768299424508),
    ("gamma2-4", 400, 4): (None, 13.310079598944188),
    ("gamma2-4", 400, 8): (None, 42.33139296768263),
    ("gamma2-4", 400, 16): (None, 155.27659674426314),
}
# An RK4 step of a quadratic field is a polynomial of degree 16 in the
# state, so a step that jumps far past the threshold (both-deviations at
# M = 100, N = 16 goes 1.5e8 -> 2.5e94) can multiply the relative gap of
# two roundings of one system by up to 16.
ESCAPE_STEP_GAIN = 16


@pytest.fixture(scope="module")
def pinned_models(blowup_models):
    """The bisected blow-up families (bisected on M=400) plus the strong
    mean-deviation models Gamma2 = 3 and 4."""
    models = dict(blowup_models)
    for g in (3.0, 4.0):
        models[f"gamma2-{g:g}"] = build_model(Gamma2=np.array([[g]]),
                                              Gamma2f=np.array([[g]]))
    return models


def test_pins_cover_every_family():
    names = {name for name, _, _ in PINS}
    assert names == set(BLOWUP_FAMILIES) | {"gamma2-3", "gamma2-4"}


@pytest.mark.parametrize("M", [100, 400])
@pytest.mark.parametrize("route", sorted(SOLVERS))
def test_escape_report_is_pinned(pinned_models, M, route):
    grid = TimeGrid(M=M, T=1.0)
    for name, model in pinned_models.items():
        node, norm = PINS[(name, M, route)]
        rep = SOLVERS[route](model, grid)
        assert isinstance(rep, BlowUpReport), name
        assert rep.escape_node == node, name
        assert math.isclose(rep.norm_at_escape, norm, rel_tol=1e-12), name


def _finite_verdict(res):
    if isinstance(res, BlowUpReport):
        return res.escape_node, res.norm_at_escape
    if hasattr(res, "kernel_norms"):
        return None, float(res.kernel_norms.max())
    return None, float(node_l1(res.P0_big.values, res.P1_big.values).max())


def test_finite_pins_cover_every_family():
    names = {name for name, _, _ in FINITE_PINS}
    assert names == set(BLOWUP_FAMILIES) | {"gamma2-3", "gamma2-4"}


@pytest.mark.parametrize("M", [100, 400])
@pytest.mark.parametrize("solve", [solve_finite_n, solve_tiles])
def test_finite_population_escape_is_pinned(pinned_models, M, solve):
    grid = TimeGrid(M=M, T=1.0)
    for (name, M_pin, N), (node, norm) in FINITE_PINS.items():
        if M_pin != M:
            continue
        got_node, got_norm = _finite_verdict(solve(pinned_models[name], N, grid))
        assert got_node == node, (name, N)
        tol = 1e-12 * (ESCAPE_STEP_GAIN if node is not None
                       and solve is solve_tiles else 1)
        assert math.isclose(got_norm, norm, rel_tol=tol), (name, N)
