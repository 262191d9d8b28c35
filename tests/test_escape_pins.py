"""Escape reports pinned on every blow-up model.

The values were recorded from the three-pass integration (kernels alone,
then with offsets, then with constants) that the single stacked pass
replaced; the stacked pass must name the same node with the same norm.
"""

import math

import numpy as np
import pytest

from lqmfg import TimeGrid, solve_lambda, solve_master, solve_nce
from lqmfg.ode import BlowUpReport

from helpers import BLOWUP_FAMILIES, build_model

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
