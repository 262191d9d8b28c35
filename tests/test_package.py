import inspect
import os
import subprocess
import sys

import numpy as np

import lqmfg
from lqmfg import (asymptotic, cli, equations, errors, master, model,
                   modelfile, nce, ode, sim)

# Library surface deleted because no CLI path or acceptance criterion used
# it; the size rule it held is ode.MEMORY_BUDGET alone, the scaled tiles
# come from asymptotic.solve_tiles alone, the limit system is the tile
# system's solve at e = 0, the master residual lives in tests/helpers.py,
# the feedback gains come from nce_gains/master_gains alone, each error
# class carries its own exit code, the ValidatedModel declaration alone
# lists the model's fields, shapes and weight checks, and the simulation's
# per-node sums are the step loop's own reduce of each node's block. The
# compiled fields run generated straight-line code, not a closure per
# table, and the limit layout is cached with the compiled tables. The
# simulation step picks its multiply-or-matmul products once per chunk
# (sim._right_factor), not per call. The model file is read by Python's own
# parser, and its values are typed by validate_model alone. The generated
# field factory binds a pool's operands itself, from the code one function
# (equations._lines) writes per table, and the RK4 step is combined inside
# the march's one errstate. Escape has one level, the kernels' prefix, so
# a layout derives one escape length, not nested prefixes. The nce and
# master routes are built by one function each, `_field`, as the limit
# route is, and their mean-field blocks come from `_mean_field`. The
# finite-population route is built the same way, by `_finite_field`, and
# the assembled system no longer stores K0f, which no caller read. Grids
# compare by the frozen dataclass's own ==. A simulation reads its model
# from the solution it is handed, and a cost from the trajectory.
DELETED = {
    lqmfg: ("BlowUp", "PermutationMismatch", "PhiSolution", "ResidualSample",
            "integrate_forward", "master_feedback", "master_residual",
            "nce_feedback", "propagate_mean_field", "residual_sample"),
    asymptotic: ("DENSE_DIM_CAP", "EXCHANGE_TOL", "PhiSolution",
                 "_capped_dim", "_lambda_field", "_layout", "_limit_consts",
                 "_masked", "_rep_positions", "_solve_dense",
                 "_swap_block_index", "_tile_field", "_ReducedFields",
                 "_solve_reduced"),
    cli: ("_MATH_ERRORS", "_USAGE_ERRORS"),
    equations: ("_coefficients", "_names", "_operands", "_read", "_reader",
                "_statements", "_step"),
    errors: ("BlowUp", "PermutationMismatch"),
    model: ("_as_matrix", "_as_vector", "_check_pd", "_check_psd",
            "_symmetrize_weight"),
    modelfile: ("_ARRAY_KEYS", "_FLOAT_KEYS", "_INT_KEYS", "_raw_entries",
                "_strip_comment", "_literal"),
    master: ("ResidualSample", "_Blocks", "_fd_derivative", "master_feedback",
             "master_residual", "residual_sample"),
    nce: ("_Workspace", "nce_feedback", "propagate_mean_field"),
    ode: ("_combine", "integrate_forward"),
    sim: ("_player_sum", "_product"),
    asymptotic.FiniteNSolution: ("P_big", "S_big", "mode"),
    asymptotic.FiniteNSystem: ("K0f",),
    asymptotic.LambdaSolution: ("M", "M0"),
    asymptotic.StructureReport: ("exponents", "scaled_tiles", "tiles"),
    model.PiLifted: ("Gamma0f_pi", "Gamma2f_pi"),
    model.TimeGrid: ("same_as",),
    # an attribute set in __init__ is looked up on an instance
    ode.StateLayout([("P", (1, 1), "kernel"), ("s", (1,), "vector")]):
        ("prefixes",),
}
# Parameters deleted from the integrators and the simulation.
DELETED_PARAMETERS = {ode.integrate_backward: ("prefixes",),
                      ode.integrate_members: ("prefixes",),
                      sim.simulate: ("model",),
                      sim.evaluate_cost: ("model",)}


def test_every_exported_name_resolves():
    assert len(set(lqmfg.__all__)) == len(lqmfg.__all__)
    missing = [name for name in lqmfg.__all__ if not hasattr(lqmfg, name)]
    assert missing == []


def test_deleted_names_are_gone():
    """A dataclass field without a default is no class attribute, so the
    declared fields are searched too."""
    assert not set(DELETED[lqmfg]) & set(lqmfg.__all__)
    left = [(owner, name) for owner, names in DELETED.items()
            for name in names
            if hasattr(owner, name)
            or name in getattr(owner, "__dataclass_fields__", ())]
    left += [(fn, name) for fn, names in DELETED_PARAMETERS.items()
             for name in names if name in inspect.signature(fn).parameters]
    assert left == []


def test_simulate_takes_the_solution_then_the_population():
    """bench/tracer.py reads a simulation's N as its second positional
    argument."""
    assert list(inspect.signature(sim.simulate).parameters)[:2] == ["sol",
                                                                   "N"]


def test_importing_the_package_loads_no_random_generator():
    """Only `simulate` draws random numbers, so importing the package and
    its CLI (all that solve, compare and check-solvability need) leaves
    numpy.random unloaded."""
    src = os.path.dirname(os.path.dirname(lqmfg.__file__))
    code = "import sys, lqmfg, lqmfg.cli; print('numpy.random' in sys.modules)"
    run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert run.stdout == "False\n"


def test_compiled_tables_store_no_table_list():
    """The address and coefficient tables a field's code reads are
    constants of that code, so a compiled text stores no list of them."""
    tables = equations.Equations((("P", (2, 2), "matrix"),),
                                 (("A", (2, 2)),), (), ("A @ P - P",), ())
    assert not {"prologue", "waves", "final"} & set(vars(tables))
    A, P = np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([[0.5, -1.0],
                                                        [2.0, 0.25]])
    got = tables.field([{"A": A}])(0.0, P.ravel())
    assert got.tobytes() == (A @ P - P).ravel().tobytes()
