"""Linear-quadratic mean field games with a major player.

Three independent routes to the same limiting control problem (a
consistency fixed point, a quadratic value-function expansion, and a
finite-population Riccati hierarchy with its low-dimensional limit),
plus closed-loop Monte Carlo simulation to check mean-field consistency
against finite populations.
"""

from .asymptotic import (FiniteNSolution, LambdaSolution, SolvabilityReport,
                         StructureReport, TileSolution, assemble_finite_n,
                         check_asymptotic_solvability, compare_lambda_phi,
                         extract_block_structure, phi_from_nce,
                         solve_finite_n, solve_lambda, solve_tiles)
from .errors import (AsymmetryDrift, BadPi, DimensionMismatch, EmptyBatch,
                     EmptyType, GridMismatch, IndexOutOfRange, KNotOne,
                     LQMFGError, ModelFileError, NonFiniteField,
                     NonFiniteState, NotPD, NotPSD, NTooLargeForMemory,
                     SegmentOverflow, TimeOutOfRange)
from .master import (DiffReport, MasterSolution, compare_nce_master,
                     solve_master)
from .model import (ModelParams, PiLifted, TimeGrid, ValidatedModel,
                    block_selector, default_steps, lift_pi, validate_model)
from .modelfile import load_model, parse_model_file, write_model_file
from .nce import NCESolution, solve_nce
from .ode import BlowUpReport, MatrixPath, integrate_backward
from .sim import (CostEstimate, MeanFieldError, Trajectory,
                  default_type_counts, empirical_mean_error, evaluate_cost,
                  simulate)

__all__ = [
    "AsymmetryDrift", "BadPi", "BlowUpReport", "CostEstimate", "DiffReport",
    "DimensionMismatch", "EmptyBatch", "EmptyType", "FiniteNSolution",
    "GridMismatch", "IndexOutOfRange", "KNotOne", "LQMFGError",
    "LambdaSolution", "MasterSolution", "MatrixPath", "MeanFieldError",
    "ModelFileError", "ModelParams", "NCESolution", "NTooLargeForMemory",
    "NonFiniteField", "NonFiniteState", "NotPD", "NotPSD", "PiLifted",
    "SegmentOverflow", "SolvabilityReport", "StructureReport",
    "TileSolution", "TimeGrid", "TimeOutOfRange", "Trajectory",
    "ValidatedModel", "assemble_finite_n", "block_selector",
    "check_asymptotic_solvability", "compare_lambda_phi",
    "compare_nce_master", "default_steps", "default_type_counts",
    "empirical_mean_error", "evaluate_cost", "extract_block_structure",
    "integrate_backward", "lift_pi", "load_model", "parse_model_file",
    "phi_from_nce", "simulate", "solve_finite_n", "solve_lambda",
    "solve_master", "solve_nce", "solve_tiles", "validate_model",
    "write_model_file",
]

__version__ = "0.1.0"
