"""Exception types shared across the package.

Every failure mode the library can report deliberately has its own class so
callers can dispatch on type instead of parsing messages. Each class carries
the CLI exit code of its failure: 1 for a usage or configuration error, 2
for a mathematical failure.
"""


class LQMFGError(Exception):
    """Base class for all package errors."""

    exit_code = 1


class DimensionMismatch(LQMFGError):
    """A model field has the wrong shape or type; the message names it."""


class NotPSD(LQMFGError):
    """A cost weight that must be positive semi-definite is not."""

    def __init__(self, name: str, min_eigenvalue: float):
        self.name = name
        self.min_eigenvalue = min_eigenvalue
        super().__init__(f"{name} is not PSD (most negative eigenvalue {min_eigenvalue:.3e})")


class NotPD(LQMFGError):
    """A control weight that must be positive definite is not."""

    def __init__(self, name: str, min_eigenvalue: float):
        self.name = name
        self.min_eigenvalue = min_eigenvalue
        super().__init__(f"{name} is not PD (smallest eigenvalue {min_eigenvalue:.3e})")


class BadPi(LQMFGError):
    """The type-frequency vector is not a strictly positive probability vector."""


class IndexOutOfRange(LQMFGError):
    """A block or player index is outside its valid range."""


class NonFiniteField(LQMFGError):
    """The ODE field returned NaN/Inf at a finite state (an assembly bug)."""

    exit_code = 2


class SegmentOverflow(LQMFGError):
    """An offset or constant overflowed float64 while the kernels, whose
    bound bounds it, stayed below the escape threshold (a field bug); the
    message names the entry past the kernels."""

    exit_code = 2


class AsymmetryDrift(LQMFGError):
    """A state integrated as symmetric drifted beyond tolerance (a field bug)."""

    exit_code = 2


class TimeOutOfRange(LQMFGError):
    """An evaluation time lies outside the solution horizon [0, T]."""


class GridMismatch(LQMFGError):
    """Two objects that must share a time grid do not."""


class KNotOne(LQMFGError):
    """An operation restricted to homogeneous minor players got K != 1."""


class NTooLargeForMemory(LQMFGError):
    """A stored path, a finite-N assembly or a simulation would exceed the
    memory budget (ode.MEMORY_BUDGET); the message states the bytes."""


class EmptyType(LQMFGError):
    """A per-type statistic was requested for a type with no players."""


class EmptyBatch(LQMFGError):
    """A batch statistic was requested over zero trajectories."""


class NonFiniteState(LQMFGError):
    """A simulated state exploded; the message carries the step index."""

    exit_code = 2


class ModelFileError(LQMFGError):
    """A model file is missing, malformed, or names unknown/missing keys."""
