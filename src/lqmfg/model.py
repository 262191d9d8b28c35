"""Model ingestion, validation, and the lifted block matrices.

A model bundles the constant coefficients of a linear-quadratic mean field
game with one major player and K types of minor players: drift/input/noise
matrices for both tiers, quadratic tracking costs with deviation matrices and
offsets, control weights, a discount rate, a horizon, and the limiting type
frequencies pi.

The ValidatedModel declaration is the one schema of a model: it lists the
fields in model-file key order, each array field with its shape (in the
counts n, n1, n2, K) and its weight check, and its type picks its type
rule. ModelParams, validate_model and the file reader and writer follow it.

Every solver consumes a ValidatedModel plus its PiLifted companion, which
holds the pi-weighted horizontal liftings (row-Kronecker products with pi)
and the congruence-transformed cost blocks acting on the stacked states
(x0, zbar) and (z_kappa, x0, zbar).
"""

import numbers
from dataclasses import dataclass, field, fields, make_dataclass

import numpy as np

from .errors import BadPi, DimensionMismatch, GridMismatch, IndexOutOfRange, NotPD, NotPSD

# Weights are symmetrized silently below this asymmetry; rejected above it.
SYMMETRY_REPAIR_TOL = 1e-12
# A weight counts as PSD when its smallest eigenvalue clears this floor.
PSD_EIG_FLOOR = -1e-10


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t_0 = 0 < t_1 < ... < t_M = T with spacing h = T/M."""

    M: int
    T: float

    def __post_init__(self):
        if not (_is_integer(self.M) and self.M >= 1):
            raise ValueError(f"TimeGrid needs an integer M >= 1, got {self.M!r}")
        if not (_is_real(self.T) and 0.0 < self.T < np.inf):
            raise ValueError(f"TimeGrid needs a positive finite T, got {self.T!r}")

    @property
    def h(self) -> float:
        return self.T / self.M

    @property
    def nodes(self) -> np.ndarray:
        # linspace pins the last node to T exactly, no accumulated rounding
        return np.linspace(0.0, self.T, self.M + 1)

    def require_horizon(self, T: float):
        if self.T != T:
            raise GridMismatch(f"grid horizon T={self.T!r} is not the model's T={T!r}")


def default_steps(T: float) -> int:
    """Default step count: 2000 covers horizons up to 5 at order-4 accuracy."""
    if T <= 5.0:
        return 2000
    steps = np.ceil(400.0 * T)
    if not np.isfinite(steps):
        raise ValueError(f"T = {T!r} is too long for the default grid of 400 "
                         f"steps per unit time; pass --grid")
    return int(steps)


def _array(*shape, weight=None):
    """An array field of ValidatedModel: its shape as names of the count
    fields, and "psd" or "pd" for a weight that must be semidefinite or
    definite."""
    return field(metadata={"shape": shape, "weight": weight})


@dataclass(frozen=True)
class ValidatedModel:
    """A model that passed validate_model; arrays are float64 and read-only.

    Fields are declared in model-file key order (`A` as A1..AK); each
    array field's metadata holds its shape and weight check (see `_array`).
    """

    n: int
    n1: int
    n2: int
    K: int
    T: float
    rho: float
    A: np.ndarray = _array("K", "n", "n")
    pi: np.ndarray = _array("K")
    A0: np.ndarray = _array("n", "n")
    B0: np.ndarray = _array("n", "n1")
    F0: np.ndarray = _array("n", "n")
    D0: np.ndarray = _array("n", "n2")
    B: np.ndarray = _array("n", "n1")
    F: np.ndarray = _array("n", "n")
    G: np.ndarray = _array("n", "n")
    D: np.ndarray = _array("n", "n2")
    Q0: np.ndarray = _array("n", "n", weight="psd")
    Q0f: np.ndarray = _array("n", "n", weight="psd")
    Q: np.ndarray = _array("n", "n", weight="psd")
    Qf: np.ndarray = _array("n", "n", weight="psd")
    R0: np.ndarray = _array("n1", "n1", weight="pd")
    R: np.ndarray = _array("n1", "n1", weight="pd")
    Gamma0: np.ndarray = _array("n", "n")
    Gamma0f: np.ndarray = _array("n", "n")
    Gamma1: np.ndarray = _array("n", "n")
    Gamma1f: np.ndarray = _array("n", "n")
    Gamma2: np.ndarray = _array("n", "n")
    Gamma2f: np.ndarray = _array("n", "n")
    eta0: np.ndarray = _array("n")
    eta0f: np.ndarray = _array("n")
    eta: np.ndarray = _array("n")
    etaf: np.ndarray = _array("n")
    alpha0: np.ndarray = _array("n")
    x0_mean: np.ndarray = _array("n")
    x0_cov: np.ndarray = _array("n", "n", weight="psd")
    xi_cov: np.ndarray = _array("n", "n", weight="psd")


ModelParams = make_dataclass(
    "ModelParams",
    [(f.name, object if f.metadata else f.type)
     for f in fields(ValidatedModel)])
ModelParams.__doc__ = """Raw model data as supplied by the user; validate_model checks it.

    The fields are ValidatedModel's. Array fields may be any array-like
    (nested lists straight from a model file are fine); `A` holds the K
    minor drift matrices stacked along the first axis.
    """
ModelParams.__module__ = __name__


@dataclass(frozen=True)
class PiLifted:
    """Pi-lifted blocks shared by every solver.

    Horizontal liftings W_pi = pi (x) W are n x nK (pi as a 1 x K row, so
    W_pi zbar = sum_k pi_k W zbar_k). The congruence blocks act on the
    stacked states: Q0_pi and the eta0_pi offsets on (x0, zbar) of size
    n(K+1); Q_pi and eta_pi on (z_kappa, x0, zbar) of size n(K+2). B0_lift
    and B_lift are the input matrices zero-padded to those stacked sizes.
    """

    F0_pi: np.ndarray
    Gamma0_pi: np.ndarray
    F_pi: np.ndarray
    Gamma2_pi: np.ndarray
    Q0_pi: np.ndarray
    Q0f_pi: np.ndarray
    eta0_pi: np.ndarray
    eta0f_pi: np.ndarray
    Q_pi: np.ndarray
    Qf_pi: np.ndarray
    eta_pi: np.ndarray
    etaf_pi: np.ndarray
    B0_lift: np.ndarray
    B_lift: np.ndarray


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=np.float64)
    a.setflags(write=False)
    return a


def _is_integer(value) -> bool:
    """An int or a numpy integer; a bool is neither."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def check_population(N) -> int:
    """N as an int; ValueError unless _is_integer(N) and N >= 1."""
    if not _is_integer(N):
        raise ValueError(f"population size must be an integer, got N={N}")
    if N < 1:
        raise ValueError(f"population size must be at least 1, got N={N}")
    return int(N)


def _is_real(value) -> bool:
    """A real number (int, float or a numpy one); a bool is none."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _count(name: str, value) -> int:
    """A count field as an int: an integral number of at least 1."""
    if not (_is_integer(value) or _is_real(value) and float(value).is_integer()):
        raise DimensionMismatch(f"{name!r} must be an integer, got {value!r}")
    if value < 1:
        raise DimensionMismatch(f"{name!r} must be at least 1, got {value!r}")
    return int(value)


def _real(name: str, value) -> float:
    """A real field as a float: a real number in float range."""
    if _is_real(value):
        try:
            return float(value)
        except OverflowError:
            pass
    raise DimensionMismatch(f"{name!r} must be a real number, got {value!r}")


def _numeric(name: str, value) -> np.ndarray:
    """An array field's value as a new float64 array."""
    try:
        return np.array(value, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DimensionMismatch(f"{name!r} must be a numeric array: {exc}") from exc


def _shorthand(a: np.ndarray, shape: tuple) -> np.ndarray:
    """`a` reshaped where it is a shorthand of `shape`: a scalar for all
    ones, a row or column for a vector, one n x n drift for A at K = 1."""
    if a.ndim == 0 and all(d == 1 for d in shape):
        return a.reshape((1,) * len(shape))
    if len(shape) == 1 and a.ndim == 2 and 1 in a.shape:
        return a.reshape(-1)
    if len(shape) == 3 and a.ndim == 2 and shape[0] == 1:
        return a.reshape(1, *a.shape)
    return a


def _as_array(name: str, value, shape: tuple) -> np.ndarray:
    """The value, or its _shorthand, as a finite float64 array of the
    declared shape; a copy: the model never shares (or freezes) the caller's."""
    a = _shorthand(_numeric(name, value), shape)
    if a.shape != shape:
        raise DimensionMismatch(f"{name}: expected shape {shape}, got {a.shape}")
    if not np.all(np.isfinite(a)):
        raise DimensionMismatch(f"{name}: contains non-finite entries")
    return a


def _check_weight(name: str, a: np.ndarray, weight: str) -> np.ndarray:
    """Repair a tiny asymmetry, then check the weight is PSD or PD."""
    drift = float(np.max(np.abs(a - a.T)))
    if drift > SYMMETRY_REPAIR_TOL:
        raise DimensionMismatch(f"{name}: asymmetry {drift:.3e} exceeds repair tolerance")
    a = (a + a.T) / 2.0
    low = float(np.linalg.eigvalsh(a)[0])
    if weight == "psd" and low < PSD_EIG_FLOOR:
        raise NotPSD(name, low)
    if weight == "pd" and low <= 0.0:
        raise NotPD(name, low)
    return a


def validate_model(raw: ModelParams) -> ValidatedModel:
    """Check every model invariant and return an immutable canonical form.

    The counts must be positive integral numbers, T positive and rho
    nonnegative finite real numbers, every array field numeric and of the
    shape the counts give it, the cost weights symmetric PSD (tiny asymmetry
    from file round-trips is repaired), the control weights symmetric PD,
    and pi a strictly positive probability vector. Fields are checked in
    declaration order, so the first faulty one is reported; a wrong type or
    shape raises DimensionMismatch naming it.
    """
    scalars = {f.name: (_count if f.type is int else _real)(
        f.name, getattr(raw, f.name)) for f in fields(ValidatedModel)
        if not f.metadata}
    T, rho = scalars["T"], scalars["rho"]
    if not (0.0 < T < np.inf):
        raise DimensionMismatch(f"T must be positive and finite, got {T}")
    if not (0.0 <= rho < np.inf):
        raise DimensionMismatch(f"rho must be nonnegative and finite, got {rho}")

    arrays = {}
    for f in fields(ValidatedModel):
        if not f.metadata:
            continue
        shape = tuple(scalars[d] for d in f.metadata["shape"])
        a = _as_array(f.name, getattr(raw, f.name), shape)
        if f.metadata["weight"]:
            a = _check_weight(f.name, a, f.metadata["weight"])
        arrays[f.name] = _freeze(a)

    pi = arrays["pi"]
    if np.any(pi <= 0.0):
        raise BadPi(f"pi entries must be strictly positive, got {pi.tolist()}")
    if abs(float(pi.sum()) - 1.0) > 1e-12:
        raise BadPi(f"pi must sum to 1 within 1e-12, got sum {pi.sum()!r}")
    return ValidatedModel(**scalars, **arrays)


def _row_kron(pi: np.ndarray, W: np.ndarray) -> np.ndarray:
    # pi as a 1 x K row: the result is [pi_1 W, ..., pi_K W], n x nK
    return np.kron(pi.reshape(1, -1), W)


def _congruence(S: np.ndarray, W: np.ndarray) -> np.ndarray:
    out = S.T @ W @ S
    return (out + out.T) / 2.0


def lift_pi(model: ValidatedModel) -> PiLifted:
    """Build every pi-lifted block from a validated model.

    The selector [I, -Gamma0_pi] maps the stacked (x0, zbar) to the cost
    deviation x0 - Gamma0 sum_k pi_k zbar_k, so the lifted weight is the
    congruence of Q0 by that selector and the lifted offset is its
    transpose applied to Q0 eta0; the minor-side blocks use the selector
    [I, -Gamma1, -Gamma2_pi] on (z_kappa, x0, zbar).
    """
    n, K, n1 = model.n, model.K, model.n1
    I = np.eye(n)

    F0_pi = _row_kron(model.pi, model.F0)
    Gamma0_pi = _row_kron(model.pi, model.Gamma0)
    Gamma0f_pi = _row_kron(model.pi, model.Gamma0f)
    F_pi = _row_kron(model.pi, model.F)
    Gamma2_pi = _row_kron(model.pi, model.Gamma2)
    Gamma2f_pi = _row_kron(model.pi, model.Gamma2f)

    S0 = np.hstack([I, -Gamma0_pi])
    S0f = np.hstack([I, -Gamma0f_pi])
    S1 = np.hstack([I, -model.Gamma1, -Gamma2_pi])
    S1f = np.hstack([I, -model.Gamma1f, -Gamma2f_pi])

    return PiLifted(
        F0_pi=_freeze(F0_pi),
        Gamma0_pi=_freeze(Gamma0_pi),
        F_pi=_freeze(F_pi),
        Gamma2_pi=_freeze(Gamma2_pi),
        Q0_pi=_freeze(_congruence(S0, model.Q0)),
        Q0f_pi=_freeze(_congruence(S0f, model.Q0f)),
        eta0_pi=_freeze(S0.T @ (model.Q0 @ model.eta0)),
        eta0f_pi=_freeze(S0f.T @ (model.Q0f @ model.eta0f)),
        Q_pi=_freeze(_congruence(S1, model.Q)),
        Qf_pi=_freeze(_congruence(S1f, model.Qf)),
        eta_pi=_freeze(S1.T @ (model.Q @ model.eta)),
        etaf_pi=_freeze(S1f.T @ (model.Qf @ model.etaf)),
        B0_lift=_freeze(np.vstack([model.B0, np.zeros((n * K, n1))])),
        B_lift=_freeze(np.vstack([model.B, np.zeros((n * (K + 1), n1))])),
    )


def block_selector(k: int, K: int, n: int) -> np.ndarray:
    """The n x nK selector picking minor-type block k (1-based) of zbar."""
    if not (1 <= k <= K):
        raise IndexOutOfRange(f"block index k={k} outside 1..{K}")
    e = np.zeros((n, n * K))
    e[:, (k - 1) * n:k * n] = np.eye(n)
    return e
