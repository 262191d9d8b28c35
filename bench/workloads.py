"""Workload definitions: seeded model files and the CLI commands of one pass.

A workload is a fixed list of CLI commands (one "pass"). The benchmark
repeats the pass in a closed loop, one command after another. The seed only
picks coefficients of the random models and the simulation seeds, never how
many commands run or how large they are, so the work per pass is the same
for every seed.

Grids are set explicitly instead of the CLI default (M=2000): the RK4
integrators take fixed steps, so cost per step does not depend on M, and a
whole pass has to fit several times into one measured run.
"""

from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from lqmfg import ModelParams, write_model_file

@dataclass(frozen=True)
class Op:
    """One CLI command of a pass.

    `metric` is the per-command class the time is booked to; `expect` is the
    exit code a correct program returns; ops sharing a `group` have their
    outputs checked against each other after the pass.
    """

    key: str
    metric: str
    argv: tuple
    expect: int = 0
    group: str = ""


@dataclass(frozen=True)
class Sizes:
    limit_grid: int = 100
    finite_grid: int = 100
    structure_grid: int = 60
    finite_solve_ns: tuple = (8, 32)
    solvability_ns: tuple = (8, 16, 32)
    structure_n: int = 8
    sim_grid: int = 50
    sim_dt: float = None
    sim_scalar_n: int = 100
    sim_twotype_n: int = 1000


FULL = Sizes()
# Every N the finite-population workload solves at full size. The per-N
# layer metrics are named after them, so every workload reports the same
# names.
FINITE_NS = tuple(sorted({*FULL.finite_solve_ns, *FULL.solvability_ns,
                          FULL.structure_n}))
# Tiny sizes for the harness self-test: same commands, seconds in total.
TINY = Sizes(limit_grid=40, finite_grid=40, structure_grid=20,
             finite_solve_ns=(3, 8), solvability_ns=(8, 16, 32), structure_n=4,
             sim_grid=10, sim_dt=0.01, sim_scalar_n=5, sim_twotype_n=30)


def _base_params(**overrides) -> ModelParams:
    """The shipped scalar model; keyword overrides give variants."""
    one = [[1.0]]
    fields = dict(
        n=1, n1=1, n2=1, K=1, T=1.0, rho=0.1, pi=[1.0],
        A0=[[-0.3]], B0=one, F0=[[0.2]], D0=[[0.1]],
        A=[[[-0.4]]], B=one, F=[[0.1]], G=[[0.15]], D=[[0.1]],
        Q0=one, Q0f=one, Q=one, Qf=one,
        Gamma0=[[0.2]], Gamma0f=[[0.2]], Gamma1=[[0.1]], Gamma1f=[[0.1]],
        Gamma2=[[0.2]], Gamma2f=[[0.2]],
        eta0=[0.1], eta0f=[0.1], eta=[0.05], etaf=[0.05],
        R0=one, R=one,
        alpha0=[0.3], x0_mean=[0.5], x0_cov=[[0.04]], xi_cov=[[0.04]],
    )
    fields.update(overrides)
    return ModelParams(**fields)


def escaping_params(gamma2: float) -> ModelParams:
    """Strong mean-deviation tracking makes every route escape in finite
    time. Gamma2 = 3 escapes near t = 0.48 and Gamma2 = 4 near t = 0.66 on
    any grid from M = 30 to M = 4000, so the escape sits mid-horizon and
    does not hinge on the step size."""
    g = [[float(gamma2)]]
    return _base_params(Gamma2=g, Gamma2f=g)


def _twotype_params() -> ModelParams:
    """The shipped two-type model."""
    return replace(_base_params(), K=2, pi=[0.6, 0.4], A=[[[-0.4]], [[-0.2]]])


# (n, K, n1, n2) per random slot; the slot index keys the stream, so the
# slots draw independent coefficients from one seed.
RANDOM_SLOTS = {
    "rand-n3k3": (3, 3, 2, 2),
    "rand-n2k1": (2, 1, 2, 1),
    "rand-n2k1-fin": (2, 1, 1, 2),
}


def random_params(seed: int, slot: str) -> ModelParams:
    """Random model of a fixed shape; only the coefficients depend on seed.

    Couplings, drifts and deviation weights stay within +-0.3 and control
    weights are bounded away from zero, which keeps every route solvable on
    T = 1 (checked for seeds 0..199 on all slots).
    """
    n, K, n1, n2 = RANDOM_SLOTS[slot]
    rng = np.random.default_rng([seed, list(RANDOM_SLOTS).index(slot)])

    def u(*shape):
        return rng.uniform(-0.3, 0.3, size=shape).tolist()

    def psd(d):
        w = rng.uniform(-0.7, 0.7, size=(d, d))
        return w @ w.T / (2.0 * d)

    def pd(d):
        return (psd(d) + 0.25 * np.eye(d)).tolist()

    def cov(d):
        return (0.2 * psd(d) + 0.01 * np.eye(d)).tolist()

    pi = rng.uniform(0.2, 1.0, size=K)
    return ModelParams(
        n=n, n1=n1, n2=n2, K=K, T=1.0, rho=float(rng.uniform(0.0, 0.3)),
        pi=(pi / pi.sum()).tolist(),
        A0=u(n, n), B0=u(n, n1), F0=u(n, n), D0=u(n, n2),
        A=u(K, n, n), B=u(n, n1), F=u(n, n), G=u(n, n), D=u(n, n2),
        Q0=psd(n).tolist(), Q0f=psd(n).tolist(), Q=psd(n).tolist(),
        Qf=psd(n).tolist(),
        Gamma0=u(n, n), Gamma0f=u(n, n), Gamma1=u(n, n), Gamma1f=u(n, n),
        Gamma2=u(n, n), Gamma2f=u(n, n),
        eta0=u(n), eta0f=u(n), eta=u(n), etaf=u(n),
        R0=pd(n1), R=pd(n1),
        alpha0=u(n), x0_mean=u(n), x0_cov=cov(n), xi_cov=cov(n),
    )


@dataclass
class _Inputs:
    """Writes a workload's model files and collects its ops."""

    inputs: Path
    ops: list = field(default_factory=list)

    def model(self, name: str, params: ModelParams) -> str:
        path = self.inputs / f"{name}.model"
        write_model_file(str(path), params)
        return str(path)

    def add(self, key, metric, *argv, expect=0, group=""):
        self.ops.append(Op(key=key, metric=metric, argv=tuple(map(str, argv)),
                           expect=expect, group=group))


def _limit_routes(b: _Inputs, seed: int, z: Sizes):
    g = ("--grid", z.limit_grid)
    scalar = b.model("scalar", _base_params())
    twotype = b.model("twotype", _twotype_params())
    n3k3 = b.model("rand-n3k3", random_params(seed, "rand-n3k3"))
    n2k1 = b.model("rand-n2k1", random_params(seed, "rand-n2k1"))

    for system in ("nce", "master", "lambda"):
        b.add(f"solve-{system}/scalar", f"solve_{system}_s",
              "solve", system, "--model", scalar, *g)
    b.add("compare-nce-master/scalar", "compare_nce_master_s",
          "compare", "nce-master", "--model", scalar, *g)
    b.add("compare-lambda-phi/scalar", "compare_lambda_phi_s",
          "compare", "lambda-phi", "--model", scalar, *g)
    b.add("solve-master/twotype", "solve_master_s",
          "solve", "master", "--model", twotype, *g)
    b.add("compare-nce-master/twotype", "compare_nce_master_s",
          "compare", "nce-master", "--model", twotype, *g)
    b.add("solve-master/rand-n3k3", "solve_master_s",
          "solve", "master", "--model", n3k3, *g)
    b.add("compare-nce-master/rand-n3k3", "compare_nce_master_s",
          "compare", "nce-master", "--model", n3k3, *g)
    b.add("solve-lambda/rand-n2k1", "solve_lambda_s",
          "solve", "lambda", "--model", n2k1, *g)
    b.add("compare-lambda-phi/rand-n2k1", "compare_lambda_phi_s",
          "compare", "lambda-phi", "--model", n2k1, *g)
    for gamma2 in (3, 4):
        name = f"escape-g{gamma2}"
        path = b.model(name, escaping_params(gamma2))
        for system in ("nce", "master", "lambda"):
            b.add(f"solve-{system}/{name}", "escape_verdict_s",
                  "solve", system, "--model", path, *g,
                  expect=2, group=name)


def _finite_population(b: _Inputs, seed: int, z: Sizes):
    g = ("--grid", z.finite_grid)
    ns = ",".join(map(str, z.solvability_ns))
    scalar = b.model("scalar", _base_params())
    rand = b.model("rand-n2k1-fin", random_params(seed, "rand-n2k1-fin"))
    for N in z.finite_solve_ns:
        b.add(f"solve-finite-n{N}/scalar", "solve_finite_n_s",
              "solve", "finite-n", "--model", scalar, "--N", N, *g)
    b.add(f"solve-finite-n{z.finite_solve_ns[0]}/rand", "solve_finite_n_s",
          "solve", "finite-n", "--model", rand,
          "--N", z.finite_solve_ns[0], *g)
    # One solvability check: its thread pool makes it the noisiest command
    # (6-15% between runs), so it stays a small share of the pass.
    b.add("check-solvability/scalar", "check_solvability_s",
          "check-solvability", "--model", scalar, "--N", ns, *g)
    for name, path in (("scalar", scalar), ("rand", rand)):
        b.add(f"compare-finite-structure/{name}", "finite_structure_s",
              "compare", "finite-structure", "--model", path,
              "--N", z.structure_n, "--grid", z.structure_grid)


def _monte_carlo(b: _Inputs, seed: int, z: Sizes):
    scalar = b.model("scalar", _base_params())
    twotype = b.model("twotype", _twotype_params())
    dt = () if z.sim_dt is None else ("--dt", z.sim_dt)
    runs = (("scalar", scalar, z.sim_scalar_n, 2 * seed),
            ("twotype", twotype, z.sim_twotype_n, 2 * seed + 1))
    for name, path, N, sim_seed in runs:
        for feedback in ("nce", "master"):
            b.add(f"simulate-{feedback}/{name}", "simulate_s",
                  "simulate", "--model", path, "--grid", z.sim_grid,
                  "--N", N, "--seed", sim_seed, "--feedback", feedback,
                  *dt, group=f"sim-{name}")


_DEFINITIONS = {"limit-routes": _limit_routes,
             "finite-population": _finite_population,
             "monte-carlo": _monte_carlo}
WORKLOADS = tuple(_DEFINITIONS)


def build(workload: str, seed: int, inputs: Path, sizes: Sizes = FULL):
    """Write the workload's model files into `inputs`; return its ops."""
    b = _Inputs(Path(inputs))
    _DEFINITIONS[workload](b, seed, sizes)
    return b.ops

