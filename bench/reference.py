"""Reference kernel timed next to every command, to cancel host speed drift.

The benchmark runs on shared hosts whose CPU speed drifts by up to 2x over
tens of seconds, with whole runs landing in a slow or a fast phase: raw
wall times of identical runs differ by up to 25% (IQR over median). The
kernel below is a fixed piece of work of the same kinds as the program's:
RK4 steps on a small Riccati matrix with numpy followed by float formatting
(the solvers and the CSV writer), and column writes into an array of a few
MB (the simulation paths). Each command's wall time is divided by the
kernel time measured right before and right after it and multiplied by
REF_SECONDS: the result is the command's wall time on a host where the
kernel takes REF_SECONDS. Drift slows the kernel and the command alike, so
it cancels.

The compute part speeds up more than the memory part in a host's fast
phases, and the program sits in between, so the kernel time is the
geometric mean of the two parts. Over six runs of monte-carlo that kept
the spread at 3% where either part alone left 8-9%; on limit-routes it
did as well as the compute part alone (5-6%).

The kernel belongs to the benchmark, never to the program, so a change to
the program moves only the numerator.
"""

import math
from time import perf_counter

import numpy as np

# About the kernel time on the 2-CPU x86-64 host that recorded the baseline.
REF_SECONDS = 0.005

_A = np.array([[-0.3, 0.1, 0.0, 0.1], [0.05, -0.2, 0.1, 0.0],
               [0.0, 0.1, -0.4, 0.05], [0.1, 0.0, 0.05, -0.1]])
_K = 0.5 * np.eye(4)
_Q = np.eye(4)


def _field(P):
    return 0.1 * P - P @ _A - _A.T @ P + P @ _K @ P - _Q


def _compute(steps=40):
    P = np.eye(4)
    h = -1.0 / steps
    for _ in range(steps):
        k1 = _field(P)
        k2 = _field(P + (h / 2) * k1)
        k3 = _field(P + (h / 2) * k2)
        k4 = _field(P + h * k3)
        P = P + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
        P = (P + P.T) / 2
    return ",".join(format(float(x), ".17g") for x in np.tile(P.ravel(), 40))


def _memory(players=2000, steps=400):
    X = np.empty((players, steps + 1, 1))
    x = np.ones((players, 1))
    for s in range(steps + 1):
        X[:, s] = x
        x = x + 0.001 * x
    return float(X.mean(axis=0).sum())


def _fastest(fn, repeats):
    best = float("inf")
    for _ in range(repeats):
        t0 = perf_counter()
        fn()
        best = min(best, perf_counter() - t0)
    return best


def measure(repeats: int = 3) -> float:
    """Kernel time in seconds: geometric mean of the fastest of `repeats`
    runs of each part."""
    return math.sqrt(_fastest(_compute, repeats) * _fastest(_memory, repeats))


def factor(before: float, after: float) -> float:
    """Scale from a wall time measured between two kernel timings to
    reference speed."""
    return REF_SECONDS / ((before + after) / 2)
