"""Tracking error, path length, dynamic regret, and the closed-form
bounds they are compared with.

All functions are pure over immutable trajectories. Each bound is one
function of the constants its guarantee names; every bound is an upper
bound on the measured quantity except :func:`adversarial_lower_bound`.
"""

from __future__ import annotations

import math

import numpy as np

from .algorithms import Trajectory


def tracking_series(traj: Trajectory) -> np.ndarray:
    """Partial sums of the squared distances ||Z_t - Z*_t||^2."""
    if traj.solutions is None:
        raise ValueError("trajectory has no recorded solutions")
    n = len(traj.solutions)
    sq = [float(np.dot(p - s, p - s))
          for p, s in zip(traj.plays[:n], traj.solutions)]
    return np.cumsum(sq)


def tracking_error(traj: Trajectory) -> float:
    """Cumulative squared distance of the plays to the solutions, 0.0 for
    no recorded rounds."""
    series = tracking_series(traj)
    return float(series[-1]) if series.size else 0.0


def quadratic_path_length(solutions) -> float:
    """Sum of squared consecutive solution displacements, 0.0 for fewer
    than two solutions."""
    pts = [np.asarray(s, dtype=float) for s in solutions]
    return float(sum(np.dot(a - b, a - b) for a, b in zip(pts[1:], pts[:-1])))


def regret_series(traj: Trajectory, comparators, mu: float = 0.0) -> np.ndarray:
    """Partial sums of <F_t(Z_t), Z_t - C_t> - (mu/2)||Z_t - C_t||^2.

    Uses the operator values recorded along the run; mu = 0 reduces to
    the linearized regret.
    """
    n = len(traj.op_values)
    if len(comparators) < n:
        raise ValueError("comparator sequence shorter than trajectory")
    terms = []
    for g, z, c in zip(traj.op_values, traj.plays[:n], comparators):
        d = z - np.asarray(c, dtype=float)
        terms.append(float(np.dot(g, d)) - 0.5 * mu * float(np.dot(d, d)))
    return np.cumsum(terms)


def dynamic_regret(traj: Trajectory, comparators, mu: float = 0.0) -> float:
    """Total dynamic regret: the last partial sum, 0.0 for no rounds."""
    series = regret_series(traj, comparators, mu)
    return float(series[-1]) if series.size else 0.0


# ---------------------------------------------------------------------------
# Closed-form bounds

def contractive_bound(C: float, path: float, init_dist: float) -> float:
    """Tracking of a C-contractive algorithm: ``path`` is the quadratic
    path length of the solutions, ``init_dist`` is ||Z_1 - Z*_1||."""
    if not 0.0 < C < 1.0:
        raise ValueError("contraction factor must be in (0, 1)")
    return path / (1.0 - C) ** 2 + init_dist ** 2 / (1.0 - C)


def cyclic_regret_bound(k: int, G: float, mu: float, T: int) -> float:
    """Dynamic regret of the correctly-tuned cyclic learner."""
    return k * G ** 2 / (2.0 * mu) * (math.log(T / k) + 1.0)


def aggregation_regret_bound(G: float, mu: float, D: float, k: int, K: int,
                             T: int) -> float:
    """Dynamic regret of the fixed-rate aggregation algorithm."""
    return (G + mu * D) ** 2 / (2.0 * mu) * (
        k * math.log(T / k) + k + 8.0 * math.log(K))


def aggregation_tracking_bound(G: float, mu: float, D: float, k: int, K: int,
                               T: int) -> float:
    """Tracking of the fixed-rate aggregation algorithm."""
    return (G + mu * D) ** 2 / mu ** 2 * (
        k * math.log(T / k) + k + 8.0 * math.log(K))


def constant_tracking_bound(D0: float, kappa: float, k: int, K: int) -> float:
    """Constant tracking of the adaptively-tuned aggregation algorithm."""
    if kappa < 1.0:
        raise ValueError("condition number must be >= 1")
    return 4.0 * D0 ** 2 * (2.0 + kappa) * (
        2.0 * (2.0 * kappa ** 2 + 1.0) * (2.0 + kappa) * math.log(K)
        + (2.0 * kappa + 1.0) * kappa * k + 1.0)


def adversarial_lower_bound(D: float, T: int) -> float:
    """Adversarial lower bound on tracking: measured must reach it."""
    return D ** 2 * T / 16.0
