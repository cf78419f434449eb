"""Tracking error, path length, dynamic regret, and the closed-form
bounds they are compared with.

All functions are pure over immutable trajectories, and each metric is
one vectorized pass over the trajectory's arrays whose per-round terms
round exactly as a per-round ``np.dot`` loop does. Each bound is one
function of the constants its guarantee names; every bound is an upper
bound on the measured quantity except :func:`adversarial_lower_bound`.
"""

from __future__ import annotations

import math

import numpy as np

from .algorithms import Trajectory


def _rows(x) -> np.ndarray:
    """A trajectory field or a point sequence as a float array with one
    row per round; a sequence of scalars becomes one column."""
    a = np.asarray(x, dtype=float)
    return a[:, None] if a.ndim == 1 else a


def _row_dots(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """<A_i, B_i> for every row i of two ``(n, d)`` arrays, each rounded
    as ``np.dot(A_i, B_i)`` rounds it: a stack of 1 x d by d x 1
    products, which numpy computes with the same dot kernel (an einsum
    or an elementwise product summed along the rows rounds differently)."""
    return (A[:, None, :] @ B[:, :, None])[:, 0, 0]


def squared_distances(traj: Trajectory) -> np.ndarray:
    """||Z_t - Z*_t||^2 for every round with a recorded solution."""
    if traj.solutions is None:
        raise ValueError("trajectory has no recorded solutions")
    S = _rows(traj.solutions)
    D = _rows(traj.plays)[:len(S)] - S
    return _row_dots(D, D)


def tracking_series(traj: Trajectory) -> np.ndarray:
    """Partial sums of the squared distances ||Z_t - Z*_t||^2."""
    return np.cumsum(squared_distances(traj))


def tracking_error(traj: Trajectory) -> float:
    """Cumulative squared distance of the plays to the solutions, 0.0 for
    no recorded rounds."""
    series = tracking_series(traj)
    return float(series[-1]) if series.size else 0.0


def quadratic_path_length(solutions) -> float:
    """Sum of squared consecutive solution displacements, 0.0 for fewer
    than two solutions. The sum runs in round order."""
    S = _rows(solutions)
    D = S[1:] - S[:-1]
    return float(np.cumsum(_row_dots(D, D))[-1]) if len(D) else 0.0


def regret_series(traj: Trajectory, comparators, mu: float = 0.0) -> np.ndarray:
    """Partial sums of <F_t(Z_t), Z_t - C_t> - (mu/2)||Z_t - C_t||^2.

    Uses the operator values recorded along the run; mu = 0 reduces to
    the linearized regret.
    """
    G = _rows(traj.op_values)
    C = _rows(comparators)
    n = len(G)
    if len(C) < n:
        raise ValueError("comparator sequence shorter than trajectory")
    D = _rows(traj.plays)[:n] - C[:n]
    return np.cumsum(_row_dots(G, D) - 0.5 * mu * _row_dots(D, D))


def dynamic_regret(traj: Trajectory, comparators, mu: float = 0.0) -> float:
    """Total dynamic regret: the last partial sum, 0.0 for no rounds."""
    series = regret_series(traj, comparators, mu)
    return float(series[-1]) if series.size else 0.0


# ---------------------------------------------------------------------------
# Closed-form bounds

def contractive_bound(C: float, path: float, init_dist: float) -> float:
    """Tracking of a C-contractive algorithm: ``path`` is the quadratic
    path length of the solutions, ``init_dist`` is ||Z_1 - Z*_1||. C = 0
    is a one-step contraction, bounded by path + init_dist^2."""
    if not 0.0 <= C < 1.0:
        raise ValueError("contraction factor must be in [0, 1)")
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
