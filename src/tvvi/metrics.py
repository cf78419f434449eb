"""Tracking error, path length, dynamic regret, and closed-form bound
evaluators for empirical-vs-theoretical comparisons.

All functions are pure over immutable trajectories. Lower-bound kinds
invert the comparison in :func:`bound_check` (measured must exceed the
bound) so one operation serves both directions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .algorithms import Trajectory

_CHECK_TOL = 1e-9


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
# Closed-form bound evaluators

@dataclass(frozen=True)
class ContractiveBound:
    """Tracking of a C-contractive algorithm on a drifting sequence."""
    C: float
    path: float            # quadratic path length of the solutions
    init_dist: float       # ||Z_1 - Z*_1||


@dataclass(frozen=True)
class CyclicRegretBound:
    """Dynamic regret of the correctly-tuned cyclic learner."""
    k: int
    G: float
    mu: float
    T: int


@dataclass(frozen=True)
class AggregationRegretBound:
    """Dynamic regret of the fixed-rate aggregation algorithm."""
    G: float
    mu: float
    D: float
    k: int
    K: int
    T: int


@dataclass(frozen=True)
class AggregationTrackingBound:
    """Tracking of the fixed-rate aggregation algorithm."""
    G: float
    mu: float
    D: float
    k: int
    K: int
    T: int


@dataclass(frozen=True)
class ConstantTrackingBound:
    """Constant tracking of the adaptively-tuned aggregation algorithm."""
    D0: float
    kappa: float
    k: int
    K: int


@dataclass(frozen=True)
class AdversarialLowerBound:
    """Adversarial lower bound on tracking (inverted comparison)."""
    D: float
    T: int


LOWER_BOUND_KINDS = (AdversarialLowerBound,)


def theoretical_bound(spec) -> float:
    """Evaluate the closed-form bound for the given spec."""
    if isinstance(spec, ContractiveBound):
        if not 0.0 < spec.C < 1.0:
            raise ValueError("contraction factor must be in (0, 1)")
        return spec.path / (1.0 - spec.C) ** 2 + spec.init_dist ** 2 / (1.0 - spec.C)
    if isinstance(spec, CyclicRegretBound):
        return spec.k * spec.G ** 2 / (2.0 * spec.mu) * (math.log(spec.T / spec.k) + 1.0)
    if isinstance(spec, AggregationRegretBound):
        return (spec.G + spec.mu * spec.D) ** 2 / (2.0 * spec.mu) * (
            spec.k * math.log(spec.T / spec.k) + spec.k + 8.0 * math.log(spec.K))
    if isinstance(spec, AggregationTrackingBound):
        return (spec.G + spec.mu * spec.D) ** 2 / spec.mu ** 2 * (
            spec.k * math.log(spec.T / spec.k) + spec.k + 8.0 * math.log(spec.K))
    if isinstance(spec, ConstantTrackingBound):
        kap = spec.kappa
        if kap < 1.0:
            raise ValueError("condition number must be >= 1")
        return 4.0 * spec.D0 ** 2 * (2.0 + kap) * (
            2.0 * (2.0 * kap ** 2 + 1.0) * (2.0 + kap) * math.log(spec.K)
            + (2.0 * kap + 1.0) * kap * spec.k + 1.0)
    if isinstance(spec, AdversarialLowerBound):
        return spec.D ** 2 * spec.T / 16.0
    raise TypeError(f"unknown bound spec {spec!r}")


@dataclass(frozen=True)
class BoundCheck:
    holds: bool
    measured: float
    bound: float


def bound_check(traj: Trajectory, spec, which: str = "tracking",
                mu: Optional[float] = None, comparators=None) -> BoundCheck:
    """Compare a measured quantity against a bound spec's closed-form value.

    ``which`` selects the tracking error or the dynamic regret (against
    the recorded solutions unless comparators are given). Upper-bound
    kinds hold when measured <= bound; lower-bound kinds when
    measured >= bound.
    """
    if which == "tracking":
        measured = tracking_error(traj)
    elif which == "regret":
        if comparators is None:
            comparators = traj.solutions
        if comparators is None:
            raise ValueError("regret check needs comparators or solutions")
        if mu is None:
            mu = getattr(spec, "mu", 0.0)
        measured = dynamic_regret(traj, comparators, mu)
    else:
        raise ValueError(f"unknown measurement {which!r}")
    bound = theoretical_bound(spec)
    if isinstance(spec, LOWER_BOUND_KINDS):
        holds = measured >= bound - _CHECK_TOL
    else:
        holds = measured <= bound + _CHECK_TOL
    return BoundCheck(holds=holds, measured=measured, bound=bound)
