"""Single-iterate contractive solvers, the cyclic forward-backward base
learners, and the two expert-aggregation meta-algorithms.

The online protocol throughout is: play first, observe second. Each
algorithm spec's ``start(z1, domain)`` returns a learner with
``play(t) -> z`` and ``observe(t, op) -> g``.

Cyclic learners live in a slot bank (``CyclicFBLearner``): the slots of
every base in one flat ``(sum of periods, d)`` array, so a round of K
bases is one gather of the K active slots, one block forward step with
one projection, and one scatter back. ``CyclicFB`` runs a bank of one
period; the meta-algorithms run one bank of periods 1..K and differ in
feedback economy: the fixed-rate variant touches the true operator once
per round and hands the bases the affine surrogate built from that one
value, while the adaptive variant evaluates the true operator at the
distinct points among the play and the K active slots, in one block
call.

``run_tracker`` drives a learner for T rounds and returns a
``Trajectory`` of arrays: plays, operator values and solutions as
``(T, d)`` arrays, and for the meta-algorithms the weights as a
``(T, K)`` array, each preallocated for T rounds and sliced to the
rounds run.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (ConfigurationError, Domain, Operator, ProblemSequence,
                   _evaluate_block, as_point, evaluate, project,
                   rescale_overflowed_norms)

# Ties in the pre-warmup argmin weight rule are resolved uniformly over
# all losses within this tolerance of the minimum.
ARGMIN_TOL = 1e-12
T0_TOL = 1e-12


@dataclass(frozen=True)
class StepSchedule:
    """Step-size schedule: constant eta, or eta_s = 1 / (mu * s)."""

    kind: str                 # "constant" | "inverse_mu_t"
    value: float

    @staticmethod
    def constant(eta: float) -> "StepSchedule":
        if eta <= 0:
            raise ValueError("eta must be positive")
        return StepSchedule("constant", float(eta))

    @staticmethod
    def inverse_mu_t(mu: float) -> "StepSchedule":
        if mu <= 0:
            raise ValueError("mu must be positive")
        return StepSchedule("inverse_mu_t", float(mu))

    def at(self, s):
        """The step size of update s (an int or an array of them)."""
        if self.kind == "constant":
            return self.value
        return 1.0 / (self.value * s)


def forward_step(op: Operator, domain: Domain, z, eta: float) -> np.ndarray:
    """Projected forward step: project(z - eta * F(z))."""
    if eta <= 0:
        raise ValueError("eta must be positive")
    z = as_point(z)
    return project(domain, z - eta * evaluate(op, z))


@functools.cache
def _identity(d: int) -> np.ndarray:
    """The d x d identity, built once per d and read-only."""
    eye = np.eye(d)
    eye.flags.writeable = False
    return eye


def resolvent_step(op: Operator, z) -> np.ndarray:
    """Solve z' + F(z') = z for affine F(x) = Ax + b.

    Requires I + A invertible (always true for strongly monotone affine
    F). The returned point satisfies the residual to 1e-10.
    """
    if op.affine is None:
        raise ConfigurationError("field 'algorithm.kind': resolvent needs affine operators")
    A, b = op.affine
    z = as_point(z)
    try:
        out = np.linalg.solve(_identity(op.dim) + A, z - b)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError("I + A is singular") from exc
    r = out + (A @ out + b) - z
    residual = math.sqrt(r.dot(r))      # np.linalg.norm's arithmetic
    if residual > 1e-10:
        raise np.linalg.LinAlgError(f"resolvent residual {residual:.2e} too large")
    return out


class CyclicFBLearner:
    """A bank of cyclic forward-backward learners, one per entry of
    ``periods``, with all their slots in one flat ``(sum(periods), d)``
    array.

    The learner with period i keeps one independent iterate (slot) per
    assumed phase and updates them round-robin, phase ((t-1) mod i) + 1
    at round t, so round 1 touches slot 1: base b owns rows
    ``offsets[b]`` to ``offsets[b] + periods[b] - 1`` of ``slots``, and
    ``slot_steps`` counts each slot's updates. Every round touches one
    slot per base: ``slot_index(t)`` names the rows, ``slots[n]`` is the
    ``(K, d)`` block of active slots and ``step(n, Z, G)`` moves the
    block by one projected forward step, each row with its own slot's
    step size, and scatters it back. A bank of one period is the learner
    ``CyclicFB`` runs, with ``play`` and ``observe``; ``MetaLearner``
    drives a bank of periods 1..K.
    """

    def __init__(self, periods, z1, schedule: StepSchedule, domain: Domain):
        self.periods = np.atleast_1d(np.asarray(periods, dtype=np.int64))
        if self.periods.size == 0 or np.any(self.periods < 1):
            raise ValueError("period must be >= 1")
        self.offsets = np.cumsum(self.periods) - self.periods
        self.slots = np.tile(as_point(z1), (int(self.periods.sum()), 1))
        self.slot_steps = np.zeros(len(self.slots), dtype=np.int64)
        self.schedule = schedule
        self.domain = domain

    def slot_index(self, t: int) -> np.ndarray:
        """The row in ``slots`` of each base's slot at round t."""
        return self.offsets + (t - 1) % self.periods

    def step(self, n: np.ndarray, Z: np.ndarray, G: np.ndarray) -> None:
        """Update the active slots ``Z`` (rows ``n`` of ``slots``) with
        feedback ``G``, row by row: project(z - eta_s g) with s the
        slot's update count."""
        s = self.slot_steps[n] + 1
        self.slots[n] = project(self.domain, Z - self.schedule.at(s[:, None]) * G)
        self.slot_steps[n] = s

    def play(self, t: int) -> np.ndarray:
        """The first base's active slot: a one-period bank's play."""
        self.active = self.slot_index(t)
        self.active_slots = self.slots[self.active]     # a copy: (K, d)
        return self.active_slots[0]

    def observe(self, t: int, op: Operator) -> np.ndarray:
        """Step the slots ``play(t)`` made active with ``op`` evaluated
        there in one block call; returns F at the play."""
        G = _evaluate_finite(op, self.active_slots)
        self.step(self.active, self.active_slots, G)
        return G[0]


def _evaluate_finite(op: Operator, pts: np.ndarray) -> np.ndarray:
    """F at every row of ``pts`` in one block call; like ``evaluate``,
    a NaN marks an invalid operator/point pair."""
    out = _evaluate_block(op, pts)
    if np.isnan(out).any():
        raise FloatingPointError("operator returned NaN; invalid operator/point pair")
    return out


def _distinct_rows(P: np.ndarray) -> tuple:
    """The byte-distinct rows of ``P`` in first-seen order, and for each
    row of ``P`` its index among them. Rows compare as int64 words, so
    0.0 and -0.0 are distinct and a NaN matches only its own bytes."""
    W = P.T.copy().view(np.int64)       # (d, n): each coordinate contiguous
    same = np.logical_and.reduce(W[:, :, None] == W[:, None, :], axis=0)
    first = same.argmax(axis=1) == np.arange(len(P))        # first occurrences
    # each row matches exactly one first occurrence
    return P[first], same[:, first].argmax(axis=1)


def _evaluate_distinct(op: Operator, z: np.ndarray, Z: np.ndarray) -> tuple:
    """F at the play ``z`` and at every row of ``Z`` from one block call
    on the distinct points, in first-seen order, each counted once."""
    pts, rows = _distinct_rows(np.concatenate([z[None], Z]))
    F = _evaluate_finite(op, pts)[rows]
    return F[0], F[1:]


def make_surrogate(g, z_t, mu: float) -> Operator:
    """Affine surrogate z -> g + mu (z - z_t) built from one evaluation."""
    if mu <= 0:
        raise ValueError("mu must be positive")
    g = as_point(g)
    z_t = as_point(z_t)
    A = mu * np.eye(g.size)
    return Operator.from_affine(A, g - mu * z_t, mu=mu, lip=mu)


def exp_weights(cum_loss: np.ndarray, lam: float) -> np.ndarray:
    """Normalized exponential weights, computed via max-subtraction."""
    a = -lam * np.asarray(cum_loss, dtype=float)
    a -= a.max()
    w = np.exp(a)
    return w / w.sum()


def mix_loss(p: np.ndarray, losses: np.ndarray, lam: float) -> float:
    """Logarithmic mix loss -(1/lam) log sum_i p_i exp(-lam l_i)."""
    if not math.isfinite(lam):
        return float(np.min(losses[p > 0]))
    a = -lam * np.asarray(losses, dtype=float)
    m = a.max()
    return float(-(m + np.log((p * np.exp(a - m)).sum())) / lam)


def _argmin_weights(cum_loss: np.ndarray) -> np.ndarray:
    mins = cum_loss <= cum_loss.min() + ARGMIN_TOL
    return mins / mins.sum()


def fixed_learning_rate(mu: float, D: float, G: float) -> float:
    """The exp-concavity learning rate 1 / (4 mu (D + G/mu)^2)."""
    return 1.0 / (4.0 * mu * (D + G / mu) ** 2)


def _losses(g: np.ndarray, Z: np.ndarray, play: np.ndarray, mu: float) -> np.ndarray:
    """Each base's loss <g, z_i> + (mu/2)||z_i - play||^2, one row of Z
    per base."""
    D = Z - play
    return Z @ g + 0.5 * mu * (D * D).sum(axis=-1)


class MetaLearner:
    """Exponentially weighted aggregation of K cyclic learners with
    periods 1..K, started at ``z1`` with a shared step schedule.

    The K bases are one ``CyclicFBLearner`` bank. Each round plays the
    weighted combination of the active slots, observes the operator at
    the played point, scores every base with the inner-product loss and
    steps all active slots as one block. The two meta-algorithms differ
    only in the block's feedback. With a fixed rate ``lam`` the bases get
    the affine surrogate built from that one evaluation (Zhang, Lu & Zhou
    2018), so the true operator is touched once per round. Otherwise
    (``lam`` is None) the bases get the true operator, evaluated in one
    block call once per distinct point, and the rate is tuned:
    effectively infinite (uniform weights over the argmin set of
    cumulative loss) until T0, the first round whose mix loss drops below
    the played loss, and lambda_t = log K / cum_gap afterwards.
    """

    def __init__(self, K: int, z1, schedule: StepSchedule, domain: Domain,
                 mu: float, lam: Optional[float] = None):
        self.bank = CyclicFBLearner(np.arange(1, K + 1), z1, schedule, domain)
        self.mu = mu
        self.lam = lam
        self.weights = np.full(K, 1.0 / K)      # p_t for the current round
        self.cum_loss = np.zeros(K)
        self.cum_gap = 0.0                      # sum of (lbar_s - m_s)_+ from T0 on
        self.t0_passed = False

    def play(self, t: int) -> np.ndarray:
        self.active = self.bank.slot_index(t)
        self.base_plays = self.bank.slots[self.active]  # (K, d): one row per base
        self.z = (self.weights[:, None] * self.base_plays).sum(axis=0)
        return self.z

    def observe(self, t: int, op: Operator) -> np.ndarray:
        Z = self.base_plays
        if self.lam is not None:
            g = evaluate(op, self.z)
            G = make_surrogate(g, self.z, self.mu).fn(Z)
        else:
            g, G = _evaluate_distinct(op, self.z, Z)
        losses = _losses(g, Z, self.z, self.mu)
        self.cum_loss = self.cum_loss + losses
        if self.lam is not None:
            self.weights = exp_weights(self.cum_loss, self.lam)
        else:
            self._tune(g, losses)
        self.bank.step(self.active, Z, G)
        return g

    def _tune(self, g: np.ndarray, losses: np.ndarray) -> None:
        K = len(self.weights)
        lbar = float(np.dot(g, self.z))
        lam_t = math.log(K) / self.cum_gap if self.t0_passed else math.inf
        m_t = mix_loss(self.weights, losses, lam_t)
        if not self.t0_passed and K > 1 and lbar > m_t + T0_TOL:
            self.t0_passed = True                   # this round is T0
        if self.t0_passed:
            self.cum_gap += max(lbar - m_t, 0.0)
            self.weights = exp_weights(self.cum_loss, math.log(K) / self.cum_gap)
        else:
            self.weights = _argmin_weights(self.cum_loss)


class _SingleIterate:
    """One iterate z: play z, evaluate the operator there, then move z
    by ``update(op, z, g)``."""

    def __init__(self, z1, update):
        self.z = as_point(z1)
        self.update = update

    def play(self, t: int) -> np.ndarray:
        return self.z

    def observe(self, t: int, op: Operator) -> np.ndarray:
        g = evaluate(op, self.z)
        self.z = self.update(op, self.z, g)
        return g


# ---------------------------------------------------------------------------
# Online protocol driver

# Each algorithm spec checks its constants against the domain in
# ``start(z1, domain)`` and returns a learner with ``play(t) -> z`` and
# ``observe(t, op) -> g``, which updates the learner in place.

@dataclass(frozen=True)
class ContractiveForward:
    eta: float

    def start(self, z1, domain: Domain) -> _SingleIterate:
        return _SingleIterate(
            z1, lambda op, z, g: project(domain, z - self.eta * g))


@dataclass(frozen=True)
class Resolvent:
    """Exact resolvent steps; affine operators on unbounded domains only."""

    def start(self, z1, domain: Domain) -> _SingleIterate:
        if domain.bounded:
            # the resolvent step solves z' + F(z') = z without projecting
            raise ConfigurationError("field 'algorithm.kind': resolvent needs an unbounded domain")
        return _SingleIterate(z1, lambda op, z, g: resolvent_step(op, z))


@dataclass(frozen=True)
class CyclicFB:
    period: int
    schedule: StepSchedule

    def start(self, z1, domain: Domain) -> CyclicFBLearner:
        return CyclicFBLearner(self.period, z1, self.schedule, domain)


@dataclass(frozen=True)
class MetaFixed:
    K: int
    mu: float
    D: float
    G: float

    def start(self, z1, domain: Domain) -> MetaLearner:
        if not domain.bounded:
            raise ConfigurationError("field 'algorithm.kind': meta_fixed needs a bounded domain")
        if self.D is None or self.G is None:
            raise ConfigurationError("field 'algorithm.d': meta_fixed needs D and G "
                                     "(algorithm.d, algorithm.g)")
        return MetaLearner(self.K, z1, StepSchedule.inverse_mu_t(self.mu), domain,
                           self.mu, lam=fixed_learning_rate(self.mu, self.D, self.G))


@dataclass(frozen=True)
class MetaAdaptive:
    K: int
    mu: float
    lip: float

    def start(self, z1, domain: Domain) -> MetaLearner:
        if self.lip is None or self.lip <= 0:
            raise ConfigurationError("field 'algorithm.lip': meta_adaptive needs a "
                                     "positive Lipschitz constant")
        return MetaLearner(self.K, z1, StepSchedule.constant(1.0 / self.lip),
                           domain, self.mu)


@dataclass
class Trajectory:
    """Record of one online run, as arrays with one row per round.

    ``plays`` is ``(n, d)``: every round played, including a diverging
    last one. ``op_values`` and ``solutions`` are ``(m, d)`` over the m
    completed rounds (m = n, or n - 1 after a divergence); ``solutions``
    is None when the sequence names none. A meta-algorithm's run also
    has ``weights`` ``(m, K)``, the weights each round played with.
    """

    plays: np.ndarray
    op_values: np.ndarray
    solutions: Optional[np.ndarray] = None
    weights: Optional[np.ndarray] = None
    diverged_at: Optional[int] = None        # 1-based round, None if bounded

    @property
    def diverged(self) -> bool:
        return self.diverged_at is not None


def run_tracker(seq: ProblemSequence, algo, domain: Domain, z1, T: int,
                divergence_threshold: float = 1e6) -> Trajectory:
    """Run the online protocol for T rounds and record the trajectory.

    Each round the learner plays, the sequence responds to the play with
    the round's solution (None when unknown) and operator, and the
    learner observes that operator. The run truncates with a divergence
    marker once a play exceeds the threshold in norm or stops being
    finite. Every round writes into arrays preallocated for T rounds,
    which the trajectory returns sliced to the rounds run.
    """
    if T < 1:
        raise ValueError("T must be >= 1")
    if not hasattr(algo, "start"):
        raise ConfigurationError(f"unknown algorithm spec {algo!r}")
    z1 = as_point(z1)
    learner = algo.start(z1, domain)

    d = z1.size
    plays, op_values = np.empty((T, d)), np.empty((T, d))
    # an adaptive sequence (no ``at``) names the solution in each response
    have_solutions = seq.at is None or seq.solution_at is not None
    solutions = np.empty((T, d)) if have_solutions else None
    is_meta = hasattr(learner, "weights")   # also record the weights
    if is_meta:
        weights = np.empty((T, len(learner.weights)))
    # an infinite threshold still stops a play that is not finite
    limit = min(divergence_threshold, np.finfo(float).max)
    n, diverged_at = T, None            # rounds completed, divergence round

    # a play on its way to divergence may overflow: the threshold, not a
    # warning, decides when the run stops
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(1, T + 1):
            i = t - 1
            plays[i] = play = learner.play(t)
            # np.linalg.norm's arithmetic; NaN and inf fail the comparison
            norm = math.sqrt(play.dot(play))
            if not norm <= limit and not rescale_overflowed_norms(play, norm) <= limit:
                n, diverged_at = i, t
                break
            if is_meta:
                weights[i] = learner.weights

            z_star, op = seq.respond(t, play)
            try:
                op_values[i] = learner.observe(t, op)
            except FloatingPointError:
                n, diverged_at = i, t
                break
            if have_solutions:
                solutions[i] = z_star

    return Trajectory(
        plays=plays[:diverged_at or T],
        op_values=op_values[:n],
        solutions=solutions[:n] if have_solutions else None,
        weights=weights[:n] if is_meta else None,
        diverged_at=diverged_at,
    )
