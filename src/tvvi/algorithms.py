"""Single-iterate contractive solvers, the cyclic forward-backward base
learner, and the two expert-aggregation meta-algorithms.

The online protocol throughout is: play first, observe second. Each
algorithm spec's ``start(z1, domain)`` returns a learner with
``play(t) -> z`` and ``observe(t, op) -> g``. The meta
algorithms differ in feedback economy: the fixed-rate variant touches
the true operator once per round and propagates an affine surrogate to
its base learners, while the adaptive variant feeds every base learner
the true operator (one evaluation per base, plus the observation at the
played point).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (ConfigurationError, Domain, Operator, ProblemSequence,
                   as_point, evaluate, project)

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

    def at(self, s: int) -> float:
        if self.kind == "constant":
            return self.value
        return 1.0 / (self.value * s)


def forward_step(op: Operator, domain: Domain, z, eta: float) -> np.ndarray:
    """Projected forward step: project(z - eta * F(z))."""
    if eta <= 0:
        raise ValueError("eta must be positive")
    z = as_point(z)
    return project(domain, z - eta * evaluate(op, z))


def resolvent_step(op: Operator, z) -> np.ndarray:
    """Solve z' + F(z') = z for affine F(x) = Ax + b.

    Requires I + A invertible (always true for strongly monotone affine
    F). The returned point satisfies the residual to 1e-10.
    """
    if op.affine is None:
        raise ConfigurationError("resolvent_step requires an affine operator")
    A, b = op.affine
    z = as_point(z)
    try:
        out = np.linalg.solve(np.eye(op.dim) + A, z - b)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError("I + A is singular") from exc
    residual = np.linalg.norm(out + (A @ out + b) - z)
    if residual > 1e-10:
        raise np.linalg.LinAlgError(f"resolvent residual {residual:.2e} too large")
    return out


class CyclicFBLearner:
    """The cyclic forward-backward learner with period i.

    One independent iterate per assumed phase, updated round-robin.
    ``literal_indexing`` selects the phase as (t mod i) + 1 instead of
    the default ((t-1) mod i) + 1 that makes round 1 touch slot 1.
    """

    def __init__(self, period: int, z1, schedule: StepSchedule, domain: Domain,
                 literal_indexing: bool = False):
        if period < 1:
            raise ValueError("period must be >= 1")
        z1 = as_point(z1)
        self.period = period
        self.slots = [z1.copy() for _ in range(period)]
        self.slot_steps = [0] * period          # per-slot update counts
        self.schedule = schedule
        self.domain = domain
        self.literal_indexing = literal_indexing

    def slot_index(self, t: int) -> int:
        if self.literal_indexing:
            return t % self.period
        return (t - 1) % self.period

    def play(self, t: int) -> np.ndarray:
        return self.slots[self.slot_index(t)]

    def observe(self, t: int, op) -> np.ndarray:
        """Step the slot played at round t with ``op``, the true operator
        or a surrogate (any callable z -> F(z)); returns F at the play."""
        n = self.slot_index(t)
        z = self.slots[n]
        s = self.slot_steps[n] + 1
        g = op(z)
        self.slots[n] = project(self.domain, z - self.schedule.at(s) * g)
        self.slot_steps[n] = s
        return g


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
    return float(-(m + np.log(np.sum(p * np.exp(a - m)))) / lam)


def _argmin_weights(cum_loss: np.ndarray) -> np.ndarray:
    mins = cum_loss <= cum_loss.min() + ARGMIN_TOL
    return mins / mins.sum()


def fixed_learning_rate(mu: float, D: float, G: float) -> float:
    """The exp-concavity learning rate 1 / (4 mu (D + G/mu)^2)."""
    return 1.0 / (4.0 * mu * (D + G / mu) ** 2)


def _losses(g: np.ndarray, base_plays: list, play: np.ndarray, mu: float) -> np.ndarray:
    return np.array([float(np.dot(g, zi)) + 0.5 * mu * float(np.dot(zi - play, zi - play))
                     for zi in base_plays])


def _memoized(op: Operator):
    """``op`` evaluated once per distinct point."""
    cache: dict = {}

    def f(z: np.ndarray) -> np.ndarray:
        key = z.tobytes()
        if key not in cache:
            cache[key] = evaluate(op, z)
        return cache[key]

    return f


class MetaLearner:
    """Exponentially weighted aggregation of K cyclic learners with
    periods 1..K, started at ``z1`` with a shared step schedule.

    Plays the weighted combination of the base plays, observes the
    operator at the played point and scores every base with the
    inner-product loss. The two meta-algorithms differ only in how
    observe updates. With a fixed rate ``lam`` the bases get the affine
    surrogate built from that one evaluation (Zhang, Lu & Zhou 2018), so
    the true operator is touched once per round. Otherwise (``lam`` is
    None) the bases get the true operator, one evaluation per distinct
    point, and the rate is tuned: effectively infinite (uniform weights
    over the argmin set of cumulative loss) until T0, the first round
    whose mix loss drops below the played loss, and lambda_t =
    log K / cum_gap afterwards.
    """

    def __init__(self, K: int, z1, schedule: StepSchedule, domain: Domain,
                 mu: float, lam: Optional[float] = None):
        self.bases = [CyclicFBLearner(i, z1, schedule, domain)
                      for i in range(1, K + 1)]
        self.mu = mu
        self.lam = lam
        self.weights = np.full(K, 1.0 / K)      # p_t for the current round
        self.cum_loss = np.zeros(K)
        self.cum_gap = 0.0                      # sum of (lbar_s - m_s)_+ from T0 on
        self.t0_passed = False

    def play(self, t: int) -> np.ndarray:
        self.base_plays = [b.play(t) for b in self.bases]
        self.z = np.sum([p * z for p, z in zip(self.weights, self.base_plays)],
                        axis=0)
        return self.z

    def observe(self, t: int, op: Operator) -> np.ndarray:
        f = _memoized(op)
        g = f(self.z)
        losses = _losses(g, self.base_plays, self.z, self.mu)
        self.cum_loss = self.cum_loss + losses
        if self.lam is not None:
            self.weights = exp_weights(self.cum_loss, self.lam)
            f = make_surrogate(g, self.z, self.mu)
        else:
            self._tune(g, losses)
        for b in self.bases:
            b.observe(t, f)
        return g

    def _tune(self, g: np.ndarray, losses: np.ndarray) -> None:
        K = len(self.bases)
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
            raise ConfigurationError("resolvent requires an unbounded domain")
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
            raise ConfigurationError("meta_step_fixed requires a bounded domain")
        if self.D is None or self.G is None:
            raise ConfigurationError("meta_step_fixed requires D and G")
        return MetaLearner(self.K, z1, StepSchedule.inverse_mu_t(self.mu), domain,
                           self.mu, lam=fixed_learning_rate(self.mu, self.D, self.G))


@dataclass(frozen=True)
class MetaAdaptive:
    K: int
    mu: float
    lip: float

    def start(self, z1, domain: Domain) -> MetaLearner:
        if self.lip is None or self.lip <= 0:
            raise ConfigurationError("meta_step_adaptive requires a Lipschitz constant")
        return MetaLearner(self.K, z1, StepSchedule.constant(1.0 / self.lip),
                           domain, self.mu)


@dataclass
class Trajectory:
    """Record of one online run: plays, observed operator values, and
    the solutions/weights/base plays when available."""

    plays: list
    op_values: list
    solutions: Optional[list] = None
    per_base_plays: Optional[list] = None    # K lists, one per base learner
    weights: Optional[list] = None           # per round, length-K vector
    diverged_at: Optional[int] = None        # 1-based round, None if bounded

    @property
    def horizon(self) -> int:
        return len(self.plays)

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
    finite.
    """
    if T < 1:
        raise ValueError("T must be >= 1")
    if not hasattr(algo, "start"):
        raise ConfigurationError(f"unknown algorithm spec {algo!r}")
    learner = algo.start(as_point(z1), domain)

    plays, op_values, solutions = [], [], []
    weights_hist, base_hist = [], []
    # an adaptive sequence (no ``at``) names the solution in each response
    have_solutions = seq.at is None or seq.solution_at is not None
    is_meta = hasattr(learner, "bases")     # also record weights and base plays
    diverged_at = None

    for t in range(1, T + 1):
        play = learner.play(t)
        if not np.all(np.isfinite(play)) or \
                np.linalg.norm(play) > divergence_threshold:
            plays.append(play)
            diverged_at = t
            break
        if is_meta:
            round_weights, round_bases = learner.weights, learner.base_plays

        z_star, op = seq.respond(t, play)
        try:
            g = learner.observe(t, op)
        except FloatingPointError:
            plays.append(play)
            diverged_at = t
            break

        plays.append(play)
        op_values.append(g)
        if have_solutions:
            solutions.append(as_point(z_star))
        if is_meta:
            weights_hist.append(round_weights)
            base_hist.append(round_bases)

    return Trajectory(
        plays=plays,
        op_values=op_values,
        solutions=solutions if have_solutions else None,
        per_base_plays=[list(per_base) for per_base in zip(*base_hist)]
        if base_hist else None,
        weights=weights_hist if is_meta else None,
        diverged_at=diverged_at,
    )
