"""Single-iterate contractive solvers, the cyclic forward-backward base
learners, and the two expert-aggregation meta-algorithms.

The online protocol throughout is: play first, observe second. Each
algorithm spec's ``start(z1, domain)`` checks its constants and the
start's width against the domain, once, and returns a learner with
``play(t) -> z`` and ``observe(t, op) -> g``, which updates it in place.
Cyclic learners live in one slot bank (``CyclicFBLearner``): a round
gathers every base's active slot, steps the block once and scatters it
back, at rows and step sizes that ``core._round_blocks`` schedules once
per aligned block of ``ROUND_BLOCK`` rounds. The
meta-algorithms (``MetaLearner``) drive a bank of periods 1..K and keep
their losses and weights in arrays updated in place. Every forward
step is ``core._forward``.

``run_tracker`` drives a learner for T rounds and returns a
``Trajectory``. It enters the run's one floating-point policy,
``core._run_policy``, around the learner's start and all rounds: the
divergence threshold, the NaN test of each evaluation and the
resolvent's residual check decide what a nonfinite value means, and no
round enters a context of its own. What a learner reads of the policy it
reads once, at its start (the resolvent learner picks its solve there).
The constant matrices of a round, the identity of a resolvent step and
mu I of a fixed-rate surrogate, are built once per size and read-only.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

try:
    # the gufunc np.linalg.solve wraps: the same dgesv call without the
    # wrapper's per-call checks
    from numpy.linalg._umath_linalg import solve1 as _solve1
except ImportError:     # a numpy that moves it: np.linalg.solve makes that call
    _solve1 = None

from .core import (ConfigurationError, Domain, Operator, ProblemSequence, _divergence_limit,
                   _forward, _round_blocks, _run_policy, as_point, evaluate, row_norms)

ARGMIN_TOL = 1e-12      # the pre-warmup argmin set's tolerance
T0_TOL = 1e-12


@dataclass(frozen=True)
class StepSchedule:
    """Step-size schedule: constant eta, or eta_s = 1 / (mu * s)."""

    kind: str                 # "constant" | "inverse_mu_t"
    value: float

    @staticmethod
    def constant(eta: float) -> "StepSchedule":
        if not eta > 0:     # NaN fails too
            raise ValueError("eta must be positive")
        return StepSchedule("constant", float(eta))

    @staticmethod
    def inverse_mu_t(mu: float) -> "StepSchedule":
        if not mu > 0:
            raise ValueError("mu must be positive")
        return StepSchedule("inverse_mu_t", float(mu))

    def at(self, s):
        """The step size of update s (an int or an array of them)."""
        if self.kind == "constant":
            return self.value
        return 1.0 / (self.value * s)


@functools.cache
def _identity(d: int) -> np.ndarray:
    """The d x d identity, built once per d and read-only."""
    eye = np.eye(d)
    eye.flags.writeable = False
    return eye


def _checked_solve(M: np.ndarray, v: np.ndarray) -> np.ndarray:
    """x with M x = v by ``np.linalg.solve``: a singular M raises
    ``LinAlgError("I + A is singular")``, with no warning."""
    try:
        return np.linalg.solve(M, v)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError("I + A is singular") from exc


def _quiet_solve(M: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The dgesv call alone: a singular M gives NaN, quietly where invalid
    values are ignored."""
    return _solve1(M, v, signature="dd->d")


def _policy_solve():
    """The resolvent's solve under the current floating-point policy: the
    quiet dgesv call where invalid values are already ignored (as under
    ``run_tracker``'s policy), else ``_checked_solve``."""
    if _solve1 is not None and np.geterr()["invalid"] == "ignore":
        return _quiet_solve
    return _checked_solve


def resolvent_step(op: Operator, z, solve=None) -> np.ndarray:
    """Solve z' + F(z') = z for affine F(x) = Ax + b, to a residual of
    1e-10, by ``np.linalg.solve``'s own dgesv call (so with its bits).

    Requires I + A invertible (always true for strongly monotone affine
    F); a singular I + A raises ``LinAlgError("I + A is singular")``.
    ``solve`` is the call ``_policy_solve()`` picks, by default at each
    call (the ``Resolvent`` learner picks it once, at its start). Where
    invalid values are ignored, as under ``run_tracker``'s policy, a
    singular I + A solves to NaN quietly, the residual check rejects it,
    and only then the checked solve, ``np.linalg.solve``, names it.
    """
    if op.affine is None:
        raise ConfigurationError("field 'algorithm.kind': resolvent needs affine operators")
    A, b = op.affine
    z = as_point(z)
    M, v = _identity(op.dim) + A, z - b
    out = (solve or _policy_solve())(M, v)
    r = out + (A @ out + b) - z
    residual = math.sqrt(r.dot(r))      # np.linalg.norm's arithmetic
    if not residual <= 1e-10:           # NaN fails too
        _checked_solve(M, v)            # a singular I + A raises here
        raise np.linalg.LinAlgError(f"resolvent residual {residual:.2e} too large")
    return out


def _start_point(z1, domain: Domain) -> np.ndarray:
    """The start as a point, its width checked once against the domain's."""
    z1 = as_point(z1)
    if z1.size != domain.dim:
        raise ValueError(f"dimension mismatch: start {z1.size}, domain {domain.dim}")
    return z1


class CyclicFBLearner:
    """A bank of cyclic forward-backward learners, one per entry of
    ``periods``, with all their slots in one flat ``(sum(periods), d)``
    array; ``CyclicFB`` plays a bank of one period.

    The learner with period i keeps one iterate (slot) per assumed phase
    and updates them round-robin, phase ((t-1) mod i) + 1 at round t:
    base b owns rows ``offsets[b]`` to ``offsets[b] + periods[b] - 1`` of
    ``slots``. Round t's rows are ``slot_index(t)``; ``step(t, Z, G)``
    moves their ``(K, d)`` block by one projected forward step, each row
    at its own slot's step size, and scatters it back. Rounds run 1, 2,
    ... with one step each, so one ``np.divmod`` gives the rows and the
    update counts ``(t - 1) // periods + 1`` of a block of rounds, and the
    bank keeps the rows and the step sizes at those counts.
    """

    def __init__(self, periods, z1, schedule: StepSchedule, domain: Domain):
        periods = self.periods = np.atleast_1d(np.asarray(periods, dtype=np.int64))
        if periods.size == 0 or np.any(periods < 1):
            raise ValueError("period must be >= 1")
        offsets = self.offsets = np.cumsum(periods) - periods
        self.slots = np.tile(_start_point(z1, domain), (int(periods.sum()), 1))
        self.schedule, self.domain, d = schedule, domain, self.slots.shape[1]

        def block(rounds: range) -> tuple:     # not of self: the bank holds no cycle
            q, r = np.divmod(np.arange(rounds[0] - 1, rounds[-1])[:, None], periods)
            rows = offsets + r
            rows.flags.writeable = False
            eta = np.broadcast_to(schedule.at(q[..., None] + 1), q.shape + (1,))
            return rows, rows[..., None] * d + np.arange(d), eta

        self._round = _round_blocks(block)      # round t's rows, flat cells, step sizes

    def slot_index(self, t: int) -> np.ndarray:
        """The row in ``slots`` of each base's slot at round t."""
        return self._round(t)[0]

    def step(self, t: int, Z: np.ndarray, G: np.ndarray) -> None:
        """Update round t's active slots ``Z`` with feedback ``G``, row
        by row: project(z - eta_s g) with s the slot's update count."""
        _, cells, eta = self._round(t)
        self.slots.put(cells, _forward(self.domain, Z, eta, G))

    def play(self, t: int) -> np.ndarray:
        """The first base's active slot: a one-period bank's play."""
        self.active_slots = self.slots.take(self.slot_index(t), 0)     # a copy: (K, d)
        return self.active_slots[0]

    def observe(self, t: int, op: Operator) -> np.ndarray:
        """Step ``play(t)``'s slots by ``op`` in one block call; F at the play."""
        G = evaluate(op, self.active_slots)
        self.step(t, self.active_slots, G)
        return G[0]


def _distinct_rows(P: np.ndarray) -> tuple:
    """The byte-distinct rows of ``P`` in first-seen order, and for each
    row of ``P`` its index among them. Rows compare as int64 words, so
    0.0 and -0.0 are distinct and a NaN matches only its own bytes."""
    W = P.T.copy().view(np.int64)       # (d, n): each coordinate contiguous
    same = np.logical_and.reduce(W[:, :, None] == W[:, None, :], axis=0)
    first_of = same.argmax(axis=1)      # each row's first occurrence
    first = first_of == np.arange(len(P))
    # a first occurrence's index among them: the running count of them, less one
    return P.take(first.nonzero()[0], 0), (np.add.accumulate(first) - 1)[first_of]


def _evaluate_distinct(op: Operator, z: np.ndarray, Z: np.ndarray) -> tuple:
    """F at the play ``z`` and at every row of ``Z`` from one block call
    on the distinct points, in first-seen order, each counted once."""
    pts, rows = _distinct_rows(np.concatenate([z[None], Z]))
    F = evaluate(op, pts).take(rows, 0)
    return F[0], F[1:]


@functools.lru_cache(maxsize=16)
def _scaled_identity(d: int, mu: float) -> np.ndarray:
    """mu times the d x d identity, built once per (d, mu) and read-only."""
    A = mu * _identity(d)
    A.flags.writeable = False
    return A


def make_surrogate(g, z_t, mu: float) -> Operator:
    """Affine surrogate z -> g + mu (z - z_t) built from one evaluation."""
    if mu <= 0:
        raise ValueError("mu must be positive")
    g, z_t = as_point(g), as_point(z_t)
    return Operator.from_affine(_scaled_identity(g.size, mu), g - mu * z_t, mu=mu, lip=mu)


# ndarray.sum/max/min wrap these same ufunc reductions; x * -lam is -lam * x.

def exp_weights(cum_loss: np.ndarray, lam: float, out=None) -> np.ndarray:
    """Normalized exponential weights via max-subtraction, into ``out``."""
    a = np.multiply(cum_loss, -lam, out=out, dtype=float)
    a -= np.maximum.reduce(a, axis=None)
    np.exp(a, out=a)
    a /= np.add.reduce(a, axis=None)
    return a


def mix_loss(p: np.ndarray, losses: np.ndarray, lam: float) -> float:
    """Logarithmic mix loss -(1/lam) log sum_i p_i exp(-lam l_i)."""
    if not math.isfinite(lam):
        return float(np.minimum.reduce(losses[p > 0], axis=None))
    a = np.multiply(losses, -lam, dtype=float)
    m = np.maximum.reduce(a, axis=None)
    a = np.exp(a - m)
    a *= p
    return float(-(m + np.log(np.add.reduce(a, axis=None))) / lam)


def _argmin_weights(cum_loss: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Uniform weights over the losses within ARGMIN_TOL of the least, into ``out``."""
    mins = cum_loss <= np.minimum.reduce(cum_loss, axis=None) + ARGMIN_TOL
    return np.divide(mins, np.add.reduce(mins, axis=None), out=out)


def fixed_learning_rate(mu: float, D: float, G: float) -> float:
    """The exp-concavity learning rate 1 / (4 mu (D + G/mu)^2): 0 below
    the least float, inf where its denominator rounds to 0."""
    x = D + G / mu
    try:
        return 1.0 / (4.0 * mu * x ** 2)
    except OverflowError:           # x^2 alone passes the largest float
        return 1.0 / (4.0 * mu * x) / x
    except ZeroDivisionError:
        return math.inf


def _losses(g: np.ndarray, Z: np.ndarray, play: np.ndarray, half_mu: float) -> np.ndarray:
    """Each base's loss <g, z_i> + (mu/2)||z_i - play||^2, one row of Z
    per base, with half_mu = mu / 2."""
    D = Z - play
    D *= D
    return Z @ g + half_mu * np.add.reduce(D, axis=-1)


class MetaLearner:
    """Exponentially weighted aggregation of K cyclic learners with
    periods 1..K, started at ``z1`` with a shared step schedule.

    The K bases are one ``CyclicFBLearner`` bank. Each round plays the
    weighted combination of the active slots (``base_plays``, the
    round's own copy), observes the operator at the played point, scores
    every base with the inner-product loss, updates ``cum_loss`` and
    ``weights`` in place and steps all active slots as one block. With a
    fixed rate ``lam`` the bases get the affine surrogate built from that
    one evaluation (Zhang, Lu & Zhou 2018). Otherwise (``lam`` is None)
    they get the true operator, evaluated in one block call once per
    distinct point, and the rate is tuned: effectively infinite (uniform
    weights over the argmin set of cumulative loss) until T0, the first
    round whose mix loss drops below the played loss, then log K / cum_gap.
    """

    def __init__(self, K: int, z1, schedule: StepSchedule, domain: Domain,
                 mu: float, lam: Optional[float] = None):
        self.bank = CyclicFBLearner(np.arange(1, K + 1), z1, schedule, domain)
        self.mu, self.half_mu, self.lam = mu, 0.5 * mu, lam
        self.log_k = math.log(K)
        self.weights = np.full(K, 1.0 / K)      # p_t for the current round
        self.cum_loss = np.zeros(K)
        self.cum_gap = 0.0                      # sum of (lbar_s - m_s)_+ from T0 on
        self.t0_passed = False

    def play(self, t: int) -> np.ndarray:
        self.base_plays = self.bank.slots.take(self.bank.slot_index(t), 0)  # (K, d)
        # not w @ Z, which rounds differently
        self.z = np.add.reduce(self.weights[:, None] * self.base_plays, axis=0)
        return self.z

    def observe(self, t: int, op: Operator) -> np.ndarray:
        Z, z = self.base_plays, self.z
        if self.lam is not None:
            g = evaluate(op, z)
            G = make_surrogate(g, z, self.mu).fn(Z)
        else:
            g, G = _evaluate_distinct(op, z, Z)
        losses = _losses(g, Z, z, self.half_mu)
        self.cum_loss += losses
        if self.lam is not None:
            exp_weights(self.cum_loss, self.lam, out=self.weights)
        else:
            self._tune(g, losses)
        self.bank.step(t, Z, G)
        return g

    def _tune(self, g: np.ndarray, losses: np.ndarray) -> None:
        lbar = float(g.dot(self.z))
        lam_t = self.log_k / self.cum_gap if self.t0_passed else math.inf
        m_t = mix_loss(self.weights, losses, lam_t)
        if not self.t0_passed and len(losses) > 1 and lbar > m_t + T0_TOL:
            self.t0_passed = True                   # this round is T0
        if self.t0_passed:
            self.cum_gap += max(lbar - m_t, 0.0)
            exp_weights(self.cum_loss, self.log_k / self.cum_gap, out=self.weights)
        else:
            _argmin_weights(self.cum_loss, out=self.weights)


class _SingleIterate:
    """One iterate z: play z, evaluate the operator there, then move z
    by ``update(op, z, g)``."""

    def __init__(self, z1, update):
        self.z, self.update = z1, update

    def play(self, t: int) -> np.ndarray:
        return self.z

    def observe(self, t: int, op: Operator) -> np.ndarray:
        g = evaluate(op, self.z)
        self.z = self.update(op, self.z, g)
        return g


# ---------------------------------------------------------------------------
# Algorithm specs and the online protocol driver

@dataclass(frozen=True)
class ContractiveForward:
    eta: float

    def start(self, z1, domain: Domain) -> _SingleIterate:
        if not self.eta > 0:
            raise ValueError("eta must be positive")
        return _SingleIterate(_start_point(z1, domain),
                              lambda op, z, g: _forward(domain, z, self.eta, g))


@dataclass(frozen=True)
class Resolvent:
    """Exact resolvent steps; affine operators on unbounded domains only.
    The floating-point policy at ``start`` picks the solve of every round."""

    def start(self, z1, domain: Domain) -> _SingleIterate:
        if domain.bounded:      # z' + F(z') = z has no projection
            raise ConfigurationError("field 'algorithm.kind': resolvent needs an unbounded domain")
        solve = _policy_solve()
        return _SingleIterate(_start_point(z1, domain),
                              lambda op, z, g: resolvent_step(op, z, solve))


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
        lam = fixed_learning_rate(self.mu, self.D, self.G)
        if not 0.0 < lam < math.inf:
            raise ConfigurationError(
                f"field 'algorithm.mu': meta_fixed's learning rate 1 / (4 mu (D + G/mu)^2) "
                f"is {lam} at mu = {self.mu:g}, D = {self.D:g}, G = {self.G:g} "
                "(algorithm.mu, algorithm.d, algorithm.g)")
        return MetaLearner(self.K, z1, StepSchedule.inverse_mu_t(self.mu), domain,
                           self.mu, lam=lam)


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
    last one. ``op_values``, ``solutions`` (None when the sequence names
    none) and a meta-algorithm's ``weights`` ``(m, K)`` cover the m
    completed rounds (m = n, or n - 1 after a divergence).
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
    finite. Rounds write into arrays preallocated for T rounds.
    """
    if T < 1:
        raise ValueError("T must be >= 1")
    limit = _divergence_limit(divergence_threshold)
    if not hasattr(algo, "start"):
        raise ConfigurationError(f"unknown algorithm spec {algo!r}")
    z1 = as_point(z1)
    d = z1.size
    plays, op_values = np.empty((T, d)), np.empty((T, d))
    # an adaptive sequence (no ``at``) names the solution in each response
    have_solutions = seq.at is None or seq.solution_at is not None
    solutions = np.empty((T, d)) if have_solutions else None
    n, diverged_at = T, None            # rounds completed, divergence round

    # the threshold, not a warning, decides when the run stops; the
    # learner starts under the policy, so reads it once
    with _run_policy():
        learner = algo.start(z1, domain)
        is_meta = hasattr(learner, "weights")   # also record the weights
        weights = np.empty((T, len(learner.weights))) if is_meta else None
        for t in range(1, T + 1):
            i = t - 1
            plays[i] = play = learner.play(t)
            # np.linalg.norm's arithmetic; NaN and inf fail the comparison
            norm = math.sqrt(play.dot(play))
            if not norm <= limit and not row_norms(play) <= limit:
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
