"""Single-iterate contractive solvers, the cyclic forward-backward base
learner, and the two expert-aggregation meta-algorithms.

The online protocol throughout is: play first, observe second. The meta
algorithms differ in feedback economy: the fixed-rate variant touches
the true operator once per round and propagates an affine surrogate to
its base learners, while the adaptive variant feeds every base learner
the true operator (one evaluation per base, plus the observation at the
played point).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
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


@dataclass
class CyclicFBState:
    """State of the cyclic forward-backward learner with period i.

    One independent iterate per assumed phase, updated round-robin.
    ``literal_indexing`` selects the phase as (t mod i) + 1 instead of
    the default ((t-1) mod i) + 1 that makes round 1 touch slot 1.
    """

    period: int
    slots: list                      # i points
    slot_steps: list                 # per-slot update counts
    schedule: StepSchedule
    literal_indexing: bool = False

    @staticmethod
    def init(period: int, z1, schedule: StepSchedule,
             literal_indexing: bool = False) -> "CyclicFBState":
        if period < 1:
            raise ValueError("period must be >= 1")
        z1 = as_point(z1)
        return CyclicFBState(period=period,
                             slots=[z1.copy() for _ in range(period)],
                             slot_steps=[0] * period,
                             schedule=schedule,
                             literal_indexing=literal_indexing)

    def slot_index(self, t: int) -> int:
        if self.literal_indexing:
            return t % self.period
        return (t - 1) % self.period


def _cyclic_fb_step_g(state: CyclicFBState, domain: Domain, t: int,
                      oracle) -> tuple:
    """cyclic_fb_step that also returns the operator value at the play;
    ``oracle(z)`` gives F(z): an :class:`Operator` or a caching wrapper."""
    n = state.slot_index(t)
    s = state.slot_steps[n] + 1
    play = state.slots[n]
    eta = state.schedule.at(s)
    g = oracle(play)
    new_slot = project(domain, play - eta * g)
    slots = list(state.slots)
    steps = list(state.slot_steps)
    slots[n] = new_slot
    steps[n] = s
    return play, g, replace(state, slots=slots, slot_steps=steps)


def cyclic_fb_step(state: CyclicFBState, domain: Domain, t: int,
                   op_input: Operator) -> tuple:
    """Play the current slot, then update it with the supplied operator.

    ``op_input`` may be the true operator of round t or a surrogate.
    Returns (play, new_state).
    """
    play, _, new_state = _cyclic_fb_step_g(state, domain, t, op_input)
    return play, new_state


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


@dataclass
class MetaState:
    """State of the aggregation meta-algorithm over K base learners."""

    bases: list                       # K CyclicFBState, periods 1..K
    weights: np.ndarray               # p_t used for the current round
    cum_loss: np.ndarray
    lr_mode: str                      # "fixed" | "adaptive"
    lam: Optional[float] = None       # fixed learning rate
    cum_gap: float = 0.0              # sum of (lbar_s - m_s)_+ from T0 on
    t0_passed: bool = False
    t: int = 1                        # next round index
    last_losses: Optional[np.ndarray] = field(default=None, compare=False)

    @property
    def K(self) -> int:
        return len(self.bases)


def fixed_learning_rate(mu: float, D: float, G: float) -> float:
    """The exp-concavity learning rate 1 / (4 mu (D + G/mu)^2)."""
    return 1.0 / (4.0 * mu * (D + G / mu) ** 2)


def init_meta_fixed(K: int, z1, mu: float, D: float, G: float) -> MetaState:
    if D is None or G is None:
        raise ConfigurationError("meta_step_fixed requires D and G")
    bases = [CyclicFBState.init(i, z1, StepSchedule.inverse_mu_t(mu))
             for i in range(1, K + 1)]
    return MetaState(bases=bases, weights=np.full(K, 1.0 / K),
                     cum_loss=np.zeros(K), lr_mode="fixed",
                     lam=fixed_learning_rate(mu, D, G))


def init_meta_adaptive(K: int, z1, lip: float) -> MetaState:
    if lip is None or lip <= 0:
        raise ConfigurationError("meta_step_adaptive requires a Lipschitz constant")
    bases = [CyclicFBState.init(i, z1, StepSchedule.constant(1.0 / lip))
             for i in range(1, K + 1)]
    return MetaState(bases=bases, weights=np.full(K, 1.0 / K),
                     cum_loss=np.zeros(K), lr_mode="adaptive")


def _base_plays(state: MetaState) -> list:
    return [b.slots[b.slot_index(state.t)] for b in state.bases]


def _losses(g: np.ndarray, base_plays: list, play: np.ndarray, mu: float) -> np.ndarray:
    return np.array([float(np.dot(g, zi)) + 0.5 * mu * float(np.dot(zi - play, zi - play))
                     for zi in base_plays])


def meta_step_fixed(state: MetaState, domain: Domain, seq_op: Operator,
                    mu: float) -> tuple:
    """One round of the fixed-rate meta-algorithm.

    Plays the weighted combination of base plays, observes the operator
    once at the played point, scores every base with the inner-product
    loss, refreshes the exponential weights, and propagates the affine
    surrogate to all base learners.

    Returns (play, g, new_state).
    """
    t = state.t
    base_plays = _base_plays(state)
    play = np.sum([p * z for p, z in zip(state.weights, base_plays)], axis=0)
    g = evaluate(seq_op, play)                      # the round's single evaluation
    losses = _losses(g, base_plays, play, mu)
    cum_loss = state.cum_loss + losses
    weights = exp_weights(cum_loss, state.lam)
    surrogate = make_surrogate(g, play, mu)
    bases = [_cyclic_fb_step_g(b, domain, t, surrogate)[2] for b in state.bases]
    new_state = replace(state, bases=bases, weights=weights,
                        cum_loss=cum_loss, t=t + 1, last_losses=losses)
    return play, g, new_state


def meta_step_adaptive(state: MetaState, domain: Domain, seq_op: Operator,
                       mu: float) -> tuple:
    """One round of the adaptively-tuned meta-algorithm.

    Base learners receive the true operator (one evaluation per base,
    deduplicated when base plays coincide with the played point). The
    learning rate stays effectively infinite (uniform weights over the
    argmin set of cumulative loss) until the first round where the mix
    loss drops below the played loss; afterwards it follows
    lambda_t = log K / cum_gap.

    Returns (play, g, new_state).
    """
    t = state.t
    K = state.K
    base_plays = _base_plays(state)
    play = np.sum([p * z for p, z in zip(state.weights, base_plays)], axis=0)

    cache: dict = {}

    def f(z: np.ndarray) -> np.ndarray:
        key = z.tobytes()
        if key not in cache:
            cache[key] = evaluate(seq_op, z)
        return cache[key]

    g = f(play)
    losses = _losses(g, base_plays, play, mu)
    lbar = float(np.dot(g, play))

    if state.t0_passed:
        lam_t = math.log(K) / state.cum_gap
    else:
        lam_t = math.inf
    m_t = mix_loss(state.weights, losses, lam_t)

    cum_gap = state.cum_gap
    t0_passed = state.t0_passed
    if t0_passed:
        cum_gap += max(lbar - m_t, 0.0)
    elif K > 1 and lbar > m_t + T0_TOL:
        t0_passed = True                            # this round is T0
        cum_gap += max(lbar - m_t, 0.0)

    cum_loss = state.cum_loss + losses
    if t0_passed:
        weights = exp_weights(cum_loss, math.log(K) / cum_gap)
    else:
        weights = _argmin_weights(cum_loss)

    # bases update with the true operator at their own slot values
    bases = [_cyclic_fb_step_g(b, domain, t, f)[2] for b in state.bases]

    new_state = replace(state, bases=bases, weights=weights, cum_loss=cum_loss,
                        cum_gap=cum_gap, t0_passed=t0_passed, t=t + 1,
                        last_losses=losses)
    return play, g, new_state


# ---------------------------------------------------------------------------
# Online protocol driver

@dataclass(frozen=True)
class ContractiveForward:
    eta: float


@dataclass(frozen=True)
class Resolvent:
    """Exact resolvent steps; affine operators on unbounded domains only."""


@dataclass(frozen=True)
class CyclicFB:
    period: int
    schedule: StepSchedule


@dataclass(frozen=True)
class MetaFixed:
    K: int
    mu: float
    D: float
    G: float


@dataclass(frozen=True)
class MetaAdaptive:
    K: int
    mu: float
    lip: float


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

    The learner plays first and observes second; adaptive sequences see
    the play before emitting their operator. The run truncates with a
    divergence marker once a play exceeds the threshold in norm or
    stops being finite.
    """
    if T < 1:
        raise ValueError("T must be >= 1")
    z1 = as_point(z1)

    if isinstance(algo, MetaFixed):
        if not domain.bounded:
            raise ConfigurationError("meta_step_fixed requires a bounded domain")
        meta = init_meta_fixed(algo.K, z1, algo.mu, algo.D, algo.G)
    elif isinstance(algo, MetaAdaptive):
        meta = init_meta_adaptive(algo.K, z1, algo.lip)
    elif isinstance(algo, CyclicFB):
        fb = CyclicFBState.init(algo.period, z1, algo.schedule)
    elif isinstance(algo, Resolvent):
        if domain.bounded:
            # the resolvent step solves z' + F(z') = z without projecting
            raise ConfigurationError("resolvent requires an unbounded domain")
    elif not isinstance(algo, ContractiveForward):
        raise ConfigurationError(f"unknown algorithm spec {algo!r}")

    z = z1
    plays, op_values, solutions = [], [], []
    weights_hist, base_hist = [], []
    have_solutions = seq.adaptive or seq.solution_at is not None
    is_meta = isinstance(algo, (MetaFixed, MetaAdaptive))
    diverged_at = None

    for t in range(1, T + 1):
        if is_meta:
            round_weights = np.array(meta.weights)
            round_bases = _base_plays(meta)
            play = np.sum([p * b for p, b in zip(round_weights, round_bases)],
                          axis=0)
        elif isinstance(algo, CyclicFB):
            play = fb.slots[fb.slot_index(t)]
        else:
            play = z

        if not np.all(np.isfinite(play)) or \
                np.linalg.norm(play) > divergence_threshold:
            plays.append(play)
            diverged_at = t
            break

        if seq.adaptive:
            z_star, op = seq.respond(t, play)
        else:
            op = seq.operator(t)
            z_star = seq.solution_at(t) if seq.solution_at is not None else None

        try:
            if isinstance(algo, MetaFixed):
                play, g, meta = meta_step_fixed(meta, domain, op, algo.mu)
            elif isinstance(algo, MetaAdaptive):
                play, g, meta = meta_step_adaptive(meta, domain, op, algo.mu)
            elif isinstance(algo, CyclicFB):
                play, g, fb = _cyclic_fb_step_g(fb, domain, t, op)
            elif isinstance(algo, ContractiveForward):
                g = evaluate(op, play)
                z = project(domain, play - algo.eta * g)
            else:
                g = evaluate(op, play)
                z = resolvent_step(op, play)
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
        if is_meta and base_hist else None,
        weights=weights_hist if is_meta else None,
        diverged_at=diverged_at,
    )
