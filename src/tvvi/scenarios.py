"""Catalog of concrete time-varying problem instances, plus the adaptive
lower-bound adversary.

Every builder returns a :class:`Scenario` bundling the operator
sequence, its domain, and the constants (mu, L, G, D, k) the algorithms
and bound evaluators need. Scenario operators carry their analytic
potentials where one exists so the verification suite can check
gradients against finite differences.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .core import (ConfigurationError, Domain, Operator, ProblemSequence,
                   as_point, check_lipschitz, check_strong_monotone, evaluate,
                   _evaluate_block, _sample_points)

# Upper envelope of the scalar curvature factor of u -> log(1 + e^{u^2/2});
# the true supremum is ~1.3008, so declared constants pass sampled checks.
EXP_SMOOTHNESS = 1.31

RSI_MU = 0.25


@dataclass
class Scenario:
    """A built problem instance with its constants and domain."""

    name: str
    seq: ProblemSequence
    domain: Domain
    mu: Optional[float] = None
    lip: Optional[float] = None
    gbound: Optional[float] = None
    period: Optional[int] = None
    params: dict = field(default_factory=dict)
    initial_solution: Optional[np.ndarray] = None   # adversary's Z*_0

    @property
    def diameter(self) -> Optional[float]:
        return self.domain.diameter

    def operators_one_period(self) -> list:
        k = self.period if self.period else 3
        return [self.seq.at(t) for t in range(1, k + 1)]


def _validate_params(name: str, params: dict, allowed: dict) -> dict:
    """Merge user params over defaults, rejecting unknown keys."""
    params = dict(params or {})
    for key in params:
        if key not in allowed:
            raise ConfigurationError(f"scenario {name!r}: unknown parameter {key!r}")
    merged = dict(allowed)
    merged.update(params)
    return merged


# ---------------------------------------------------------------------------
# Drifting quadratics (tightness construction and tame test instances)

def build_quadratic_drift(params: dict = None) -> Scenario:
    """Quadratic potentials (x - c_t)^T A (x - c_t) / 2 whose minimizers
    drift by -b * t^{-decay} per step; decay 0 is the arithmetic
    progression of the tightness construction.
    """
    p = _validate_params("quadratic_drift", params, {
        "dim": 1, "c1": 0.0, "b": 0.1, "decay": 0.0, "matrix": None,
    })
    dim = int(p["dim"])
    c1 = as_point(p["c1"]) if np.ndim(p["c1"]) else np.full(dim, float(p["c1"]))
    b = as_point(p["b"]) if np.ndim(p["b"]) else np.full(dim, float(p["b"]))
    if c1.size != dim or b.size != dim:
        raise ConfigurationError("quadratic_drift: c1/b dimension mismatch")
    decay = float(p["decay"])
    A = np.eye(dim) if p["matrix"] is None else np.atleast_2d(np.asarray(p["matrix"], float))
    if not np.allclose(A, A.T):
        raise ConfigurationError("quadratic_drift: matrix must be symmetric")
    eigs = np.linalg.eigvalsh(A)
    if eigs[0] <= 0:
        raise ConfigurationError("quadratic_drift: matrix must be positive definite")

    # cached prefix sums of the drift magnitudes s^{-decay}
    prefix = [0.0]

    def center(t: int) -> np.ndarray:
        while len(prefix) < t:
            s = len(prefix)
            prefix.append(prefix[-1] + s ** (-decay))
        return c1 - b * prefix[t - 1]

    def make_op(t: int) -> Operator:
        c = center(t)
        op = Operator.from_affine(A, -A @ c, mu=float(eigs[0]), lip=float(eigs[-1]),
                                  solution=c)
        op.potential = lambda x, c=c: 0.5 * float((x - c) @ (A @ (x - c)))
        return op

    seq = ProblemSequence(at=make_op, dim=dim, period=None, solution_at=center)
    return Scenario(name="quadratic_drift", seq=seq, domain=Domain.unbounded(dim),
                    mu=float(eigs[0]), lip=float(eigs[-1]), params=p)


def periodic_quadratic(centers, matrix=None, domain: Domain = None) -> Scenario:
    """k-periodic quadratics with minimizers cycling through ``centers``.

    A synthetic instance family used by the bound experiments; the
    centers must lie inside the domain so they remain the solutions.
    """
    centers = [as_point(c) for c in centers]
    dim = centers[0].size
    k = len(centers)
    A = np.eye(dim) if matrix is None else np.atleast_2d(np.asarray(matrix, float))
    eigs = np.linalg.eigvalsh(A)
    domain = domain or Domain.unbounded(dim)
    for c in centers:
        if not domain.contains(c):
            raise ConfigurationError("periodic_quadratic: centers must lie in the domain")

    def make_op(t: int) -> Operator:
        c = centers[(t - 1) % k]
        op = Operator.from_affine(A, -A @ c, mu=float(eigs[0]), lip=float(eigs[-1]),
                                  solution=c)
        op.potential = lambda x, c=c: 0.5 * float((x - c) @ (A @ (x - c)))
        return op

    seq = ProblemSequence(at=make_op, dim=dim, period=k,
                          solution_at=lambda t: centers[(t - 1) % k])
    gbound = None
    if domain.bounded:
        # sup over the domain of ||A (x - c)||, coarse box estimate
        corners = _box_corners(domain)
        gbound = max(float(np.linalg.norm(A @ (x - c)))
                     for x in corners for c in centers)
    return Scenario(name="periodic_quadratic", seq=seq, domain=domain,
                    mu=float(eigs[0]), lip=float(eigs[-1]), gbound=gbound, period=k)


def _box_corners(domain: Domain) -> list:
    if domain.kind not in ("box", "interval"):
        raise ConfigurationError("corner enumeration needs a box domain")
    dim = domain.dim
    corners = []
    for mask in range(2 ** dim):
        corners.append(np.array([domain.upper[i] if (mask >> i) & 1 else domain.lower[i]
                                 for i in range(dim)]))
    return corners


# ---------------------------------------------------------------------------
# The 1-D alternating quadratic pair (single-step tuning example)

def build_periodic_1d(params: dict = None) -> Scenario:
    """Alternating gradients 8x (odd rounds) and x (even rounds) with the
    constant solution 0."""
    _validate_params("periodic_1d", params, {})

    def make_op(t: int) -> Operator:
        a = 8.0 if t % 2 == 1 else 1.0
        op = Operator.from_affine([[a]], [0.0], mu=a, lip=a, solution=[0.0])
        op.potential = lambda x, a=a: 0.5 * a * float(x[0]) ** 2
        return op

    seq = ProblemSequence(at=make_op, dim=1, period=2,
                          solution_at=lambda t: np.zeros(1))
    return Scenario(name="periodic_1d", seq=seq, domain=Domain.unbounded(1),
                    mu=1.0, lip=8.0, period=2)


# ---------------------------------------------------------------------------
# Exponential-quadratic family (chaos and star instances)

def exp_quadratic_operator(A) -> Operator:
    """F(x) = sigma(x^T A x / 2) A x, the gradient of log(1 + e^{x^T A x / 2})."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    eigs = np.linalg.eigvalsh(A)
    if eigs[0] <= 0:
        raise ConfigurationError("exp_quadratic: matrices must be positive definite")
    dim = A.shape[0]

    def fn(X: np.ndarray) -> np.ndarray:
        AX = X @ A.T
        q = 0.5 * np.einsum("...i,...i->...", X, AX)      # q >= 0 for PD A
        return (1.0 / (1.0 + np.exp(-q)))[..., None] * AX

    op = Operator(fn=fn, dim=dim, mu=float(eigs[0]) / 2.0,
                  lip=EXP_SMOOTHNESS * float(eigs[-1]), solution=np.zeros(dim))
    op.potential = lambda x: float(np.logaddexp(0.0, 0.5 * float(x @ (A @ x))))
    return op


def build_exp_quadratic(params: dict = None) -> Scenario:
    p = _validate_params("exp_quadratic", params, {"matrices": [[[1.0]]]})
    mats = [np.atleast_2d(np.asarray(m, dtype=float)) for m in p["matrices"]]
    k = len(mats)
    dim = mats[0].shape[0]
    ops = [exp_quadratic_operator(m) for m in mats]

    seq = ProblemSequence(at=lambda t: ops[(t - 1) % k], dim=dim, period=k,
                          solution_at=lambda t: np.zeros(dim))
    return Scenario(name="exp_quadratic", seq=seq, domain=Domain.unbounded(dim),
                    mu=min(op.mu for op in ops), lip=max(op.lip for op in ops),
                    period=k, params=p)


def build_chaos_1d(params: dict = None) -> Scenario:
    """The 2-periodic scalar pair A = 0.25 (odd rounds) and A = 4."""
    _validate_params("chaos_1d", params, {})
    sc = build_exp_quadratic({"matrices": [[[0.25]], [[4.0]]]})
    sc.name = "chaos_1d"
    sc.params = {}
    return sc


def build_star_2d(params: dict = None) -> Scenario:
    """The 2-periodic planar pair with star-shaped limit sets."""
    _validate_params("star_2d", params, {})
    sc = build_exp_quadratic({"matrices": [[[0.75, 0.0], [0.0, 5.0]],
                                           [[5.0, 1.0], [1.0, 0.75]]]})
    sc.name = "star_2d"
    sc.params = {}
    return sc


# ---------------------------------------------------------------------------
# Repeated Kelly auction on a seasonal market

def kelly_utility(x: np.ndarray, i: int, values: np.ndarray, entry: float) -> float:
    """Bidder i's unregularized utility at the bid profile x."""
    share = x[i] / (entry + float(np.sum(x)))
    return float(values[i]) * share - float(x[i])


def build_kelly_auction(params: dict = None) -> Scenario:
    """n bidders on a good with sinusoidal seasonal price and values.

    The quadratic regularizer lam_reg makes the (monotone)
    pseudo-gradient strongly monotone with mu = lam_reg.
    """
    p = _validate_params("kelly_auction", params, {
        "n": 3, "budgets": None, "values": None, "entry": 1.0,
        "entry_amp": 0.5, "value_amp": 0.25, "period": 50,
        "lam_reg": 0.1, "G": None, "seed": 0,
    })
    n = int(p["n"])
    if n < 2:
        raise ConfigurationError("kelly_auction: n must be >= 2")
    budgets = as_point(p["budgets"]) if p["budgets"] is not None else np.ones(n)
    values0 = as_point(p["values"]) if p["values"] is not None else np.full(n, 2.0)
    if budgets.size != n or values0.size != n:
        raise ConfigurationError("kelly_auction: budgets/values must have length n")
    if not (0 <= p["entry_amp"] < 1):
        raise ConfigurationError("kelly_auction: entry_amp must be in [0, 1)")
    k = int(p["period"])
    lam = float(p["lam_reg"])
    if lam <= 0:
        raise ConfigurationError("kelly_auction: lam_reg must be positive")
    rng = np.random.default_rng(int(p["seed"]))
    phases = rng.uniform(0, 2 * math.pi, size=n)

    def market(t: int) -> tuple:
        entry = p["entry"] * (1.0 + p["entry_amp"] * math.sin(2 * math.pi * t / k))
        values = values0 * (1.0 + p["value_amp"] * np.sin(2 * math.pi * t / k + phases))
        return entry, values

    def make_op(t: int) -> Operator:
        entry, values = market(t)

        def fn(X: np.ndarray) -> np.ndarray:
            denom = entry + X.sum(axis=-1, keepdims=True)
            return 1.0 - values * (denom - X) / denom ** 2 + lam * X

        return Operator(fn=fn, dim=n, mu=lam)

    domain = Domain.box(np.zeros(n), budgets)
    v_max = float(np.max(values0)) * (1.0 + p["value_amp"])
    entry_min = p["entry"] * (1.0 - p["entry_amp"])
    # coarse sup-norm bound: |F_i| <= 1 + v_max/entry_min + lam * b_i
    gbound = p["G"] if p["G"] is not None else \
        math.sqrt(n) * (1.0 + v_max / entry_min + lam * float(np.max(budgets)))
    seq = ProblemSequence(at=make_op, dim=n, period=k)
    sc = Scenario(name="kelly_auction", seq=seq, domain=domain, mu=lam,
                  gbound=float(gbound), period=k, params=p)
    sc.params["_market"] = market
    return sc


# ---------------------------------------------------------------------------
# Streaming least squares

class _GaussianStream:
    """Deterministic growing data stream; rows are generated once and
    cached so access is pure in t."""

    def __init__(self, dim: int, noise: float, seed: int, w_star: np.ndarray):
        self.dim = dim
        self.noise = noise
        self.rng = np.random.default_rng(seed)
        self.w_star = w_star
        self.rows = np.empty((0, dim))
        self.targets = np.empty(0)

    def upto(self, n: int) -> tuple:
        while len(self.rows) < n:
            grow = max(n - len(self.rows), 64)
            a = self.rng.standard_normal((grow, self.dim))
            b = a @ self.w_star + self.noise * self.rng.standard_normal(grow)
            self.rows = np.vstack([self.rows, a])
            self.targets = np.concatenate([self.targets, b])
        return self.rows[:n], self.targets[:n]


def build_streaming_regression(params: dict = None) -> Scenario:
    """f_t(x) = ||A_t x - b_t||^2 + lam ||x||^2 over a growing i.i.d.
    Gaussian stream; n_t grows linearly in t."""
    p = _validate_params("streaming_regression", params, {
        "dim": 3, "n0": 5, "growth": 2, "noise": 0.1, "lam_reg": 1.0,
        "seed": 0, "w_star": None,
    })
    dim = int(p["dim"])
    lam = float(p["lam_reg"])
    if lam <= 0:
        raise ConfigurationError("streaming_regression: lam_reg must be positive")
    rng = np.random.default_rng(int(p["seed"]))
    w_star = as_point(p["w_star"]) if p["w_star"] is not None else rng.standard_normal(dim)
    stream = _GaussianStream(dim, float(p["noise"]), int(p["seed"]) + 1, w_star)

    def n_at(t: int) -> int:
        return int(p["n0"]) + int(p["growth"]) * (t - 1)

    def gram(t: int) -> tuple:
        A, b = stream.upto(n_at(t))
        return A.T @ A, A.T @ b, A, b

    def make_op(t: int) -> Operator:
        G, h, A, b = gram(t)
        M = 2.0 * (G + lam * np.eye(dim))
        eigs = np.linalg.eigvalsh(M)
        op = Operator.from_affine(M, -2.0 * h, mu=float(eigs[0]), lip=float(eigs[-1]))
        op.solution = np.linalg.solve(G + lam * np.eye(dim), h)
        op.potential = lambda x, A=A, b=b: float(np.sum((A @ x - b) ** 2)
                                                 + lam * np.dot(x, x))
        return op

    def solution_at(t: int) -> np.ndarray:
        G, h, _, _ = gram(t)
        return np.linalg.solve(G + lam * np.eye(dim), h)

    seq = ProblemSequence(at=make_op, dim=dim, solution_at=solution_at)
    return Scenario(name="streaming_regression", seq=seq,
                    domain=Domain.unbounded(dim), mu=2.0 * lam, params=p)


# ---------------------------------------------------------------------------
# Generalized linear model estimation

def _glm_links(scale: float) -> dict:
    """Link phi and its antiderivative psi, both elementwise on arrays.
    The logistic link is written as scale * (sigma(u) - 1/2) =
    (scale / 2) tanh(u / 2), which cannot overflow."""
    return {
        "identity": (lambda u: u, lambda u: 0.5 * u * u),
        "scaled_logistic": (lambda u: 0.5 * scale * np.tanh(0.5 * u),
                            lambda u: scale * (np.logaddexp(0.0, u) - 0.5 * u)),
    }


def build_glm(params: dict = None) -> Scenario:
    """Streaming GLM operator (1/n_t) sum_i a_i (phi(<Z, a_i>) - b_i),
    optionally regularized by lam_reg * Z."""
    p = _validate_params("glm", params, {
        "dim": 2, "n0": 20, "growth": 5, "link": "identity", "scale": 4.0,
        "lam_reg": 0.0, "noise": 0.1, "seed": 0, "z_star": None,
    })
    dim = int(p["dim"])
    lam = float(p["lam_reg"])
    links = _glm_links(float(p["scale"]))
    if p["link"] not in links:
        raise ConfigurationError(f"glm: unknown link {p['link']!r}")
    phi, psi = links[p["link"]]
    rng = np.random.default_rng(int(p["seed"]))
    z_star = as_point(p["z_star"]) if p["z_star"] is not None else rng.standard_normal(dim)

    stream = _GaussianStream(1, 1.0, int(p["seed"]) + 1, np.ones(1))
    feats = _GaussianStream(dim, 0.0, int(p["seed"]) + 2, np.zeros(dim))

    def data(t: int) -> tuple:
        n = int(p["n0"]) + int(p["growth"]) * (t - 1)
        A, _ = feats.upto(n)
        xi = stream.upto(n)[0][:, 0]        # one fixed noise draw per sample
        b = phi(A @ z_star) + float(p["noise"]) * xi
        return A, b

    def make_op(t: int) -> Operator:
        A, b = data(t)
        n = len(b)

        if p["link"] == "identity":
            M = A.T @ A / n + lam * np.eye(dim)
            eigs = np.linalg.eigvalsh(M)
            op = Operator.from_affine(M, -(A.T @ b) / n,
                                      mu=float(eigs[0]), lip=float(eigs[-1]))
        else:
            def fn(Z: np.ndarray) -> np.ndarray:
                return (phi(Z @ A.T) - b) @ A / n + lam * Z

            gram_top = float(np.linalg.eigvalsh(A.T @ A)[-1])
            op = Operator(fn=fn, dim=dim,
                          mu=lam if lam > 0 else None,
                          lip=float(p["scale"]) / 4.0 * gram_top / n + lam)
        op.potential = lambda z, A=A, b=b, n=n: (
            float(np.sum(psi(A @ z))) - float(b @ (A @ z))) / n \
            + 0.5 * lam * float(z @ z)
        return op

    seq = ProblemSequence(at=make_op, dim=dim)
    return Scenario(name="glm", seq=seq, domain=Domain.unbounded(dim),
                    mu=lam if lam > 0 else None, params=p)


# ---------------------------------------------------------------------------
# The restricted-secant-inequality zero-sum game

def rsi_loss(x: float, y: float, a: float) -> float:
    return (x * x + 3.0 * math.sin(x) ** 2
            + a * math.sin(x) ** 2 * math.sin(y) ** 2
            - y * y - 3.0 * math.sin(y) ** 2)


def rsi_operator(a: float) -> Operator:
    """Descent-ascent pseudo-gradient (d/dx loss, -d/dy loss).

    The game is not monotone, so no mu is declared; it satisfies the
    restricted secant inequality with constant 1/4 toward the saddle
    point at the origin.
    """

    def fn(Z: np.ndarray) -> np.ndarray:
        x, y = Z[..., 0], Z[..., 1]
        gx = 2.0 * x + np.sin(2.0 * x) * (3.0 + a * np.sin(y) ** 2)
        gy = -2.0 * y - np.sin(2.0 * y) * (3.0 - a * np.sin(x) ** 2)
        return np.stack([gx, -gy], axis=-1)

    return Operator(fn=fn, dim=2, solution=np.zeros(2))


def estimate_lipschitz(op: Operator, domain: Domain, lo: float = 0.1,
                       hi: float = 16.0, n_samples: int = 400, seed: int = 0,
                       tol: float = 0.01) -> float:
    """Smallest sampled Lipschitz constant, located by bisection.

    Pair sampling underestimates the true supremum; prefer a Jacobian
    grid bound when the derivatives are available.
    """
    if not check_lipschitz(op, hi, domain, n_samples, seed):
        raise ConfigurationError("estimate_lipschitz: upper bracket too small")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if check_lipschitz(op, mid, domain, n_samples, seed):
            hi = mid
        else:
            lo = mid
    return hi


def rsi_lipschitz(a: float, grid_n: int = 501) -> float:
    """Grid supremum of the pseudo-gradient's Jacobian spectral norm.

    All Jacobian entries are pi-periodic in both coordinates, so the
    grid over [0, pi]^2 captures the global supremum; the analytic
    envelope is |J| <= 2 + 2(3 + a) <= 10 plus unit off-diagonals.
    """
    u = np.linspace(0.0, math.pi, grid_n)
    x, y = np.meshgrid(u, u)
    j11 = 2.0 + 2.0 * np.cos(2 * x) * (3.0 + a * np.sin(y) ** 2)
    j12 = a * np.sin(2 * x) * np.sin(2 * y)
    j21 = -a * np.sin(2 * x) * np.sin(2 * y)
    j22 = 2.0 + 2.0 * np.cos(2 * y) * (3.0 - a * np.sin(x) ** 2)
    # largest singular value of [[j11, j12], [j21, j22]] via J^T J
    p = j11 ** 2 + j21 ** 2
    q = j12 ** 2 + j22 ** 2
    r = j11 * j12 + j21 * j22
    top = 0.5 * (p + q + np.sqrt((p - q) ** 2 + 4.0 * r ** 2))
    return float(np.sqrt(top.max())) * 1.005     # grid-resolution headroom


def build_rsi_game(params: dict = None) -> Scenario:
    """Time-varying coupling a_t in [0, 1] cycling through a fixed
    schedule; the saddle point stays at the origin."""
    p = _validate_params("rsi_game", params, {
        "a_values": (0.0, 0.5, 1.0, 0.5), "estimate_lip": True,
    })
    a_values = [float(a) for a in p["a_values"]]
    for a in a_values:
        if not 0.0 <= a <= 1.0:
            raise ConfigurationError("rsi_game: a_values must lie in [0, 1]")
    k = len(a_values)
    ops = [rsi_operator(a) for a in a_values]
    domain = Domain.unbounded(2)

    lip = None
    if p["estimate_lip"]:
        lip = max(rsi_lipschitz(a) for a in a_values)
        for op in ops:
            op.lip = lip

    seq = ProblemSequence(at=lambda t: ops[(t - 1) % k], dim=2, period=k,
                          solution_at=lambda t: np.zeros(2))
    return Scenario(name="rsi_game", seq=seq, domain=domain, mu=RSI_MU,
                    lip=lip, period=k, params=p)


# ---------------------------------------------------------------------------
# Lower-bound adversary

@dataclass
class AdversaryState:
    prev: float = 0.0      # Z*_{t-1}, initialized to Z*_0


def _adversary_positive(play: float, prev: float) -> float:
    if prev in (0.0, 1.0):
        return -1.0
    return 0.0 if play >= 0.5 else 1.0


def adversary_step(state: AdversaryState, play) -> tuple:
    """One adversary response: pick the new solution far from the play,
    then emit the quadratic operator x - Z*_t with that minimizer.

    Plays are clamped to [-1, 1] with a warning. Negative plays use the
    sign-mirrored case analysis. Returns (solution, operator).
    """
    play = float(as_point(play)[0])
    if not -1.0 <= play <= 1.0:
        warnings.warn("adversary play outside [-1, 1]; clamped")
        play = min(1.0, max(-1.0, play))
    if play >= 0:
        z_star = _adversary_positive(play, state.prev)
    else:
        z_star = -_adversary_positive(-play, state.prev)
    state.prev = z_star
    sol = np.array([z_star])
    op = Operator.from_affine([[1.0]], [-z_star], mu=1.0, lip=1.0, solution=sol)
    op.potential = lambda x: 0.5 * float(x[0] - z_star) ** 2
    return sol, op


def build_lower_bound_adversary(params: dict = None) -> Scenario:
    p = _validate_params("lower_bound_adversary", params, {"z0": 0.0})
    z0 = float(p["z0"])
    if z0 not in (-1.0, 0.0, 1.0):
        raise ConfigurationError("lower_bound_adversary: z0 must be in {-1, 0, 1}")
    state = AdversaryState(prev=z0)

    def respond(t: int, play) -> tuple:
        return adversary_step(state, play)

    seq = ProblemSequence(at=None, dim=1, adaptive=True, respond=respond)
    return Scenario(name="lower_bound_adversary", seq=seq,
                    domain=Domain.interval(-1.0, 1.0), mu=1.0, lip=1.0,
                    initial_solution=np.array([z0]), params=p)


# ---------------------------------------------------------------------------
# Catalog and verification

BUILDERS: dict = {
    "quadratic_drift": build_quadratic_drift,
    "periodic_1d": build_periodic_1d,
    "exp_quadratic": build_exp_quadratic,
    "chaos_1d": build_chaos_1d,
    "star_2d": build_star_2d,
    "kelly_auction": build_kelly_auction,
    "streaming_regression": build_streaming_regression,
    "glm": build_glm,
    "rsi_game": build_rsi_game,
    "lower_bound_adversary": build_lower_bound_adversary,
}


def build_scenario(name: str, params: dict = None) -> Scenario:
    if name not in BUILDERS:
        raise ConfigurationError(f"unknown scenario {name!r}")
    return BUILDERS[name](params)


def finite_difference_gradient(potential: Callable, x: np.ndarray,
                               h: float = 1e-5) -> np.ndarray:
    g = np.empty_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (potential(x + e) - potential(x - e)) / (2.0 * h)
    return g


def _fd_check_potential(op: Operator, domain: Domain, n_points: int,
                        seed: int, tol: float = 1e-6) -> float:
    rng = np.random.default_rng(seed)
    pts = _sample_points(domain, n_points, rng)
    worst = 0.0
    for x in pts:
        err = float(np.max(np.abs(evaluate(op, x)
                                  - finite_difference_gradient(op.potential, x))))
        worst = max(worst, err)
    return worst


def _kelly_partials_error(sc: Scenario, n_points: int, seed: int) -> float:
    market = sc.params["_market"]
    lam = sc.params["lam_reg"]
    rng = np.random.default_rng(seed)
    pts = _sample_points(sc.domain, n_points, rng)
    worst = 0.0
    h = 1e-6
    for t in (1, sc.period // 2, sc.period):
        op = sc.seq.at(t)
        entry, values = market(t)
        for x in pts:
            fx = evaluate(op, x)
            for i in range(sc.domain.dim):
                e = np.zeros_like(x)
                e[i] = h
                dnu = (kelly_utility(x + e, i, values, entry)
                       - kelly_utility(x - e, i, values, entry)) / (2 * h)
                worst = max(worst, abs(fx[i] - (-dnu + lam * x[i])))
    return worst


def _rsi_partials_error(sc: Scenario, n_points: int, seed: int) -> float:
    rng = np.random.default_rng(seed)
    pts = _sample_points(sc.domain, n_points, rng)
    worst = 0.0
    h = 1e-6
    for t in range(1, sc.period + 1):
        op = sc.seq.at(t)
        a = sc.params["a_values"][(t - 1) % sc.period]
        for z in pts:
            fz = evaluate(op, z)
            x, y = float(z[0]), float(z[1])
            dx = (rsi_loss(x + h, y, a) - rsi_loss(x - h, y, a)) / (2 * h)
            dy = (rsi_loss(x, y + h, a) - rsi_loss(x, y - h, a)) / (2 * h)
            worst = max(worst, abs(fz[0] - dx), abs(fz[1] + dy))
    return worst


def rsi_grid_inequality(a: float, grid_n: int = 201, half: float = 10.0) -> float:
    """Minimum of <F(z), z> / ||z||^2 over the verification grid; the
    restricted secant inequality asks for at least 1/4."""
    xs = np.linspace(-half, half, grid_n)
    Z = np.stack(np.meshgrid(xs, xs, indexing="ij"), axis=-1).reshape(-1, 2)
    Z = Z[np.any(Z != 0, axis=1)]          # the ratio is undefined at 0
    G = _evaluate_block(rsi_operator(a), Z)
    x, y = Z[:, 0], Z[:, 1]
    return np.min((G[:, 0] * x + G[:, 1] * y) / (x * x + y * y))


def verify_scenario(sc: Scenario, n_samples: int = 10_000, seed: int = 0,
                    n_fd: int = 100) -> list:
    """Run the scenario's gradient and constant checks; returns rows of
    {check, detail, passed}."""
    rows = []

    def add(check: str, detail: str, passed: bool):
        rows.append({"check": check, "detail": detail, "passed": passed})

    if sc.name == "kelly_auction":
        err = _kelly_partials_error(sc, min(n_fd, 50), seed)
        add("pseudo_gradient_partials", f"max_err={err:.3e}", err <= 1e-6)
    elif sc.name == "rsi_game":
        err = _rsi_partials_error(sc, min(n_fd, 50), seed)
        add("pseudo_gradient_partials", f"max_err={err:.3e}", err <= 1e-6)
        for a in (0.0, 0.5, 1.0):
            m = rsi_grid_inequality(a, grid_n=101)
            add("rsi_inequality", f"a={a} min_factor={m:.4f}", m >= RSI_MU)

    ops = []
    if sc.seq.adaptive:
        state = AdversaryState(prev=0.0)
        ops = [adversary_step(state, np.array([0.3]))[1]]
    else:
        ops = sc.operators_one_period()

    for idx, op in enumerate(ops, start=1):
        label = f"t={idx}"
        if op.potential is not None:
            err = _fd_check_potential(op, sc.domain, n_fd, seed + idx)
            add("gradient_fd", f"{label} max_err={err:.3e}", err <= 1e-6)
        if op.mu is not None:
            ok = check_strong_monotone(op, op.mu, sc.domain, n_samples, seed + idx)
            add("strong_monotone", f"{label} mu={op.mu:.6g}", ok)
        if op.lip is not None:
            ok = check_lipschitz(op, op.lip, sc.domain, n_samples, seed + idx)
            add("lipschitz", f"{label} L={op.lip:.6g}", ok)
    return rows
