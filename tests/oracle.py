"""The byte contract's one reference: a plain per-round statement of every
round source and learner of ``tvvi``, with no blocks and no caches, in
the library's order of arithmetic. F is evaluated on the points, in the
shapes, that the library evaluates: the play, or an adaptive meta round's
distinct points as one block. A change to the round arithmetic of the
library changes this module in the same change.
"""

import math
from typing import Callable, NamedTuple, Optional

import numpy as np

from tvvi.scenarios import PARAMS


class Round(NamedTuple):
    fn: Callable                        # F on the last axis
    solution: Optional[np.ndarray] = None
    affine: Optional[tuple] = None      # (A, b) of F(X) = X @ A.T + b


def affine(A, b, solution=None) -> Round:
    A, b = np.atleast_2d(np.asarray(A, dtype=float)), np.asarray(b, dtype=float)
    return Round(lambda X: X @ A.T + b, solution, (A, b))


def merged(name: str, params: dict = None) -> dict:
    """``build_scenario(name, params)``'s parameters, defaults filled in."""
    return {**{key: spec.default for key, spec in PARAMS[name].items()}, **(params or {})}


# ---------------------------------------------------------------------------
# Round sources: source(name, params)(t, play) -> (solution or None, Round)

def drift_round(p: dict, t: int) -> Round:
    """Center c1 - b P_t, P_t the prefix sum of s^-decay in Python
    floats, and offset -A c."""
    A = np.eye(p["dim"]) if p["matrix"] is None else np.asarray(p["matrix"], dtype=float)
    c1, b = (np.full(p["dim"], np.asarray(p[key], dtype=float)) for key in ("c1", "b"))
    total = 0.0
    for s in range(1, t):
        total = total + s ** (-p["decay"])
    c = c1 - b * total
    return affine(A, -A @ c, c)


def kelly_market(p: dict, t: int) -> tuple:
    """Round t's entry price, by math.sin, and values, by np.sin."""
    values0 = np.full(p["n"], 2.0) if p["values"] is None else np.asarray(p["values"], float)
    phases = np.random.default_rng(p["seed"]).uniform(0, 2 * math.pi, size=p["n"])
    angle = 2 * math.pi * t / p["period"]
    entry = p["entry"] * (1.0 + p["entry_amp"] * math.sin(angle))
    return entry, values0 * (1.0 + p["value_amp"] * np.sin(angle + phases))


def kelly_round(p: dict, t: int) -> Round:
    entry, values = kelly_market(p, t)

    def fn(X):
        denom = entry + X.sum(axis=-1, keepdims=True)
        return 1.0 - values * (denom - X) / denom ** 2 + p["lam_reg"] * X

    return Round(fn)


def _gaussian(seed: int, dim: int):
    """The seeded stream's 64-row blocks: features, then noise."""
    rng = np.random.default_rng(seed)
    while True:
        yield rng.standard_normal((64, dim)), rng.standard_normal(64)


def _data(dim: int, n: int, blocks) -> tuple:
    """A^T A and A^T b over the first n rows of ``blocks``: the whole 64-row
    blocks' products summed in order, plus the tail's. Also the rows A, b."""
    G, h, A, b = np.zeros((dim, dim)), np.zeros(dim), [np.empty((0, dim))], [np.empty(0)]
    for i, (a, y) in zip(range(-(-n // 64)), blocks):
        if (i + 1) * 64 <= n:
            G, h = G + a.T @ a, h + a.T @ y
        A.append(a)
        b.append(y)
    A, b = np.concatenate(A)[:n], np.concatenate(b)[:n]
    R, r = A[n - n % 64:], b[n - n % 64:]
    return G + R.T @ R, h + R.T @ r, A, b


def _truth(p: dict, key: str) -> np.ndarray:
    return np.random.default_rng(p["seed"]).standard_normal(p["dim"]) if p[key] is None \
        else np.asarray(p[key], dtype=float)


def stream_data(p: dict, n: int) -> tuple:
    w = _truth(p, "w_star")
    return _data(p["dim"], n, ((a, a @ w + p["noise"] * e)
                               for a, e in _gaussian(p["seed"] + 1, p["dim"])))


def stream_round(p: dict, t: int) -> Round:
    G, h, _, _ = stream_data(p, p["n0"] + p["growth"] * (t - 1))
    G = G + p["lam_reg"] * np.eye(p["dim"])
    return affine(2.0 * G, -2.0 * h, np.linalg.solve(G, h))


def glm_link(p: dict) -> Callable:
    return (lambda u: u) if p["link"] == "identity" else \
        (lambda u: 0.5 * p["scale"] * np.tanh(0.5 * u))


def glm_data(p: dict, n: int) -> tuple:
    z, phi = _truth(p, "z_star"), glm_link(p)
    return _data(p["dim"], n, ((a, phi(a @ z) + p["noise"] * xi[:, 0]) for (a, _), (xi, _) in
                               zip(_gaussian(p["seed"] + 2, p["dim"]),
                                   _gaussian(p["seed"] + 1, 1))))


def glm_round(p: dict, t: int) -> Round:
    n, lam, phi = p["n0"] + p["growth"] * (t - 1), p["lam_reg"], glm_link(p)
    G, h, A, b = glm_data(p, n)
    if p["link"] == "identity":
        return affine(G / n + lam * np.eye(p["dim"]), -h / n)
    return Round(lambda Z: (phi(Z @ A.T) - b) @ A / n + lam * Z)


def exp_quadratic(A) -> Round:
    A = np.atleast_2d(np.asarray(A, dtype=float))

    def fn(X):
        AX = np.einsum("...j,ij->...i", X, A)
        q = 0.5 * (X * AX).sum(axis=-1)
        return (1.0 / (1.0 + np.exp(-q)))[..., None] * AX

    return Round(fn, np.zeros(len(A)))


def rsi(a: float) -> Round:
    def fn(Z):
        x, y = Z[..., 0], Z[..., 1]
        out = np.empty(Z.shape)
        out[..., 0] = 2.0 * x + np.sin(2.0 * x) * (3.0 + a * np.sin(y) ** 2)
        out[..., 1] = -(-2.0 * y - np.sin(2.0 * y) * (3.0 - a * np.sin(x) ** 2))
        return out

    return Round(fn, np.zeros(2))


PERIODIC = {        # each periodic scenario's rounds 1..k
    "periodic_1d": lambda p: [affine([[a]], [0.0], np.zeros(1)) for a in (8.0, 1.0)],
    "chaos_1d": lambda p: [exp_quadratic([[0.25]]), exp_quadratic([[4.0]])],
    "star_2d": lambda p: [exp_quadratic([[0.75, 0.0], [0.0, 5.0]]),
                          exp_quadratic([[5.0, 1.0], [1.0, 0.75]])],
    "exp_quadratic": lambda p: [exp_quadratic(A) for A in p["matrices"]],
    "rsi_game": lambda p: [rsi(a) for a in p["a_values"]]}
SCRIPTED = {"quadratic_drift": drift_round, "kelly_auction": kelly_round,
            "streaming_regression": stream_round, "glm": glm_round}


def adversary(z0: float) -> Callable:
    """The lower-bound adversary's case analysis, mirrored for a negative
    play, answered by the operator x - z*."""
    prev = [float(z0)]

    def positive(x):
        if prev[0] in (0.0, 1.0):
            return -1.0
        return 0.0 if x >= 0.5 else 1.0

    def respond(t, play):
        x = float(play[0])
        z = prev[0] = positive(x) if x >= 0 else -positive(-x)
        return np.array([z]), affine([[1.0]], [-z], np.array([z]))

    return respond


def source(name: str, params: dict = None) -> Callable:
    p = merged(name, params)
    if name == "lower_bound_adversary":
        return adversary(p["z0"])
    rounds = PERIODIC[name](p) if name in PERIODIC else None

    def respond(t, play):
        r = rounds[(t - 1) % len(rounds)] if rounds else SCRIPTED[name](p, t)
        return r.solution, r

    return respond


# ---------------------------------------------------------------------------
# Learners: play(t) -> z; observe(t, round) -> F at the play; evals counts
# the points evaluated

def project(domain, x):
    return np.clip(x, domain.lower, domain.upper) if domain.bounded else x


def distinct(P) -> tuple:
    """The rows of P with distinct bytes, in first-seen order, and each
    row's index among them."""
    index = {}
    rows = [index.setdefault(p.tobytes(), len(index)) for p in P]
    pts = np.empty((len(index), P.shape[1]))
    pts[rows] = P
    return pts, rows


class Learner:
    def __init__(self, domain):
        self.domain, self.evals = domain, 0

    def evaluate(self, r, X):
        self.evals += 1 if X.ndim == 1 else len(X)
        out = r.fn(X)
        if np.isnan(out).any():
            raise FloatingPointError("NaN")
        return out


class Forward(Learner):
    """project(z - eta F(z)), or with ``resolvent`` the z' of z' + F(z') = z."""

    def __init__(self, z1, eta, domain, resolvent=False):
        super().__init__(domain)
        self.z, self.eta, self.resolvent = z1, eta, resolvent

    def play(self, t):
        return self.z

    def observe(self, t, r):
        g = self.evaluate(r, self.z)
        if self.resolvent:
            A, b = r.affine
            self.z = np.linalg.solve(np.eye(len(b)) + A, self.z - b)
        else:
            self.z = project(self.domain, self.z - self.eta * g)
        return g


class Cyclic(Learner):
    """Period i: i slots, round t's stepped at its own count s by eta(s)."""

    def __init__(self, period, z1, eta, domain):
        super().__init__(domain)
        self.slots, self.counts, self.eta = [z1.copy() for _ in range(period)], [0] * period, eta

    def play(self, t):
        return self.slots[(t - 1) % len(self.slots)]

    def step(self, t, g):
        i = (t - 1) % len(self.slots)
        self.counts[i] += 1
        self.slots[i] = project(self.domain, self.slots[i] - self.eta(self.counts[i]) * g)

    def observe(self, t, r):
        g = self.evaluate(r, self.play(t)[None])[0]     # the bank's one-row block
        self.step(t, g)
        return g


def exp_weights(cum_loss, lam):
    a = -lam * cum_loss
    w = np.exp(a - a.max())
    return w / w.sum()


def mix_loss(p, losses, lam):
    if not math.isfinite(lam):
        return float(losses[p > 0].min())
    a = -lam * losses
    m = a.max()
    return float(-(m + np.log((p * np.exp(a - m)).sum())) / lam)


class Meta(Learner):
    """Bases of periods 1..K under exponential weights: with a fixed rate
    ``lam`` the surrogate's feedback, else the true operator at the
    distinct points and the tuned rate."""

    def __init__(self, K, z1, eta, domain, mu, lam=None):
        super().__init__(domain)
        self.bases = [Cyclic(i, z1, eta, domain) for i in range(1, K + 1)]
        self.mu, self.lam, self.cum_gap, self.t0_passed = mu, lam, 0.0, False
        self.weights, self.cum_loss = np.full(K, 1.0 / K), np.zeros(K)

    @property
    def slots(self):
        return np.array([z for base in self.bases for z in base.slots])

    def play(self, t):
        self.base_plays = np.array([base.play(t) for base in self.bases])
        self.z = (self.weights[:, None] * self.base_plays).sum(axis=0)
        return self.z

    def observe(self, t, r):
        Z, z, mu, log_k = self.base_plays, self.z, self.mu, math.log(len(self.bases))
        if self.lam is not None:
            g = self.evaluate(r, z)
            G = Z @ (mu * np.eye(len(z))).T + (g - mu * z)
        else:
            pts, rows = distinct(np.concatenate([z[None], Z]))
            F = self.evaluate(r, pts)[rows]
            g, G = F[0], F[1:]
        D = Z - z
        losses = Z @ g + 0.5 * mu * (D * D).sum(axis=-1)
        self.cum_loss = self.cum_loss + losses
        if self.lam is not None:
            self.weights = exp_weights(self.cum_loss, self.lam)
        else:
            lbar = float(np.dot(g, z))
            m = mix_loss(self.weights, losses, log_k / self.cum_gap if self.t0_passed else math.inf)
            self.t0_passed = self.t0_passed or (len(Z) > 1 and lbar > m + 1e-12)
            if self.t0_passed:
                self.cum_gap += max(lbar - m, 0.0)
                self.weights = exp_weights(self.cum_loss, log_k / self.cum_gap)
            else:
                least = self.cum_loss <= self.cum_loss.min() + 1e-12
                self.weights = least / least.sum()
        for base, g_i in zip(self.bases, G):
            base.step(t, g_i)
        return g


def run(respond, learner, T: int, threshold: float = 1e6) -> dict:
    """T rounds of: play, stop past the threshold, respond, observe (a NaN
    stops the run too)."""
    out = {"plays": [], "op_values": [], "solutions": [], "weights": [], "diverged_at": None}
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for t in range(1, T + 1):
            z = learner.play(t)
            out["plays"].append(z.copy())
            weights = getattr(learner, "weights", None)
            try:
                if not np.linalg.norm(z) <= threshold:
                    raise FloatingPointError("diverged")
                z_star, r = respond(t, z)
                out["op_values"].append(learner.observe(t, r))
            except FloatingPointError:
                out["diverged_at"] = t
                break
            out["weights"].append(weights)
            out["solutions"].append(z_star)
    return out
