"""Domain geometry, operator evaluation and verification primitives.

Points are plain 1-D numpy arrays of shape ``(d,)``. An operator's
``fn`` acts on the last axis: it maps an array of shape ``(..., d)`` to
the same shape, so one definition evaluates a single point ``(d,)`` or a
block ``(n, d)`` of sampled points. All norms are Euclidean. Domains and
operators are immutable after construction and safe to share across
threads; the only mutable field is the diagnostic evaluation counter on
:class:`Operator`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

# Sampling box used by the check_* routines on unbounded domains. Covers
# every dynamics region exercised by the scenario catalog.
SAMPLING_BOX_HALF_WIDTH = 10.0

_ZERO_TOL = 1e-9


class ConfigurationError(ValueError):
    """A required constant or parameter is missing or invalid."""


def as_point(x) -> np.ndarray:
    """Coerce scalars / lists to a float vector of shape (d,)."""
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    if arr.ndim != 1:
        raise ValueError(f"point must be a vector, got shape {arr.shape}")
    return arr


@dataclass(frozen=True)
class Domain:
    """A closed convex subset of R^d with an exact Euclidean projection.

    Supported kinds: ``unbounded``, ``box`` (componentwise bounds),
    ``ball`` (center + radius) and ``interval`` (1-D box). ``diameter``
    is set exactly for the bounded kinds and is ``None`` otherwise.
    """

    kind: str
    dim: int
    lower: Optional[np.ndarray] = None
    upper: Optional[np.ndarray] = None
    center: Optional[np.ndarray] = None
    radius: Optional[float] = None

    @staticmethod
    def unbounded(dim: int) -> "Domain":
        return Domain(kind="unbounded", dim=dim)

    @staticmethod
    def box(lower, upper) -> "Domain":
        lo, hi = as_point(lower), as_point(upper)
        if lo.shape != hi.shape:
            raise ValueError("box bounds must have matching dimension")
        if np.any(lo > hi):
            raise ValueError("box requires lower <= upper componentwise")
        return Domain(kind="box", dim=lo.size, lower=lo, upper=hi)

    @staticmethod
    def ball(center, radius: float) -> "Domain":
        c = as_point(center)
        if radius <= 0:
            raise ValueError("ball radius must be positive")
        return Domain(kind="ball", dim=c.size, center=c, radius=float(radius))

    @staticmethod
    def interval(lo: float, hi: float) -> "Domain":
        return Domain.box([lo], [hi])._replace_kind("interval")

    def _replace_kind(self, kind: str) -> "Domain":
        return Domain(kind=kind, dim=self.dim, lower=self.lower,
                      upper=self.upper, center=self.center, radius=self.radius)

    @property
    def bounded(self) -> bool:
        return self.kind != "unbounded"

    @property
    def diameter(self) -> Optional[float]:
        if self.kind == "unbounded":
            return None
        if self.kind in ("box", "interval"):
            return float(np.linalg.norm(self.upper - self.lower))
        return 2.0 * self.radius

    def contains(self, p: np.ndarray, tol: float = 1e-12) -> bool:
        p = as_point(p)
        if self.kind == "unbounded":
            return True
        if self.kind in ("box", "interval"):
            return bool(np.all(p >= self.lower - tol) and np.all(p <= self.upper + tol))
        return bool(np.linalg.norm(p - self.center) <= self.radius + tol)


def project(domain: Domain, p) -> np.ndarray:
    """Euclidean projection onto the domain. Idempotent and nonexpansive."""
    p = as_point(p)
    if p.size != domain.dim:
        raise ValueError(f"dimension mismatch: point {p.size}, domain {domain.dim}")
    if domain.kind == "unbounded":
        return p
    if domain.kind in ("box", "interval"):
        return np.clip(p, domain.lower, domain.upper)
    # ball: radial rescale; the center projects to itself. The relative
    # epsilon absorbs the rescaling roundoff so projecting twice is a
    # no-op bit for bit.
    v = p - domain.center
    nv = np.linalg.norm(v)
    if nv <= domain.radius * (1.0 + 8.0 * np.finfo(float).eps):
        return p
    return domain.center + (domain.radius / nv) * v


@dataclass
class Operator:
    """A continuous map F: R^d -> R^d with optional analytic metadata.

    ``mu``/``lip``/``gbound`` mirror the strong-monotonicity, Lipschitz
    and sup-norm constants when known. ``affine`` stores ``(A, b)`` for
    operators of the form ``F(x) = A x + b``, enabling exact resolvent
    steps and closed-form solutions. ``potential`` is the scalar
    function whose gradient F is, when one exists (used for
    finite-difference verification).

    ``fn`` acts on the last axis: it maps ``(..., d)`` to ``(..., d)``,
    so the learners call it on one point and the sampled check_*
    routines on a whole ``(n, d)`` block. ``evals`` counts evaluated
    points and is the single mutable, diagnostic-only field.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    dim: int
    mu: Optional[float] = None
    lip: Optional[float] = None
    gbound: Optional[float] = None
    solution: Optional[np.ndarray] = None
    affine: Optional[tuple] = None          # (A, b)
    potential: Optional[Callable[[np.ndarray], float]] = None
    evals: int = field(default=0, compare=False)
    batch_fn = None     # not a field: read only by perfbench/tracer.py

    def __call__(self, p) -> np.ndarray:
        return evaluate(self, p)

    @staticmethod
    def from_affine(A, b, **kw) -> "Operator":
        A = np.atleast_2d(np.asarray(A, dtype=float))
        b = as_point(b)
        return Operator(fn=lambda X: X @ A.T + b, dim=b.size, affine=(A, b), **kw)


def evaluate(op: Operator, p) -> np.ndarray:
    """Evaluate F(p), checking shape and finiteness of the output."""
    p = as_point(p)
    if p.size != op.dim:
        raise ValueError(f"dimension mismatch: point {p.size}, operator {op.dim}")
    op.evals += 1
    out = as_point(op.fn(p))
    if np.any(np.isnan(out)):
        raise FloatingPointError("operator returned NaN; invalid operator/point pair")
    return out


def analytic_solution(op: Operator, domain: Domain) -> Optional[np.ndarray]:
    """Return the exact solution when one is available.

    A stored solution wins. Otherwise, an affine F(x) = Ax + b on an
    unbounded domain with positive-definite symmetric part solves to
    -A^{-1} b. Singular or indefinite A yields ``None``.
    """
    if op.solution is not None:
        return np.array(op.solution, dtype=float)
    if op.affine is not None and domain.kind == "unbounded":
        A, b = op.affine
        sym = 0.5 * (A + A.T)
        try:
            if np.min(np.linalg.eigvalsh(sym)) <= 0:
                return None
            return np.linalg.solve(A, -b)
        except np.linalg.LinAlgError:
            return None
    return None


def _sample_points(domain: Domain, n: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform samples in the sampling box intersected with the domain."""
    half = SAMPLING_BOX_HALF_WIDTH
    if domain.kind in ("box", "interval"):
        lo = np.maximum(domain.lower, -half)
        hi = np.minimum(domain.upper, half)
        return rng.uniform(lo, hi, size=(n, domain.dim))
    if domain.kind == "unbounded":
        return rng.uniform(-half, half, size=(n, domain.dim))
    # ball: rejection-sample inside the ball (intersected with the box)
    lo = np.maximum(domain.center - domain.radius, -half)
    hi = np.minimum(domain.center + domain.radius, half)
    out = np.empty((n, domain.dim))
    got = 0
    while got < n:
        cand = rng.uniform(lo, hi, size=(2 * (n - got), domain.dim))
        keep = cand[np.linalg.norm(cand - domain.center, axis=1) <= domain.radius]
        take = min(len(keep), n - got)
        out[got:got + take] = keep[:take]
        got += take
    return out


def _evaluate_block(op: Operator, pts: np.ndarray) -> np.ndarray:
    """F at every row of the (n, d) block, in one call of ``op.fn``."""
    op.evals += len(pts)
    out = np.asarray(op.fn(pts), dtype=float)
    if out.shape != pts.shape:
        raise ValueError(f"operator returned shape {out.shape} for a block of "
                         f"shape {pts.shape}; fn must act on the last axis")
    return out


def check_strong_monotone(op: Operator, mu: float, domain: Domain,
                          n_samples: int = 1000, seed: int = 0) -> bool:
    """Sampled test of <F(z)-F(z'), z-z'> >= mu ||z-z'||^2.

    Deterministic given the seed; pairs are drawn uniformly from the
    sampling box intersected with the domain.
    """
    if mu < 0:
        raise ValueError("mu must be nonnegative")
    rng = np.random.default_rng(seed)
    zs = _sample_points(domain, n_samples, rng)
    ws = _sample_points(domain, n_samples, rng)
    diff = zs - ws
    fdiff = _evaluate_block(op, zs) - _evaluate_block(op, ws)
    lhs = np.einsum("ij,ij->i", fdiff, diff)
    return bool(np.all(lhs >= mu * np.einsum("ij,ij->i", diff, diff) - _ZERO_TOL))


def check_lipschitz(op: Operator, lip: float, domain: Domain,
                    n_samples: int = 1000, seed: int = 0) -> bool:
    """Sampled test of ||F(z)-F(z')|| <= lip ||z-z'||."""
    if lip < 0:
        raise ValueError("lip must be nonnegative")
    rng = np.random.default_rng(seed)
    zs = _sample_points(domain, n_samples, rng)
    ws = _sample_points(domain, n_samples, rng)
    lhs = np.linalg.norm(_evaluate_block(op, zs) - _evaluate_block(op, ws), axis=1)
    rhs = lip * np.linalg.norm(zs - ws, axis=1) + _ZERO_TOL
    return bool(np.all(lhs <= rhs))


@dataclass
class ProblemSequence:
    """A time-indexed family of operators, optionally periodic.

    ``at(t)`` is pure for scripted sequences (t is 1-based). Adaptive
    sequences (the lower-bound adversary) are stateful instead: the
    operator for round t is produced by ``respond(t, play)`` after
    seeing the learner's play, and ``at`` must not be used.
    """

    at: Optional[Callable[[int], Operator]]
    dim: int
    period: Optional[int] = None
    solution_at: Optional[Callable[[int], np.ndarray]] = None
    adaptive: bool = False
    respond: Optional[Callable[[int, np.ndarray], tuple]] = None

    def operator(self, t: int) -> Operator:
        if self.adaptive:
            raise ConfigurationError("adaptive sequence requires respond(t, play)")
        return self.at(t)
