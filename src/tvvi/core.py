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

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

# Sampling box of the verification checks on unbounded domains. Covers
# every dynamics region exercised by the scenario catalog.
SAMPLING_BOX_HALF_WIDTH = 10.0

_ZERO_TOL = 1e-9
_FLOAT = np.dtype(float)


class ConfigurationError(ValueError):
    """Invalid input: a config field, constant or parameter that is
    missing or invalid. ``errors`` holds one message per offending
    field."""

    def __init__(self, *errors: str):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


def as_point(x) -> np.ndarray:
    """Coerce scalars / lists to a float vector of shape (d,); a float
    vector is returned as it is."""
    if type(x) is np.ndarray and x.ndim == 1 and x.dtype is _FLOAT:
        return x
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    if arr.ndim != 1:
        raise ValueError(f"point must be a vector, got shape {arr.shape}")
    return arr


def rescale_overflowed_norms(X: np.ndarray, norms) -> np.ndarray:
    """``norms``, the Euclidean norms of the last-axis rows of ``X``, with
    each infinite norm of a finite row recomputed as max|x_i| times the
    norm of x / max|x_i|: such a row's squared norm overflowed (its norm
    is above about 1.3e154) though its norm may not. Every other norm is
    kept as it is, so a norm stays infinite only for a row that is not
    finite or whose norm exceeds the largest float."""
    norms = np.array(norms, dtype=float)
    redo = np.isinf(norms) & np.isfinite(X).all(axis=-1)
    if redo.any():
        R = X[redo]
        top = np.abs(R).max(axis=-1, keepdims=True)
        with np.errstate(over="ignore"):
            norms[redo] = top[..., 0] * np.sqrt(((R / top) ** 2).sum(axis=-1))
    return norms


@dataclass(frozen=True)
class Domain:
    """A closed convex subset of R^d with an exact Euclidean projection.

    Supported kinds: ``unbounded`` and ``box`` (componentwise bounds);
    :meth:`interval` builds a 1-D box. ``diameter`` is set exactly for a
    box and is ``None`` otherwise.
    """

    kind: str
    dim: int
    lower: Optional[np.ndarray] = None
    upper: Optional[np.ndarray] = None

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
    def interval(lo: float, hi: float) -> "Domain":
        return Domain.box([lo], [hi])

    @property
    def bounded(self) -> bool:
        return self.kind != "unbounded"

    @property
    def diameter(self) -> Optional[float]:
        if self.kind == "unbounded":
            return None
        return float(np.linalg.norm(self.upper - self.lower))

    def contains(self, p: np.ndarray, tol: float = 1e-12) -> bool:
        p = as_point(p)
        if self.kind == "unbounded":
            return True
        return bool(np.all(p >= self.lower - tol) and np.all(p <= self.upper + tol))


def project(domain: Domain, p) -> np.ndarray:
    """Euclidean projection onto the domain, acting on the last axis: a
    point ``(d,)`` or every row of a block ``(n, d)``. Idempotent and
    nonexpansive."""
    p = np.asarray(p, dtype=float)
    if p.ndim == 0:
        p = p.reshape(1)
    if p.shape[-1] != domain.dim:
        raise ValueError(f"dimension mismatch: point {p.shape[-1]}, domain {domain.dim}")
    if domain.kind == "unbounded":
        return p
    return p.clip(domain.lower, domain.upper)


@dataclass
class Operator:
    """A continuous map F: R^d -> R^d with optional analytic metadata.

    ``mu``/``lip`` mirror the strong-monotonicity and Lipschitz
    constants when known. ``affine`` stores ``(A, b)`` for
    operators of the form ``F(x) = A x + b``, enabling exact resolvent
    steps and closed-form solutions. ``potential`` is the function whose
    gradient F is, when one exists (used for finite-difference
    verification); it maps ``(..., d)`` to ``(...)``.

    ``fn`` acts on the last axis: it maps ``(..., d)`` to ``(..., d)``,
    so one definition serves a learner's single point, a slot bank's
    block of active slots and check_constants' whole sampled
    ``(n, d)`` block. ``evals`` counts evaluated points and is the
    single mutable, diagnostic-only field.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    dim: int
    mu: Optional[float] = None
    lip: Optional[float] = None
    solution: Optional[np.ndarray] = None
    affine: Optional[tuple] = None          # (A, b)
    potential: Optional[Callable[[np.ndarray], np.ndarray]] = None
    evals: int = field(default=0, compare=False)
    batch_fn = None     # not a field: read only by perfbench/tracer.py

    def __call__(self, p) -> np.ndarray:
        return evaluate(self, p)

    @staticmethod
    def from_affine(A, b, **kw) -> "Operator":
        if not (type(A) is np.ndarray and A.ndim == 2 and A.dtype is _FLOAT):
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
    # the sum of squares is NaN exactly when some coordinate is NaN
    if math.isnan(out.dot(out)):
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
    if domain.kind == "unbounded":
        return rng.uniform(-half, half, size=(n, domain.dim))
    lo = np.maximum(domain.lower, -half)
    hi = np.minimum(domain.upper, half)
    return rng.uniform(lo, hi, size=(n, domain.dim))


def _evaluate_block(op: Operator, pts: np.ndarray) -> np.ndarray:
    """F at every point of the last-axis array ``pts`` (a point ``(d,)``
    or a block ``(n, d)``), in one call of ``op.fn``, counting each
    point as one evaluation."""
    op.evals += pts.size // op.dim
    out = np.asarray(op.fn(pts), dtype=float)
    if out.shape != pts.shape:
        raise ValueError(f"operator returned shape {out.shape} for a block of "
                         f"shape {pts.shape}; fn must act on the last axis")
    return out


def check_constants(op: Operator, mu: Optional[float], lip: Optional[float],
                    domain: Domain, n_samples: int = 1000, seed: int = 0) -> tuple:
    """Sampled tests of <F(z)-F(z'), z-z'> >= mu ||z-z'||^2 and of
    ||F(z)-F(z')|| <= lip ||z-z'|| on one set of pairs, F evaluated once
    per block; returns (strong monotonicity holds, Lipschitz holds), a
    ``None`` for a constant not given.

    Deterministic given the seed; pairs are drawn uniformly from the
    sampling box intersected with the domain.
    """
    if mu is not None and mu < 0:
        raise ValueError("mu must be nonnegative")
    if lip is not None and lip < 0:
        raise ValueError("lip must be nonnegative")
    if mu is None and lip is None:
        return None, None
    rng = np.random.default_rng(seed)
    zs = _sample_points(domain, n_samples, rng)
    ws = _sample_points(domain, n_samples, rng)
    diff = zs - ws
    fdiff = _evaluate_block(op, zs) - _evaluate_block(op, ws)
    monotone = lipschitz = None
    if mu is not None:
        lhs = np.einsum("ij,ij->i", fdiff, diff)
        monotone = bool(np.all(lhs >= mu * np.einsum("ij,ij->i", diff, diff) - _ZERO_TOL))
    if lip is not None:
        lhs = np.linalg.norm(fdiff, axis=1)
        lipschitz = bool(np.all(lhs <= lip * np.linalg.norm(diff, axis=1) + _ZERO_TOL))
    return monotone, lipschitz


@dataclass
class ProblemSequence:
    """A time-indexed family of operators.

    ``respond(t, play) -> (z_star or None, op)`` is the one entry point of
    the online protocol (t is 1-based). Scripted sequences give a pure
    ``at(t)`` and, when known, ``solution_at(t)``; their default
    ``respond`` ignores the play and reads both at call time. Adaptive
    sequences (the lower-bound adversary) have no ``at`` and pass their
    own stateful ``respond``, which sees the play before choosing the
    operator.
    """

    at: Optional[Callable[[int], Operator]]
    dim: int
    solution_at: Optional[Callable[[int], np.ndarray]] = None
    respond: Optional[Callable[[int, np.ndarray], tuple]] = field(
        default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.respond is None:
            self.respond = self._scripted_respond

    def _scripted_respond(self, t: int, play) -> tuple:
        op = self.at(t)
        return (None if self.solution_at is None else self.solution_at(t)), op
