"""Domain geometry, operator evaluation and verification primitives.

Points are plain 1-D numpy arrays of shape ``(d,)``. An operator's
``fn`` acts on the last axis: it maps an array of shape ``(..., d)`` to
the same shape, so one definition serves a single point ``(d,)`` and a
block ``(n, d)`` of points. :func:`evaluate` is the one checked
evaluation, for a point or a block: it rejects a width other than the
operator's before ``fn`` runs, counts each row once and raises
``FloatingPointError`` on a NaN. All norms are Euclidean; a point's
or a block's row norms are :func:`row_norms`, which neither overflows
nor underflows to 0. Domains and operators are immutable after
construction and safe to share across threads; the only mutable field
is the diagnostic evaluation counter on :class:`Operator`. Data that
depends on the round t alone, a scripted scenario's operators and a slot
bank's schedule, comes from one cache of aligned blocks of
``ROUND_BLOCK`` rounds, :func:`_round_blocks`: each block's data are
built once, when a round of it is first read, and rounds are 1-based.
:func:`_forward` is the one projected forward step, of every learner and
the composed map. :func:`_run_policy` is the one floating-point policy,
entered by ``cli.run_experiment``, ``algorithms.run_tracker``,
``scenarios.verify_scenario``, ``dynamics._iterate`` and the
``quadratic_drift`` block; :func:`row_norms` and
``dynamics._covered_segments`` only ignore overflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

# Sampling box of the verification checks on unbounded domains. Covers
# every dynamics region exercised by the scenario catalog.
SAMPLING_BOX_HALF_WIDTH = 10.0

# The sampled checks' slack: _ZERO_TOL, or _RELATIVE_TOL (256 units in
# the last place) of the sizes a comparison is made of when that is larger
_ZERO_TOL = 1e-9
_RELATIVE_TOL = 2.0 ** -44
_FLOAT = np.dtype(float)

ROUND_BLOCK = 64        # rounds whose data one block computes


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


def row_norms(X) -> np.ndarray:
    """Euclidean norms of the last-axis rows of ``X``, rounded as numpy
    rounds them: ``np.linalg.norm(X)`` for a point ``(d,)`` (a dot
    product) and ``np.linalg.norm(X, axis=-1)`` for a block.

    A finite, nonzero row whose norm is infinite (its squares overflowed,
    above about 1.3e154) or below 2**-511 (some may have underflowed) is
    recomputed with scaling (Blue 1978): as s times the norm of x / s,
    s the least power of two above max|x_i|, so that the scaling is
    exact. So a norm is 0 only for a zero row, and infinite only for a
    row that is not finite or whose norm exceeds the largest float.
    """
    X = np.asarray(X, dtype=float)
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(X, axis=None if X.ndim == 1 else -1)
        suspect = ~((norms >= 2.0 ** -511) & (norms < np.inf))     # NaN too
        if suspect.any():
            norms = np.asarray(norms)
            rows = np.flatnonzero(suspect)
            R = X.reshape(-1, X.shape[-1])[rows]
            redo = np.isfinite(R).all(axis=-1) & R.any(axis=-1)
            rows, R = rows[redo], R[redo]
            e = np.frexp(np.abs(R).max(axis=-1))[1]
            scaled = np.ldexp(R, -e[:, None])
            norms.flat[rows] = np.ldexp(np.linalg.norm(scaled, axis=-1), e)
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
        if not np.all(lo <= hi):        # a NaN bound fails too
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
        return float(row_norms(self.upper - self.lower))

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


def _forward(domain: Domain, Z: np.ndarray, eta, G: np.ndarray) -> np.ndarray:
    """project(Z - eta G) for a point or block ``Z``, ``eta`` a float or
    a column of per-row step sizes; unprojected on an unbounded domain."""
    Z = Z - eta * G
    return project(domain, Z) if domain.bounded else Z


def _run_policy():
    """The run's floating-point policy: overflow and invalid values give
    inf or NaN quietly, and thresholds, the resolvent's residual check
    and explicit finiteness tests decide what they mean."""
    return np.errstate(over="ignore", invalid="ignore")


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


def evaluate(op: Operator, X) -> np.ndarray:
    """F at a point ``(d,)`` or at every row of a block ``(n, d)``, in
    one call of ``op.fn``, each row counted once. A NaN anywhere marks an
    invalid operator/point pair and raises ``FloatingPointError``."""
    if not (type(X) is np.ndarray and X.dtype is _FLOAT and X.ndim):
        X = np.asarray(X, dtype=float)
        if X.ndim == 0:
            X = X.reshape(1)
    out = _evaluate_block(op, X)
    # the flat sum of squares is NaN exactly when some coordinate is
    flat = out.ravel()
    if math.isnan(flat.dot(flat)):
        raise FloatingPointError("operator returned NaN; invalid operator/point pair")
    return out


def _sample_points(domain: Domain, n: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform samples in the sampling box intersected with the domain.
    A box's draws are ``rng.uniform(lo, hi, (n, d))``'s bits, by the
    formula it applies to each element, without its slow path for bounds
    that are arrays."""
    half = SAMPLING_BOX_HALF_WIDTH
    if domain.kind == "unbounded":
        return rng.uniform(-half, half, size=(n, domain.dim))
    lo = np.maximum(domain.lower, -half)
    hi = np.minimum(domain.upper, half)
    return lo + (hi - lo) * rng.random((n, domain.dim))


def _evaluate_block(op: Operator, pts: np.ndarray) -> np.ndarray:
    """F at every point of the last-axis array ``pts`` (a point ``(d,)``
    or a block ``(n, d)``), in one call of ``op.fn``, counting each
    point as one evaluation. Unchecked for NaN: where a NaN row is data
    and not an error, callers use this rather than :func:`evaluate`."""
    if pts.shape[-1] != op.dim:
        raise ValueError(f"dimension mismatch: point {pts.shape[-1]}, operator {op.dim}")
    op.evals += pts.size // op.dim
    out = op.fn(pts)
    if not (type(out) is np.ndarray and out.dtype is _FLOAT):
        out = np.asarray(out, dtype=float)
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
    sampling box intersected with the domain. Each pair's slack grows
    with ||F(z)|| + ||F(w)||, whose rounding F(z) - F(w) keeps, and with
    the constant's side, so the checks hold at any scale of F.
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
    fz, fw = _evaluate_block(op, zs), _evaluate_block(op, ws)
    fdiff = fz - fw

    def holds(ok: np.ndarray, scaled) -> bool:
        # each pair passes within _ZERO_TOL, or failing that (NaN too)
        # within _RELATIVE_TOL of the sizes compared: ``scaled(rows)``
        short = ~ok
        return not short.any() or bool(np.all(scaled(short)))

    def f_size(rows: np.ndarray) -> np.ndarray:
        return row_norms(fz[rows]) + row_norms(fw[rows])

    monotone = lipschitz = None
    if mu is not None:
        lhs = np.einsum("ij,ij->i", fdiff, diff)
        rhs = mu * np.einsum("ij,ij->i", diff, diff)
        monotone = holds(lhs >= rhs - _ZERO_TOL, lambda rows: lhs[rows] >= rhs[rows] - (
            _RELATIVE_TOL * (f_size(rows) * np.linalg.norm(diff[rows], axis=1) + rhs[rows])))
    if lip is not None:
        lhs, rhs = row_norms(fdiff), lip * np.linalg.norm(diff, axis=1)
        lipschitz = holds(lhs <= rhs + _ZERO_TOL, lambda rows: lhs[rows] <= rhs[rows] + (
            _RELATIVE_TOL * (f_size(rows) + rhs[rows])))
    return monotone, lipschitz


def _round_blocks(block):
    """Round t's data as a function of t: its row of the stacked arrays
    (or lists) that ``block(rounds)`` computes for the aligned range of
    ROUND_BLOCK rounds holding t, of which the latest is kept. ``block``
    rounds each round as that round alone would, so the data depend on t
    only, not on the order of reads. Rounds are 1-based: a round below 1
    raises ValueError, and one past ``block``'s arrays IndexError."""
    cached = [None, ()]     # block number, its rounds' data

    def round_data(t: int) -> tuple:
        number, i = divmod(t - 1, ROUND_BLOCK)
        if cached[0] != number:
            if number < 0:
                raise ValueError(f"round {t}: rounds are numbered from 1")
            first = number * ROUND_BLOCK + 1
            cached[:] = number, tuple(zip(*block(range(first, first + ROUND_BLOCK))))
        return cached[1][i]

    return round_data


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
