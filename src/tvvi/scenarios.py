"""Catalog of concrete time-varying problem instances, plus the adaptive
lower-bound adversary.

Every builder returns a :class:`Scenario` bundling the operator
sequence, its domain, the constants (mu, L, G, D, k) the algorithms
and bound evaluators need, and the :class:`Checks` that
:func:`verify_scenario` runs: the operators whose declared constants
and analytic potentials it tests, and for the games the players'
losses their pseudo-gradients are made of. Scripted rounds come from
:func:`_periodic` or from the aligned block cache ``core._round_blocks``,
whose blocks build their rounds' operators: ``quadratic_drift``,
``kelly_auction``, ``streaming_regression`` and ``glm`` read round t's
operator from one block entry, ``solution_at(t)`` is its own solution,
and rounds are 1-based.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, field, replace
from typing import NamedTuple, Optional

import numpy as np

from .config import (MATRICES, MATRIX, Spec, _AT_LEAST_ONE, _NONNEGATIVE,
                     _POSITIVE, _field_value, _vector_field)
from .core import (SAMPLING_BOX_HALF_WIDTH, ConfigurationError, Domain, Operator,
                   ProblemSequence, as_point, check_constants, _evaluate_block,
                   _RELATIVE_TOL, _round_blocks, _run_policy, _sample_points)

# Upper envelope of the scalar curvature factor of u -> log(1 + e^{u^2/2});
# the true supremum is ~1.3008, so declared constants pass sampled checks.
EXP_SMOOTHNESS = 1.31

RSI_MU = 0.25


class OperatorCheck(NamedTuple):
    """An operator ``verify`` checks: the label of its rows, the
    constants declared for it (``None`` where none is) and, through
    ``op.potential``, the function whose gradient it should be."""

    label: str
    op: Operator
    mu: Optional[float] = None
    lip: Optional[float] = None


@dataclass(frozen=True)
class Checks:
    """What :func:`verify_scenario` checks of a scenario, attached by its
    builder.

    ``operators`` gives each checked operator's rows. ``game`` pairs
    operators with their players' losses, a function mapping
    ``(..., d)`` to ``(..., d)`` whose i-th value is the loss of the
    player who owns coordinate i, so that F_i = d loss_i / d x_i.
    ``secant`` lists the couplings whose restricted secant factor is
    checked on a grid.
    """

    operators: tuple = ()
    game: tuple = ()
    secant: tuple = ()


def _round_checks(ops) -> tuple:
    """Checks of the operators of rounds 1, 2, ... at their own constants."""
    return tuple(OperatorCheck(f"t={t}", op, op.mu, op.lip)
                 for t, op in enumerate(ops, start=1))


def _spectrum_check(t: int, op: Operator) -> OperatorCheck:
    """Round t's check of a symmetric affine operator, at the extreme
    eigenvalues of its matrix."""
    eigs = np.linalg.eigvalsh(op.affine[0])
    return OperatorCheck(f"t={t}", op, float(eigs[0]), float(eigs[-1]))


def _positive_definite(A: np.ndarray, dim: int, what: str, shape: str = "") -> np.ndarray:
    """The ascending eigenvalues of ``A``, which must be a symmetric
    positive-definite dim x dim matrix; else a ``ConfigurationError``
    whose message starts with ``what`` and names the ``shape`` rule."""
    if A.shape != (dim, dim) or not np.allclose(A, A.T):
        # eigvalsh reads one triangle only, so test symmetry first
        raise ConfigurationError(f"{what} must be symmetric{shape}")
    eigs = np.linalg.eigvalsh(A)
    if eigs[0] <= 0:
        raise ConfigurationError(f"{what} must be positive definite")
    return eigs


def _half_quadratic(D: np.ndarray, A: np.ndarray) -> np.ndarray:
    """D^T A D / 2 on the last axis, for a symmetric A."""
    return 0.5 * (D * (D @ A.T)).sum(axis=-1)


def _periodic(ops) -> ProblemSequence:
    """The sequence whose round t plays ``ops[(t - 1) % len(ops)]`` and its solution."""
    k = len(ops)
    return ProblemSequence(at=lambda t: ops[(t - 1) % k], dim=ops[0].dim,
                           solution_at=lambda t: ops[(t - 1) % k].solution)


@dataclass
class Scenario:
    """A built problem instance with its constants, domain and checks."""

    name: str
    seq: ProblemSequence
    domain: Domain
    mu: Optional[float] = None
    lip: Optional[float] = None
    gbound: Optional[float] = None
    period: Optional[int] = None
    initial_solution: Optional[np.ndarray] = None   # adversary's Z*_0
    checks: Checks = field(default_factory=Checks)

    @property
    def diameter(self) -> Optional[float]:
        return self.domain.diameter


# ---------------------------------------------------------------------------
# Drifting quadratics (tightness construction and tame test instances)

def build_quadratic_drift(p: dict) -> Scenario:
    """Quadratic potentials (x - c_t)^T A (x - c_t) / 2 whose minimizers
    drift by -b * t^{-decay} per step; decay 0 is the arithmetic
    progression of the tightness construction. A one-number c1 or b
    applies to every coordinate.
    """
    dim, decay = p["dim"], p["decay"]
    try:
        c1, b = np.full(dim, as_point(p["c1"])), np.full(dim, as_point(p["b"]))
    except ValueError:
        raise ConfigurationError("field 'scenario.c1': c1 and b must have one "
                                 "or scenario.dim coordinates") from None
    A = np.eye(dim) if p["matrix"] is None else np.atleast_2d(np.asarray(p["matrix"], float))
    eigs = _positive_definite(A, dim, "field 'scenario.matrix':",
                              ", scenario.dim x scenario.dim")

    # prefix sums of the drift magnitudes s^{-decay}, added in round order
    # with Python floats; a block leaves out the rounds past an overflow,
    # of a term or of the sum itself, and from the first round whose
    # center or offset is not finite (both only grow with the sum) on
    prefix = [0.0]
    mu, lip = float(eigs[0]), float(eigs[-1])

    def make_op(offset: np.ndarray, c: np.ndarray) -> Operator:
        return Operator.from_affine(A, offset, mu=mu, lip=lip, solution=c,
                                    potential=lambda X: _half_quadratic(X - c, A))

    def block(rounds: range) -> tuple:
        try:
            while len(prefix) < rounds[-1]:
                total = prefix[-1] + len(prefix) ** (-decay)
                if total == math.inf:
                    break
                prefix.append(total)
        except OverflowError:
            pass
        with _run_policy():     # tested below
            C = c1 - b * np.array(prefix[rounds[0] - 1:rounds[-1]])[:, None]
            offsets = np.matmul(-A, C[..., None])[..., 0]     # one gemv a round
        finite = (np.isfinite(C) & np.isfinite(offsets)).all(axis=1)
        n = len(C) if finite.all() else int(finite.argmin())
        return (list(map(make_op, offsets[:n], C[:n])),)

    blocks = _round_blocks(block)

    def at(t: int) -> Operator:
        try:
            return blocks(t)[0]
        except IndexError:
            if t <= len(prefix):        # the sum is finite, the center or offset not
                raise ConfigurationError(
                    f"field 'scenario.b': the drift center c1 - b P_t or its offset -A c_t "
                    f"is not finite at round {t} (scenario.b, scenario.c1, scenario.decay, "
                    f"scenario.matrix)") from None
            raise ConfigurationError(
                f"field 'scenario.decay': the drift s^(-decay) summed to round "
                f"{len(prefix) + 1} passes the largest float at decay = {decay}") from None

    seq = ProblemSequence(at=at, dim=dim, solution_at=lambda t: at(t).solution)
    # aperiodic: the first three rounds stand for the sequence
    return Scenario(name="quadratic_drift", seq=seq, domain=Domain.unbounded(dim),
                    mu=mu, lip=lip, checks=Checks(_round_checks(map(at, (1, 2, 3)))))


def periodic_quadratic(centers, matrix=None, domain: Domain = None) -> Scenario:
    """k-periodic quadratics with minimizers cycling through ``centers``.

    A synthetic instance family used by the bound experiments; the
    centers must lie inside the domain so they remain the solutions.
    """
    centers = [as_point(c) for c in centers]
    dim = centers[0].size
    A = np.eye(dim) if matrix is None else np.atleast_2d(np.asarray(matrix, float))
    eigs = _positive_definite(A, dim, "periodic_quadratic: matrix",
                              ", of the centers' dimension")
    domain = domain or Domain.unbounded(dim)
    for c in centers:
        if not domain.contains(c):
            raise ConfigurationError("periodic_quadratic: centers must lie in the domain")

    def make_op(c: np.ndarray) -> Operator:
        return Operator.from_affine(A, -A @ c, mu=float(eigs[0]), lip=float(eigs[-1]),
                                    solution=c, potential=lambda X: _half_quadratic(X - c, A))

    ops = [make_op(c) for c in centers]     # built once: the sequence repeats them
    gbound = None
    if domain.bounded:
        # sup over the domain of ||A (x - c)||, coarse box estimate
        corners = _box_corners(domain)
        gbound = max(float(np.linalg.norm(A @ (x - c)))
                     for x in corners for c in centers)
    return Scenario(name="periodic_quadratic", seq=_periodic(ops), domain=domain,
                    mu=float(eigs[0]), lip=float(eigs[-1]), gbound=gbound, period=len(ops),
                    checks=Checks(_round_checks(ops)))


def _box_corners(domain: Domain) -> list:
    if domain.kind != "box":
        raise ConfigurationError("corner enumeration needs a box domain")
    return [np.array(x) for x in itertools.product(*zip(domain.lower, domain.upper))]


# ---------------------------------------------------------------------------
# The 1-D alternating quadratic pair (single-step tuning example)

def build_periodic_1d(p: dict) -> Scenario:
    """Alternating gradients 8x (odd rounds) and x (even rounds) with the
    constant solution 0."""

    def make_op(a: float) -> Operator:
        return Operator.from_affine([[a]], [0.0], mu=a, lip=a, solution=np.zeros(1),
                                    potential=lambda X: 0.5 * a * X[..., 0] ** 2)

    ops = (make_op(8.0), make_op(1.0))      # odd rounds, even rounds
    return Scenario(name="periodic_1d", seq=_periodic(ops), domain=Domain.unbounded(1),
                    mu=1.0, lip=8.0, period=2, checks=Checks(_round_checks(ops)))


# ---------------------------------------------------------------------------
# Exponential-quadratic family (chaos and star instances)

def exp_quadratic_operator(A) -> Operator:
    """F(x) = sigma(x^T A x / 2) A x, the gradient of log(1 + e^{x^T A x / 2})."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    dim = A.shape[0]
    eigs = _positive_definite(A, dim, "field 'scenario.matrices':")
    mu = float(eigs[0]) / 2.0
    if mu == 0.0:
        raise ConfigurationError("field 'scenario.matrices': the strong-monotonicity "
                                 "constant, half the least eigenvalue, rounds to 0")

    def fn(X: np.ndarray) -> np.ndarray:
        # An explicit last-axis product (einsum's own loops, no BLAS)
        # rounds every row the same way whether X is one point or a
        # block; X @ A.T does not (gemv vs gemm) when A is not diagonal.
        AX = np.einsum("...j,ij->...i", X, A)
        q = 0.5 * (X * AX).sum(axis=-1)                   # q >= 0 for PD A
        return (1.0 / (1.0 + np.exp(-q)))[..., None] * AX

    def potential(X: np.ndarray) -> np.ndarray:
        return np.logaddexp(0.0, 0.5 * (X * np.einsum("...j,ij->...i", X, A)).sum(axis=-1))

    return Operator(fn=fn, dim=dim, mu=mu,
                    lip=EXP_SMOOTHNESS * float(eigs[-1]), solution=np.zeros(dim),
                    potential=potential)


def build_exp_quadratic(p: dict) -> Scenario:
    mats = [np.atleast_2d(np.asarray(m, dtype=float)) for m in p["matrices"]]
    dim = mats[0].shape[0]
    if any(m.shape != (dim, dim) for m in mats):
        raise ConfigurationError("field 'scenario.matrices': must be square, of one size")
    ops = [exp_quadratic_operator(m) for m in mats]
    return Scenario(name="exp_quadratic", seq=_periodic(ops), domain=Domain.unbounded(dim),
                    mu=min(op.mu for op in ops), lip=max(op.lip for op in ops),
                    period=len(ops), checks=Checks(_round_checks(ops)))


def build_chaos_1d(p: dict) -> Scenario:
    """The 2-periodic scalar pair A = 0.25 (odd rounds) and A = 4."""
    return replace(build_exp_quadratic({"matrices": [[[0.25]], [[4.0]]]}),
                   name="chaos_1d")


def build_star_2d(p: dict) -> Scenario:
    """The 2-periodic planar pair with star-shaped limit sets."""
    return replace(build_exp_quadratic({"matrices": [[[0.75, 0.0], [0.0, 5.0]],
                                                     [[5.0, 1.0], [1.0, 0.75]]]}),
                   name="star_2d")


# ---------------------------------------------------------------------------
# Repeated Kelly auction on a seasonal market

def build_kelly_auction(p: dict) -> Scenario:
    """n bidders on a good with sinusoidal seasonal price and values.

    The quadratic regularizer lam_reg makes the (monotone)
    pseudo-gradient strongly monotone with mu = lam_reg.
    """
    n, k, lam = p["n"], p["period"], p["lam_reg"]
    budgets = np.ones(n) if p["budgets"] is None else \
        _vector_field("scenario.budgets", p["budgets"], n)
    values0 = np.full(n, 2.0) if p["values"] is None else \
        _vector_field("scenario.values", p["values"], n)
    rng = np.random.default_rng(p["seed"])
    phases = rng.uniform(0, 2 * math.pi, size=n)

    def make_op(entry: float, values: np.ndarray) -> Operator:
        def fn(X: np.ndarray) -> np.ndarray:
            denom = entry + X.sum(axis=-1, keepdims=True)
            return 1.0 - values * (denom - X) / denom ** 2 + lam * X

        return Operator(fn=fn, dim=n, mu=lam)

    def block(rounds: range) -> tuple:
        # the seasonal market: each round's entry price by math.sin, and
        # the values by one np.sin over the stacked arguments, elementwise
        # as one round alone
        angles = [2 * math.pi * t / k for t in rounds]
        entries = [p["entry"] * (1.0 + p["entry_amp"] * math.sin(a)) for a in angles]
        values = values0 * (1.0 + p["value_amp"] * np.sin(np.array(angles)[:, None] + phases))
        return list(map(make_op, entries, values)), entries, values

    market = _round_blocks(block)       # round t's operator, entry price and values

    def losses(t: int):
        """The bidders' regularized losses at round t: bidder i pays
        x_i, wins the share x_i / (entry + sum x) of the value v_i, and
        is charged lam x_i^2 / 2."""
        _, entry, values = market(t)
        return lambda X: X - values * (X / (entry + X.sum(axis=-1, keepdims=True))) \
            + 0.5 * lam * X * X

    domain = Domain.box(np.zeros(n), budgets)
    v_max = float(np.max(values0)) * (1.0 + p["value_amp"])
    entry_min = p["entry"] * (1.0 - p["entry_amp"])
    if entry_min == 0.0:
        # the price at x = 0 would round to 0, and F to 0 / 0
        raise ConfigurationError("field 'scenario.entry': the least entry price "
                                 "entry * (1 - entry_amp) rounds to 0")
    # coarse sup-norm bound: |F_i| <= 1 + v_max/entry_min + lam * b_i
    gbound = math.sqrt(n) * (1.0 + v_max / entry_min + lam * float(np.max(budgets)))
    seq = ProblemSequence(at=lambda t: market(t)[0], dim=n)
    ops = [seq.at(t) for t in range(1, k + 1)]
    # the pseudo-gradient is checked at the first, middle and last round
    game = tuple((ops[t - 1], losses(t)) for t in sorted({1, k // 2, k} - {0}))
    return Scenario(name="kelly_auction", seq=seq, domain=domain, mu=lam,
                    gbound=float(gbound), period=k,
                    checks=Checks(_round_checks(ops), game))


# ---------------------------------------------------------------------------
# Streaming data: least squares and GLM estimation

STREAM_BLOCK = 64       # rows drawn at a time


def _gaussian_blocks(seed: int, dim: int):
    """Endless (features, noise) pairs of STREAM_BLOCK standard normal
    rows; each block draws its features, then its noise."""
    rng = np.random.default_rng(seed)
    while True:
        yield rng.standard_normal((STREAM_BLOCK, dim)), rng.standard_normal(STREAM_BLOCK)


class _DataStream:
    """Rows A and targets b of a deterministic growing data stream.

    ``blocks`` yields (rows, targets) STREAM_BLOCK rows at a time and is
    read in order, so row i depends only on the seed and i, never on
    which rows were asked for first. Rows live in a buffer that doubles
    its capacity. Prefix sums of A^T A and A^T b over whole blocks give
    the sums over the first n rows at O(STREAM_BLOCK d^2) cost, a
    function of n alone.
    """

    def __init__(self, blocks, dim: int):
        self._blocks = blocks
        self._rows = np.empty((STREAM_BLOCK, dim))
        self._targets = np.empty(STREAM_BLOCK)
        self._size = 0
        self._gram = [np.zeros((dim, dim))]
        self._moment = [np.zeros(dim)]

    def upto(self, n: int) -> tuple:
        """The first n rows and targets."""
        while self._size < n:
            a, b = next(self._blocks)
            if self._size == len(self._rows):
                self._rows = np.concatenate([self._rows, np.empty_like(self._rows)])
                self._targets = np.concatenate([self._targets, np.empty_like(self._targets)])
            end = self._size + STREAM_BLOCK
            self._rows[self._size:end], self._targets[self._size:end] = a, b
            self._gram.append(self._gram[-1] + a.T @ a)
            self._moment.append(self._moment[-1] + a.T @ b)
            self._size = end
        return self._rows[:n], self._targets[:n]

    def sums(self, n: int) -> tuple:
        """A^T A and A^T b over the first n rows."""
        G, h = self.block_sums([n])
        return G[0], h[0]

    def block_sums(self, sizes) -> tuple:
        """A^T A and A^T b over the first n rows for each n of ``sizes``,
        stacked ``(len(sizes), d, d)`` and ``(len(sizes), d)``. Each
        size's rows R past its last whole block get their own products
        R^T R and R^T r, and only the adds of the whole-block prefix sums
        are stacked, so a size's sums have the same bits in a block of
        any sizes."""
        A, b = self.upto(max(sizes))
        k, d = np.array(sizes) // STREAM_BLOCK, A.shape[1]
        gram, moment = np.empty((len(k), d, d)), np.empty((len(k), d))
        for n, G, h in zip(sizes, gram, moment):
            start = n - n % STREAM_BLOCK
            R = A[start:n]
            np.matmul(R.T, R, out=G)
            np.matmul(R.T, b[start:n], out=h)
        first, last = k.min(), k.max() + 1      # the prefix sums the sizes read
        return (np.array(self._gram[first:last])[k - first] + gram,
                np.array(self._moment[first:last])[k - first] + moment)


def build_streaming_regression(p: dict) -> Scenario:
    """f_t(x) = ||A_t x - b_t||^2 + lam ||x||^2 over a growing i.i.d.
    Gaussian stream; n_t grows linearly in t."""
    dim, lam, noise = p["dim"], p["lam_reg"], p["noise"]
    rng = np.random.default_rng(p["seed"])
    w_star = rng.standard_normal(dim) if p["w_star"] is None else \
        _vector_field("scenario.w_star", p["w_star"], dim)
    stream = _DataStream(((a, a @ w_star + noise * e)
                          for a, e in _gaussian_blocks(p["seed"] + 1, dim)), dim)
    ridge = lam * np.eye(dim)

    def size(t: int) -> int:
        return p["n0"] + p["growth"] * (t - 1)

    def make_op(n: int, matrix, offset, solution) -> Operator:
        def potential(X: np.ndarray) -> np.ndarray:
            A, b = stream.upto(n)
            return ((X @ A.T - b) ** 2).sum(axis=-1) + lam * (X * X).sum(axis=-1)

        return Operator.from_affine(matrix, offset, solution=solution, potential=potential)

    def block(rounds: range) -> tuple:
        # the ridge objective's gradient matrix and offset, and its
        # minimizer from one batched solve, which runs the same LAPACK
        # solve on each matrix as a one-round call
        sizes = [size(t) for t in rounds]
        G, h = stream.block_sums(sizes)
        G = G + ridge
        solutions = np.linalg.solve(G, h[..., None])[..., 0]
        return (list(map(make_op, sizes, 2.0 * G, -2.0 * h, solutions)),)

    blocks = _round_blocks(block)
    seq = ProblemSequence(at=lambda t: blocks(t)[0], dim=dim,
                          solution_at=lambda t: blocks(t)[0].solution)
    # aperiodic: the first three rounds stand for the sequence
    checks = Checks(tuple(_spectrum_check(t, seq.at(t)) for t in (1, 2, 3)))
    return Scenario(name="streaming_regression", seq=seq,
                    domain=Domain.unbounded(dim), mu=2.0 * lam, checks=checks)


def _glm_links(scale: float) -> dict:
    """Link phi and its antiderivative psi, both elementwise on arrays.
    The logistic link is written as scale * (sigma(u) - 1/2) =
    (scale / 2) tanh(u / 2), which cannot overflow."""
    return {
        "identity": (lambda u: u, lambda u: 0.5 * u * u),
        "scaled_logistic": (lambda u: 0.5 * scale * np.tanh(0.5 * u),
                            lambda u: scale * (np.logaddexp(0.0, u) - 0.5 * u)),
    }


def build_glm(p: dict) -> Scenario:
    """Streaming GLM operator (1/n_t) sum_i a_i (phi(<Z, a_i>) - b_i),
    optionally regularized by lam_reg * Z."""
    dim, lam, noise = p["dim"], p["lam_reg"], p["noise"]
    phi, psi = _glm_links(p["scale"])[p["link"]]
    rng = np.random.default_rng(p["seed"])
    z_star = rng.standard_normal(dim) if p["z_star"] is None else \
        _vector_field("scenario.z_star", p["z_star"], dim)
    # one fixed noise draw per sample: the rows of a second, scalar stream
    stream = _DataStream(((a, phi(a @ z_star) + noise * xi[:, 0])
                          for (a, _), (xi, _) in zip(_gaussian_blocks(p["seed"] + 2, dim),
                                                     _gaussian_blocks(p["seed"] + 1, 1))),
                         dim)
    ridge = lam * np.eye(dim)

    def size(t: int) -> int:
        return p["n0"] + p["growth"] * (t - 1)

    def potential_at(n: int):
        def potential(Z: np.ndarray) -> np.ndarray:
            A, b = stream.upto(n)
            U = Z @ A.T
            return (psi(U).sum(axis=-1) - U @ b) / n + 0.5 * lam * (Z * Z).sum(axis=-1)

        return potential

    def logistic(n: int) -> Operator:
        A, b = stream.upto(n)

        def fn(Z: np.ndarray) -> np.ndarray:
            return (phi(Z @ A.T) - b) @ A / n + lam * Z

        return Operator(fn=fn, dim=dim, mu=lam if lam > 0 else None, potential=potential_at(n))

    identity = p["link"] == "identity"

    def block(rounds: range) -> tuple:
        sizes = [size(t) for t in rounds]
        if not identity:
            return (list(map(logistic, sizes)),)
        # the identity link's operators: matrix G / n + ridge, offset -h / n
        G, h = stream.block_sums(sizes)
        n = np.array(sizes, dtype=float)
        return ([Operator.from_affine(matrix, offset, potential=potential_at(m))
                 for m, matrix, offset in zip(sizes, G / n[:, None, None] + ridge,
                                              -h / n[:, None])],)

    blocks = _round_blocks(block)
    seq = ProblemSequence(at=lambda t: blocks(t)[0], dim=dim)

    def checked(t: int) -> OperatorCheck:
        op = seq.at(t)
        if identity:
            return _spectrum_check(t, op)
        # the link's slope is at most scale / 4
        n = size(t)
        top = float(np.linalg.eigvalsh(stream.sums(n)[0])[-1])
        return OperatorCheck(f"t={t}", op, op.mu, p["scale"] / 4.0 * top / n + lam)

    # aperiodic: the first three rounds stand for the sequence
    return Scenario(name="glm", seq=seq, domain=Domain.unbounded(dim),
                    mu=lam if lam > 0 else None,
                    checks=Checks(tuple(map(checked, (1, 2, 3)))))


# ---------------------------------------------------------------------------
# The restricted-secant-inequality zero-sum game

def rsi_losses(Z: np.ndarray, a: float) -> np.ndarray:
    """The players' losses at coupling a, on the last axis: x minimizes
    the game's loss L and y maximizes it, so their losses are (L, -L)."""
    x, y = Z[..., 0], Z[..., 1]
    sin2_x, sin2_y = np.sin(x) ** 2, np.sin(y) ** 2
    loss = x * x + 3.0 * sin2_x + a * sin2_x * sin2_y - y * y - 3.0 * sin2_y
    return np.stack([loss, -loss], axis=-1)


def rsi_operator(a: float) -> Operator:
    """Descent-ascent pseudo-gradient (d/dx loss, -d/dy loss).

    The game is not monotone, so no mu is declared; it satisfies the
    restricted secant inequality with constant 1/4 toward the saddle
    point at the origin.
    """

    def fn(Z: np.ndarray) -> np.ndarray:
        x, y = Z[..., 0], Z[..., 1]
        out = np.empty(Z.shape)
        out[..., 0] = 2.0 * x + np.sin(2.0 * x) * (3.0 + a * np.sin(y) ** 2)
        gy = -2.0 * y - np.sin(2.0 * y) * (3.0 - a * np.sin(x) ** 2)
        out[..., 1] = -gy
        return out

    return Operator(fn=fn, dim=2, solution=np.zeros(2))


RSI_GRID_ROWS = 16      # grid rows per block: each temporary fits in cache


def rsi_lipschitz(a_values, grid_n: int = 501) -> float:
    """Grid supremum of the pseudo-gradient's Jacobian spectral norm over
    the coupling(s) ``a_values``, each distinct one evaluated once.

    All Jacobian entries are pi-periodic in both coordinates, so the
    grid over [0, pi]^2 captures the global supremum; the analytic
    envelope is |J| <= 2 + 2(3 + a) <= 10 plus unit off-diagonals. The
    grid is swept RSI_GRID_ROWS rows at a time, and the largest block
    maximum is the grid's.
    """
    u = np.linspace(0.0, math.pi, grid_n)
    two_cos_2u, sin_2u, sin2_u = 2.0 * np.cos(2 * u), np.sin(2 * u), np.sin(u) ** 2
    top = 0.0
    for a in set(np.atleast_1d(a_values).tolist()):
        # J = [[j11, j12], [-j12, j22]] at x = u[j] (columns), y = u[i] (rows)
        j11_factor, j22_factor, a_sin_2u = 3.0 + a * sin2_u, 3.0 - a * sin2_u, a * sin_2u
        for lo in range(0, grid_n, RSI_GRID_ROWS):
            y = slice(lo, lo + RSI_GRID_ROWS)
            j11 = 2.0 + two_cos_2u * j11_factor[y, None]
            j12 = a_sin_2u * sin_2u[y, None]
            j22 = 2.0 + two_cos_2u[y, None] * j22_factor
            # largest singular value of J via J^T J = [[p, r], [r, q]]
            j12_sq = j12 ** 2
            p, q = j11 ** 2 + j12_sq, j12_sq + j22 ** 2
            r = j11 * j12 - j12 * j22
            top = max(top, float((p + q + np.sqrt((p - q) ** 2 + 4.0 * r ** 2)).max()))
    return float(np.sqrt(0.5 * top)) * 1.005     # grid-resolution headroom


def build_rsi_game(p: dict) -> Scenario:
    """Time-varying coupling a_t in [0, 1] cycling through a fixed
    schedule; the saddle point stays at the origin."""
    a_values = p["a_values"]
    ops = [rsi_operator(a) for a in a_values]
    lip = rsi_lipschitz(a_values)
    checks = Checks(
        operators=tuple(OperatorCheck(f"t={t}", op, lip=lip) for t, op in enumerate(ops, 1)),
        game=tuple((op, lambda Z, a=a: rsi_losses(Z, a)) for op, a in zip(ops, a_values)),
        secant=tuple(dict.fromkeys(float(a) for a in a_values)))
    return Scenario(name="rsi_game", seq=_periodic(ops), domain=Domain.unbounded(2),
                    mu=RSI_MU, lip=lip, period=len(ops), checks=checks)


# ---------------------------------------------------------------------------
# Lower-bound adversary

def _adversary_operators() -> dict:
    """The quadratic x - z* for each solution z* the adversary picks,
    keyed by ``z_star.hex()``: the mirrored case analysis picks -0.0,
    whose operator adds +0.0 where the one of 0.0 adds -0.0."""
    ops = {}
    for z_star in (-1.0, -0.0, 0.0, 1.0):
        ops[z_star.hex()] = Operator.from_affine(
            [[1.0]], [-z_star], mu=1.0, lip=1.0, solution=np.array([z_star]),
            potential=lambda X, z_star=z_star: 0.5 * (X[..., 0] - z_star) ** 2)
    return ops


@dataclass
class AdversaryState:
    prev: float = 0.0      # Z*_{t-1}, initialized to Z*_0
    ops: dict = field(default_factory=_adversary_operators, repr=False)


def _adversary_positive(play: float, prev: float) -> float:
    if prev in (0.0, 1.0):
        return -1.0
    return 0.0 if play >= 0.5 else 1.0


def adversary_step(state: AdversaryState, play) -> tuple:
    """One adversary response: pick the new solution far from the play,
    then emit the quadratic operator x - Z*_t with that minimizer, one of
    those the state built once.

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
    op = state.ops[z_star.hex()]
    return op.solution, op


def build_lower_bound_adversary(p: dict) -> Scenario:
    state = AdversaryState(prev=p["z0"])

    def respond(t: int, play) -> tuple:
        return adversary_step(state, play)

    seq = ProblemSequence(at=None, dim=1, respond=respond)
    # the operator answering a play of 0.3 from Z*_0 = 0
    first = adversary_step(AdversaryState(prev=0.0), np.array([0.3]))[1]
    return Scenario(name="lower_bound_adversary", seq=seq,
                    domain=Domain.interval(-1.0, 1.0), mu=1.0, lip=1.0,
                    initial_solution=np.array([p["z0"]]),
                    checks=Checks(_round_checks([first])))


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


# The magnitude bound of the parameters that scale a scenario's points,
# matrices or data: their squares, which the potentials, the data's
# moments and the sampled checks form, stay finite.
_MAGNITUDE = ("must be at most 1e150 in magnitude", lambda x: abs(x) <= 1e150)
_POSITIVE_SCALE = ("must be in (0, 1e150]", lambda x: 0 < x <= 1e150)
_NONNEGATIVE_SCALE = ("must be in [0, 1e150]", lambda x: 0 <= x <= 1e150)

# every builder's parameters: type, default and bound, as in config.FIELDS
PARAMS: dict = {
    "quadratic_drift": {
        "dim": Spec(int, 1, _AT_LEAST_ONE), "c1": Spec(list, 0.0, _MAGNITUDE),
        "b": Spec(list, 0.1, _MAGNITUDE), "decay": Spec(float, 0.0),
        "matrix": Spec(MATRIX, None, _MAGNITUDE)},
    "periodic_1d": {}, "chaos_1d": {}, "star_2d": {},
    "exp_quadratic": {"matrices": Spec(MATRICES, [[[1.0]]], _MAGNITUDE)},
    "kelly_auction": {
        "n": Spec(int, 3, ("must be at least 2", lambda x: x >= 2)),
        "budgets": Spec(list, None, _POSITIVE), "values": Spec(list, None, _POSITIVE_SCALE),
        "entry": Spec(float, 1.0, _POSITIVE_SCALE),
        "entry_amp": Spec(float, 0.5, ("must be in [0, 1)", lambda x: 0 <= x < 1)),
        "value_amp": Spec(float, 0.25, _NONNEGATIVE_SCALE),
        "period": Spec(int, 50, _POSITIVE),
        "lam_reg": Spec(float, 0.1, _POSITIVE_SCALE), "seed": Spec(int, 0, _NONNEGATIVE)},
    "streaming_regression": {
        "dim": Spec(int, 3, _AT_LEAST_ONE), "n0": Spec(int, 5, _NONNEGATIVE),
        "growth": Spec(int, 2, _NONNEGATIVE), "noise": Spec(float, 0.1, _NONNEGATIVE_SCALE),
        # keeps F = 2 (G + lam I) x - 2 A^T b, and the sampled checks'
        # sums of it, finite on the sampling box
        "lam_reg": Spec(float, 1.0, ("must be positive and at most 1e300",
                                     lambda x: 0 < x <= 1e300)),
        "seed": Spec(int, 0, _NONNEGATIVE), "w_star": Spec(list, None, _MAGNITUDE)},
    "glm": {
        "dim": Spec(int, 2, _AT_LEAST_ONE), "n0": Spec(int, 20, _POSITIVE),
        "growth": Spec(int, 5, _NONNEGATIVE),
        "link": Spec(("identity", "scaled_logistic"), "identity"),
        "scale": Spec(float, 4.0, _POSITIVE_SCALE),
        "lam_reg": Spec(float, 0.0, _NONNEGATIVE_SCALE),
        "noise": Spec(float, 0.1, _NONNEGATIVE_SCALE), "seed": Spec(int, 0, _NONNEGATIVE),
        "z_star": Spec(list, None, _MAGNITUDE)},
    "rsi_game": {
        "a_values": Spec(list, (0.0, 0.5, 1.0, 0.5), ("must be in [0, 1]",
                                                       lambda x: 0 <= x <= 1))},
    "lower_bound_adversary": {
        "z0": Spec(float, 0.0, ("must be -1, 0 or 1", lambda x: x in (-1, 0, 1)))},
}


def build_scenario(name: str, params: dict = None) -> Scenario:
    """Build catalog scenario ``name`` from ``params``: config text or
    Python values, each typed and bounded by ``PARAMS[name]`` and merged
    over its defaults. Raises ConfigurationError naming the field."""
    if name not in BUILDERS:
        raise ConfigurationError(f"field 'scenario.name': unknown scenario {name!r}")
    table = PARAMS[name]
    p = {key: spec.default for key, spec in table.items()}
    for key, raw in (params or {}).items():
        if key not in table:
            raise ConfigurationError(f"field 'scenario.{key}': unknown parameter "
                                     f"of scenario {name!r}")
        p[key] = _field_value(f"scenario.{key}", table[key], raw)
    return BUILDERS[name](p)


def _central_differences(fn, X: np.ndarray, h: float) -> np.ndarray:
    """(fn(x + h e_i) - fn(x - h e_i)) / 2h for every row x of the block
    X and every coordinate i, from one call of ``fn`` (which acts on the
    last axis) on all 2d perturbations of all rows. Row i of a point's
    result is the partial along coordinate i of each value of ``fn``."""
    d = X.shape[-1]
    steps = h * np.eye(d)
    values = fn(np.concatenate([X[:, None] + steps, X[:, None] - steps], axis=1))
    return (values[:, :d] - values[:, d:]) / (2.0 * h)


def _fd_rounding(fn, pts: np.ndarray, h: float, what: str) -> float:
    """The rounding error of central differences of ``fn`` at ``pts``
    with step h, which grows as the size of fn's values over h. A
    finite-difference check passes within it where it exceeds 1e-6. A
    value of ``fn`` that is not finite raises, naming ``what``."""
    values = fn(pts)
    if not np.isfinite(values).all():
        raise ConfigurationError(f"field 'scenario.name': {what} is not finite at the "
                                 "sampled points; its parameters are too large together")
    return _RELATIVE_TOL * float(np.max(np.abs(values))) / h


RSI_SECANT_GRID_N = 101     # grid points a side of the secant check


def rsi_grid_inequality(a: float) -> float:
    """Minimum of <F(z), z> / ||z||^2 over the verification grid, the
    sampling box's square; the restricted secant inequality asks for at
    least 1/4."""
    half = SAMPLING_BOX_HALF_WIDTH
    xs = np.linspace(-half, half, RSI_SECANT_GRID_N)
    Z = np.stack(np.meshgrid(xs, xs, indexing="ij"), axis=-1).reshape(-1, 2)
    Z = Z[np.any(Z != 0, axis=1)]          # the ratio is undefined at 0
    G = _evaluate_block(rsi_operator(a), Z)
    x, y = Z[:, 0], Z[:, 1]
    return np.min((G[:, 0] * x + G[:, 1] * y) / (x * x + y * y))


def verify_scenario(sc: Scenario, n_samples: int = 10_000, seed: int = 0,
                    n_fd: int = 100) -> list:
    """Run the checks the scenario's builder attached; returns rows of
    {check, detail, passed}."""
    rows = []

    def add(check: str, detail: str, passed: bool):
        rows.append({"check": check, "detail": detail, "passed": passed})

    checks = sc.checks
    with _run_policy():
        if checks.game:
            # each coordinate's partial of its own player's loss: the diagonal
            pts = _sample_points(sc.domain, min(n_fd, 50), np.random.default_rng(seed))
            rounding = max(_fd_rounding(losses, pts, 1e-6, f"a player's loss in {sc.name}")
                           for _, losses in checks.game)
            err = max(np.max(np.abs(_evaluate_block(op, pts) - np.diagonal(
                _central_differences(losses, pts, 1e-6), axis1=1, axis2=2)))
                for op, losses in checks.game)
            # err stays a numpy scalar, so ``passed`` is a numpy bool, written
            # True (not true) as the benchmark's recorded reference expects
            add("pseudo_gradient_partials", f"max_err={err:.3e}", err <= 1e-6 or err <= rounding)
        for a in checks.secant:
            m = rsi_grid_inequality(a)
            add("rsi_inequality", f"a={a} min_factor={m:.4f}", m >= RSI_MU)

        for idx, (label, op, mu, lip) in enumerate(checks.operators, start=1):
            if op.potential is not None:
                pts = _sample_points(sc.domain, n_fd, np.random.default_rng(seed + idx))
                rounding = _fd_rounding(op.potential, pts, 1e-5,
                                        f"the potential of {sc.name} at {label}")
                err = float(np.max(np.abs(_evaluate_block(op, pts)
                                          - _central_differences(op.potential, pts, 1e-5))))
                add("gradient_fd", f"{label} max_err={err:.3e}", err <= 1e-6 or err <= rounding)
            monotone, lipschitz = check_constants(op, mu, lip, sc.domain, n_samples, seed + idx)
            if mu is not None:
                add("strong_monotone", f"{label} mu={mu:.6g}", monotone)
            if lip is not None:
                add("lipschitz", f"{label} L={lip:.6g}", lipschitz)
    return rows
