"""Discrete-dynamics engine for fixed-step gradient descent on periodic
problems: composed period maps, orbit analysis, bifurcation scans,
periodic-orbit detection, stability, Li-Yorke evidence, and the
star-attractor scan.

The composed map applies the period's step maps in time order: the
round-1 map acts first, so the orbit of the composed map started at x0
coincides with every k-th iterate of the per-step recursion started at
x0. The map acts on the last axis, so scans step every step size (or
every start) as one ``(n, d)`` block in one process; one orbit is the
one-row case of the same code. Divergence is tested once per block of
64 map periods, on all of the block's points at once. After each block
a bounded row whose last state repeats an earlier state of the block
bit for bit, a fixed point or a cycle of period below 64, stops: its
later points are copies of that cycle. A scan row equals that step
size or start run alone, and a per-period loop without the exit, bit
for bit when the operators' ``fn`` rounds a row the same alone and in
a block, as the exp-quadratic catalog does; the ``X @ A.T`` of
``Operator.from_affine`` may differ in the last bit for a non-diagonal
``A`` in d >= 2, with the rows that share its block. Stability
derivatives use central differences with h = 1e-6, Newton's with
h = 1e-4.

The star score's fixed-radius query runs on uniform grids, one per
power-of-two band of radii; per-cell point counts settle most queries
with two rectangle sums, and only the rest compute distances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial
from typing import Optional

import numpy as np

from .core import (ConfigurationError, Domain, _evaluate_block, as_point, project,
                   rescale_overflowed_norms)
from .scenarios import Scenario

# the bifurcation protocol: orbits of 2000 steps, the first 1000 a
# burn-in, that diverge past 1000 in norm
DIVERGENCE_THRESHOLD = 1000.0
PROTOCOL_STEPS = 2000
PROTOCOL_BURN_IN = 1000
PERIOD_TOL = 1e-8
MAX_PERIOD = 64
# the star scan's divergence threshold
STAR_THRESHOLD = 1e6
_DERIV_H = 1e-6
# Newton's basins of the cycle points interleave finely, so the landing
# point depends on its derivative step; 1e-4 gives the documented phase
_NEWTON_H = 1e-4
_NEWTON_MAX_ITER = 100
# points at which period3_search checks that the map keeps its interval
_INTERVAL_CHECK_N = 10_000
_FIXED_POINT_TOL = 1e-9


@dataclass
class GDMap:
    """One period of projected gradient steps, applied in time order.

    Acts on the last axis: a point ``(d,)`` or a block ``(n, d)``. A
    scalar ``eta`` steps every row alike; an ``(n, 1)`` column steps
    row i with ``eta[i]``.
    """

    ops: list                        # operators, round-1 first
    domain: Domain
    eta: object                      # float, or an (n, 1) column
    dim: int

    def _step(self, op, x: np.ndarray) -> np.ndarray:
        return project(self.domain, x - self.eta * _evaluate_block(op, x))

    @property
    def step_maps(self) -> list:
        """The per-round step maps, round-1 map first."""
        return [partial(self._step, op) for op in self.ops]

    def __call__(self, x: np.ndarray) -> np.ndarray:
        for op in self.ops:
            x = self._step(op, x)
        return x

    def power(self, x: np.ndarray, p: int) -> np.ndarray:
        for _ in range(p):
            x = self(x)
        return x

    def rows(self, keep) -> "GDMap":
        """The map of the block rows selected by ``keep``."""
        return self if np.ndim(self.eta) == 0 else replace(self, eta=self.eta[keep])


def compose_map(scenario: Scenario, eta) -> GDMap:
    """Build the composed period map of a k-periodic scenario, for one
    step size or for one step size per block row."""
    if scenario.period is None:
        raise ConfigurationError(f"field 'scenario.name': {scenario.name!r} is not "
                                 "periodic, and a composed map needs a period")
    etas = np.asarray(eta, dtype=float)
    if etas.ndim > 1 or np.any(etas <= 0):
        raise ValueError("eta must be positive (one value, or one per row)")
    ops = [scenario.seq.at(t) for t in range(1, scenario.period + 1)]
    return GDMap(ops=ops, domain=scenario.domain,
                 eta=float(etas) if etas.ndim == 0 else etas[:, None],
                 dim=scenario.seq.dim)


# Map periods stepped between two divergence tests in ``_iterate``.
_CHECK_BLOCK = 64


def _iterate(gd_map: GDMap, x0: np.ndarray, n_steps: int, threshold: float,
             keep_from: int = 0) -> tuple:
    """Step the ``(n, d)`` block ``x0`` through ``n_steps`` map periods.

    Returns ``(points, diverged_at)``: ``points[s - keep_from, i]`` is row
    i after s periods, for s from ``keep_from`` on, and ``diverged_at[i]``
    is the period at which row i went non-finite or crossed
    ``threshold`` in norm (-1 while bounded). A diverged row stops
    there: its crossing point is kept (when s >= ``keep_from``) and its
    later points are NaN.

    Rows are stepped ``_CHECK_BLOCK`` periods at a time (periods 1-64,
    65-128, ...). After each block, divergence is tested on the whole
    block of steps at once: a row that crossed was stepped to the end of
    that block, its later points are then overwritten with NaN, and it
    leaves the block of rows. Then each bounded row's last state is
    compared, bit for bit, with its earlier states in the block: a row
    whose state after period s equals its state after period s - p, for
    some p < ``_CHECK_BLOCK``, repeats that p-cycle from then on, so its
    remaining points are copied from its last p states and it leaves the
    block too. So the points equal a per-period loop's whenever ``fn``
    rounds each row the same alone and in any block; the operators'
    ``evals`` count the map steps taken, a diverging row's to the end of
    its block but none of a settled row's copied periods.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    n, d = x0.shape
    points = np.full((n_steps + 1 - keep_from, n, d), np.nan)
    diverged_at = np.full(n, -1)
    live = np.arange(n)
    x = x0
    if keep_from == 0:
        points[0] = x0
    # a row on its way to divergence may overflow: the threshold, not a
    # warning, decides when it stops
    with np.errstate(over="ignore", invalid="ignore"):
        for s0 in range(1, n_steps + 1, _CHECK_BLOCK):
            if not live.size:
                break
            block = np.empty((min(_CHECK_BLOCK, n_steps + 1 - s0), len(live), d))
            for b in range(len(block)):
                x = block[b] = gd_map(x)
            norms = np.linalg.norm(block, axis=-1)
            out = ~(np.isfinite(norms) & (norms <= threshold))
            if out.any():
                norms = rescale_overflowed_norms(block, norms)
                out = ~(np.isfinite(norms) & (norms <= threshold))
            crossed = out.any(axis=0)
            first = np.where(crossed, out.argmax(axis=0), len(block))
            block[np.arange(len(block))[:, None] > first] = np.nan
            diverged_at[live[crossed]] = s0 + first[crossed]
            s1 = s0 + len(block)
            if s1 > keep_from:
                s = max(s0, keep_from)
                points[s - keep_from:s1 - keep_from, live] = block[s - s0:]
            # the least p at which a bounded row's last state repeats, by
            # the bits, so that 0.0 and -0.0 differ (0 where none does):
            # repeats[p] compares it with the state p periods before
            words = block.view(np.int64)
            repeats = (words[::-1] == words[-1]).all(axis=-1)
            repeats[0] = False
            period = np.where(crossed, 0, repeats.argmax(axis=0))
            # a settled row's state after period t >= s1 is its state
            # after s1 - p + (t - s1) mod p, one of the block's last p
            a = max(s1, keep_from)
            for p in set(period[period > 0].tolist()):
                rows = np.flatnonzero(period == p)
                points[a - keep_from:, live[rows]] = \
                    block[-p:, rows][(np.arange(a, n_steps + 1) - s1) % p]
            stay = ~crossed & (period == 0)
            if not stay.all():
                live, x, gd_map = live[stay], x[stay], gd_map.rows(stay)
    return points, diverged_at


@dataclass
class Orbit:
    points: np.ndarray                    # (n, d): the start, then each step
    diverged_at: Optional[int] = None     # index into points, None if bounded

    @property
    def bounded(self) -> bool:
        return self.diverged_at is None


def iterate_orbit(gd_map: GDMap, x0, n_steps: int,
                  threshold: float = DIVERGENCE_THRESHOLD) -> Orbit:
    """Iterate the composed map from one start, stopping on divergence."""
    points, diverged_at = _iterate(gd_map, as_point(x0)[None, :], n_steps,
                                   threshold)
    s = int(diverged_at[0])
    if s < 0:
        return Orbit(points=points[:, 0])
    return Orbit(points=points[:s + 1, 0], diverged_at=s)


@dataclass(frozen=True)
class Classification:
    kind: str                       # converged | periodic | bounded_aperiodic | diverged
    period: Optional[int] = None

    def __str__(self) -> str:
        if self.kind == "periodic":
            return f"periodic({self.period})"
        return self.kind


def classify_eta(gd_map: GDMap, x0) -> Classification:
    """Classify the asymptotic behavior of the protocol's orbit from x0."""
    return classify_orbit(iterate_orbit(gd_map, x0, PROTOCOL_STEPS), PROTOCOL_BURN_IN)


def classify_orbit(orbit: Orbit, burn_in: int) -> Classification:
    if not orbit.bounded:
        return Classification("diverged")
    return _classify_tails(orbit.points[burn_in:, None, :])[0]


def _classify_tails(tails: np.ndarray) -> list:
    """Classify every bounded orbit of a ``(T, n, d)`` tail block: converged
    when each tail point lies within ``PERIOD_TOL`` of the last, else
    periodic with the least p up to ``MAX_PERIOD`` whose p-shift moves no
    point by ``PERIOD_TOL`` or more, else bounded_aperiodic. Shifts need
    p < T."""
    out = [Classification("bounded_aperiodic")] * tails.shape[1]
    spread = np.linalg.norm(tails - tails[-1], axis=-1).max(axis=0)
    for i in np.flatnonzero(spread < PERIOD_TOL):
        out[i] = Classification("converged")
    open_rows = np.flatnonzero(spread >= PERIOD_TOL)
    tails = tails[:, open_rows]
    for p in range(2, min(MAX_PERIOD, len(tails) - 1) + 1):
        if not open_rows.size:
            break
        shift = np.linalg.norm(tails[p:] - tails[:-p], axis=-1).max(axis=0)
        hit = shift < PERIOD_TOL
        for i in open_rows[hit]:
            out[i] = Classification("periodic", period=p)
        open_rows, tails = open_rows[~hit], tails[:, ~hit]
    return out


@dataclass(frozen=True)
class ScanRow:
    eta: float
    classification: Classification
    occupied_cells: tuple


def _cell_indices(x: np.ndarray, lo: float, hi: float, n_cells: int) -> list:
    """Occupied cells of [lo, hi] per column of the ``(T, n)`` coordinates."""
    width = (hi - lo) / n_cells
    inside = (x >= lo) & (x <= hi)
    idx = np.minimum(((np.where(inside, x, lo) - lo) / width).astype(np.int64),
                     n_cells - 1)
    occupied = np.zeros((x.shape[1], n_cells), dtype=bool)
    occupied[np.nonzero(inside)[1], idx[inside]] = True
    return [tuple(np.flatnonzero(row).tolist()) for row in occupied]


def eta_grid(lo: float, hi: float, n: int) -> list:
    """n equally spaced values on (lo, hi]."""
    return [lo + (hi - lo) * (i + 1) / n for i in range(n)]


def bifurcation_scan(scenario: Scenario, x0, etas,
                     n_steps: int = PROTOCOL_STEPS, burn_in: int = PROTOCOL_BURN_IN,
                     cell_lo: float = -10.0, cell_hi: float = 10.0,
                     n_cells: int = 1000,
                     threshold: float = DIVERGENCE_THRESHOLD) -> list:
    """Per-step-size orbit classification with accumulation-cell
    occupancy, one ``ScanRow`` per step size; defaults reproduce the
    bifurcation protocol (2000 steps, 1000 cells on [-10, 10], burn-in
    1000, divergence threshold 1000), whose step sizes are
    ``eta_grid(0.0, 8.0, 3000)`` from x0 = -0.1.

    Every step size is one row of one block stepped through the
    scenario's composed map; only the post-burn-in tail is kept. Rows
    are emitted in step-size order.
    """
    if burn_in >= n_steps:
        raise ValueError("burn_in must be smaller than n_steps")
    x0 = as_point(x0)
    etas = [float(e) for e in etas]
    tails, diverged_at = _iterate(compose_map(scenario, etas),
                                  np.tile(x0, (len(etas), 1)), n_steps,
                                  threshold, keep_from=burn_in)
    bounded = diverged_at < 0
    tails = tails[:, bounded]
    found = zip(_classify_tails(tails),
                _cell_indices(tails[..., 0], cell_lo, cell_hi, n_cells))
    diverged = (Classification("diverged"), ())
    return [ScanRow(e, *(next(found) if b else diverged)) for e, b in zip(etas, bounded)]


# ---------------------------------------------------------------------------
# Periodic orbits: Newton refinement, stability, period-3 evidence

def _central_derivative(f, x: float, h: float = _DERIV_H) -> float:
    return (f(x + h) - f(x - h)) / (2.0 * h)


@dataclass(frozen=True)
class PeriodicOrbit:
    fixed_point: float
    orbit: tuple
    residual: float


def newton_periodic_orbit(gd_map: GDMap, p: int, x0,
                          tol: float = 1e-10) -> Optional[PeriodicOrbit]:
    """Newton's method on psi(x) = map^p(x) - x from x0 (1-D maps).

    Returns the refined fixed point of the p-th iterate together with
    its orbit, or None when the iteration breaks down or fails to meet
    the tolerance within ``_NEWTON_MAX_ITER`` steps.
    """
    if gd_map.dim != 1:
        raise ValueError("newton_periodic_orbit supports 1-D maps only")
    if p < 1:
        raise ValueError("p must be >= 1")

    def psi(u: float) -> float:
        return float(gd_map.power(np.array([u]), p)[0]) - u

    x = float(as_point(x0)[0])
    for _ in range(_NEWTON_MAX_ITER):
        r = psi(x)
        if abs(r) <= tol:
            orbit = [x]
            for _ in range(p - 1):
                orbit.append(float(gd_map(np.array([orbit[-1]]))[0]))
            return PeriodicOrbit(fixed_point=x, orbit=tuple(orbit), residual=abs(r))
        d = _central_derivative(psi, x, _NEWTON_H)
        if abs(d) < 1e-12 or not math.isfinite(d):
            return None
        x = x - r / d
        if not math.isfinite(x):
            return None
    return None


@dataclass(frozen=True)
class StabilityResult:
    product: float
    stable: bool


def orbit_stability(gd_map: GDMap, orbit) -> StabilityResult:
    """Derivative product along a (numerically) periodic 1-D orbit;
    the cycle is asymptotically stable when its magnitude is below 1."""
    if gd_map.dim != 1:
        raise ValueError("orbit_stability supports 1-D maps only")

    def f(u: float) -> float:
        return float(gd_map(np.array([u]))[0])

    product = 1.0
    for x in orbit:
        product *= _central_derivative(f, float(np.atleast_1d(x)[0]))
    return StabilityResult(product=product, stable=abs(product) < 1.0)


class IntervalMapError(ValueError):
    """The map does not send the interval into itself."""


def period3_search(gd_map: GDMap, lo: float, hi: float, n_grid: int = 4000) -> list:
    """Locate period-3 points of a 1-D interval map.

    First verifies (on a sampled grid) that the map sends [lo, hi] into
    itself, then brackets sign changes of x - map^3(x), refines them by
    bisection, and filters out fixed points of the map itself. A
    nonempty result is Li-Yorke chaos evidence by the period-three
    theorem.
    """
    if gd_map.dim != 1:
        raise ValueError("period3_search supports 1-D maps only")
    if n_grid < 2:
        return []

    check = np.linspace(lo, hi, _INTERVAL_CHECK_N)
    mapped = gd_map(check[:, None])[:, 0]
    outside = np.flatnonzero(~((lo <= mapped) & (mapped <= hi)))
    if outside.size:
        u, v = check[outside[0]], mapped[outside[0]]
        raise IntervalMapError(
            f"map sends {u:.6g} to {v:.6g}, outside [{lo}, {hi}]")

    def g(u: float) -> float:
        return u - float(gd_map.power(np.array([u]), 3)[0])

    grid = np.linspace(lo, hi, n_grid)
    vals = grid - gd_map.power(grid[:, None], 3)[:, 0]
    roots = []
    for i in range(n_grid - 1):
        a, b = float(grid[i]), float(grid[i + 1])
        fa, fb = float(vals[i]), float(vals[i + 1])
        if fa == 0.0:
            roots.append(a)
            continue
        if (fa < 0) == (fb < 0):
            continue
        for _ in range(200):
            m = 0.5 * (a + b)
            fm = g(m)
            if fm == 0.0 or (b - a) < 1e-14:
                break
            if (fm < 0) == (fa < 0):
                a, fa = m, fm
            else:
                b = m
        roots.append(0.5 * (a + b))

    out = []
    for r in sorted(roots):
        if abs(r - float(gd_map(np.array([r]))[0])) < _FIXED_POINT_TOL:
            continue                      # fixed point of the map itself
        if out and abs(r - out[-1]) < 1e-7:
            continue
        out.append(r)
    return out


# ---------------------------------------------------------------------------
# Star-attractor scan

@dataclass
class StarScan:
    eta: float
    tail_points: np.ndarray            # (m, 2)
    avg_norm_series: np.ndarray
    radial_score: float
    n_diverged: int
    n_samples: int

    @property
    def all_diverged(self) -> bool:
        return self.n_diverged == self.n_samples


# Most (query, tail point) candidate pairs tested in one numpy block:
# bounds the working memory of the grid query.
_PAIR_CHUNK = 1 << 16
# Most cells of a band's count grid: about 2 MB of int64 prefix sums.
_COUNT_CELLS = 1 << 18


def _grid_level(points: np.ndarray, queries: np.ndarray,
                radii: np.ndarray) -> np.ndarray:
    """Fixed-radius query for radii within a factor of two of each other,
    on ``(2, m)`` points and ``(2, n)`` queries (one coordinate a row).

    True where ``sqrt(dx*dx + dy*dy) <= radii[i]`` for some point. Cell
    (i, j) is [i h, (i+1) h) x [j h, (j+1) h) with h = min(radii) / 2.
    A count grid, whose cells are blocks of 2^c x 2^c of these with the
    least c that keeps it within ``_COUNT_CELLS`` cells, holds the
    points per cell as a 2-D prefix-sum table, so two rectangle sums
    settle most queries with no distance computed: a query is covered
    when the count cells lying wholly inside the square of half-side
    r / sqrt(2) around it, shrunk by a rounding pad, hold a point, and
    not covered when the count cells spanning [q - r, q + r] hold none.
    Any other query tests the points in the row strips of cells
    spanning [q - r, q + r]: the 3 x 3 cells around its own cell first,
    then, if none was near enough, all of them. With the cells keyed
    row-major, each strip is one ``searchsorted`` range of the sorted
    points.
    """
    h = 0.5 * radii.min()
    # the pad exceeds by far the rounding of q - r and q + r, of a
    # point's cell and of its distance to q: no candidate's cell falls
    # outside the strips, and a point in the inner square lies within r
    pad = 2.0 ** -40 * (np.abs(queries[0]) + np.abs(queries[1]) + radii)
    reach = radii + pad
    lo, hi = queries - reach, queries + reach
    if max(-lo.min(), hi.max()) / h >= 2.0 ** 30:
        raise ValueError("eps_rel is too small for the grid query: "
                         "more than 2**31 cells a side")
    (x_lo, y_lo), (x_hi, y_hi) = lo.min(axis=1), hi.max(axis=1)
    x, y = points
    points = points.compress((x >= x_lo) & (x <= x_hi) & (y >= y_lo) & (y <= y_hi), axis=1)
    covered = np.zeros(len(radii), dtype=bool)
    if not points.size:
        return covered

    def cell(x):
        return np.floor(x / h).astype(np.int64)

    cell_lo = cell(lo)
    corner = cell_lo.min(axis=1)[:, None]
    cell_lo -= corner
    cell_hi, own, cells = cell(hi) - corner, cell(queries) - corner, cell(points) - corner

    # count cell c holds the cells c 2^shift ... (c + 1) 2^shift - 1;
    # sums[j, i] counts the points in count cells below j and left of i
    top, shift = cell_hi.max(axis=1), 0
    while np.prod((top >> shift) + 1) > _COUNT_CELLS:
        shift += 1
    dims = ((top >> shift) + 1)[:, None]
    stride = int(dims[0, 0]) + 1
    sums = np.bincount(((cells[1] >> shift) + 1) * stride + (cells[0] >> shift) + 1,
                       minlength=(int(dims[1, 0]) + 1) * stride).reshape(-1, stride)
    np.cumsum(sums, axis=0, out=sums)
    np.cumsum(sums, axis=1, out=sums)
    sums = sums.ravel()

    def in_cells(c_lo, c_hi):
        """Points in the count cells from c_lo to c_hi, both included."""
        (x0, y0) = a = np.minimum(np.maximum(c_lo, 0), dims)
        (x1, y1) = np.maximum(np.minimum(c_hi + 1, dims), a)
        y0, y1 = y0 * stride, y1 * stride
        return sums[y1 + x1] - sums[y0 + x1] - sums[y1 + x0] + sums[y0 + x0]

    half = radii / math.sqrt(2.0) - pad
    inner_lo = np.ceil((queries - half) / h).astype(np.int64) - corner
    inner_hi = np.floor((queries + half) / h).astype(np.int64) - corner - 1
    # the count cells wholly inside: ceil(inner_lo / 2^shift) and on
    covered = in_cells(-(-inner_lo >> shift), ((inner_hi + 1) >> shift) - 1) > 0
    open_ = np.flatnonzero(~covered)
    open_ = open_[in_cells(cell_lo.take(open_, axis=1) >> shift,
                           cell_hi.take(open_, axis=1) >> shift) > 0]
    if not open_.size:
        return covered

    width = int(top[0]) + 1
    keys = cells[1] * width + cells[0]
    order = np.argsort(keys, kind="stable")
    keys, points = keys[order], points.take(order, axis=1)
    for window in (1, None):
        rest = open_[~covered[open_]]
        c_lo, c_hi = cell_lo.take(rest, axis=1), cell_hi.take(rest, axis=1)
        if window:
            c_lo = np.maximum(c_lo, own.take(rest, axis=1) - window)
            c_hi = np.minimum(c_hi, own.take(rest, axis=1) + window)
        n_rows = c_hi[1] - c_lo[1] + 1
        per_batch = max(1, _PAIR_CHUNK // int(n_rows.max(initial=1)))
        for b in range(0, len(rest), per_batch):
            # one (query, row strip) entry per row each query spans
            rows = n_rows[b:b + per_batch]
            s = np.repeat(np.arange(b, b + len(rows)), rows)
            first = np.cumsum(rows) - rows
            row = c_lo[1, s] + np.arange(len(s)) - np.repeat(first, rows)
            start = np.searchsorted(keys, row * width + c_lo[0, s])
            count = np.searchsorted(keys, row * width + c_hi[0, s], side="right") - start
            q = rest[s]
            ends = np.cumsum(count)
            # candidate pairs in chunks: pair k is the (k - first)-th point
            # of the strip whose cumulative count passes k
            for c in range(0, int(ends[-1]), _PAIR_CHUNK):
                pair = np.arange(c, min(c + _PAIR_CHUNK, int(ends[-1])))
                strip = np.searchsorted(ends, pair, side="right")
                px, py = points.take(start[strip] + pair - (ends[strip] - count[strip]), axis=1)
                qi = q[strip]
                dx = queries[0, qi] - px
                dy = queries[1, qi] - py
                covered[qi[np.sqrt(dx * dx + dy * dy) <= radii[qi]]] = True
    return covered


def _grid_covered(points: np.ndarray, queries: np.ndarray,
                  radii: np.ndarray) -> np.ndarray:
    """True where some of the planar ``points`` lies within ``radii[i] > 0``
    of ``queries[i]``, distances taken as ``sqrt(dx*dx + dy*dy)``.

    Queries are grouped into power-of-two levels of their radius, and
    each level is answered on a uniform grid sized to it (Bentley,
    Stanat & Williams 1977), since one grid for radii spanning decades
    is either too coarse for the small ones or too fine for the large.
    """
    covered = np.zeros(len(queries), dtype=bool)
    points, queries = np.ascontiguousarray(points.T), np.ascontiguousarray(queries.T)
    level = np.frexp(radii)[1]
    order = np.argsort(level, kind="stable")
    for idx in np.split(order, np.flatnonzero(np.diff(level[order])) + 1):
        if len(idx):                  # empty only when there are no queries
            covered[idx] = _grid_level(points, queries.take(idx, axis=1), radii[idx])
    return covered


def radial_containment_score(tail_points: np.ndarray, n_segment: int = 50,
                             eps_rel: float = 0.05, max_scored: int = 2000) -> float:
    """Fraction of planar tail points whose segment to the origin is covered.

    A point x counts when it is the origin, or when at least 90% of
    ``n_segment`` equispaced points on [0, x] lie within
    ``eps_rel * ||x||`` of some tail point, a fixed-radius query
    answered on uniform grids (``_grid_covered``). Scored on a subsample
    drawn with seed 0 when the tail has more than ``max_scored`` points.
    ``tail_points`` must be ``(m, 2)`` and finite, ``eps_rel`` positive
    and ``n_segment`` and ``max_scored`` at least 1, else ``ValueError``;
    so does an ``eps_rel`` below about 4e-9, for which a grid would need
    more than 2**31 cells a side.
    """
    tail_points = np.asarray(tail_points, dtype=float)
    if tail_points.ndim != 2 or tail_points.shape[1] != 2:
        raise ValueError(f"tail_points must be (m, 2), got {tail_points.shape}")
    if not np.isfinite(tail_points).all():
        raise ValueError("tail_points must be finite")
    if not eps_rel > 0:
        raise ValueError(f"eps_rel must be positive, got {eps_rel}")
    for name, value in (("n_segment", n_segment), ("max_scored", max_scored)):
        if value < 1:
            raise ValueError(f"{name} must be at least 1, got {value}")
    if len(tail_points) == 0:
        return 0.0
    rng = np.random.default_rng(0)
    m = min(max_scored, len(tail_points))
    pts = tail_points[rng.choice(len(tail_points), size=m, replace=False)]
    norms = np.linalg.norm(pts, axis=1)
    # every scored point's segment, all queried at once
    segments = (np.linspace(0.0, 1.0, n_segment)[None, :, None]
                * pts[:, None, :]).reshape(-1, 2)
    radii = np.repeat(eps_rel * norms, n_segment)
    hit = np.zeros(len(radii), dtype=bool)
    # radius 0 only at a scored origin, which counts anyway
    scored = radii > 0
    hit[scored] = _grid_covered(tail_points, segments[scored], radii[scored])
    covered = np.mean(hit.reshape(m, n_segment), axis=1)
    return int(np.count_nonzero((norms == 0.0) | (covered >= 0.9))) / m


def star_scan(scenario: Scenario, eta: float, n_samples: int = 100,
              sample_half_width: float = 500.0, n_steps: int = 500,
              seed: int = 0) -> StarScan:
    """Run a planar periodic scenario's composed map (``star_2d`` is
    the catalog's star instance) from seeded uniform starts.

    Emits the tail points (the last half of each bounded orbit), the
    averaged norm series over bounded orbits, and the radial containment
    score quantifying star-shapedness. Transients from the wide start
    box overshoot the bifurcation threshold, so an orbit diverges only
    past ``STAR_THRESHOLD`` (1e6) in norm.
    """
    if scenario.seq.dim != 2:
        raise ConfigurationError(f"field 'scenario.name': {scenario.name!r} is not "
                                 "planar, and the star scan needs two dimensions")
    gd_map = compose_map(scenario, eta)
    rng = np.random.default_rng(seed)
    starts = rng.uniform(-sample_half_width, sample_half_width, size=(n_samples, 2))
    points, diverged_at = _iterate(gd_map, starts, n_steps, STAR_THRESHOLD)
    bounded = points[:, diverged_at < 0]                 # (n_steps + 1, n, 2)
    n_bounded = bounded.shape[1]
    series_sum = np.zeros(n_steps + 1)
    with np.errstate(over="ignore"):        # rescaled where a square overflowed
        row_norms = rescale_overflowed_norms(bounded, np.linalg.norm(bounded, axis=-1))
    for norms in row_norms.T:               # in start order
        series_sum += norms
    keep_from = (n_steps + 1) // 2
    tail_points = bounded[keep_from:].transpose(1, 0, 2).reshape(-1, 2)
    avg = series_sum / n_bounded if n_bounded else np.full(n_steps + 1, np.inf)
    score = radial_containment_score(tail_points) if n_bounded else 0.0
    return StarScan(eta=eta, tail_points=tail_points, avg_norm_series=avg,
                    radial_score=score, n_diverged=n_samples - n_bounded,
                    n_samples=n_samples)
