"""Discrete-dynamics engine for fixed-step gradient descent on periodic
problems: composed period maps, orbit analysis, bifurcation scans,
periodic-orbit detection, stability, Li-Yorke evidence, and the
star-attractor scan.

The composed map applies the period's step maps in time order: the round-1
map acts first, so the orbit of the composed map started at x0 coincides
with every k-th iterate of the per-step recursion started at x0. Each step
is ``core._forward``, the learners' forward step. The map acts on the last
axis, so scans step every step size (or every start) as one ``(n, d)``
block in one process; one orbit is the one-row case of the same code.
``_iterate`` runs under ``core._run_policy``, the floating-point policy
that ``cli.run_experiment``, ``algorithms.run_tracker``,
``scenarios.verify_scenario`` and the ``quadratic_drift`` block also
enter. Divergence is tested once per block of 64 map periods, on all of
the block's points at once. After each block a bounded row whose last
state repeats an earlier state of the block bit for bit, a fixed point or
a cycle of period below 64, stops: its later points are copies of that
cycle. A scan row equals that step size or start run alone, and a
per-period loop without the exit, bit for bit when the operators' ``fn``
rounds a row the same alone and in a block, as the exp-quadratic catalog
does; the ``X @ A.T`` of ``Operator.from_affine`` may differ in the last
bit for a non-diagonal ``A`` in d >= 2, with the rows that share its
block. The periodic-orbit tools evaluate their 1-D maps as blocks too (one
map^3 call per level of the period-3 bisection), with the central
differences of ``scenarios._central_differences``: h = 1e-6 for stability,
1e-4 for Newton.

The star score has one geometry: 50 points on each scored point's
segment to the origin, a radius of 0.05 times that point's norm, at
most 2000 scored points. Each point is scored on the uniform grid of
its power-of-two band of radii, in units of that power of two (so a
cloud scores the same at any scale), at most 170 cells a side. Its
verdict comes from counts: two rectangle sums of per-cell point counts
settle most queries, and only undecided points compute distances. The
tail classification tests the whole tail only at the shifts that the
last point allows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .config import cell_width
from .core import (ConfigurationError, Domain, _evaluate_block, _forward, _run_policy,
                   as_point, row_norms)
from .scenarios import Scenario, _central_differences

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
        return _forward(self.domain, x, self.eta, _evaluate_block(op, x))

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
    if etas.ndim > 1 or not np.all(etas > 0):     # NaN fails too
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
    limit = min(threshold, np.finfo(float).max)     # inf still stops a non-finite row
    # a row on its way to divergence may overflow: the threshold, not a
    # warning, decides when it stops
    with _run_policy():
        for s0 in range(1, n_steps + 1, _CHECK_BLOCK):
            if not live.size:
                break
            block = np.empty((min(_CHECK_BLOCK, n_steps + 1 - s0), len(live), d))
            for b in range(len(block)):
                x = block[b] = gd_map(x)
            out = ~(row_norms(block) <= limit)
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
    if not 0 <= burn_in < len(orbit.points):
        raise ValueError(f"burn_in must be in [0, {len(orbit.points)}), got {burn_in}")
    return _classify_tails(orbit.points[burn_in:, None, :])[0]


def _classify_tails(tails: np.ndarray) -> list:
    """Classify every bounded orbit of a ``(T, n, d)`` tail block: converged
    when each tail point lies within ``PERIOD_TOL`` of the last, else
    periodic with the least p up to ``MAX_PERIOD`` whose p-shift moves no
    point by ``PERIOD_TOL`` or more, else bounded_aperiodic. Shifts need
    p < T. Only the shifts that move the last point by less than
    ``PERIOD_TOL``, in the same arithmetic, are tested on the whole tail."""
    out = [Classification("bounded_aperiodic")] * tails.shape[1]
    spread = np.linalg.norm(tails - tails[-1], axis=-1).max(axis=0)
    for i in np.flatnonzero(spread < PERIOD_TOL):
        out[i] = Classification("converged")
    open_rows = np.flatnonzero(spread >= PERIOD_TOL)
    shifts = np.arange(2, min(MAX_PERIOD, len(tails) - 1) + 1)
    near = np.linalg.norm(tails[-1, open_rows] - tails[np.ix_(-1 - shifts, open_rows)],
                          axis=-1) < PERIOD_TOL
    for p, candidates in zip(shifts.tolist(), near):
        k = np.flatnonzero(candidates)
        shift = np.linalg.norm(tails[p:, open_rows[k]] - tails[:-p, open_rows[k]],
                               axis=-1).max(axis=0)
        for i in open_rows[k[shift < PERIOD_TOL]]:
            out[i] = Classification("periodic", period=p)
        near[:, k[shift < PERIOD_TOL]] = False
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
    are emitted in step-size order. A cell grid is checked before any
    step, by the config's own rule (``config.cell_width``).
    """
    if not 0 <= burn_in < n_steps:
        raise ValueError(f"burn_in must be in [0, n_steps = {n_steps}), got {burn_in}")
    cell_width(cell_lo, cell_hi, n_cells)
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

def _require_1d(gd_map: GDMap, tool: str) -> None:
    if gd_map.dim != 1:
        raise ValueError(f"{tool} supports 1-D maps only")


def _map_points(gd_map: GDMap, u, p: int = 1) -> np.ndarray:
    """map^p at every point of the array ``u`` of 1-D points."""
    return gd_map.power(np.asarray(u, dtype=float)[..., None], p)[..., 0]


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
    _require_1d(gd_map, "newton_periodic_orbit")
    if p < 1:
        raise ValueError("p must be >= 1")
    x = float(as_point(x0)[0])
    for _ in range(_NEWTON_MAX_ITER):
        r = float(_map_points(gd_map, x, p)) - x
        if abs(r) <= tol:
            orbit = [x]
            for _ in range(p - 1):
                orbit.append(float(_map_points(gd_map, orbit[-1])))
            return PeriodicOrbit(fixed_point=x, orbit=tuple(orbit), residual=abs(r))
        d = float(_central_differences(lambda X: gd_map.power(X, p) - X,
                                       np.array([[x]]), _NEWTON_H)[0, 0, 0])
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
    _require_1d(gd_map, "orbit_stability")
    points = np.asarray(orbit, dtype=float).reshape(-1, 1)
    derivs = _central_differences(gd_map, points, _DERIV_H)[:, 0, 0]
    # multiplied in orbit order
    product = math.prod(derivs.tolist(), start=1.0)
    return StabilityResult(product=product, stable=abs(product) < 1.0)


class IntervalMapError(ValueError):
    """The map does not send the interval into itself."""


def period3_search(gd_map: GDMap, lo: float, hi: float, n_grid: int = 4000) -> list:
    """Locate period-3 points of a 1-D interval map.

    First verifies (on a sampled grid) that the map sends [lo, hi] into
    itself, then brackets sign changes of x - map^3(x), refines them by
    bisection, and filters out fixed points of the map itself. A
    nonempty result is Li-Yorke chaos evidence by the period-three
    theorem. Each map^3 call bisects every open bracket once; a bracket
    stops at a zero midpoint or a width below 1e-14.
    """
    _require_1d(gd_map, "period3_search")
    if n_grid < 2:
        return []

    check = np.linspace(lo, hi, _INTERVAL_CHECK_N)
    mapped = _map_points(gd_map, check)
    outside = np.flatnonzero(~((lo <= mapped) & (mapped <= hi)))
    if outside.size:
        u, v = check[outside[0]], mapped[outside[0]]
        raise IntervalMapError(
            f"map sends {u:.6g} to {v:.6g}, outside [{lo}, {hi}]")

    grid = np.linspace(lo, hi, n_grid)
    vals = grid - _map_points(gd_map, grid, 3)
    on_grid = vals[:-1] == 0.0
    bracket = ~on_grid & ((vals[:-1] < 0) != (vals[1:] < 0))
    a, b, fa = grid[:-1][bracket], grid[1:][bracket], vals[:-1][bracket]
    live = np.arange(len(a))
    for _ in range(200):
        if not live.size:
            break
        m = 0.5 * (a[live] + b[live])
        fm = m - _map_points(gd_map, m, 3)
        go = (fm != 0.0) & ~(b[live] - a[live] < 1e-14)
        live, m, fm = live[go], m[go], fm[go]
        left = (fm < 0) == (fa[live] < 0)
        a[live[left]], fa[live[left]] = m[left], fm[left]
        b[live[~left]] = m[~left]
    roots = grid[:-1].copy()
    roots[bracket] = 0.5 * (a + b)
    roots = sorted(roots[on_grid | bracket].tolist())
    if not roots:
        return []

    fixed = np.abs(roots - _map_points(gd_map, roots)) < _FIXED_POINT_TOL
    out = []
    for r, is_fixed in zip(roots, fixed.tolist()):
        # skip fixed points of the map itself, and repeats
        if is_fixed or (out and abs(r - out[-1]) < 1e-7):
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
# The star score's one geometry: a point's segment to the origin is
# sampled at _SEGMENT_POINTS points, each asked for a tail point within
# _EPS_REL times the point's norm, on at most _MAX_SCORED scored points.
_SEGMENT_POINTS = 50
_EPS_REL = 0.05
_MAX_SCORED = 2000


def _grid_level(points: np.ndarray, queries: np.ndarray, radii: np.ndarray,
                size: int, need: int) -> np.ndarray:
    """Fixed-radius verdicts for radii within a factor of two of each
    other, on ``(2, m)`` points and ``(2, n)`` queries (one coordinate a
    row): True for each group of ``size`` consecutive queries of which
    ``need`` or more have a point with ``sqrt(dx*dx + dy*dy) <= radii[i]``.

    Cell (i, j) is [i h, (i+1) h) x [j h, (j+1) h) with h = min(radii) / 2,
    and the grid spans the queries' squares [q - r, q + r]. Its size
    rests on the score's geometry: in the band's units the radii lie in
    [1/2, 1), and a query on a segment [0, x] with r = 0.05 ||x||
    (``_EPS_REL``) lies within 20 of the origin, so the grid has at most
    8 (1 / 0.05 + 1) + 2 = 170 cells a side (a query farther out for its
    radius gets a grid that much larger). Two rectangle sums over a
    prefix-sum table of the points per cell bound each query: it is
    covered when the cells wholly inside the square of half-side
    r / sqrt(2) around it, shrunk by a rounding pad, hold a point, and
    open when they hold none but the cells spanning [q - r, q + r] do.
    A group passes on its covered count, and fails when covered and open
    together come short of ``need``. Only the others' open queries test
    the points in the row strips of their cells (ranges of the points
    sorted row-major): the 3 x 3 cells around the query's own cell
    first, then all of them for the groups still short.
    """
    h = 0.5 * radii.min()
    # the pad exceeds by far the rounding of q - r and q + r, of a
    # point's cell and of its distance to q: no candidate's cell falls
    # outside the strips, and a point in the inner square lies within r
    pad = 2.0 ** -40 * (np.abs(queries[0]) + np.abs(queries[1]) + radii)
    reach = radii + pad
    lo, hi = queries - reach, queries + reach
    box_lo, box_hi = lo.min(axis=1)[:, None], hi.max(axis=1)[:, None]
    points = points.compress(((points >= box_lo) & (points <= box_hi)).all(axis=0), axis=1)
    if not points.size:
        return np.zeros(len(radii) // size, dtype=bool)

    def cell(x):
        return np.floor(x / h).astype(np.int64)

    # cell() is monotone, so the box's corners lie in the grid's corner cells
    corner = cell(box_lo)
    dims, cells = cell(box_hi) - corner + 1, cell(points) - corner

    # sums[j, i] counts the points in the cells below j and left of i
    width = int(dims[0, 0])
    stride = width + 1
    sums = np.bincount((cells[1] + 1) * stride + cells[0] + 1,
                       minlength=(int(dims[1, 0]) + 1) * stride).reshape(-1, stride)
    np.cumsum(sums, axis=0, out=sums)
    np.cumsum(sums, axis=1, out=sums)
    sums = sums.ravel()

    def in_cells(c_lo, c_hi):
        """Points in the cells from c_lo to c_hi, both included."""
        (x0, y0) = a = np.minimum(np.maximum(c_lo, 0), dims)
        (x1, y1) = np.maximum(np.minimum(c_hi + 1, dims), a)
        y0, y1 = y0 * stride, y1 * stride
        return sums[y1 + x1] - sums[y0 + x1] - sums[y1 + x0] + sums[y0 + x0]

    def n_covered():
        return np.count_nonzero(covered.reshape(-1, size), axis=1)

    half = radii / math.sqrt(2.0) - pad
    covered = np.empty(len(radii), dtype=bool)
    for c in range(0, len(radii), 4096):       # blocks that stay in cache
        qc, hc = queries[:, c:c + 4096], half[c:c + 4096]
        inner_lo = np.ceil((qc - hc) / h).astype(np.int64) - corner
        inner_hi = np.floor((qc + hc) / h).astype(np.int64) - corner - 1
        covered[c:c + 4096] = in_cells(inner_lo, inner_hi) > 0
    open_ = np.flatnonzero(~covered & np.repeat(n_covered() < need, size))
    cell_lo, cell_hi = cell(lo.take(open_, axis=1)) - corner, cell(hi.take(open_, axis=1)) - corner
    keep = in_cells(cell_lo, cell_hi) > 0
    at_most = n_covered() + np.bincount(open_[keep] // size, minlength=len(covered) // size)
    keep &= at_most[open_ // size] >= need
    open_, cell_lo, cell_hi = open_[keep], cell_lo[:, keep], cell_hi[:, keep]
    if not open_.size:
        return n_covered() >= need

    points = points.take(np.argsort(cells[1] * width + cells[0], kind="stable"), axis=1)
    for window in (1, None):
        at = np.flatnonzero(~covered[open_] & (n_covered() < need)[open_ // size])
        rest, c_lo, c_hi = open_[at], cell_lo[:, at], cell_hi[:, at]
        if window:
            own = cell(queries.take(rest, axis=1)) - corner
            c_lo, c_hi = np.maximum(c_lo, own - window), np.minimum(c_hi, own + window)
        n_rows = c_hi[1] - c_lo[1] + 1
        per_batch = max(1, _PAIR_CHUNK // int(n_rows.max(initial=1)))
        for b in range(0, len(rest), per_batch):
            # one (query, row strip) entry per row each query spans
            rows = n_rows[b:b + per_batch]
            s = np.repeat(np.arange(b, b + len(rows)), rows)
            first = np.cumsum(rows) - rows
            row = c_lo[1, s] + np.arange(len(s)) - np.repeat(first, rows)
            # the prefix sums give a strip's range in the row-major order
            base, x0, x1 = row * stride, c_lo[0, s], c_hi[0, s] + 1
            left = sums[base + stride + x0] - sums[base + x0]
            start = sums[base + width] + left
            count = sums[base + stride + x1] - sums[base + x1] - left
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
    return n_covered() >= need


def _covered_segments(points: np.ndarray, ends: np.ndarray, radii: np.ndarray,
                      fractions: np.ndarray, need: int) -> np.ndarray:
    """True for each planar end x_i when ``need`` or more of the points
    f x_i, f in ``fractions``, have one of the planar ``points`` within
    ``radii[i] > 0``, distances taken as ``sqrt(dx*dx + dy*dy)``.

    The ends are grouped into power-of-two levels of their radius, and
    each level's queries are built and answered on a uniform grid sized
    to it (Bentley, Stanat & Williams 1977), since one grid for radii
    spanning decades is either too coarse for the small ones or too fine
    for the large. Radii in [2^(e-1), 2^e) are answered in units of 2^e
    (``np.ldexp``, exact), where no deciding distance squares to 0 or inf
    at any scale; a point too far out for the band overflows to inf,
    outside its box.
    """
    good, level = np.zeros(len(ends), dtype=bool), np.frexp(radii)[1]
    points = np.ascontiguousarray(points.T)
    with np.errstate(over="ignore"):
        for e in sorted(set(level.tolist())):     # np.unique imports numpy.ma
            band = np.flatnonzero(level == e)
            queries = (ends[band].T[:, :, None] * fractions).reshape(2, -1)
            good[band] = _grid_level(np.ldexp(points, -e), np.ldexp(queries, -e),
                                     np.ldexp(np.repeat(radii[band], len(fractions)), -e),
                                     len(fractions), need)
    return good


def radial_containment_score(tail_points: np.ndarray) -> float:
    """Fraction of planar tail points whose segment to the origin is covered.

    A point x counts when it is the origin, or when at least 90% of 50
    equispaced points on [0, x] (``_SEGMENT_POINTS``) lie within
    0.05 ||x|| (``_EPS_REL``) of some tail point, a fixed-radius query
    answered on uniform grids (``_covered_segments``) as a count: 45 of
    50 covered pass, and a point whose grid counts settle that computes
    no distance. Scored on a subsample of 2000 points (``_MAX_SCORED``)
    drawn with seed 0 when the tail has more. ``tail_points`` must be
    ``(m, 2)`` with finite norms (``row_norms``), else ``ValueError``: a
    finite point whose norm exceeds the largest float is rejected too.
    """
    tail_points = np.asarray(tail_points, dtype=float)
    if tail_points.ndim != 2 or tail_points.shape[1] != 2:
        raise ValueError(f"tail_points must be (m, 2), got {tail_points.shape}")
    all_norms = row_norms(tail_points)
    if not np.isfinite(all_norms).all():
        raise ValueError("tail_points must be finite, with finite norms")
    if len(tail_points) == 0:
        return 0.0
    rng = np.random.default_rng(0)
    m = min(_MAX_SCORED, len(tail_points))
    idx = rng.choice(len(tail_points), size=m, replace=False)
    pts, norms = tail_points[idx], all_norms[idx]
    # the least count of covered segment points whose mean is >= 0.9
    need = next(c for c in range(_SEGMENT_POINTS + 1) if c / _SEGMENT_POINTS >= 0.9)
    # radius 0 at a scored origin (it counts) or a norm under 5e-323 (not)
    good, scored = norms == 0.0, _EPS_REL * norms > 0
    good[scored] = _covered_segments(tail_points, pts[scored], _EPS_REL * norms[scored],
                                     np.linspace(0.0, 1.0, _SEGMENT_POINTS), need)
    return int(np.count_nonzero(good)) / m


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
    for norms in row_norms(bounded).T:      # in start order
        series_sum += norms
    keep_from = (n_steps + 1) // 2
    tail_points = bounded[keep_from:].transpose(1, 0, 2).reshape(-1, 2)
    avg = series_sum / n_bounded if n_bounded else np.full(n_steps + 1, np.inf)
    score = radial_containment_score(tail_points) if n_bounded else 0.0
    return StarScan(eta=eta, tail_points=tail_points, avg_norm_series=avg,
                    radial_score=score, n_diverged=n_samples - n_bounded,
                    n_samples=n_samples)
