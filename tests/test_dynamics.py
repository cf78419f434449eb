"""Tests for the composed-map dynamics engine."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tvvi import dynamics
from tvvi.algorithms import ContractiveForward, run_tracker
from tvvi.core import ConfigurationError, Domain, Operator, row_norms
from tvvi.dynamics import (DIVERGENCE_THRESHOLD, MAX_PERIOD, PERIOD_TOL, Classification,
                           GDMap, IntervalMapError, _classify_tails, _covered_segments,
                           bifurcation_scan, classify_eta, classify_orbit, compose_map,
                           eta_grid, iterate_orbit, newton_periodic_orbit, orbit_stability,
                           period3_search, radial_containment_score, star_scan)
from tvvi.scenarios import build_scenario, periodic_quadratic


@pytest.fixture(scope="module")
def chaos():
    return build_scenario("chaos_1d")


@pytest.fixture(scope="module")
def star():
    return build_scenario("star_2d")


@pytest.fixture(scope="module")
def ring():
    # a thin annulus is far from star-shaped
    theta = np.random.default_rng(0).uniform(0, 2 * np.pi, 2000)
    return np.c_[np.cos(theta), np.sin(theta)]


@pytest.fixture(scope="module")
def spokes():
    # dense radial spokes are star-shaped by construction
    angles = np.linspace(0, 2 * np.pi, 16, endpoint=False)
    radii = np.linspace(0.0, 1.0, 1000)
    return np.vstack([np.c_[r * np.cos(angles), r * np.sin(angles)] for r in radii])


def brute_covered(points, queries, radii):
    """The fixed-radius reference: the distance from each query to its
    nearest point, against the query's radius (the root of the least
    square is the least root, bit for bit)."""
    dx = queries[:, None, 0] - points[None, :, 0]
    dy = queries[:, None, 1] - points[None, :, 1]
    dx *= dx                            # dx*dx + dy*dy, in place
    dy *= dy
    dx += dy
    return np.sqrt(dx.min(axis=1)) <= radii


def all_queries_score(tail_points):
    """The star score as first built, the reference for its per-point
    verdicts: every scored point's 50 segment queries answered, each band
    of radii [2^(e-1), 2^e) in units of 2^e, and a point counted when it
    is the origin or the mean of its hits is >= 0.9. The queries are
    answered by brute force, in chunks, where the score used its grids."""
    tail_points = np.asarray(tail_points, dtype=float)
    m = min(2000, len(tail_points))
    idx = np.random.default_rng(0).choice(len(tail_points), size=m, replace=False)
    pts, norms = tail_points[idx], row_norms(tail_points)[idx]
    segments = (np.linspace(0.0, 1.0, 50)[None, :, None] * pts[:, None, :]).reshape(-1, 2)
    radii = np.repeat(0.05 * norms, 50)
    hit = np.zeros(len(radii), dtype=bool)
    level = np.frexp(radii)[1]
    with np.errstate(over="ignore"):
        for e in np.unique(level[radii > 0]).tolist():
            band = np.flatnonzero((radii > 0) & (level == e))
            for c in range(0, len(band), 500):
                q = band[c:c + 500]
                hit[q] = brute_covered(np.ldexp(tail_points, -e), np.ldexp(segments[q], -e),
                                       np.ldexp(radii[q], -e))
    covered = np.mean(hit.reshape(m, 50), axis=1)
    return int(np.count_nonzero((norms == 0.0) | (covered >= 0.9))) / m


def classify_tails_reference(tails):
    """The tail classification as first built: every shift p = 2..64 on
    the whole tail of every open row, in increasing p."""
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


@st.composite
def cycle_tails(draw):
    """``(T, n, d)`` tail blocks, d in {1, 2}: each row repeats a random
    cycle of period 1-80 (1 settles, past 64 wanders) at a drawn scale,
    and may have one point moved by PERIOD_TOL times 1 - 1e-6, 1 or
    1 + 1e-6: the last point, the point one period before it, or any."""
    d = draw(st.sampled_from([1, 2]))
    length = draw(st.integers(2, 160))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    rows = []
    for _ in range(draw(st.integers(1, 5))):
        p = draw(st.integers(1, 80))
        cycle = rng.uniform(-2.0, 2.0, (p, d)) * 10.0 ** draw(st.sampled_from([-4, 0, 3]))
        row = cycle[np.arange(length) % p]
        where = draw(st.sampled_from(["none", "last", "period_back", "any"]))
        if where != "none":
            i = {"last": length - 1, "period_back": max(length - 1 - p, 0),
                 "any": int(rng.integers(length))}[where]
            step = rng.standard_normal(d)
            row[i] += PERIOD_TOL * draw(st.sampled_from([1 - 1e-6, 1.0, 1 + 1e-6])) \
                * step / np.linalg.norm(step)
        rows.append(row)
    return np.stack(rows, axis=1)


class TestComposeMap:
    def test_k1_is_single_map(self):
        sc = periodic_quadratic([[0.0]])
        m = compose_map(sc, 0.5)
        assert len(m.ops) == 1
        assert m(np.array([2.0]))[0] == pytest.approx(1.0)

    def test_eta2_expands(self, chaos):
        m = compose_map(chaos, 2.0)
        for x in (0.5, 1.0, 2.0, 5.0, -0.5, -1.0, -2.0, -5.0):
            assert abs(m(np.array([x]))[0]) > 2.0 * abs(x)

    def test_identity_limit(self, chaos):
        x = np.array([0.7])
        for eta in (1e-3, 1e-5):
            out = compose_map(chaos, eta)(x)
            assert abs(out[0] - x[0]) <= 10.0 * eta

    def test_composition_matches_per_step_iteration(self, chaos):
        # nk per-step applications from x0 equal n composed applications
        eta = 0.9
        m = compose_map(chaos, eta)
        x = np.array([-0.3])
        per_step = x.copy()
        for t in range(1, 13):
            op = chaos.seq.at(t)
            per_step = per_step - eta * op(per_step)
        composed = x.copy()
        for _ in range(6):
            composed = m(composed)
        assert per_step[0] == composed[0]   # bitwise

    def test_per_row_eta_matches_one_eta(self, chaos):
        etas = [0.4, 2.0, 3.9, 6.1]
        x = np.array([[-0.1], [0.3], [1.2], [-2.0]])
        block = compose_map(chaos, etas).power(x, 5)
        for eta, xi, out in zip(etas, x, block):
            assert np.array_equal(compose_map(chaos, eta).power(xi, 5), out)

    def test_block_counts_one_evaluation_per_row(self, chaos):
        before = [op.evals for op in compose_map(chaos, 1.0).ops]
        m = compose_map(chaos, [1.0, 2.0, 3.0])
        m(np.zeros((3, 1)))
        assert [op.evals - b for op, b in zip(m.ops, before)] == [3, 3]

    def test_requires_period(self):
        sc = build_scenario("quadratic_drift")
        with pytest.raises(ConfigurationError, match="scenario.name"):
            compose_map(sc, 0.5)


class TestOrbits:
    def test_small_eta_converges_to_zero(self, chaos):
        orbit = iterate_orbit(compose_map(chaos, 0.4), [-0.1], 2000)
        assert orbit.bounded
        assert all(abs(p[0]) < 1e-6 for p in orbit.points[-100:])

    def test_eta2_diverges(self, chaos):
        orbit = iterate_orbit(compose_map(chaos, 2.0), [0.01], 2000)
        assert not orbit.bounded
        assert abs(orbit.points[orbit.diverged_at][0]) > DIVERGENCE_THRESHOLD

    def test_fixed_point_constant_orbit(self, chaos):
        orbit = iterate_orbit(compose_map(chaos, 0.7), [0.0], 50)
        assert all(p[0] == 0.0 for p in orbit.points)

    def test_subsequence_boundedness_equivalence(self, chaos):
        # the per-step orbit is bounded iff the composed orbit is
        rng = np.random.default_rng(4)
        for _ in range(50):
            eta = float(rng.uniform(0.1, 8.0))
            x0 = float(rng.uniform(-2.0, 2.0))
            m = compose_map(chaos, eta)
            composed = iterate_orbit(m, [x0], 400, threshold=1e8)
            x = np.array([x0])
            per_step_bounded = True
            for t in range(1, 801):
                x = x - eta * chaos.seq.at(t)(x)
                if not np.all(np.isfinite(x)) or np.linalg.norm(x) > 1e8:
                    per_step_bounded = False
                    break
            assert composed.bounded == per_step_bounded


def same_bits(a, b):
    """Equal arrays bit for bit: 0.0 and -0.0 differ, NaNs compare by
    their bits."""
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def per_period(gd_map, x0, n_steps, threshold, keep_from=0):
    """Each row alone through every map period, its divergence tested
    after each: no block and no exit, the loop ``_iterate`` reproduces."""
    points = np.full((n_steps + 1 - keep_from,) + x0.shape, np.nan)
    diverged_at = np.full(len(x0), -1)
    for i in range(len(x0)):
        m, x = gd_map.rows([i]), x0[i:i + 1]
        if keep_from == 0:
            points[0, i] = x[0]
        for s in range(1, n_steps + 1):
            with np.errstate(over="ignore", invalid="ignore"):
                x = m(x)
                norm = row_norms(x)[0]
            if s >= keep_from:
                points[s - keep_from, i] = x[0]
            if not norm <= threshold:
                diverged_at[i] = s
                break
    return points, diverged_at


class TestIterateBlocks:
    """``_iterate`` tests divergence once per block of map periods; its
    points and divergence periods must equal a per-period test's."""

    THRESHOLD = 2.0 ** 1000
    N_STEPS = 150                       # not a multiple of the block
    MAGIC = 3.0 * 2.0 ** -10            # the operator turns this value into NaN

    @staticmethod
    def gd_map(etas):
        # F(x) = -x doubles a row stepped with eta 1 (exactly, in powers
        # of two) and keeps a row stepped with eta 0; a row reaching
        # MAGIC goes NaN at its next step
        op = Operator(fn=lambda X: np.where(X == TestIterateBlocks.MAGIC, np.nan, -X),
                      dim=2)
        return GDMap(ops=[op], domain=Domain.unbounded(2),
                     eta=np.asarray(etas, dtype=float)[:, None], dim=2)

    def reference(self, etas, x0, keep_from):
        return per_period(self.gd_map(etas), x0, self.N_STEPS, self.THRESHOLD,
                          keep_from)

    @pytest.mark.parametrize("block", [None, 1, 7])
    @pytest.mark.parametrize("keep_from", [0, 40])
    def test_blocks_match_a_test_per_period(self, monkeypatch, block, keep_from):
        if block is not None:
            monkeypatch.setattr(dynamics, "_CHECK_BLOCK", block)
        # (eta, start, the period it diverges at, -1 for bounded)
        rows = [(1.0, 2.0 ** (1001 - s), s) for s in (1, 7, 8, 63, 64, 65, 128, 150)]
        rows += [
            (1.0, np.nan, 1),                  # non-finite from the first step
            (1.0, 3.0 * 2.0 ** -100, 91),      # reaches MAGIC at 90, NaN at 91
            (0.0, 2.0 ** 600, -1),             # finite, its square overflows
            (0.0, 2.0 ** 1000, -1),            # its norm is the threshold
            (1.0, 2.0 ** -200, -1),
        ]
        etas = [r[0] for r in rows]
        x0 = np.array([[r[1], 0.0] for r in rows])
        want_points, want_at = self.reference(etas, x0, keep_from)
        assert want_at.tolist() == [r[2] for r in rows]
        points, at = dynamics._iterate(self.gd_map(etas), x0, self.N_STEPS,
                                       self.THRESHOLD, keep_from=keep_from)
        assert at.tolist() == want_at.tolist()
        assert np.array_equal(points, want_points, equal_nan=True)

    def test_an_infinite_threshold_stops_a_row_at_inf(self):
        # 2**1000 doubles to inf at period 24, then stays inf: an inf
        # state that repeats is diverged, not a fixed point
        x0 = np.array([[2.0 ** 1000, 0.0]])
        points, at = dynamics._iterate(self.gd_map([1.0]), x0, 100, np.inf)
        assert at.tolist() == [24] and points[24, 0, 0] == np.inf

    @pytest.mark.parametrize("threshold", [math.nan, 0.0, -1.0])
    @pytest.mark.parametrize("entry", ["run_tracker", "iterate_orbit", "bifurcation_scan",
                                       "star_scan"])
    def test_a_threshold_not_positive_is_refused(self, chaos, star, monkeypatch, entry,
                                                 threshold):
        # one rule, core._divergence_limit: a NaN threshold would call every
        # point diverged, as would 0 and -1
        monkeypatch.setattr(dynamics, "STAR_THRESHOLD", threshold)
        calls = {
            "run_tracker": lambda: run_tracker(chaos.seq, ContractiveForward(0.3), chaos.domain,
                                               [0.0], 20, divergence_threshold=threshold),
            "iterate_orbit": lambda: iterate_orbit(compose_map(chaos, 0.3), [0.0], 20,
                                                   threshold=threshold),
            "bifurcation_scan": lambda: bifurcation_scan(chaos, 0.0, [0.3], n_steps=20,
                                                         burn_in=0, threshold=threshold),
            "star_scan": lambda: star_scan(star, 0.3, n_samples=4, n_steps=20)}
        with pytest.raises(ValueError, match=f"divergence threshold must be positive, "
                                             f"got {threshold}"):
            calls[entry]()

    @staticmethod
    def cycle_map():
        # stepped with eta 1, (k, p, c) -> ((k + 1) mod p, p, c + sign(c))
        # exactly for integers k, p >= 1 and c >= 0
        def fn(X):
            k, p, c = np.moveaxis(X, -1, 0)
            return np.stack([k - (k + 1) % p, np.zeros_like(p), -np.sign(c)], axis=-1)
        return GDMap(ops=[Operator(fn=fn, dim=3)], domain=Domain.unbounded(3),
                     eta=1.0, dim=3)

    @pytest.mark.parametrize("keep_from", [0, 64, 150])
    def test_exact_cycles(self, keep_from):
        # a block of 64 periods finds p = 1, 2 and 63; 64 and 100 repeat
        # no state within one block, and the last row's counter c never
        # repeats, though its k does: these three step to the end
        periods = np.array([1, 2, 63, 64, 100, 1])
        x0 = np.c_[periods - 1, periods, [0, 0, 0, 0, 0, 1]].astype(float)
        gd_map = self.cycle_map()
        points, at = dynamics._iterate(gd_map, x0, 300, 1e3, keep_from=keep_from)
        assert gd_map.ops[0].evals == 3 * 64 + 3 * 300
        want_points, want_at = per_period(gd_map, x0, 300, 1e3, keep_from)
        assert at.tolist() == want_at.tolist() == [-1] * 6
        assert same_bits(points, want_points)
        s = np.arange(keep_from, 301)[:, None]
        assert np.array_equal(points[..., 0], (periods - 1 + s) % periods)
        assert np.array_equal(points[:, -1, 2], 1 + s[:, 0])

    @settings(derandomize=True, database=None, deadline=None, max_examples=30)
    @given(rows=st.lists(st.tuples(st.one_of(st.sampled_from([2.0, 3.9, 5.0, 7.0, 8.0]),
                                             st.floats(0.05, 9.0)),
                                   st.one_of(st.just(-0.1), st.floats(-3.0, 3.0))),
                         min_size=1, max_size=5),
           keep_from=st.sampled_from([0, 150]))
    def test_exit_changes_no_chaos_point(self, chaos, rows, keep_from):
        # (eta, start) rows: from -0.1, eta 3.9 closes an 8-cycle at
        # period 92 and eta 8 a fixed point by period 4
        gd_map = compose_map(chaos, [eta for eta, _ in rows])
        starts = np.array([[x0] for _, x0 in rows])
        got = dynamics._iterate(gd_map, starts, 200, DIVERGENCE_THRESHOLD, keep_from)
        want = per_period(gd_map, starts, 200, DIVERGENCE_THRESHOLD, keep_from)
        assert got[1].tolist() == want[1].tolist()
        assert same_bits(got[0], want[0])

    @settings(derandomize=True, database=None, deadline=None, max_examples=15)
    @given(eta=st.sampled_from([0.2, 0.4, 1.35, 1.4]),
           half_width=st.sampled_from([1.0, 10.0, 500.0]),
           seed=st.integers(0, 2 ** 31 - 1), keep_from=st.sampled_from([0, 150]))
    def test_exit_changes_no_star_point(self, star, eta, half_width, seed, keep_from):
        # at eta 0.4 every start settles within 64 periods, at 0.2 some
        # of the wide ones do; at 1.4 the wider starts diverge
        gd_map = compose_map(star, eta)
        starts = np.random.default_rng(seed).uniform(-half_width, half_width, (4, 2))
        got = dynamics._iterate(gd_map, starts, 200, dynamics.STAR_THRESHOLD, keep_from)
        want = per_period(gd_map, starts, 200, dynamics.STAR_THRESHOLD, keep_from)
        assert got[1].tolist() == want[1].tolist()
        assert same_bits(got[0], want[0])

    def test_settles_in_the_block_where_another_diverges(self, chaos):
        # from -0.1, eta 8 is a fixed point by period 4 and eta 2 diverges
        # at period 9, both in the first block; eta 3.9 closes its
        # 8-cycle at period 92, in the second
        gd_map = compose_map(chaos, [8.0, 2.0, 3.9])
        starts = np.full((3, 1), -0.1)
        evals = sum(op.evals for op in gd_map.ops)
        points, at = dynamics._iterate(gd_map, starts, 300, DIVERGENCE_THRESHOLD)
        # two operators a period: 64 periods each for the first two
        # rows, 128 for the third
        assert sum(op.evals for op in gd_map.ops) - evals == 2 * (64 + 64 + 128)
        want_points, want_at = per_period(gd_map, starts, 300, DIVERGENCE_THRESHOLD)
        assert at.tolist() == want_at.tolist() == [-1, 9, -1]
        assert same_bits(points, want_points)

    def test_orbit_stops_stepping_at_its_cycle(self, chaos):
        gd_map = compose_map(chaos, 3.9)
        evals = sum(op.evals for op in gd_map.ops)
        orbit = iterate_orbit(gd_map, [-0.1], 2000)
        steps = sum(op.evals for op in gd_map.ops) - evals
        # of 2 x 2000 nominal steps: the 8-cycle closes at period 92
        assert steps == 2 * 128
        assert np.array_equal(orbit.points[92:], orbit.points[84:-8])


class TestClassification:
    @pytest.mark.parametrize("eta,expected", [
        (0.4, "converged"),
        (8.0, "converged"),
        (2.0, "diverged"),
        (6.1, "bounded_aperiodic"),
    ])
    def test_kinds(self, chaos, eta, expected):
        cls = classify_eta(compose_map(chaos, eta), [-0.1])
        assert cls.kind == expected

    def test_period_four_window(self, chaos):
        cls = classify_eta(compose_map(chaos, 3.9), [-0.1])
        assert cls.kind == "periodic" and cls.period == 4

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(tails=cycle_tails())
    def test_prefiltered_tails_match_the_full_loop(self, tails):
        assert _classify_tails(tails) == classify_tails_reference(tails)

    def test_eta_grid_covers_half_open_interval(self):
        g = eta_grid(0.0, 8.0, 40)
        assert len(g) == 40
        assert g[0] > 0.0
        assert g[-1] == 8.0


class TestBifurcationScan:
    def test_converged_rows_collapse_to_adjacent_cells(self, chaos):
        rows = bifurcation_scan(chaos, [-0.1], etas=[0.4, 7.6, 8.0],
                                n_steps=1500, burn_in=1000)
        for row in rows:
            assert row.classification.kind == "converged"
            cells = row.occupied_cells
            # sign-alternating convergence to a cell boundary may
            # straddle two neighbours; never more
            assert 1 <= len(cells) <= 2
            assert max(cells) - min(cells) <= 1

    def test_diverged_rows_have_no_cells(self, chaos):
        rows = bifurcation_scan(chaos, [-0.1], etas=[2.0], n_steps=500,
                                burn_in=100)
        assert rows[0].classification.kind == "diverged"
        assert rows[0].occupied_cells == ()

    def test_rows_match_one_orbit_each(self, chaos):
        # the reference: each step size alone through iterate_orbit
        etas = eta_grid(0.0, 8.0, 40) + [3.9, 6.1]
        rows = bifurcation_scan(chaos, [-0.1], etas=etas, n_steps=1200,
                                burn_in=1000, n_cells=200)
        width = 20.0 / 200
        for eta, row in zip(etas, rows):
            orbit = iterate_orbit(compose_map(chaos, eta), [-0.1], 1200)
            assert row.eta == eta
            assert row.classification == classify_orbit(orbit, 1000)
            cells = set()
            if orbit.bounded:
                for p in orbit.points[1000:]:
                    if -10.0 <= p[0] <= 10.0:
                        cells.add(min(int((p[0] + 10.0) / width), 199))
            assert row.occupied_cells == tuple(sorted(cells))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("cell_lo, cell_hi, n_cells, field", [
        (0.0, 5e-324, 1000, "cell_hi"), (-1e308, 1e308, 1000, "cell_hi"),
        (-10.0, 10.0, 0, "cells")], ids=["width_0", "width_inf", "no_cells"])
    def test_cell_grid_the_config_refuses_is_refused(self, chaos, cell_lo, cell_hi,
                                                     n_cells, field):
        # the config's cell-grid rule holds for a library call too: no
        # IndexError, ZeroDivisionError or warning, and no occupancy all
        # in cell 0
        with pytest.raises(ConfigurationError, match=f"field 'dynamics.{field}'"):
            bifurcation_scan(chaos, 0.0, [8.0], n_steps=400, burn_in=200,
                             cell_lo=cell_lo, cell_hi=cell_hi, n_cells=n_cells)

    @pytest.mark.parametrize("burn_in", [-5, -1, 20, 21])
    def test_burn_in_outside_the_steps_is_refused(self, chaos, burn_in):
        # a negative burn-in read unwritten NaN rows into the tail, and
        # classified a converging orbit bounded_aperiodic
        with pytest.raises(ValueError, match="burn_in"):
            bifurcation_scan(chaos, 0.0, [0.3], n_steps=20, burn_in=burn_in)
        assert bifurcation_scan(chaos, 0.0, [0.3], n_steps=20, burn_in=0)[0] \
            .classification.kind == "converged"

    @pytest.mark.parametrize("burn_in", [-1, 21, 100])
    def test_classify_orbit_refuses_a_burn_in_past_the_orbit(self, chaos, burn_in):
        orbit = iterate_orbit(compose_map(chaos, 0.3), [0.0], 20)
        with pytest.raises(ValueError, match="burn_in"):
            classify_orbit(orbit, burn_in)
        assert classify_orbit(orbit, 20).kind == "converged"

    @pytest.mark.parametrize("domain", [None, Domain.interval(-1.0, 1.0)],
                             ids=["unbounded", "interval"])
    def test_steps_the_scenario_given(self, domain):
        # a scenario outside the catalog is scanned as given
        sc = periodic_quadratic([[0.5], [-0.5]], domain=domain)
        rows = bifurcation_scan(sc, [0.0], etas=[0.1, 1.0, 2.5], n_steps=300,
                                burn_in=200)
        kinds = [r.classification.kind for r in rows]
        # the composed map is x -> (1 - eta)^2 x - eta^2 / 2, fixed at
        # -eta / (2 (2 - eta)) for eta < 2; the interval clips eta = 2.5
        # to its end -1
        assert kinds == ["converged", "converged",
                         "diverged" if domain is None else "converged"]
        expected = [-0.1 / 3.8, -0.5] + ([] if domain is None else [-1.0])
        for row, x in zip(rows, expected):
            assert row.occupied_cells == (int((x + 10.0) / 0.02),)


class TestNewton:
    def test_four_cycle_at_3_9(self, chaos):
        m = compose_map(chaos, 3.9)
        po = newton_periodic_orbit(m, 4, [-0.1])
        assert po is not None
        assert po.residual <= 1e-10
        cycle = sorted(po.orbit)
        assert np.allclose(cycle, sorted([-1.35, 5.92, -1.57, 7.04]), atol=0.02)

    def test_newton_postresidual(self, chaos):
        m = compose_map(chaos, 3.9)
        po = newton_periodic_orbit(m, 4, [-0.1], tol=1e-11)
        x = np.array([po.fixed_point])
        assert abs(m.power(x, 4)[0] - po.fixed_point) <= 1e-11

    def test_contraction_unique_fixed_point(self, chaos):
        po = newton_periodic_orbit(compose_map(chaos, 0.4), 1, [0.5])
        assert po is not None
        assert po.fixed_point == pytest.approx(0.0, abs=1e-9)

    def test_stability_product_at_3_9(self, chaos):
        m = compose_map(chaos, 3.9)
        po = newton_periodic_orbit(m, 4, [-0.1])
        st = orbit_stability(m, po.orbit)
        assert st.product == pytest.approx(-0.26, abs=0.05)
        assert st.stable

    def test_origin_stability_flips_with_eta(self, chaos):
        st_stable = orbit_stability(compose_map(chaos, 8.0), [np.array([0.0])])
        assert st_stable.stable
        st_unstable = orbit_stability(compose_map(chaos, 2.0), [np.array([0.0])])
        assert not st_unstable.stable
        assert abs(st_unstable.product) > 1.0

    def test_stability_predictive(self, chaos):
        # perturbed starts near the refined point converge back to the cycle
        m = compose_map(chaos, 3.9)
        po = newton_periodic_orbit(m, 4, [-0.1])
        cycle = np.array(po.orbit)
        rng = np.random.default_rng(6)
        for _ in range(20):
            x = np.array([po.fixed_point + rng.uniform(-0.05, 0.05)])
            for _ in range(500):
                x = m(x)
            assert np.min(np.abs(cycle - x[0])) < 1e-6


class TestPeriodThree:
    def test_nonempty_at_6_1(self, chaos):
        m = compose_map(chaos, 6.1)
        pts = period3_search(m, -2.5, 2.5)
        assert pts
        for r in pts:
            # genuine 3-cycles: back after three applications, moved after one
            assert abs(m.power(np.array([r]), 3)[0] - r) < 1e-6
            assert abs(m(np.array([r]))[0] - r) > 1e-3

    def test_empty_in_contractive_regime(self, chaos):
        pts = period3_search(compose_map(chaos, 0.4), -2.5, 2.5)
        assert pts == []

    def test_degenerate_grid(self, chaos):
        assert period3_search(compose_map(chaos, 0.4), -1.0, 1.0, n_grid=1) == []

    def test_interval_check_raises(self, chaos):
        # at eta = 2 every nonzero point more than doubles
        with pytest.raises(IntervalMapError):
            period3_search(compose_map(chaos, 2.0), -2.5, 2.5)

    def test_interval_error_names_first_escape(self, chaos):
        # 0 is fixed, so the first escaping grid point is an interior one
        m = compose_map(chaos, 2.0)
        check = np.linspace(0.0, 2.5, 10_000)
        first = next(u for u in check if not 0.0 <= m(np.array([u]))[0] <= 2.5)
        assert first > 0.0
        with pytest.raises(IntervalMapError, match=f"map sends {first:.6g} to"):
            period3_search(m, 0.0, 2.5)


def one_point(m, u, p=1):
    """map^p at one point, through a one-point call."""
    return float(m.power(np.array([u]), p)[0])


def central_derivative(f, x, h):
    return (f(x + h) - f(x - h)) / (2.0 * h)


def newton_reference(m, p, x, tol=1e-10):
    """Newton on map^p - id, one point per call: (fixed point, orbit,
    residual), or None."""
    for _ in range(100):
        r = one_point(m, x, p) - x
        if abs(r) <= tol:
            orbit = [x]
            for _ in range(p - 1):
                orbit.append(one_point(m, orbit[-1]))
            return x, tuple(orbit), abs(r)
        d = central_derivative(lambda u: one_point(m, u, p) - u, x, 1e-4)
        if abs(d) < 1e-12 or not math.isfinite(d):
            return None
        x = x - r / d
        if not math.isfinite(x):
            return None
    return None


def stability_reference(m, orbit):
    product = 1.0
    for x in orbit:
        product *= central_derivative(lambda u: one_point(m, u), x, 1e-6)
    return product


def period3_reference(m, lo, hi, n_grid=4000):
    """Each bracket bisected alone through one-point map^3 calls, and each
    root tested for a fixed point alone. Returns (roots, deepest
    bracket's number of levels), or the interval error's text."""
    check = np.linspace(lo, hi, 10_000)
    mapped = m(check[:, None])[:, 0]
    outside = np.flatnonzero(~((lo <= mapped) & (mapped <= hi)))
    if outside.size:
        u, v = check[outside[0]], mapped[outside[0]]
        return f"map sends {u:.6g} to {v:.6g}, outside [{lo}, {hi}]"
    grid = np.linspace(lo, hi, n_grid)
    vals = grid - m.power(grid[:, None], 3)[:, 0]
    roots, deepest = [], 0
    for i in range(n_grid - 1):
        a, b = float(grid[i]), float(grid[i + 1])
        fa, fb = float(vals[i]), float(vals[i + 1])
        if fa == 0.0:
            roots.append(a)
            continue
        if (fa < 0) == (fb < 0):
            continue
        for level in range(1, 201):
            mid = 0.5 * (a + b)
            fm = mid - one_point(m, mid, 3)
            if fm == 0.0 or (b - a) < 1e-14:
                break
            if (fm < 0) == (fa < 0):
                a, fa = mid, fm
            else:
                b = mid
        deepest = max(deepest, level)
        roots.append(0.5 * (a + b))
    out = []
    for r in sorted(roots):
        if abs(r - one_point(m, r)) < 1e-9:
            continue
        if out and abs(r - out[-1]) < 1e-7:
            continue
        out.append(r)
    return out, deepest


def hexes(values):
    return [float(v).hex() for v in values]


class TestBlockToolsMatchScalarReference:
    """The periodic-orbit tools evaluate the map as blocks; on the
    exp-quadratic catalog, whose ``fn`` rounds a row the same alone and
    in a block, they equal the one-point references bit for bit."""

    ETAS = [0.4, 3.9, 5.0, 5.5, 6.1, 7.6]

    @pytest.mark.parametrize("eta", ETAS)
    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    def test_newton_and_stability(self, chaos, eta, p):
        m = compose_map(chaos, eta)
        po = newton_periodic_orbit(m, p, [-0.1])
        ref = newton_reference(m, p, -0.1)
        assert (po is None) == (ref is None)
        if po is not None:
            x, orbit, residual = ref
            assert hexes([po.fixed_point, po.residual]) == hexes([x, residual])
            assert hexes(po.orbit) == hexes(orbit)
            assert orbit_stability(m, po.orbit).product.hex() == \
                stability_reference(m, orbit).hex()

    def test_stability_of_the_four_cycle_at_3_9(self, chaos):
        m = compose_map(chaos, 3.9)
        orbit = newton_periodic_orbit(m, 4, [-0.1]).orbit
        st = orbit_stability(m, orbit)
        assert st.product.hex() == stability_reference(m, orbit).hex()
        # points given as 1-vectors read the same
        assert orbit_stability(m, [np.array([x]) for x in orbit]) == st

    @pytest.mark.parametrize("eta", ETAS)
    def test_period3_search(self, chaos, eta):
        m = compose_map(chaos, eta)
        ref = period3_reference(m, -2.5, 2.5)
        if isinstance(ref, str):
            with pytest.raises(IntervalMapError) as err:
                period3_search(m, -2.5, 2.5)
            assert str(err.value) == ref
            return
        roots, deepest = ref
        # one map^3 block call for the sign grid, then one per level
        with mock.patch.object(GDMap, "power", autospec=True,
                               side_effect=GDMap.power) as power:
            found = period3_search(m, -2.5, 2.5)
        assert hexes(found) == hexes(roots)
        assert sum(c.args[2] == 3 for c in power.call_args_list) == 1 + deepest


class TestStarScan:
    def test_converged_low_eta(self, star):
        res = star_scan(star, 0.4, n_samples=30, n_steps=200, seed=0)
        assert res.n_diverged == 0
        assert res.avg_norm_series[-1] < 1e-3

    def test_divergence_at_half(self, star):
        res = star_scan(star, 0.5, n_samples=30, n_steps=200, seed=0)
        assert res.all_diverged

    def test_star_regime_score(self, star):
        res = star_scan(star, 1.35, n_samples=60, n_steps=400, seed=0)
        assert res.n_diverged == 0
        assert res.radial_score > 0.8

    def test_matches_one_orbit_per_start(self, star):
        # the reference: each start alone through iterate_orbit
        res = star_scan(star, 1.35, n_samples=20, n_steps=300, seed=5)
        m = compose_map(star, 1.35)
        starts = np.random.default_rng(5).uniform(-500.0, 500.0, size=(20, 2))
        tails, series = [], np.zeros(301)
        for x0 in starts:
            orbit = iterate_orbit(m, x0, 300, threshold=1e6)
            assert orbit.bounded
            pts = np.array(orbit.points)
            series += np.linalg.norm(pts, axis=1)
            tails.append(pts[150:])
        assert np.array_equal(res.tail_points, np.vstack(tails))
        assert np.array_equal(res.avg_norm_series, series / 20)

    def test_radial_score_matches_per_point_loop(self):
        rng = np.random.default_rng(11)
        pts = rng.standard_normal((3000, 2)) * rng.uniform(0.2, 1.0, (3000, 1))
        idx = np.random.default_rng(0).choice(3000, size=2000, replace=False)
        fractions = np.linspace(0.0, 1.0, 50)
        good = 0
        for x in pts[idx]:
            nx = float(np.linalg.norm(x))
            hits = brute_covered(pts, fractions[:, None] * x[None, :], 0.05 * nx)
            good += np.mean(hits) >= 0.9
        assert radial_containment_score(pts) == good / 2000

    def test_radial_score_derives_its_threshold(self, monkeypatch):
        # 20 segment points need 18 covered: a gapped spoke and a rotated,
        # scaled copy give points with exactly 18 and with 17
        monkeypatch.setattr(dynamics, "_SEGMENT_POINTS", 20)
        t = np.arange(401) / 400
        spoke = np.c_[t, np.zeros_like(t)][(t <= 0.5) | (t >= 0.65)]
        turn = np.array([[np.cos(0.3), -np.sin(0.3)], [np.sin(0.3), np.cos(0.3)]])
        pts = np.vstack([spoke, 3.0 * spoke @ turn.T])
        fractions = np.linspace(0.0, 1.0, 20)
        counts = np.array([np.count_nonzero(brute_covered(
            pts, fractions[:, None] * x, 0.05 * float(np.linalg.norm(x)))) for x in pts])
        assert {17, 18} <= set(counts.tolist())
        good = (counts / 20 >= 0.9) | (np.linalg.norm(pts, axis=1) == 0)
        assert radial_containment_score(pts) == np.count_nonzero(good) / len(pts)

    @pytest.mark.parametrize("cloud", ["eta_0.3_tail", "radius_underflow", "origins"])
    def test_radial_score_matches_all_queries(self, star, cloud):
        rng = np.random.default_rng(4)
        spread = rng.standard_normal((300, 2)) * rng.uniform(0.2, 1.0, (300, 1))
        pts = {
            # a converging tail: its radii span over 400 power-of-two bands
            "eta_0.3_tail": lambda: star_scan(star, 0.3, n_samples=3, n_steps=500).tail_points,
            # radii that round to 0 (not counted), or are subnormal
            "radius_underflow": lambda: np.vstack([spread, [[1e-322, 0.0], [3e-323, -4e-323],
                                                            [0.0, 5e-324], [1e-310, 2e-311]]]),
            "origins": lambda: np.vstack([spread, np.zeros((40, 2)), [[-0.0, 0.0]]]),
        }[cloud]()
        assert radial_containment_score(pts) == all_queries_score(pts)

    def test_radial_score_ring_is_low(self, ring):
        assert radial_containment_score(ring) < 0.2

    def test_radial_score_spokes_are_high(self, spokes):
        assert radial_containment_score(spokes) > 0.95

    def test_radial_score_is_chunk_independent(self, monkeypatch, star, ring, spokes):
        # a 7-pair chunk splits strips and queries at every boundary
        tail = star_scan(star, 1.35, n_samples=10, n_steps=200, seed=0).tail_points
        monkeypatch.setattr(dynamics, "_MAX_SCORED", 150)
        clouds = [tail, ring, spokes]
        before = [radial_containment_score(pts) for pts in clouds]
        monkeypatch.setattr(dynamics, "_PAIR_CHUNK", 7)
        assert [radial_containment_score(pts) for pts in clouds] == before

    def test_radial_score_sees_points_whose_squares_underflow(self):
        # 1e-170 squares to 0, yet it is not the origin: its segment is
        # scored like 1e-150's, and neither is covered
        assert radial_containment_score([[1e-170, 0.0], [5.0, 5.0]]) == \
            radial_containment_score([[1e-150, 0.0], [5.0, 5.0]]) == 0.0

    def test_radial_score_all_at_origin(self):
        # a converged scan: every radius is 0 and every point counts
        assert radial_containment_score(np.zeros((40, 2))) == 1.0

    @pytest.mark.parametrize("pts", [
        np.zeros((5, 3)),
        np.zeros(5),
        np.array([[0.0, 1.0], [np.nan, 0.0]]),
        # finite, but its norm is past the largest float
        np.array([[1.5e308, 1.5e308], [1.0, 1.0], [0.5, 0.2]]),
    ], ids=["m_by_3", "flat", "nan", "norm_overflow"])
    def test_radial_score_rejects(self, pts):
        # no warning either: the suite turns warnings into errors
        with pytest.raises(ValueError, match="tail_points"):
            radial_containment_score(pts)


@st.composite
def planar_clouds(draw):
    """Small planar clouds: dyadic lattice points, half of them on an
    axis so that radii and cell sides are dyadic too and points fall
    exactly on cell boundaries; norms spanning four decades; or all at
    the origin. Some points are repeated."""
    n = draw(st.integers(1, 30))
    kind = draw(st.sampled_from(["lattice", "decades", "origin"]))
    if kind == "origin":
        pts = np.zeros((n, 2))
    elif kind == "lattice":
        ij = draw(st.lists(st.tuples(st.integers(-16, 16), st.integers(-16, 16),
                                     st.booleans()), min_size=n, max_size=n))
        pts = np.array([(i, 0 if on_axis else j) for i, j, on_axis in ij], dtype=float)
        pts *= 2.0 ** -draw(st.integers(0, 6))
    else:
        angle = np.array(draw(st.lists(st.floats(0.0, 2 * np.pi), min_size=n, max_size=n)))
        mag = 10.0 ** np.array(draw(st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n)))
        pts = np.c_[mag * np.cos(angle), mag * np.sin(angle)]
    return np.vstack([pts, pts[:draw(st.integers(0, n))]])


class TestGridQuery:
    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(pts=planar_clouds(), need=st.integers(1, 9))
    def test_grid_coverage_equals_brute_force(self, pts, need):
        norms = np.linalg.norm(pts, axis=1)
        r = dynamics._EPS_REL * norms
        fractions = np.linspace(0.0, 1.0, 9)
        segments = (fractions[None, :, None] * pts[:, None, :]).reshape(-1, 2)
        # the score's segment queries, and each point moved by its own
        # radius r along each axis (distance r, at the edge of the
        # strips), by 0.72 r along each diagonal (distance 1.02 r, just
        # outside the covering square of half-side r / sqrt(2)) and by
        # 0.7 r (distance 0.99 r, just inside it)
        offsets = [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]] + [
            [sx * a, sy * a] for a in (0.72, 0.7) for sx in (1, -1) for sy in (1, -1)]
        queries = np.vstack([segments] + [pts + r[:, None] * np.array(e) for e in offsets])
        radii = np.concatenate([np.repeat(r, 9), np.tile(r, len(offsets))])
        keep = radii > 0
        covered = brute_covered(pts, queries[keep], radii[keep])
        hits = brute_covered(pts, segments, np.repeat(r, 9)).reshape(-1, 9)
        good = (norms == 0) | (hits.mean(axis=1) >= 0.9)
        scored = r > 0
        # the same cloud scaled by 2**k, where the squares of its norms
        # and distances underflow (k = -600) or overflow (k = 600), has
        # the same coverage, verdicts and score
        for k in (-600, 0, 600):
            # one query per end at need 1: the verdict is its coverage
            got = _covered_segments(np.ldexp(pts, k), np.ldexp(queries[keep], k),
                                    np.ldexp(radii[keep], k), np.ones(1), 1)
            assert np.array_equal(got, covered)
            got = _covered_segments(np.ldexp(pts, k), np.ldexp(pts[scored], k),
                                    np.ldexp(r[scored], k), fractions, need)
            assert np.array_equal(got, hits[scored].sum(axis=1) >= need)
            with mock.patch.object(dynamics, "_SEGMENT_POINTS", 9):
                assert radial_containment_score(np.ldexp(pts, k)) == \
                    np.count_nonzero(good) / len(pts)

    def test_point_just_below_a_cell_edge(self):
        # q - r rounds up onto the cell edge at 0.5 while the point lies
        # one ulp below it; q - p still rounds to exactly r
        p = np.array([[np.nextafter(0.5, 0.0), 0.0]])
        q, r = np.array([[1.5, 0.0]]), np.array([1.0])
        assert brute_covered(p, q, r)[0]
        assert _covered_segments(p, q, r, np.ones(1), 1)[0]
