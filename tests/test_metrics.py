"""Tests for tracking/regret metrics and the closed-form bounds."""

import math

import numpy as np
import pytest

from tvvi.algorithms import ContractiveForward, Trajectory, run_tracker
from tvvi.metrics import (adversarial_lower_bound, aggregation_regret_bound,
                          aggregation_tracking_bound, constant_tracking_bound,
                          contractive_bound, cyclic_regret_bound, dynamic_regret,
                          quadratic_path_length, regret_series, squared_distances,
                          tracking_error, tracking_series)
from tvvi.scenarios import build_scenario, periodic_quadratic


def traj_1d(plays, sols, op_values=None):
    plays = [np.array([p]) for p in plays]
    sols = [np.array([s]) for s in sols] if sols is not None else None
    if op_values is None:
        op_values = [np.zeros(1) for _ in plays]
    else:
        op_values = [np.array([g]) for g in op_values]
    return Trajectory(plays=plays, op_values=op_values, solutions=sols)


class TestTrackingError:
    def test_zero_when_plays_match(self):
        t = traj_1d([1.0, 2.0], [1.0, 2.0])
        assert tracking_error(t) == 0.0

    def test_simple_sum(self):
        t = traj_1d([1.0, 2.0], [0.0, 0.0])
        assert tracking_error(t) == 5.0

    def test_matches_bruteforce_on_run(self):
        sc = build_scenario("periodic_1d")
        traj = run_tracker(sc.seq, ContractiveForward(1.0), sc.domain, [3.0], 12)
        manual = sum((traj.plays[i][0] - traj.solutions[i][0]) ** 2
                     for i in range(len(traj.solutions)))
        assert tracking_error(traj) == pytest.approx(manual, rel=1e-15)
        series = tracking_series(traj)
        assert series[-1] == tracking_error(traj)
        assert np.all(np.diff(series) >= 0)

    def test_translation_invariance(self):
        rng = np.random.default_rng(2)
        plays = rng.standard_normal(10)
        sols = rng.standard_normal(10)
        shift = 17.5
        a = tracking_error(traj_1d(plays, sols))
        b = tracking_error(traj_1d(plays + shift, sols + shift))
        assert a == pytest.approx(b, rel=1e-12)

    def test_zero_on_round_one_divergence(self):
        sc = build_scenario("quadratic_drift")
        traj = run_tracker(sc.seq, ContractiveForward(0.5), sc.domain, [1e7], 10)
        assert traj.diverged_at == 1 and len(traj.solutions) == 0
        assert tracking_error(traj) == 0.0

    def test_missing_solutions(self):
        t = traj_1d([1.0], None)
        with pytest.raises(ValueError):
            tracking_error(t)


class TestPathLength:
    def test_constant(self):
        assert quadratic_path_length([[0.0], [0.0], [0.0]]) == 0.0

    def test_alternating(self):
        assert quadratic_path_length([[0.0], [1.0], [0.0], [1.0]]) == 3.0

    def test_arithmetic_drift_closed_form(self):
        b, T = 0.3, 50
        sols = [[-b * t] for t in range(T)]
        assert quadratic_path_length(sols) == pytest.approx((T - 1) * b * b,
                                                            rel=1e-12)


class TestDynamicRegret:
    def test_zero_at_own_plays(self):
        t = traj_1d([1.0, -2.0], None, op_values=[3.0, 0.5])
        assert dynamic_regret(t, [np.array([1.0]), np.array([-2.0])], 1.0) == 0.0

    def test_mu_zero_linearized(self):
        t = traj_1d([1.0, 2.0], None, op_values=[1.0, 1.0])
        comp = [np.array([0.0]), np.array([0.0])]
        assert dynamic_regret(t, comp, 0.0) == pytest.approx(3.0)

    def test_dominates_tracking_on_monotone_runs(self):
        # regret against the solutions bounds (mu/2) x tracking error
        rng = np.random.default_rng(8)
        for trial in range(20):
            k = int(rng.integers(2, 4))
            d = int(rng.integers(1, 3))
            centers = [rng.uniform(-1, 1, d) for _ in range(k)]
            sc = periodic_quadratic(centers)
            z1 = rng.uniform(-3, 3, d)
            traj = run_tracker(sc.seq, ContractiveForward(0.5), sc.domain, z1, 60)
            reg = dynamic_regret(traj, traj.solutions, sc.mu)
            assert reg >= 0.5 * sc.mu * tracking_error(traj) - 1e-9


def per_row_reference(plays, op_values, sols, mu):
    """The metrics as one np.dot per round, summed in round order: the
    per-row loops the batched metrics replace."""
    n = len(sols)
    sq = [float(np.dot(p - s, p - s)) for p, s in zip(plays[:n], sols)]
    terms = []
    for g, z, c in zip(op_values, plays[:n], sols):
        d = z - c
        terms.append(float(np.dot(g, d)) - 0.5 * mu * float(np.dot(d, d)))
    path = float(sum(np.dot(a - b, a - b) for a, b in zip(sols[1:], sols[:-1])))
    return np.array(sq), np.cumsum(sq), np.cumsum(terms), path


def random_trajectory(rng, d, T, diverged):
    """Plays, operator values and solutions over four decades of scale;
    a diverged run has one more play than completed rounds, and that
    play is not finite."""
    extra = int(diverged)
    scale = 10.0 ** rng.uniform(-2, 2, (T, 1))
    plays = rng.standard_normal((T + extra, d)) * np.vstack([scale, np.ones((extra, 1))])
    if diverged:
        plays[-1, 0] = math.inf
    op_values = rng.standard_normal((T, d)) * scale
    sols = rng.standard_normal((T, d)) * scale
    return Trajectory(plays=plays, op_values=op_values, solutions=sols,
                      diverged_at=T + 1 if diverged else None)


class TestBatchedMetrics:
    """The array metrics round every row as the per-row np.dot loop did:
    equal bit for bit, not merely close."""

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 16])
    @pytest.mark.parametrize("diverged", [False, True], ids=["complete", "diverged"])
    def test_equal_to_per_row_loop(self, d, diverged):
        rng = np.random.default_rng(100 * d + diverged)
        traj = random_trajectory(rng, d, 2000, diverged)
        mu = 0.37
        sq, track, regret, path = per_row_reference(
            traj.plays, traj.op_values, traj.solutions, mu)
        assert np.array_equal(squared_distances(traj), sq)
        assert np.array_equal(tracking_series(traj), track)
        assert np.array_equal(regret_series(traj, traj.solutions, mu), regret)
        assert quadratic_path_length(traj.solutions) == path
        # the same rounds given as lists of points
        listed = Trajectory(plays=list(traj.plays), op_values=list(traj.op_values),
                            solutions=list(traj.solutions))
        assert np.array_equal(tracking_series(listed), track)
        assert np.array_equal(regret_series(listed, list(traj.solutions), mu), regret)
        assert quadratic_path_length(list(traj.solutions)) == path

    def test_truncated_run_from_the_tracker(self):
        # round 2 plays -3 * 5e5, past the threshold: one completed round
        sc = build_scenario("periodic_1d")
        traj = run_tracker(sc.seq, ContractiveForward(0.5), sc.domain, [5e5], 10)
        assert traj.plays.shape == (2, 1) and traj.solutions.shape == (1, 1)
        sq, track, regret, path = per_row_reference(
            traj.plays, traj.op_values, traj.solutions, sc.mu)
        assert np.array_equal(tracking_series(traj), track)
        assert np.array_equal(regret_series(traj, traj.solutions, sc.mu), regret)
        assert quadratic_path_length(traj.solutions) == path == 0.0


class TestTheoreticalBounds:
    def test_contractive_arithmetic(self):
        assert contractive_bound(C=0.5, path=1.0, init_dist=0.0) == 4.0

    def test_contractive_invalid_contraction(self):
        with pytest.raises(ValueError):
            contractive_bound(C=1.0, path=1.0, init_dist=0.0)

    def test_contractive_zero_contraction(self):
        # a one-step contraction: path + init_dist^2
        assert contractive_bound(C=0.0, path=1.5, init_dist=2.0) == 5.5
        with pytest.raises(ValueError):
            contractive_bound(C=-0.1, path=1.0, init_dist=0.0)

    def test_cyclic_regret_arithmetic(self):
        got = cyclic_regret_bound(k=2, G=1.0, mu=1.0, T=100)
        assert got == pytest.approx(1.0 * (math.log(50.0) + 1.0), rel=1e-12)

    def test_aggregation_regret_arithmetic(self):
        got = aggregation_regret_bound(G=1.0, mu=1.0, D=1.0, k=2, K=4, T=100)
        expected = 2.0 * (2.0 * math.log(50.0) + 2.0 + 8.0 * math.log(4.0))
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(41.83, abs=0.01)

    def test_tracking_bound_is_scaled_regret_bound(self):
        # the tracking variant equals (2/mu) times the regret variant
        mu = 2.0
        a = aggregation_regret_bound(G=1.0, mu=mu, D=1.0, k=2, K=4, T=100)
        b = aggregation_tracking_bound(G=1.0, mu=mu, D=1.0, k=2, K=4, T=100)
        assert b == pytest.approx(2.0 / mu * a, rel=1e-12)

    def test_constant_tracking_arithmetic(self):
        # log K = 0 leaves 4 * D0^2 * (2 + kappa) * ((2k+1)k*k_period + 1)
        got = constant_tracking_bound(D0=1.0, kappa=1.0, k=1, K=1)
        assert got == pytest.approx(4.0 * 3.0 * (3.0 + 1.0), rel=1e-12)

    def test_adversarial_lb(self):
        assert adversarial_lower_bound(D=2.0, T=1000) == 250.0


class TestBoundComparison:
    """The comparisons the ``bounds`` command makes, with its 1e-9 slack."""

    def test_upper_bound_holds(self):
        sc = build_scenario("quadratic_drift", {"b": 0.05})
        traj = run_tracker(sc.seq, ContractiveForward(0.5), sc.domain, [1.0], 200)
        bound = contractive_bound(C=0.5, path=quadratic_path_length(traj.solutions),
                                  init_dist=abs(1.0 - traj.solutions[0][0]))
        assert tracking_error(traj) <= bound + 1e-9

    def test_lower_bound_inverted(self):
        # a lower bound holds when measured >= bound
        t = traj_1d([1.0] * 4, [0.0] * 4)
        measured = tracking_error(t)
        assert measured == 4.0
        assert adversarial_lower_bound(D=2.0, T=4) == 1.0
        assert measured >= adversarial_lower_bound(D=2.0, T=4) - 1e-9
        # D = 4: the bound 16 * 4 / 16 = 4 equals measured, and holds
        assert measured >= adversarial_lower_bound(D=4.0, T=4) - 1e-9
        assert not measured >= adversarial_lower_bound(D=5.0, T=4) - 1e-9


class TestTightnessConstruction:
    def test_stationary_error_is_exact(self):
        # start at the arithmetico-geometric fixed point: the per-step
        # error stays b/(1-C) forever and the total is T b^2/(1-C)^2
        C, b, T = 0.5, 0.1, 100
        sc = build_scenario("quadratic_drift", {"c1": 0.0, "b": b, "decay": 0.0})
        z1 = b / (1.0 - C)
        traj = run_tracker(sc.seq, ContractiveForward(1.0 - C), sc.domain,
                           [z1], T)
        errors = [traj.plays[i][0] - traj.solutions[i][0] for i in range(T)]
        assert all(e == pytest.approx(b / (1.0 - C), abs=1e-14) for e in errors)
        measured = tracking_error(traj)
        assert measured == pytest.approx(T * b * b / (1.0 - C) ** 2, abs=1e-10)
        path = quadratic_path_length(traj.solutions)
        assert path == pytest.approx((T - 1) * b * b, rel=1e-12)
        assert measured >= path / (1.0 - C) ** 2
