"""Tests for the scenario catalog and the lower-bound adversary."""

import numpy as np
import pytest

from tvvi.algorithms import ContractiveForward, run_tracker
from tvvi.core import ConfigurationError, evaluate
from tvvi.metrics import quadratic_path_length, tracking_error
from tvvi.scenarios import (AdversaryState, adversary_step, build_scenario,
                            rsi_grid_inequality, rsi_lipschitz,
                            verify_scenario)


class TestCatalog:
    def test_unknown_scenario(self):
        with pytest.raises(ConfigurationError):
            build_scenario("nope")

    def test_unknown_param_named(self):
        with pytest.raises(ConfigurationError, match="bogus"):
            build_scenario("quadratic_drift", {"bogus": 1})

    def test_chaos_components(self):
        sc = build_scenario("chaos_1d")
        assert sc.period == 2
        f1, f2 = sc.seq.at(1), sc.seq.at(2)
        # odd rounds use A = 0.25, even rounds A = 4
        sigma = lambda u: 1.0 / (1.0 + np.exp(-u))
        x = 1.3
        assert evaluate(f1, [x])[0] == pytest.approx(sigma(x * x / 8) * x / 4)
        assert evaluate(f2, [x])[0] == pytest.approx(sigma(2 * x * x) * 4 * x)
        assert f1.mu == pytest.approx(0.125)
        assert f1.lip == pytest.approx(1.31 / 4)
        assert f2.mu == pytest.approx(2.0)
        assert f2.lip == pytest.approx(5.24)
        assert np.allclose(sc.seq.solution_at(5), [0.0])

    def test_periodic_1d_operators(self):
        sc = build_scenario("periodic_1d")
        assert evaluate(sc.seq.at(1), [1.0])[0] == 8.0
        assert evaluate(sc.seq.at(2), [1.0])[0] == 1.0
        assert sc.mu == 1.0 and sc.lip == 8.0 and sc.period == 2

    def test_periodicity_of_sequence(self):
        sc = build_scenario("chaos_1d")
        x = np.array([0.7])
        for t in (1, 2, 3):
            a = evaluate(sc.seq.at(t), x)
            b = evaluate(sc.seq.at(t + sc.period), x)
            assert np.allclose(a, b)

    def test_star_matrices(self):
        sc = build_scenario("star_2d")
        op1 = sc.seq.at(1)
        # near the origin F ~ A x / 2
        x = np.array([1e-8, 1e-8])
        lin = evaluate(op1, x) / 1e-8
        assert np.allclose(lin, np.array([[0.75, 0.0], [0.0, 5.0]]) @ [0.5, 0.5],
                           atol=1e-6)

    def test_kelly_strong_monotonicity_declared(self):
        sc = build_scenario("kelly_auction", {"n": 3, "lam_reg": 0.2})
        assert sc.mu == 0.2
        assert sc.domain.bounded
        assert sc.gbound > 0

    def test_streaming_solutions_drift_shrinks(self):
        sc = build_scenario("streaming_regression", {"dim": 2, "seed": 1})
        sols = [sc.seq.solution_at(t) for t in range(1, 120)]
        early = np.linalg.norm(sols[1] - sols[0])
        late = np.linalg.norm(sols[-1] - sols[-2])
        assert late < early

    def test_glm_identity_affine(self):
        sc = build_scenario("glm", {"dim": 2, "link": "identity", "seed": 2})
        op = sc.seq.at(1)
        assert op.affine is not None

    def test_glm_logistic_link(self):
        sc = build_scenario("glm", {"dim": 2, "link": "scaled_logistic",
                                    "lam_reg": 0.05, "seed": 2})
        op = sc.seq.at(1)
        assert op.affine is None
        assert op.mu == pytest.approx(0.05)

    def test_rsi_constants(self):
        sc = build_scenario("rsi_game")
        assert sc.mu == 0.25
        assert 9.0 <= sc.lip <= 11.0
        assert np.allclose(sc.seq.solution_at(3), [0.0, 0.0])

    def test_rsi_grid_inequality(self):
        for a in (0.0, 0.5, 1.0):
            assert rsi_grid_inequality(a, grid_n=101) >= 0.25

    def test_rsi_lipschitz_envelope(self):
        # analytic envelope: |J| <= 10 plus unit off-diagonal coupling
        assert rsi_lipschitz(1.0) <= 10.5


class TestAdversary:
    def test_case_prev_minus_one_high_play(self):
        st = AdversaryState(prev=-1.0)
        sol, _ = adversary_step(st, [0.6])
        assert sol[0] == 0.0

    def test_case_prev_minus_one_low_play(self):
        st = AdversaryState(prev=-1.0)
        sol, _ = adversary_step(st, [0.3])
        assert sol[0] == 1.0

    def test_case_prev_in_zero_one(self):
        st = AdversaryState(prev=0.0)
        sol, _ = adversary_step(st, [0.2])
        assert sol[0] == -1.0
        st = AdversaryState(prev=1.0)
        sol, _ = adversary_step(st, [0.9])
        assert sol[0] == -1.0

    def test_operator_minimizer(self):
        st = AdversaryState(prev=0.0)
        sol, op = adversary_step(st, [0.2])
        assert evaluate(op, sol)[0] == 0.0

    def test_out_of_domain_play_clamped(self):
        st = AdversaryState(prev=0.0)
        with pytest.warns(UserWarning):
            sol, _ = adversary_step(st, [1.5])
        assert sol[0] == -1.0

    def test_per_step_guarantee_on_forward_run(self):
        sc = build_scenario("lower_bound_adversary")
        traj = run_tracker(sc.seq, ContractiveForward(1.0), sc.domain, [0.0], 200)
        sols = [sc.initial_solution] + list(traj.solutions)
        for t in range(1, len(traj.solutions)):
            err = (traj.plays[t][0] - sols[t + 1][0]) ** 2
            step = (sols[t + 1][0] - sols[t][0]) ** 2
            assert err >= 0.25 * step - 1e-12

    def test_path_equals_quarter_dsq_t(self):
        sc = build_scenario("lower_bound_adversary")
        T = 400
        traj = run_tracker(sc.seq, ContractiveForward(1.0), sc.domain, [0.0], T)
        path = quadratic_path_length([sc.initial_solution] + list(traj.solutions))
        assert path == float(T)
        assert tracking_error(traj) >= 0.25 * path


class TestBatchEvaluation:
    @pytest.mark.parametrize("name", [
        "periodic_1d", "chaos_1d", "star_2d", "quadratic_drift",
        "kelly_auction", "streaming_regression", "rsi_game",
    ])
    def test_batch_matches_scalar(self, name):
        sc = build_scenario(name)
        rng = np.random.default_rng(77)
        for t in (1, 2):
            op = sc.seq.at(t)
            pts = rng.uniform(-3, 3, (50, op.dim))
            if sc.domain.bounded:
                pts = np.clip(pts, sc.domain.lower, sc.domain.upper)
            batch = op.fn(pts)
            assert batch.shape == pts.shape
            for x, out in zip(pts, batch):
                assert np.allclose(evaluate(op, x), out, atol=1e-12)

    def test_glm_logistic_batch_matches_scalar(self):
        sc = build_scenario("glm", {"dim": 2, "link": "scaled_logistic",
                                    "lam_reg": 0.1, "seed": 9})
        op = sc.seq.at(3)
        rng = np.random.default_rng(78)
        pts = rng.uniform(-2, 2, (30, 2))
        batch = op.fn(pts)
        assert batch.shape == pts.shape
        for x, out in zip(pts, batch):
            assert np.allclose(evaluate(op, x), out, atol=1e-12)


class TestVerification:
    @pytest.mark.parametrize("name", [
        "periodic_1d", "chaos_1d", "star_2d", "quadratic_drift",
        "streaming_regression", "glm", "lower_bound_adversary",
    ])
    def test_catalog_checks_pass(self, name):
        sc = build_scenario(name)
        rows = verify_scenario(sc, n_samples=800, seed=0, n_fd=25)
        assert rows
        assert all(r["passed"] for r in rows), [r for r in rows if not r["passed"]]

    def test_kelly_checks_pass(self):
        sc = build_scenario("kelly_auction")
        rows = verify_scenario(sc, n_samples=800, seed=0, n_fd=12)
        assert all(r["passed"] for r in rows), [r for r in rows if not r["passed"]]

    def test_rsi_checks_pass(self):
        sc = build_scenario("rsi_game")
        rows = verify_scenario(sc, n_samples=800, seed=0, n_fd=12)
        assert all(r["passed"] for r in rows), [r for r in rows if not r["passed"]]
