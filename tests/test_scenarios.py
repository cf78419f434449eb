"""Tests for the scenario catalog and the lower-bound adversary."""

import ast
import inspect
import math
from dataclasses import replace

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tvvi.algorithms import ContractiveForward, run_tracker
from tvvi.core import ConfigurationError, Operator, evaluate, project
from tvvi.metrics import quadratic_path_length, tracking_error
from tvvi.scenarios import (BUILDERS, PARAMS, RSI_GRID_ROWS, STREAM_ROUNDS,
                            AdversaryState, Checks, OperatorCheck, _central_differences,
                            _DataStream, _gaussian_blocks, _ridge_rounds, adversary_step,
                            build_scenario, periodic_quadratic, rsi_grid_inequality,
                            rsi_lipschitz, verify_scenario)


class TestCatalog:
    def test_unknown_scenario(self):
        with pytest.raises(ConfigurationError):
            build_scenario("nope")

    def test_unknown_param_named(self):
        with pytest.raises(ConfigurationError, match="bogus"):
            build_scenario("quadratic_drift", {"bogus": 1})

    def test_builders_read_exactly_the_table_keys(self):
        # every parameter a builder reads is in its PARAMS table, and every
        # table entry is read: no dead or undefined scenario key
        assert set(BUILDERS) == set(PARAMS)
        for name, builder in BUILDERS.items():
            tree = ast.parse(inspect.getsource(builder))
            read = {node.slice.value for node in ast.walk(tree)
                    if isinstance(node, ast.Subscript)
                    and isinstance(node.value, ast.Name) and node.value.id == "p"
                    and isinstance(node.slice, ast.Constant)}
            assert read == set(PARAMS[name]), name

    def test_scenarios_with_solutions_declare_mu(self):
        # bounds reads sc.mu on every scenario whose solutions it measures
        # against, with no config key to fall back on
        with_solutions = set()
        for name in BUILDERS:
            sc = build_scenario(name)
            traj = run_tracker(sc.seq, ContractiveForward(eta=0.01), sc.domain,
                               project(sc.domain, np.zeros(sc.seq.dim)), 1)
            if traj.solutions is not None:
                with_solutions.add(name)
                assert sc.mu is not None and sc.mu > 0, name
        assert with_solutions == {"quadratic_drift", "periodic_1d", "exp_quadratic",
                                  "chaos_1d", "star_2d", "streaming_regression",
                                  "rsi_game", "lower_bound_adversary"}

    @pytest.mark.parametrize("name, params, field", [
        ("kelly_auction", {"lam_reg": 0.0}, "scenario.lam_reg"),
        ("kelly_auction", {"n": 1}, "scenario.n"),
        ("rsi_game", {"a_values": [0.5, 1.5]}, "scenario.a_values"),
        ("lower_bound_adversary", {"z0": 0.5}, "scenario.z0"),
        ("streaming_regression", {"lam_reg": math.nan}, "scenario.lam_reg"),
        ("glm", {"link": "probit"}, "scenario.link"),
        ("glm", {"dim": "0"}, "scenario.dim"),
        ("quadratic_drift", {"dim": 2.5}, "scenario.dim"),
        ("kelly_auction", {"seed": 1.5}, "scenario.seed"),
        ("rsi_game", {"a_values": []}, "scenario.a_values"),
        ("streaming_regression", {"growth": 1.5}, "scenario.growth"),
        ("glm", {"dim": True}, "scenario.dim"),
        ("quadratic_drift", {"c1": [math.inf]}, "scenario.c1"),
        ("exp_quadratic", {"matrices": [[[1.0, 0.0], [0.0]]]}, "scenario.matrices"),
        ("glm", {"link": 1}, "scenario.link")],
        ids=["kelly_lam_reg", "kelly_n", "rsi_a_values", "adversary_z0",
             "stream_lam_reg_nan", "glm_link", "glm_dim_text", "drift_dim_float",
             "kelly_seed_float", "rsi_a_values_empty", "stream_growth_float",
             "glm_dim_bool", "drift_c1_inf", "exp_matrix_ragged", "glm_link_number"])
    def test_python_values_get_the_table_bounds(self, name, params, field):
        with pytest.raises(ConfigurationError, match=field):
            build_scenario(name, params)

    def test_text_and_python_values_build_alike(self):
        text = build_scenario("quadratic_drift", {"dim": "2", "c1": "0.5",
                                                  "matrix": "2,0;0,3"})
        values = build_scenario("quadratic_drift", {"dim": 2, "c1": 0.5,
                                                    "matrix": [[2, 0], [0, 3]]})
        for t in (1, 7):
            assert np.array_equal(text.seq.solution_at(t), values.seq.solution_at(t))
        assert np.array_equal(text.seq.solution_at(1), [0.5, 0.5])
        assert text.mu == values.mu == 2.0

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
            assert rsi_grid_inequality(a) >= 0.25

    def test_rsi_lipschitz_envelope(self):
        # analytic envelope: |J| <= 10 plus unit off-diagonal coupling
        assert rsi_lipschitz(1.0) <= 10.5

    def test_rsi_lipschitz_matches_per_coupling_grid(self):
        # shared trig tables keep the operation order of a grid built for
        # one coupling at a time, so the constant is the same bit for bit
        def one(a, grid_n=501):
            u = np.linspace(0.0, math.pi, grid_n)
            x, y = np.meshgrid(u, u)
            j11 = 2.0 + 2.0 * np.cos(2 * x) * (3.0 + a * np.sin(y) ** 2)
            j12 = a * np.sin(2 * x) * np.sin(2 * y)
            j21 = -a * np.sin(2 * x) * np.sin(2 * y)
            j22 = 2.0 + 2.0 * np.cos(2 * y) * (3.0 - a * np.sin(x) ** 2)
            p, q = j11 ** 2 + j21 ** 2, j12 ** 2 + j22 ** 2
            r = j11 * j12 + j21 * j22
            top = 0.5 * (p + q + np.sqrt((p - q) ** 2 + 4.0 * r ** 2))
            return float(np.sqrt(top.max())) * 1.005

        couplings = [0.0, 0.3, 0.5, 0.77, 1.0]
        assert rsi_lipschitz(couplings) == max(one(a) for a in couplings)
        assert rsi_lipschitz(0.3) == one(0.3)

    @pytest.mark.parametrize("couplings", [(0.0, 0.5, 1.0, 0.5), (0.3,),
                                           (0.9, 0.2, 0.9, 0.9, 0.2),
                                           tuple(np.linspace(0.0, 1.0, 7))])
    def test_rsi_lipschitz_matches_whole_grid_formula(self, couplings):
        # the row blocks give the constant the whole grid gave, exactly
        def whole_grid(a_values, grid_n=501):
            u = np.linspace(0.0, math.pi, grid_n)
            x, y = u[None, :], u[:, None]
            cos_2x, cos_2y, sin_2x, sin_2y = (f(2 * v) for f in (np.cos, np.sin)
                                              for v in (x, y))
            sin2_x, sin2_y = np.sin(x) ** 2, np.sin(y) ** 2
            tops = []
            for a in set(np.atleast_1d(a_values).tolist()):
                j11 = 2.0 + 2.0 * cos_2x * (3.0 + a * sin2_y)
                j12 = a * sin_2x * sin_2y
                j21 = -a * sin_2x * sin_2y
                j22 = 2.0 + 2.0 * cos_2y * (3.0 - a * sin2_x)
                p = j11 ** 2 + j21 ** 2
                q = j12 ** 2 + j22 ** 2
                r = j11 * j12 + j21 * j22
                tops.append(0.5 * (p + q + np.sqrt((p - q) ** 2 + 4.0 * r ** 2)).max())
            return float(np.sqrt(max(tops))) * 1.005

        assert rsi_lipschitz(couplings) == whole_grid(couplings)
        # a grid inside one block; grids whose largest row (y = pi / 2, at
        # the middle) ends the first block or starts the second
        for n in (7, 2 * RSI_GRID_ROWS - 1, 2 * RSI_GRID_ROWS + 1):
            assert rsi_lipschitz(couplings, grid_n=n) == whole_grid(couplings, grid_n=n)

    def test_rsi_build_memory(self):
        tracemalloc.start()
        try:
            build_scenario("rsi_game")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5e6


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


def _gaussian_rows(seed, dim, n):
    """The first n (features, noise) rows of a stream: whole 64-row
    blocks, each drawing its features, then its noise."""
    rng = np.random.default_rng(seed)
    blocks = [(rng.standard_normal((64, dim)), rng.standard_normal(64))
              for _ in range(n // 64 + 1)]
    return (np.concatenate([a for a, _ in blocks])[:n],
            np.concatenate([e for _, e in blocks])[:n])


def _close(x, ref):
    return np.linalg.norm(np.asarray(x) - ref) <= 1e-12 * np.linalg.norm(ref)


ROUNDS = (1, 2, 30, 31, 32, 33, 500)


class TestStreams:
    """The stream scenarios sum A^T A and A^T b over blocks; the sums must
    match a from-scratch reference, whatever order rounds come in."""

    def test_streaming_regression_matches_from_scratch_sums(self):
        # defaults n0 = 5, growth = 2: n_t = 63 and 65 at t = 30 and 31
        sc = build_scenario("streaming_regression", {"seed": 3})
        w_star = np.random.default_rng(3).standard_normal(3)
        for t in ROUNDS:
            op = sc.seq.at(t)
            A, e = _gaussian_rows(4, 3, 5 + 2 * (t - 1))
            b = A @ w_star + 0.1 * e
            G, h = A.T @ A + np.eye(3), A.T @ b
            M, c = op.affine
            eigs = np.linalg.eigvalsh(2.0 * G)
            assert _close(M, 2.0 * G) and _close(c, -2.0 * h)
            assert _close(op.solution, np.linalg.solve(G, h))
            # only the checked rounds 1..3 carry their constants
            assert op.mu is None and op.lip is None
            if t <= 3:
                check = sc.checks.operators[t - 1]
                assert _close([check.mu, check.lip], [eigs[0], eigs[-1]])
            assert sc.seq.solution_at(t) is op.solution

    @pytest.mark.parametrize("link", ["identity", "scaled_logistic"])
    def test_glm_matches_from_scratch_sums(self, link):
        # n0 = 2, growth = 2: n_t = 62, 64 and 66 at t = 31, 32 and 33
        sc = build_scenario("glm", {"link": link, "seed": 5, "n0": 2, "growth": 2,
                                    "lam_reg": 0.1, "noise": 0.2})
        phi = (lambda u: u) if link == "identity" else (lambda u: 2.0 * np.tanh(0.5 * u))
        z_star = np.random.default_rng(5).standard_normal(2)
        Z = np.random.default_rng(0).uniform(-2, 2, (4, 2))
        for t in ROUNDS:
            op = sc.seq.at(t)
            n = 2 + 2 * (t - 1)
            A, xi = _gaussian_rows(7, 2, n)[0], _gaussian_rows(6, 1, n)[0][:, 0]
            b = phi(A @ z_star) + 0.2 * xi
            check = sc.checks.operators[t - 1] if t <= 3 else None
            if link == "identity":
                M = A.T @ A / n + 0.1 * np.eye(2)
                eigs = np.linalg.eigvalsh(M)
                assert _close(op.affine[0], M) and _close(op.affine[1], -(A.T @ b) / n)
                if check:
                    assert _close([check.mu, check.lip], [eigs[0], eigs[-1]])
            else:
                if check:
                    assert _close(check.lip, np.linalg.eigvalsh(A.T @ A)[-1] / n + 0.1)
                assert _close(op.fn(Z), (phi(Z @ A.T) - b) @ A / n + 0.1 * Z)
            assert op.solution is None and op.lip is None

    @pytest.mark.parametrize("name, params", [
        ("streaming_regression", {"seed": 3}),
        ("glm", {"link": "identity", "seed": 5, "n0": 2, "growth": 2}),
        ("glm", {"link": "scaled_logistic", "seed": 5, "n0": 2, "growth": 2})],
        ids=["stream", "glm_identity", "glm_logistic"])
    def test_rounds_bit_identical_in_any_order(self, name, params):
        def values(order):
            sc = build_scenario(name, params)
            out = {}
            for t in order:
                op = sc.seq.at(t)
                out[t] = [op.mu, op.lip, op.fn(np.linspace(-1.0, 1.0, op.dim))]
                if op.affine is not None:
                    out[t] += [*op.affine, op.solution]
            return out

        shuffled = list(ROUNDS)
        np.random.default_rng(1).shuffle(shuffled)
        in_order, out_of_order = values(ROUNDS), values(shuffled)
        for t in ROUNDS:
            for x, y in zip(in_order[t], out_of_order[t]):
                assert np.array_equal(x, y), (t, x, y)

    def test_solution_independent_of_earlier_requests(self):
        ahead, direct = (build_scenario("streaming_regression", {"seed": 3})
                         for _ in range(2))
        for t in range(1, 200):
            ahead.seq.solution_at(t)
        assert np.array_equal(ahead.seq.solution_at(200), direct.seq.solution_at(200))

        ahead, direct = (build_scenario("glm", {"seed": 3}) for _ in range(2))
        for t in range(1, 49):
            ahead.seq.at(t)
        assert np.array_equal(ahead.seq.at(49).affine[1], direct.seq.at(49).affine[1])

    @settings(derandomize=True, database=None, deadline=None, max_examples=40)
    @given(dim=st.integers(1, 5), n0=st.integers(0, 70), growth=st.integers(0, 5),
           lam=st.floats(1e-3, 1e3), noise=st.floats(0.0, 1.0),
           seed=st.integers(0, 2 ** 31 - 1),
           more=st.lists(st.integers(1, 4 * STREAM_ROUNDS), max_size=6))
    def test_block_rounds_match_per_round_formula(self, dim, n0, growth, lam, noise,
                                                  seed, more):
        """Every round's (G + ridge, A^T b, solution, A, b) from the blocks
        is bit for bit the one-round formula's, in any order of rounds."""
        w_star = np.random.default_rng(seed).standard_normal(dim)

        def data_stream():
            return _DataStream(((a, a @ w_star + noise * e)
                                for a, e in _gaussian_blocks(seed + 1, dim)), dim)

        ridge = lam * np.eye(dim)
        reference = data_stream()

        def one_round(t):       # the per-round formula the blocks replaced
            n = n0 + growth * (t - 1)
            G, h = reference.sums(n)
            G = G + ridge
            return (G, h, np.linalg.solve(G, h)) + reference.upto(n)

        rounds = _ridge_rounds(data_stream(), lambda t: n0 + growth * (t - 1), ridge)
        sc = build_scenario("streaming_regression", {
            "dim": dim, "n0": n0, "growth": growth, "lam_reg": lam, "noise": noise,
            "seed": seed})
        edge = [STREAM_ROUNDS - 1, STREAM_ROUNDS, STREAM_ROUNDS + 1, 2 * STREAM_ROUNDS + 1]
        for t in [200, 1, 2, 3] + edge + more:
            want = one_round(t)
            got = rounds(t)
            assert [x.shape for x in got] == [x.shape for x in want]
            assert [x.tobytes() for x in got] == [x.tobytes() for x in want], t
            G, h, solution, A, b = want
            op = sc.seq.at(t)
            assert (2.0 * G).tobytes() == op.affine[0].tobytes()
            assert (-2.0 * h).tobytes() == op.affine[1].tobytes()
            assert solution.tobytes() == op.solution.tobytes()
            assert sc.seq.solution_at(t) is op.solution
            X = np.linspace(-1.0, 1.0, 2 * dim).reshape(2, dim)
            potential = ((X @ A.T - b) ** 2).sum(axis=-1) + lam * (X * X).sum(axis=-1)
            assert op.potential(X).tobytes() == potential.tobytes()


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

    @pytest.mark.parametrize("name", ["chaos_1d", "star_2d"])
    def test_exp_quadratic_rows_bitwise(self, name):
        # the block scans rely on a row of a block evaluating exactly as
        # the same point alone
        sc = build_scenario(name)
        rng = np.random.default_rng(3000)
        for t in (1, 2):
            op = sc.seq.at(t)
            pts = rng.uniform(-10, 10, (3000, op.dim))
            batch = op.fn(pts)
            for x, out in zip(pts, batch):
                assert np.array_equal(op.fn(x), out)

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


def _shifted(op: Operator, by: float = 1e-3) -> Operator:
    """``op`` moved off its potential and partials by ``by`` everywhere."""
    return Operator(fn=lambda X: op.fn(X) + by, dim=op.dim, potential=op.potential)


def _rows(sc, checks: Checks) -> list:
    return verify_scenario(replace(sc, checks=checks), n_samples=800, seed=0, n_fd=25)


class TestVerification:
    @pytest.mark.parametrize("name", [
        "periodic_1d", "chaos_1d", "star_2d", "quadratic_drift",
        "streaming_regression", "glm", "lower_bound_adversary", "exp_quadratic",
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

    def test_operator_off_its_potential_fails_gradient_fd(self):
        sc = build_scenario("quadratic_drift", {"dim": 2})
        good = sc.checks.operators[0]
        rows = _rows(sc, Checks((good, OperatorCheck("t=2", _shifted(good.op)))))
        assert [(r["check"], r["passed"]) for r in rows] == [
            ("gradient_fd", True), ("strong_monotone", True), ("lipschitz", True),
            ("gradient_fd", False)]

    @pytest.mark.parametrize("name", ["kelly_auction", "rsi_game"])
    def test_perturbed_game_fails_partials(self, name):
        sc = build_scenario(name)
        game = sc.checks.game
        bad = game[:-1] + tuple((_shifted(op), losses) for op, losses in game[-1:])
        assert [(r["check"], bool(r["passed"])) for r in _rows(sc, Checks(game=game))] \
            == [("pseudo_gradient_partials", True)]
        assert [(r["check"], bool(r["passed"])) for r in _rows(sc, Checks(game=bad))] \
            == [("pseudo_gradient_partials", False)]

    def test_misdeclared_constants_fail(self):
        # F(z) = z - c: mu = L = 1 exactly
        sc = build_scenario("quadratic_drift")
        label, op, mu, lip = sc.checks.operators[0]
        rows = _rows(sc, Checks((OperatorCheck(label, op, 1.01 * mu, 0.99 * lip),
                                 OperatorCheck(label, op, mu, lip))))
        assert [(r["check"], r["passed"]) for r in rows if r["check"] != "gradient_fd"] == [
            ("strong_monotone", False), ("lipschitz", False),
            ("strong_monotone", True), ("lipschitz", True)]

    def test_stencil_matches_quadratic_gradient(self):
        rng = np.random.default_rng(12)
        m = rng.standard_normal((3, 3))
        A, c = m @ m.T + np.eye(3), rng.standard_normal(3)
        X = rng.uniform(-10, 10, (40, 3))
        fd = _central_differences(lambda Y: 0.5 * ((Y - c) * ((Y - c) @ A)).sum(axis=-1),
                                  X, 1e-5)
        assert fd.shape == X.shape
        assert np.max(np.abs(fd - (X - c) @ A)) <= 1e-7

    def test_stencil_diagonal_is_each_coordinates_own_partial(self):
        # values (x0 x1, x0 + x1^2): d/dx0 of the first, d/dx1 of the second
        X = np.random.default_rng(4).uniform(-1, 1, (5, 2))
        fd = _central_differences(
            lambda Y: np.stack([Y[..., 0] * Y[..., 1], Y[..., 0] + Y[..., 1] ** 2], -1),
            X, 1e-6)
        assert fd.shape == (5, 2, 2)
        assert np.allclose(np.diagonal(fd, axis1=1, axis2=2),
                           np.stack([X[:, 1], 2.0 * X[:, 1]], -1), atol=1e-8)

    @pytest.mark.parametrize("period, rounds", [(1, [1]), (2, [1, 2]), (3, [1, 3]),
                                                (8, [1, 4, 8])])
    def test_kelly_checks_distinct_rounds(self, period, rounds):
        sc = build_scenario("kelly_auction", {"period": period})
        X = np.random.default_rng(5).uniform(0, 1, (6, 3))
        seen = [[t for t in range(1, period + 1)
                 if np.array_equal(op.fn(X), sc.seq.at(t).fn(X))]
                for op, _ in sc.checks.game]
        assert seen == [[t] for t in rounds]

    def test_aperiodic_builders_check_rounds_one_to_three(self):
        for name in ("quadratic_drift", "streaming_regression", "glm"):
            labels = [c.label for c in build_scenario(name).checks.operators]
            assert labels == ["t=1", "t=2", "t=3"], name

    def test_periodic_quadratic_rejects_asymmetric_matrix(self):
        with pytest.raises(ConfigurationError, match="symmetric"):
            periodic_quadratic([[0.0, 0.0]], matrix=[[1.0, 3.0], [0.0, 1.0]])
