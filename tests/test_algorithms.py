"""Tests for the solvers, the cyclic base learner, and the two
aggregation meta-algorithms."""

import contextlib
import math
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest

from tvvi import algorithms
from tvvi.algorithms import (ContractiveForward, CyclicFB, CyclicFBLearner,
                             MetaAdaptive, MetaFixed, MetaLearner, Resolvent,
                             StepSchedule, _evaluate_distinct, exp_weights,
                             fixed_learning_rate, forward_step, make_surrogate,
                             mix_loss, resolvent_step, run_tracker)
from tvvi.core import (ConfigurationError, Domain, Operator, ProblemSequence,
                       evaluate, project)
from tvvi.dynamics import compose_map
from tvvi.scenarios import build_scenario, periodic_quadratic

UNB1 = Domain.unbounded(1)


def affine_op(A, b, **kw):
    return Operator.from_affine(A, b, **kw)


class TestForwardStep:
    def test_exact_root_in_one_step(self):
        op = affine_op([[1.0]], [0.0])
        assert forward_step(op, UNB1, [5.0], 1.0)[0] == 0.0

    def test_contraction_factor_diag(self):
        op = affine_op(np.diag([1.0, 4.0]), [0.0, 0.0])
        z = np.array([1.0, 1.0])
        out = forward_step(op, Domain.unbounded(2), z, 1.0 / 16.0)
        ratio = np.linalg.norm(out) / np.linalg.norm(z)
        assert ratio <= math.sqrt(1.0 - 1.0 / 16.0)

    def test_clamp_after_step(self):
        op = affine_op([[1.0]], [0.0])
        out = forward_step(op, Domain.box([2.0], [10.0]), [5.0], 1.0)
        assert out[0] == 2.0

    def test_example1_contraction_random(self):
        # random SPD quadratics, eta = mu / L^2, factor sqrt(1 - 1/kappa^2)
        rng = np.random.default_rng(11)
        for _ in range(5):
            d = rng.integers(2, 5)
            q, _ = np.linalg.qr(rng.standard_normal((d, d)))
            eigs = rng.uniform(0.5, 4.0, d)
            A = q @ np.diag(eigs) @ q.T
            mu, L = eigs.min(), eigs.max()
            c = rng.standard_normal(d)
            op = affine_op(A, -A @ c)
            eta = mu / L ** 2
            factor = math.sqrt(1.0 - (mu / L) ** 2)
            dom = Domain.unbounded(d)
            for _ in range(200):
                z = rng.uniform(-5, 5, d)
                out = forward_step(op, dom, z, eta)
                assert np.linalg.norm(out - c) <= \
                    factor * np.linalg.norm(z - c) + 1e-12


class TestResolventStep:
    def test_scalar(self):
        op = affine_op([[1.0]], [0.0])
        assert resolvent_step(op, [2.0])[0] == pytest.approx(1.0, abs=1e-12)

    def test_identity_2d(self):
        op = affine_op(np.eye(2), [0.0, 0.0])
        assert np.allclose(resolvent_step(op, [4.0, -2.0]), [2.0, -1.0])

    def test_random_spd_residual(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            m = rng.standard_normal((3, 3))
            A = m @ m.T + 0.1 * np.eye(3)
            b = rng.standard_normal(3)
            op = affine_op(A, b)
            z = rng.standard_normal(3)
            out = resolvent_step(op, z)
            assert np.linalg.norm(out + A @ out + b - z) <= 1e-10

    def test_contraction_factor(self):
        # resolvent of mu-strongly monotone affine F contracts by 1/(1+mu)
        rng = np.random.default_rng(5)
        for _ in range(5):
            sym = rng.standard_normal((3, 3))
            sym = sym @ sym.T
            skew = rng.standard_normal((3, 3))
            skew = 0.5 * (skew - skew.T)
            mu = float(np.linalg.eigvalsh(sym).min()) + 0.2
            A = sym + 0.2 * np.eye(3) + skew
            b = rng.standard_normal(3)
            star = np.linalg.solve(A, -b)
            op = affine_op(A, b)
            for _ in range(200):
                z = rng.uniform(-5, 5, 3)
                out = resolvent_step(op, z)
                assert np.linalg.norm(out - star) <= \
                    np.linalg.norm(z - star) / (1.0 + mu) + 1e-10

    def test_requires_affine(self):
        op = Operator(fn=lambda z: z ** 3, dim=1)
        with pytest.raises(ConfigurationError):
            resolvent_step(op, [1.0])

    def test_singular_system_raises(self):
        with pytest.raises(np.linalg.LinAlgError, match="singular"):
            resolvent_step(affine_op(-np.eye(2), [0.0, 0.0]), [1.0, 1.0])

    def test_inaccurate_solution_raises(self):
        # z / 1.3 rounds at the scale of z, far above the 1e-10 residual
        with pytest.raises(np.linalg.LinAlgError, match="residual"):
            resolvent_step(affine_op([[0.3]], [0.0]), [1e12 / 3])

    def test_nan_residual_raises(self):
        # the solve overflows to (inf, 2), whose residual is NaN; under
        # run_tracker's errstate nothing warns, so the check must catch it
        op = affine_op([[1e308, -1e308], [0.0, 0.0]], [0.0, 0.0])
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(np.linalg.LinAlgError, match="residual"):
                resolvent_step(op, [0.0, 2.0])

    def test_matches_linalg_solve_bitwise(self):
        # the gufunc call is np.linalg.solve's own dgesv call
        rng = np.random.default_rng(11)
        for d in range(1, 5):
            for _ in range(50):
                A = rng.standard_normal((d, d)) + 2.0 * np.eye(d)   # not symmetric
                b, z = rng.standard_normal(d), rng.uniform(-5.0, 5.0, d)
                want = np.linalg.solve(np.eye(d) + A, z - b)
                assert resolvent_step(affine_op(A, b), z).tobytes() == want.tobytes()

    @pytest.mark.parametrize("state", [
        contextlib.nullcontext, lambda: np.errstate(over="ignore", invalid="ignore")],
        ids=["default_errstate", "run_tracker_errstate"])
    def test_singular_raises_without_warning(self, state):
        op = affine_op([[-1.0, 2.0], [0.0, -1.0]], [0.0, 0.0])
        with warnings.catch_warnings(record=True) as caught, state():
            warnings.simplefilter("always")
            with pytest.raises(np.linalg.LinAlgError, match="singular"):
                resolvent_step(op, [1.0, 1.0])
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    def test_fallback_solve_gives_the_same_bytes(self, monkeypatch):
        # on a numpy without the solve1 gufunc the step calls
        # np.linalg.solve, which runs the same dgesv call
        assert algorithms._solve1 is not None
        rng = np.random.default_rng(12)
        cases = []
        for d in range(1, 5):
            for _ in range(50):
                M, v = rng.standard_normal((d, d)) + 2.0 * np.eye(d), rng.standard_normal(d)
                assert np.linalg.solve(M, v).tobytes() == \
                    algorithms._solve1(M, v, signature="dd->d").tobytes()
                op = affine_op(M - np.eye(d), rng.standard_normal(d))
                z = rng.uniform(-5.0, 5.0, d)
                cases.append((op, z, resolvent_step(op, z).tobytes()))
        monkeypatch.setattr(algorithms, "_solve1", None)
        for op, z, want in cases:
            assert resolvent_step(op, z).tobytes() == want

    @pytest.mark.parametrize("state", [
        contextlib.nullcontext, lambda: np.errstate(over="ignore", invalid="ignore")],
        ids=["default_errstate", "run_tracker_errstate"])
    def test_fallback_solve_names_a_singular_system(self, monkeypatch, state):
        monkeypatch.setattr(algorithms, "_solve1", None)
        op = affine_op([[-1.0, 2.0], [0.0, -1.0]], [0.0, 0.0])
        with state(), pytest.raises(np.linalg.LinAlgError, match="I \\+ A is singular"):
            resolvent_step(op, [1.0, 1.0])


class TestFloatingPointPolicy:
    @pytest.mark.parametrize("algo", [Resolvent(), ContractiveForward(1e-3)],
                             ids=["resolvent", "forward"])
    def test_no_errstate_context_per_round(self, monkeypatch, algo):
        # run_tracker enters the one policy of the run; no round enters
        # its own context (numpy's own code does not look np.errstate up)
        entered = []
        errstate = np.errstate

        def counting(*args, **kwargs):
            entered.append(sys._getframe(1).f_globals.get("__name__", ""))
            return errstate(*args, **kwargs)

        sc = build_scenario("streaming_regression", {"seed": 4})
        monkeypatch.setattr(np, "errstate", counting)
        traj = run_tracker(sc.seq, algo, sc.domain, np.zeros(3), 200)
        assert not traj.diverged and len(traj.op_values) == 200
        assert len([m for m in entered if m.startswith("tvvi")]) <= 1

    def test_resolvent_run_reads_the_policy_once(self, monkeypatch):
        # the resolvent learner picks its solve at its start, under
        # run_tracker's policy; no round reads np.geterr, while a library
        # call of resolvent_step reads it each time
        reads = []
        geterr = np.geterr

        def counting():
            reads.append(sys._getframe(1).f_globals.get("__name__", ""))
            return geterr()

        sc = build_scenario("streaming_regression", {"seed": 4})
        monkeypatch.setattr(np, "geterr", counting)
        traj = run_tracker(sc.seq, Resolvent(), sc.domain, np.zeros(3), 200)
        assert not traj.diverged and len(traj.op_values) == 200
        assert len([m for m in reads if m.startswith("tvvi")]) <= 1
        del reads[:]
        for _ in range(2):
            resolvent_step(sc.seq.at(1), np.zeros(3))
        assert len([m for m in reads if m.startswith("tvvi")]) == 2


class TestCyclicFB:
    def test_slot_selection(self):
        st = CyclicFB(2, StepSchedule.constant(0.1)).start([0.0], UNB1)
        assert st.slot_index(1) == 0
        assert st.slot_index(2) == 1
        assert st.slot_index(3) == 0

    def test_slot_update_counts(self):
        # F = 1 moves a slot by -1 / (mu s) at its s-th update, so each slot
        # is the running sum of the step sizes of its counts, taken here in
        # the same order: a count off by one changes the bytes
        op, mu = affine_op([[0.0]], [1.0]), 0.3
        st = CyclicFB(3, StepSchedule.inverse_mu_t(mu)).start([0.0], UNB1)
        expected = [0.0, 0.0, 0.0]
        for t in range(1, 2 * 64 + 8):     # past two blocks of the schedule
            phase, count = (t - 1) % 3, (t - 1) // 3 + 1
            assert st.play(t)[0] == expected[phase]
            expected[phase] = expected[phase] - 1.0 / (mu * count)
            st.observe(t, op)
            assert st.slots[:, 0].tolist() == expected

    def test_single_period_hits_center(self):
        # i = 1, eta_s = 1/s: the first update lands exactly on c
        c = 0.8
        op = affine_op([[1.0]], [-c])
        st = CyclicFB(1, StepSchedule.inverse_mu_t(1.0)).start([5.0], UNB1)
        st.play(1)
        st.observe(1, op)
        assert st.slots[0][0] == pytest.approx(c, abs=1e-12)

    def test_reduces_to_ogd(self):
        # period 1 with eta_t = 1/(mu t) is online gradient descent
        ops = [affine_op([[1.0]], [-c]) for c in (1.0, -2.0, 0.5)]
        st = CyclicFB(1, StepSchedule.inverse_mu_t(1.0)).start([0.0], UNB1)
        x = 0.0
        for t, op in enumerate(ops, start=1):
            play = st.play(t)
            st.observe(t, op)
            assert play[0] == pytest.approx(x, abs=1e-12)
            x = x - (1.0 / t) * (x - float(-op.affine[1][0]))

    def test_per_cycle_contraction(self):
        # constant eta = 1/L with the correct period: squared distance
        # shrinks by (1 - mu/L) per completed cycle of slot updates
        rng = np.random.default_rng(21)
        for k in (2, 3):
            d = 2
            q, _ = np.linalg.qr(rng.standard_normal((d, d)))
            eigs = rng.uniform(1.0, 5.0, d)
            A = q @ np.diag(eigs) @ q.T
            mu, L = eigs.min(), eigs.max()
            centers = [rng.uniform(-2, 2, d) for _ in range(k)]
            sc = periodic_quadratic(centers, matrix=A)
            z1 = rng.uniform(-4, 4, d)
            traj = run_tracker(sc.seq, CyclicFB(k, StepSchedule.constant(1.0 / L)),
                               sc.domain, z1, 200)
            rho = 1.0 - mu / L
            for t in range(1, len(traj.plays) + 1):
                star = centers[(t - 1) % k]
                lhs = np.linalg.norm(traj.plays[t - 1] - star) ** 2
                rhs = rho ** ((t - 1) // k) * np.linalg.norm(z1 - star) ** 2
                assert lhs <= rhs + 1e-9


class TestSurrogate:
    def test_matches_g_at_anchor(self):
        g = np.array([2.0, -1.0])
        z_t = np.array([0.5, 0.5])
        s = make_surrogate(g, z_t, 2.0)
        assert np.allclose(s(z_t), g)

    def test_unconstrained_root(self):
        g = np.array([2.0])
        z_t = np.array([1.0])
        mu = 4.0
        s = make_surrogate(g, z_t, mu)
        root = z_t - g / mu
        assert np.allclose(s(root), 0.0, atol=1e-14)

    def test_algebraic_identity(self):
        # <F~(Zi), Zi - u> - (mu/2)|Zi - u|^2
        #   == <g, Zi - u> - (mu/2)|zt - u|^2 + (mu/2)|Zi - zt|^2
        rng = np.random.default_rng(9)
        for _ in range(100):
            d = rng.integers(1, 5)
            g, zt, zi, u = (rng.standard_normal(d) for _ in range(4))
            mu = float(rng.uniform(0.1, 4.0))
            s = make_surrogate(g, zt, mu)
            lhs = float(s(zi) @ (zi - u)) - 0.5 * mu * float((zi - u) @ (zi - u))
            rhs = float(g @ (zi - u)) - 0.5 * mu * float((zt - u) @ (zt - u)) \
                + 0.5 * mu * float((zi - zt) @ (zi - zt))
            assert lhs == pytest.approx(rhs, abs=1e-10)


class TestExpWeights:
    def test_uniform_for_equal_losses(self):
        assert np.allclose(exp_weights(np.array([3.0, 3.0]), 0.7), [0.5, 0.5])

    def test_closed_form_two_experts(self):
        # losses (0, 1) every round with lam = 0.5
        lam = 0.5
        for t in range(1, 30):
            cum = np.array([0.0, float(t - 1)])
            p = exp_weights(cum, lam)
            assert p[0] == pytest.approx(1.0 / (1.0 + math.exp(-lam * (t - 1))),
                                         rel=1e-12)

    def test_shift_invariance(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            cum = rng.standard_normal(4)
            c = float(rng.uniform(-100, 100))
            p1 = exp_weights(cum, 0.3)
            p2 = exp_weights(cum + c, 0.3)
            assert np.max(np.abs(p1 - p2)) <= 1e-12

    def test_mix_loss_values(self):
        p = np.array([0.5, 0.5])
        assert mix_loss(p, np.array([0.0, 0.0]), 1.0) == pytest.approx(0.0, abs=1e-15)
        m = mix_loss(p, np.array([0.0, 1.0]), 1.0)
        assert m == pytest.approx(-math.log((1.0 + math.exp(-1.0)) / 2.0), abs=1e-12)
        assert m == pytest.approx(0.3799, abs=1e-4)

    def test_mix_loss_sandwich(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            k = rng.integers(2, 6)
            p = rng.dirichlet(np.ones(k))
            losses = rng.standard_normal(k)
            lam = float(rng.uniform(0.01, 10.0))
            m = mix_loss(p, losses, lam)
            assert losses.min() - 1e-12 <= m <= losses.max() + 1e-12


def box1(lo=-2.0, hi=2.0):
    return Domain.box([lo], [hi])


class TestMetaFixed:
    def test_learning_rate_formula(self):
        lam = fixed_learning_rate(2.0, 1.0, 3.0)
        assert lam == pytest.approx(1.0 / (4.0 * 2.0 * (1.0 + 1.5) ** 2), rel=1e-15)

    def test_single_base_equals_base_play(self):
        dom = box1()
        st = MetaFixed(K=1, mu=1.0, D=4.0, G=3.0).start([1.0], dom)
        op = affine_op([[1.0]], [-0.5])
        play = st.play(1)
        st.observe(1, op)
        assert play[0] == 1.0
        assert np.allclose(st.weights, [1.0])

    def test_symmetric_bases_stay_uniform(self):
        dom = box1()
        st = MetaFixed(K=2, mu=1.0, D=4.0, G=3.0).start([1.0], dom)
        op = affine_op([[1.0]], [-0.5])
        # round 1: both bases play the shared start, losses coincide
        st.play(1)
        st.observe(1, op)
        assert np.allclose(st.weights, [0.5, 0.5], atol=1e-15)

    def test_weight_simplex_along_run(self):
        sc = periodic_quadratic([[0.5], [-0.5]], domain=box1())
        algo = MetaFixed(K=3, mu=1.0, D=sc.diameter, G=sc.gbound)
        traj = run_tracker(sc.seq, algo, sc.domain, [1.0], 200)
        for w in traj.weights:
            assert np.all(w >= 0)
            assert abs(w.sum() - 1.0) <= 1e-12

    def test_one_evaluation_per_round(self):
        dom = box1()
        probe = affine_op([[1.0]], [-0.5])
        st = MetaFixed(K=4, mu=1.0, D=4.0, G=3.0).start([1.0], dom)
        for t in range(1, 20):
            before = probe.evals
            st.play(t)
            st.observe(t, probe)
            assert probe.evals - before == 1

    def test_requires_bounded_domain(self):
        sc = periodic_quadratic([[0.5], [-0.5]])
        algo = MetaFixed(K=2, mu=1.0, D=1.0, G=1.0)
        with pytest.raises(ConfigurationError):
            run_tracker(sc.seq, algo, sc.domain, [1.0], 5)


class TestMetaAdaptive:
    def test_argmin_phase_indicator(self):
        # a round with lbar <= min loss and a unique cumulative argmin
        # must produce an indicator weight vector
        dom = Domain.unbounded(1)
        st = MetaAdaptive(K=2, mu=0.5, lip=2.0).start([1.0], dom)
        # round 1 plays each base's first slot
        st.bank.slots[st.bank.offsets] = [[2.0], [-2.0]]
        st.cum_loss = np.array([5.0, 1.0])
        zero_op = Operator(fn=np.zeros_like, dim=1)
        st.play(1)
        st.observe(1, zero_op)
        assert not st.t0_passed
        assert np.allclose(st.weights, [0.0, 1.0])

    def test_lambda_nonincreasing_after_t0(self):
        sc = periodic_quadratic([[1.0], [-1.0]])
        st = MetaAdaptive(K=3, mu=sc.mu, lip=sc.lip).start([2.0], sc.domain)
        lams = []
        for t in range(1, 300):
            op = sc.seq.at(t)
            if st.t0_passed:
                lams.append(math.log(3) / st.cum_gap)
            st.play(t)
            st.observe(t, op)
        assert len(lams) > 2
        assert all(b <= a + 1e-15 for a, b in zip(lams, lams[1:]))

    def test_evaluation_budget(self):
        # K distinct slot evaluations plus the observation at the play;
        # the play coincides with a slot while the weights are an
        # argmin indicator, giving exactly K distinct points
        sc = periodic_quadratic([[1.0], [-1.0]])
        K = 3
        st = MetaAdaptive(K=K, mu=sc.mu, lip=sc.lip).start([2.0], sc.domain)
        for t in range(1, 60):
            op = sc.seq.at(t)
            before = op.evals
            indicator = np.max(st.weights) == 1.0 or t == 1
            st.play(t)
            st.observe(t, op)
            spent = op.evals - before
            if indicator or t == 1:
                assert spent <= K
            else:
                assert spent <= K + 1
            assert spent >= 1

    def test_weight_simplex(self):
        sc = periodic_quadratic([[1.0], [-1.0]])
        algo = MetaAdaptive(K=4, mu=sc.mu, lip=sc.lip)
        traj = run_tracker(sc.seq, algo, sc.domain, [3.0], 300)
        for w in traj.weights:
            assert np.all(w >= 0)
            assert abs(w.sum() - 1.0) <= 1e-12

    def test_play_is_the_weighted_base_plays(self):
        sc = periodic_quadratic([[1.0], [-1.0]])
        learner = MetaAdaptive(K=4, mu=sc.mu, lip=sc.lip).start(np.array([3.0]),
                                                                sc.domain)
        for t in range(1, 41):
            z = learner.play(t)
            assert learner.base_plays.shape == (4, 1)
            # the played point is the weighted combination of the base plays
            combo = sum(w * b for w, b in zip(learner.weights, learner.base_plays))
            assert np.allclose(combo, z, atol=1e-12)
            learner.observe(t, sc.seq.respond(t, z)[1])


def dict_dedupe(P):
    """The distinct rows of P by their bytes, in first-seen order, and
    each row's index among them: the dict the vectorized dedupe replaced."""
    index = {}
    rows = [index.setdefault(p.tobytes(), len(index)) for p in P]
    pts = np.empty((len(index), P.shape[1]))
    pts[rows] = P
    return pts, rows


class TestDistinctEvaluation:
    """The adaptive meta-algorithm's one block call on the distinct
    points, against the bytes-keyed dict dedupe."""

    def block(self, rng, K, d):
        # a repeat of the play, 0.0 next to -0.0 and, at larger K, more
        # repeats, one differing from a zero row only in a sign
        z = rng.standard_normal(d)
        Z = rng.standard_normal((K, d))
        Z[1] = z
        Z[2], Z[3] = 0.0, -0.0
        if K > 4:
            Z[K // 2], Z[-1], Z[-2] = Z[0], Z[2], Z[3]
            Z[-3] = Z[2]
            Z[-3, 0] = -0.0
        return z, Z

    @pytest.mark.parametrize("K", [4, 64])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_matches_dict_dedupe(self, K, d):
        rng = np.random.default_rng(K + d)
        z, Z = self.block(rng, K, d)
        pts, rows = dict_dedupe(np.concatenate([z[None], Z]))
        blocks = []

        def fn(X):
            blocks.append(X.copy())
            return np.sin(X) + X ** 2

        op = Operator(fn=fn, dim=d)
        g, G = _evaluate_distinct(op, z, Z)
        assert len(blocks) == 1
        assert blocks[0].tobytes() == pts.tobytes()     # same points, same order
        F = fn(pts)[rows]
        assert g.tobytes() == F[0].tobytes()
        assert G.tobytes() == F[1:].tobytes()
        assert op.evals == len(pts) < K + 1
        assert rows[3] != rows[4]           # 0.0 and -0.0 are distinct points

    def test_all_equal_and_all_distinct(self):
        op = Operator(fn=lambda X: 2.0 * X, dim=2)
        z = np.array([0.5, -1.0])
        g, G = _evaluate_distinct(op, z, np.tile(z, (4, 1)))
        assert op.evals == 1 and np.array_equal(G, np.tile(2.0 * z, (4, 1)))
        Z = np.arange(8.0).reshape(4, 2)
        _evaluate_distinct(op, z, Z)
        assert op.evals == 1 + 5


class PerSlotCyclic:
    """Reference cyclic learner with period i: a list of i slots, each
    with its own update count, stepped one point at a time by any
    callable feedback z -> F(z)."""

    def __init__(self, period, z1, schedule, domain):
        self.slots = [np.array(z1, dtype=float) for _ in range(period)]
        self.steps = [0] * period
        self.schedule, self.domain = schedule, domain

    def play(self, t):
        return self.slots[(t - 1) % len(self.slots)]

    def observe(self, t, f):
        n = (t - 1) % len(self.slots)
        self.steps[n] += 1
        z = self.slots[n]
        self.slots[n] = project(self.domain,
                                z - self.schedule.at(self.steps[n]) * f(z))


class PerBaseMeta:
    """Reference meta-algorithm: K separate per-slot cyclic learners
    stepped one by one, the true operator evaluated point by point
    through a cache (once per distinct point), and a ``make_surrogate``
    per round for the fixed rate ``lam``."""

    def __init__(self, K, z1, schedule, domain, mu, lam=None):
        self.bases = [PerSlotCyclic(i, z1, schedule, domain)
                      for i in range(1, K + 1)]
        self.mu, self.lam = mu, lam
        self.weights = np.full(K, 1.0 / K)
        self.cum_loss = np.zeros(K)
        self.cum_gap = 0.0
        self.t0_passed = False

    def play(self, t):
        self.base_plays = [b.play(t) for b in self.bases]
        self.z = np.sum([p * z for p, z in zip(self.weights, self.base_plays)],
                        axis=0)
        return self.z

    def observe(self, t, op):
        cache = {}

        def f(x):
            if x.tobytes() not in cache:
                cache[x.tobytes()] = evaluate(op, x)
            return cache[x.tobytes()]

        mu, z = self.mu, self.z
        g = f(z)
        losses = np.array([float(np.dot(g, zi)) + 0.5 * mu * float(np.dot(zi - z, zi - z))
                           for zi in self.base_plays])
        self.cum_loss = self.cum_loss + losses
        K = len(self.bases)
        if self.lam is not None:
            self.weights = exp_weights(self.cum_loss, self.lam)
            feedback = make_surrogate(g, z, mu)
        else:
            lbar = float(np.dot(g, z))
            lam_t = math.log(K) / self.cum_gap if self.t0_passed else math.inf
            m_t = mix_loss(self.weights, losses, lam_t)
            if not self.t0_passed and K > 1 and lbar > m_t + 1e-12:
                self.t0_passed = True
            if self.t0_passed:
                self.cum_gap += max(lbar - m_t, 0.0)
                self.weights = exp_weights(self.cum_loss, math.log(K) / self.cum_gap)
            else:
                mins = self.cum_loss <= self.cum_loss.min() + 1e-12
                self.weights = mins / mins.sum()
            feedback = f
        for b in self.bases:
            b.observe(t, feedback)
        return g


class TestSlotBank:
    """The meta-algorithms' one slot bank against the per-base reference."""

    A = np.array([[2.0, 0.6], [0.6, 1.0]])
    CENTERS = [[0.5, -0.3], [-0.6, 0.2], [0.1, 0.7]]
    DOMAINS = {"box": (Domain.box([-1.0, -1.0], [1.0, 1.0]), [0.9, -0.9]),
               "unbounded": (Domain.unbounded(2), [3.0, -2.0])}

    def learners(self, variant, K, domain, z1):
        sc = periodic_quadratic(self.CENTERS, matrix=self.A, domain=domain)
        if variant == "fixed":
            schedule = StepSchedule.inverse_mu_t(sc.mu)
            lam = fixed_learning_rate(sc.mu, 4.0, 5.0)
        else:
            schedule, lam = StepSchedule.constant(1.0 / sc.lip), None
        return sc, [MetaLearner(K, z1, schedule, domain, sc.mu, lam),
                    PerBaseMeta(K, z1, schedule, domain, sc.mu, lam)]

    @pytest.mark.parametrize("domain", ["box", "unbounded"])
    @pytest.mark.parametrize("K", [1, 3, 8])
    @pytest.mark.parametrize("variant", ["fixed", "adaptive"])
    def test_matches_per_base_reference(self, variant, K, domain):
        sc, (bank, ref) = self.learners(variant, K, *self.DOMAINS[domain])
        for t in range(1, 121):
            plays, values, spent = [], [], []
            for learner in (bank, ref):
                op = sc.seq.at(t)
                before = op.evals       # the k operators are shared by their rounds
                plays.append(learner.play(t))
                values.append(learner.observe(t, op))
                spent.append(op.evals - before)
            np.testing.assert_allclose(plays[0], plays[1], rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(values[0], values[1], rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(bank.weights, ref.weights, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(bank.base_plays, ref.base_plays,
                                       rtol=1e-12, atol=1e-12)
            assert spent[0] == spent[1]
            assert bank.t0_passed == ref.t0_passed

    @pytest.mark.parametrize("variant", ["fixed", "adaptive"])
    def test_one_operator_call_per_round(self, variant):
        # every base's feedback comes from a single call of the true fn
        dom, z1 = self.DOMAINS["box"]
        sc, (bank, _) = self.learners(variant, 16, dom, z1)
        for t in range(1, 41):
            calls = []
            fn = sc.seq.at(t).fn
            op = replace(sc.seq.at(t), fn=lambda X: calls.append(X.shape) or fn(X))
            bank.play(t)
            bank.observe(t, op)
            assert len(calls) == 1


# A reference meta-algorithm round with no schedule cache and no shared
# buffers: step sizes from slot_steps + 1 each round, fresh arrays for the
# losses and weights, and the ndarray reductions. MetaLearner must match
# it byte for byte.

def ref_exp_weights(cum_loss, lam):
    a = -lam * np.asarray(cum_loss, dtype=float)
    a -= a.max()
    w = np.exp(a)
    return w / w.sum()


def ref_mix_loss(p, losses, lam):
    if not math.isfinite(lam):
        return float(np.min(losses[p > 0]))
    a = -lam * np.asarray(losses, dtype=float)
    m = a.max()
    return float(-(m + np.log((p * np.exp(a - m)).sum())) / lam)


def ref_distinct_rows(P):
    W = P.T.copy().view(np.int64)
    same = np.logical_and.reduce(W[:, :, None] == W[:, None, :], axis=0)
    first = same.argmax(axis=1) == np.arange(len(P))
    return P[first], same[:, first].argmax(axis=1)


def ref_losses(g, Z, play, mu):
    D = Z - play
    return Z @ g + 0.5 * mu * (D * D).sum(axis=-1)


class ReferenceMeta:
    """The meta round with its own flat slot bank of periods 1..K: the
    slots gathered, stepped by ``slot_steps + 1`` and scattered back."""

    def __init__(self, K, z1, schedule, domain, mu, lam=None):
        self.periods = np.arange(1, K + 1)
        self.offsets = np.cumsum(self.periods) - self.periods
        self.slots = np.tile(np.asarray(z1, dtype=float), (int(self.periods.sum()), 1))
        self.slot_steps = np.zeros(len(self.slots), dtype=np.int64)
        self.schedule, self.domain = schedule, domain
        self.mu, self.lam = mu, lam
        self.weights = np.full(K, 1.0 / K)
        self.cum_loss = np.zeros(K)
        self.cum_gap = 0.0
        self.t0_passed = False

    def step(self, n, Z, G):
        s = self.slot_steps[n] + 1
        self.slots[n] = project(self.domain, Z - self.schedule.at(s[:, None]) * G)
        self.slot_steps[n] = s

    def play(self, t):
        self.active = self.offsets + (t - 1) % self.periods
        self.base_plays = self.slots[self.active]
        self.z = (self.weights[:, None] * self.base_plays).sum(axis=0)
        return self.z

    def observe(self, t, op):
        Z = self.base_plays
        if self.lam is not None:
            g = evaluate(op, self.z)
            mu = self.mu
            A = mu * np.eye(g.size)
            G = Operator.from_affine(A, g - mu * self.z, mu=mu, lip=mu).fn(Z)
        else:
            pts, rows = ref_distinct_rows(np.concatenate([self.z[None], Z]))
            F = evaluate(op, pts)[rows]
            g, G = F[0], F[1:]
        losses = ref_losses(g, Z, self.z, self.mu)
        self.cum_loss = self.cum_loss + losses
        if self.lam is not None:
            self.weights = ref_exp_weights(self.cum_loss, self.lam)
        else:
            self._tune(g, losses)
        self.step(self.active, Z, G)
        return g

    def _tune(self, g, losses):
        K = len(self.weights)
        lbar = float(np.dot(g, self.z))
        lam_t = math.log(K) / self.cum_gap if self.t0_passed else math.inf
        m_t = ref_mix_loss(self.weights, losses, lam_t)
        if not self.t0_passed and K > 1 and lbar > m_t + 1e-12:
            self.t0_passed = True
        if self.t0_passed:
            self.cum_gap += max(lbar - m_t, 0.0)
            self.weights = ref_exp_weights(self.cum_loss, math.log(K) / self.cum_gap)
        else:
            mins = self.cum_loss <= self.cum_loss.min() + 1e-12
            self.weights = mins / mins.sum()


class TestMetaRoundBits:
    """``MetaLearner`` against ``ReferenceMeta``, byte for byte, every
    round of 200: past three 64-round blocks of the slot schedule."""

    CENTERS = [[0.6, -0.4, 0.2, 0.9], [-0.5, 0.3, -0.8, 0.1], [0.2, 0.7, 0.4, -0.6]]

    @staticmethod
    def operators(kind, d):
        # one operator per round: centers cycling with period 3
        A = np.diag([1.0, 2.5, 1.5, 3.0][:d]) + 0.2 * (np.ones((d, d)) - np.eye(d))
        centers = [np.array(c[:d]) for c in TestMetaRoundBits.CENTERS]
        if kind == "affine":
            return lambda t: affine_op(A, -A @ centers[(t - 1) % 3])
        return lambda t: Operator(
            fn=lambda X, c=centers[(t - 1) % 3]: (X - c) @ A.T + 0.3 * np.tanh(3.0 * X),
            dim=d)

    @pytest.mark.parametrize("kind", ["affine", "tanh"])
    @pytest.mark.parametrize("domain", ["box", "unbounded"])
    @pytest.mark.parametrize("d", [1, 2, 4])
    @pytest.mark.parametrize("K", [1, 4, 16, 64])
    @pytest.mark.parametrize("variant", ["fixed", "adaptive"])
    def test_matches_reference_bitwise(self, variant, K, d, domain, kind):
        # the box's upper face is 0.0 in the first coordinate, so clipped
        # slots hold +0.0 there while untouched ones keep the start's -0.0
        dom = (Domain.box([-1.0] * d, [0.0] + [1.0] * (d - 1)) if domain == "box"
               else Domain.unbounded(d))
        z1 = np.array([-0.0, -0.5, 0.75, -0.25][:d])
        mu = 1.0
        if variant == "fixed":
            schedule, lam = StepSchedule.inverse_mu_t(mu), fixed_learning_rate(mu, 2.0, 4.0)
        else:
            schedule, lam = StepSchedule.constant(0.25), None
        new = MetaLearner(K, z1, schedule, dom, mu, lam)
        ref = ReferenceMeta(K, z1, schedule, dom, mu, lam)
        # +0.0 beside -0.0 among the untouched slots of every base
        new.bank.slots[1::2, 0] = ref.slots[1::2, 0] = 0.0
        at = self.operators(kind, d)
        for t in range(1, 201):
            ops = at(t), at(t)
            z, zr = new.play(t), ref.play(t)
            assert z.tobytes() == zr.tobytes()
            g, gr = new.observe(t, ops[0]), ref.observe(t, ops[1])
            assert g.tobytes() == gr.tobytes()
            for name in ("weights", "cum_loss", "base_plays"):
                assert getattr(new, name).tobytes() == getattr(ref, name).tobytes(), name
            assert new.bank.slots.tobytes() == ref.slots.tobytes()
            assert ops[0].evals == ops[1].evals
            assert (new.t0_passed, new.cum_gap) == (ref.t0_passed, ref.cum_gap)



class TestStartWidth:
    """Every spec's start checks the start's width against the domain's,
    once: the unbounded forward step no longer projects, so no round
    would catch it."""

    @pytest.mark.parametrize("spec, domain", [
        (ContractiveForward(0.1), Domain.unbounded(2)),
        (Resolvent(), Domain.unbounded(2)),
        (CyclicFB(2, StepSchedule.constant(0.1)), Domain.unbounded(2)),
        (MetaFixed(K=3, mu=1.0, D=2.0, G=2.0), Domain.box([-1.0, -1.0], [1.0, 1.0])),
        (MetaAdaptive(K=3, mu=1.0, lip=2.0), Domain.unbounded(2))],
        ids=["forward", "resolvent", "cyclic_fb", "meta_fixed", "meta_adaptive"])
    def test_start_names_both_widths(self, spec, domain):
        with pytest.raises(ValueError, match="start 3, domain 2"):
            spec.start(np.zeros(3), domain)
        spec.start(np.zeros(2), domain)

    def test_no_round_runs(self):
        op = Operator(fn=lambda X: X, dim=3)
        seq = ProblemSequence(at=lambda t: op, dim=3)
        with pytest.raises(ValueError, match="start 3, domain 2"):
            run_tracker(seq, ContractiveForward(0.1), Domain.unbounded(2), np.zeros(3), 5)
        assert op.evals == 0

class TestRunTracker:
    def test_periodic_1d_single_step_convergence(self):
        sc = build_scenario("periodic_1d")
        traj = run_tracker(sc.seq, ContractiveForward(1.0), sc.domain, [3.0], 10)
        xs = [p[0] for p in traj.plays]
        assert xs[2] == 0.0
        assert all(x == 0.0 for x in xs[2:])

    def test_periodic_1d_divergent_ratio(self):
        sc = build_scenario("periodic_1d")
        traj = run_tracker(sc.seq, ContractiveForward(0.5), sc.domain, [1.0], 21)
        xs = [p[0] for p in traj.plays]
        for t in range(1, 10):
            assert abs(xs[2 * t] / xs[2 * t - 2]) == pytest.approx(1.5, abs=1e-9)

    def test_constant_sequence_one_step(self):
        op = affine_op([[1.0]], [0.0])
        seq_sc = periodic_quadratic([[0.0]])
        traj = run_tracker(seq_sc.seq, ContractiveForward(1.0), seq_sc.domain,
                           [7.0], 5)
        assert all(p[0] == 0.0 for p in traj.plays[1:])

    def test_divergence_truncates(self):
        sc = build_scenario("periodic_1d")
        traj = run_tracker(sc.seq, ContractiveForward(0.5), sc.domain, [1.0],
                           500, divergence_threshold=100.0)
        assert traj.diverged
        assert np.linalg.norm(traj.plays[-1]) > 100.0
        assert len(traj.plays) < 500

    def test_trajectory_arrays(self):
        sc = build_scenario("rsi_game")
        T, K = 30, 4
        traj = run_tracker(sc.seq, MetaAdaptive(K=K, mu=sc.mu, lip=sc.lip),
                           sc.domain, [1.0, -1.0], T)
        assert traj.plays.shape == traj.op_values.shape == traj.solutions.shape \
            == (T, 2)
        assert traj.weights.shape == (T, K)
        forward = run_tracker(sc.seq, ContractiveForward(0.1), sc.domain, [1.0, -1.0], T)
        assert forward.plays.shape == (T, 2)
        assert forward.weights is None

    @pytest.mark.parametrize("threshold", [1e6, math.inf])
    def test_nonfinite_play_diverges(self, threshold):
        # F = inf moves round 2's play to -inf, which no threshold admits
        seq = ProblemSequence(
            at=lambda t: Operator(fn=lambda X: np.full_like(X, math.inf), dim=1), dim=1)
        traj = run_tracker(seq, ContractiveForward(0.5), UNB1, [1.0], 10,
                           divergence_threshold=threshold)
        assert traj.diverged_at == 2
        assert traj.plays.shape == (2, 1) and traj.op_values.shape == (1, 1)
        assert traj.plays[-1, 0] == -math.inf

    @staticmethod
    def nan_past_two():
        # F = -x, NaN where |x| > 2: an invalid operator/point pair
        op = Operator(fn=lambda X: np.where(np.abs(X) > 2.0, np.nan, -X), dim=1)
        return ProblemSequence(at=lambda t: op, dim=1)

    def test_nan_operator_value_diverges(self):
        # forward at eta 1 plays 1, 2 and 4; F(4) is NaN, so round 3 stops
        traj = run_tracker(self.nan_past_two(), ContractiveForward(1.0), UNB1, [1.0], 10)
        assert traj.diverged_at == 3
        assert traj.plays[:, 0].tolist() == [1.0, 2.0, 4.0]
        assert traj.op_values[:, 0].tolist() == [-1.0, -2.0]

    def test_nan_operator_value_diverges_in_a_block_call(self):
        # the bases' block evaluation meets the NaN in round 3 too
        traj = run_tracker(self.nan_past_two(), MetaAdaptive(K=2, mu=1.0, lip=1.0),
                           UNB1, [1.0], 10)
        assert traj.diverged_at == 3
        assert traj.plays.shape == (3, 1) and traj.op_values.shape == (2, 1)
        assert traj.weights.shape == (2, 2)

    def test_resolvent_rejects_bounded_domain(self):
        # the resolvent step never projects: on the box [-0.1, 0.1] with
        # F(x) = x - 5 the plays would run 0 -> 2.5 -> 3.75 -> 4.375
        seq = ProblemSequence(at=lambda t: affine_op([[1.0]], [-5.0]), dim=1)
        with pytest.raises(ConfigurationError, match="resolvent"):
            run_tracker(seq, Resolvent(), Domain.box([-0.1], [0.1]), [0.0], 4)

    def test_resolvent_on_streaming(self):
        sc = build_scenario("streaming_regression", {"dim": 2, "seed": 4})
        traj = run_tracker(sc.seq, Resolvent(), sc.domain, [5.0, -5.0], 60)
        err = np.linalg.norm(traj.plays[-1] - traj.solutions[-1])
        assert err < 0.2


def _periodic_1d_run(algo, **kw):
    sc = build_scenario("periodic_1d")
    return run_tracker(sc.seq, algo, sc.domain, [1.0], 3, **kw)


class TestStepInputChecks:
    """A NaN or a nonpositive step size, a NaN box bound and a NaN
    divergence threshold are refused: each check is written so that a
    NaN fails it."""

    @pytest.mark.parametrize("call", [
        lambda: StepSchedule.constant(math.nan),
        lambda: StepSchedule.inverse_mu_t(math.nan),
        lambda: forward_step(affine_op([[1.0]], [0.0]), UNB1, [1.0], math.nan),
        lambda: compose_map(build_scenario("chaos_1d"), math.nan),
        lambda: Domain.box([math.nan], [1.0]),
        lambda: _periodic_1d_run(ContractiveForward(-1.0)),
        lambda: _periodic_1d_run(ContractiveForward(0.5), divergence_threshold=math.nan)],
        ids=["constant_schedule", "inverse_mu_t_schedule", "forward_step", "compose_map",
             "box", "forward_negative_eta", "divergence_threshold"])
    def test_refused(self, call):
        with pytest.raises(ValueError):
            call()

    def test_contractive_forward_checks_eta_at_start(self):
        spec = ContractiveForward(math.nan)
        with pytest.raises(ValueError, match="eta must be positive"):
            spec.start([1.0], UNB1)
