"""Tests for the solvers, the cyclic base learner, and the two
aggregation meta-algorithms."""

import math

import numpy as np
import pytest

from tvvi.algorithms import (ContractiveForward, CyclicFB, CyclicFBState,
                             MetaAdaptive, MetaFixed, Resolvent, StepSchedule,
                             cyclic_fb_step, exp_weights, fixed_learning_rate,
                             forward_step, init_meta_adaptive, init_meta_fixed,
                             make_surrogate, meta_step_adaptive,
                             meta_step_fixed, mix_loss, resolvent_step,
                             run_tracker)
from tvvi.core import ConfigurationError, Domain, Operator, ProblemSequence
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


class TestCyclicFB:
    def test_slot_selection(self):
        st = CyclicFBState.init(2, [0.0], StepSchedule.constant(0.1))
        assert st.slot_index(1) == 0
        assert st.slot_index(2) == 1
        assert st.slot_index(3) == 0

    def test_literal_indexing_variant(self):
        st = CyclicFBState.init(2, [0.0], StepSchedule.constant(0.1),
                                literal_indexing=True)
        assert st.slot_index(1) == 1
        assert st.slot_index(2) == 0

    def test_slot_update_counts(self):
        op = affine_op([[1.0]], [0.0])
        st = CyclicFBState.init(2, [1.0], StepSchedule.constant(0.1))
        for t in range(1, 5):
            _, st = cyclic_fb_step(st, UNB1, t, op)
        assert st.slot_steps == [2, 2]

    def test_single_period_hits_center(self):
        # i = 1, eta_s = 1/s: the first update lands exactly on c
        c = 0.8
        op = affine_op([[1.0]], [-c])
        st = CyclicFBState.init(1, [5.0], StepSchedule.inverse_mu_t(1.0))
        _, st = cyclic_fb_step(st, UNB1, 1, op)
        assert st.slots[0][0] == pytest.approx(c, abs=1e-12)

    def test_reduces_to_ogd(self):
        # period 1 with eta_t = 1/(mu t) is online gradient descent
        ops = [affine_op([[1.0]], [-c]) for c in (1.0, -2.0, 0.5)]
        st = CyclicFBState.init(1, [0.0], StepSchedule.inverse_mu_t(1.0))
        x = 0.0
        for t, op in enumerate(ops, start=1):
            play, st = cyclic_fb_step(st, UNB1, t, op)
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
        st = init_meta_fixed(1, [1.0], mu=1.0, D=4.0, G=3.0)
        op = affine_op([[1.0]], [-0.5])
        play, _, st = meta_step_fixed(st, dom, op, mu=1.0)
        assert play[0] == 1.0
        assert np.allclose(st.weights, [1.0])

    def test_symmetric_bases_stay_uniform(self):
        dom = box1()
        st = init_meta_fixed(2, [1.0], mu=1.0, D=4.0, G=3.0)
        op = affine_op([[1.0]], [-0.5])
        # round 1: both bases play the shared start, losses coincide
        _, _, st = meta_step_fixed(st, dom, op, mu=1.0)
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
        st = init_meta_fixed(4, [1.0], mu=1.0, D=4.0, G=3.0)
        for t in range(1, 20):
            before = probe.evals
            _, _, st = meta_step_fixed(st, dom, probe, mu=1.0)
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
        st = init_meta_adaptive(2, [1.0], lip=2.0)
        st.bases[0].slots[0] = np.array([2.0])
        st.bases[1].slots[0] = np.array([-2.0])
        st.cum_loss = np.array([5.0, 1.0])
        zero_op = Operator(fn=lambda z: np.zeros(1), dim=1)
        _, _, st = meta_step_adaptive(st, dom, zero_op, mu=0.5)
        assert not st.t0_passed
        assert np.allclose(st.weights, [0.0, 1.0])

    def test_lambda_nonincreasing_after_t0(self):
        sc = periodic_quadratic([[1.0], [-1.0]])
        st = init_meta_adaptive(3, [2.0], lip=sc.lip)
        lams = []
        for t in range(1, 300):
            op = sc.seq.at(t)
            if st.t0_passed:
                lams.append(math.log(3) / st.cum_gap)
            _, _, st = meta_step_adaptive(st, sc.domain, op, mu=sc.mu)
        assert len(lams) > 2
        assert all(b <= a + 1e-15 for a, b in zip(lams, lams[1:]))

    def test_evaluation_budget(self):
        # K distinct slot evaluations plus the observation at the play;
        # the play coincides with a slot while the weights are an
        # argmin indicator, giving exactly K distinct points
        sc = periodic_quadratic([[1.0], [-1.0]])
        K = 3
        st = init_meta_adaptive(K, [2.0], lip=sc.lip)
        for t in range(1, 60):
            op = sc.seq.at(t)
            before = op.evals
            indicator = np.max(st.weights) == 1.0 or t == 1
            _, _, st = meta_step_adaptive(st, sc.domain, op, mu=sc.mu)
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

    def test_per_base_plays_shape(self):
        sc = periodic_quadratic([[1.0], [-1.0]])
        algo = MetaAdaptive(K=4, mu=sc.mu, lip=sc.lip)
        T = 40
        traj = run_tracker(sc.seq, algo, sc.domain, [3.0], T)
        assert len(traj.per_base_plays) == 4
        assert all(len(plays) == T for plays in traj.per_base_plays)
        # the played point is the weighted combination of the base plays
        for t in range(T):
            combo = sum(w * traj.per_base_plays[i][t]
                        for i, w in enumerate(traj.weights[t]))
            assert np.allclose(combo, traj.plays[t], atol=1e-12)


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
