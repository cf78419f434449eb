"""Unit tests for domains, operators, and verification primitives."""

import numpy as np
import pytest

from tvvi.core import (Domain, Operator, analytic_solution, check_lipschitz,
                       check_strong_monotone, evaluate, project)


class TestProjection:
    def test_box_clamp(self):
        d = Domain.box([-1, -1], [1, 1])
        assert np.allclose(project(d, [2.0, 0.5]), [1.0, 0.5])

    def test_unbounded_identity(self):
        d = Domain.unbounded(2)
        assert np.allclose(project(d, [3.0, -7.0]), [3.0, -7.0])

    def test_ball_radial_rescale(self):
        d = Domain.ball([0.0, 0.0], 1.0)
        assert np.allclose(project(d, [3.0, 4.0]), [0.6, 0.8])

    def test_ball_center_fixed(self):
        d = Domain.ball([1.0, 2.0], 0.5)
        assert np.allclose(project(d, [1.0, 2.0]), [1.0, 2.0])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            project(Domain.box([0], [1]), [1.0, 2.0])

    @pytest.mark.parametrize("domain", [
        Domain.box([-1, -2], [2, 1]),
        Domain.ball([0.5, -0.5], 1.5),
        Domain.interval(-3.0, 2.0),
        Domain.unbounded(2),
    ], ids=["box", "ball", "interval", "unbounded"])
    def test_nonexpansive_and_idempotent(self, domain):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            x = rng.uniform(-5, 5, domain.dim)
            y = rng.uniform(-5, 5, domain.dim)
            px, py = project(domain, x), project(domain, y)
            assert np.linalg.norm(px - py) <= np.linalg.norm(x - y) + 1e-12
            assert np.array_equal(project(domain, px), px)

    def test_diameter(self):
        assert Domain.box([0, 0], [3, 4]).diameter == 5.0
        assert Domain.ball([0], 2.0).diameter == 4.0
        assert Domain.interval(-1, 1).diameter == 2.0
        assert Domain.unbounded(3).diameter is None

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            Domain.box([1.0], [0.0])
        with pytest.raises(ValueError):
            Domain.ball([0.0], 0.0)


def exp_quadratic_1d(a):
    def fn(x):
        q = a * x[..., 0] ** 2 / 2.0
        s = 1.0 / (1.0 + np.exp(-q))
        return (s * a * x[..., 0])[..., None]
    return Operator(fn=fn, dim=1)


class TestEvaluate:
    def test_zero_at_origin(self):
        op = exp_quadratic_1d(4.0)
        assert evaluate(op, [0.0])[0] == 0.0

    def test_exp_quadratic_value_and_fd(self):
        op = exp_quadratic_1d(4.0)
        sigma2 = 1.0 / (1.0 + np.exp(-2.0))
        got = evaluate(op, [1.0])[0]
        assert got == pytest.approx(sigma2 * 4.0, abs=1e-12)
        # cross-check against the central finite difference of the potential
        h = 1e-6
        f = lambda x: np.log1p(np.exp(2.0 * x * x))
        fd = (f(1.0 + h) - f(1.0 - h)) / (2 * h)
        assert got == pytest.approx(fd, abs=1e-6)

    def test_glm_single_sample(self):
        op = Operator(fn=lambda z: np.array([1.0 * (z[0] * 1.0 - 0.0)]), dim=1)
        assert evaluate(op, [2.0])[0] == 2.0

    def test_nan_raises(self):
        op = Operator(fn=lambda z: np.array([np.nan]), dim=1)
        with pytest.raises(FloatingPointError):
            evaluate(op, [1.0])

    def test_eval_counter(self):
        op = exp_quadratic_1d(1.0)
        for _ in range(5):
            evaluate(op, [0.3])
        assert op.evals == 5


class TestAnalyticSolution:
    def test_stored_solution_wins(self):
        op = Operator(fn=lambda z: z, dim=2, solution=np.array([1.0, 2.0]))
        got = analytic_solution(op, Domain.unbounded(2))
        assert np.allclose(got, [1.0, 2.0])

    def test_affine_solve(self):
        op = Operator.from_affine([[2.0]], [-4.0])
        got = analytic_solution(op, Domain.unbounded(1))
        assert got[0] == pytest.approx(2.0, abs=1e-12)

    def test_quadratic_drift_center(self):
        c = np.array([0.7, -0.3])
        op = Operator.from_affine(np.eye(2), -c)
        assert np.allclose(analytic_solution(op, Domain.unbounded(2)), c)

    def test_singular_returns_none(self):
        op = Operator.from_affine([[0.0]], [1.0])
        assert analytic_solution(op, Domain.unbounded(1)) is None

    def test_non_affine_returns_none(self):
        op = exp_quadratic_1d(4.0)
        assert analytic_solution(op, Domain.unbounded(1)) is None


class TestSampledChecks:
    def test_identity_mu_one(self):
        op = Operator.from_affine([[1.0]], [0.0])
        dom = Domain.unbounded(1)
        assert check_strong_monotone(op, 1.0, dom, 500, seed=1)
        assert not check_strong_monotone(op, 2.0, dom, 500, seed=1)

    def test_scaling_lipschitz(self):
        op = Operator.from_affine([[8.0]], [0.0])
        dom = Domain.unbounded(1)
        assert check_lipschitz(op, 8.0, dom, 500, seed=2)
        assert not check_lipschitz(op, 7.0, dom, 500, seed=2)

    def test_chaos_component_constants(self):
        # odd component: (1/8)-strongly monotone, (1.31/4)-Lipschitz
        f1 = exp_quadratic_1d(0.25)
        dom = Domain.unbounded(1)
        assert check_strong_monotone(f1, 1.0 / 8.0, dom, 2000, seed=3)
        assert check_lipschitz(f1, 1.31 / 4.0, dom, 2000, seed=3)
        # even component: 2-strongly monotone, 5.24-Lipschitz
        f2 = exp_quadratic_1d(4.0)
        assert check_strong_monotone(f2, 2.0, dom, 2000, seed=4)
        assert check_lipschitz(f2, 5.24, dom, 2000, seed=4)

    def test_row_only_fn_rejected(self):
        # indexing x[0] reads the first row of a block, not a coordinate
        op = Operator(fn=lambda x: np.array([2.0 * x[0]]), dim=1)
        assert evaluate(op, [1.5])[0] == 3.0
        with pytest.raises(ValueError, match="last axis"):
            check_lipschitz(op, 2.0, Domain.unbounded(1), 50, seed=0)

    def test_deterministic_given_seed(self):
        op = exp_quadratic_1d(4.0)
        dom = Domain.ball([0.0], 3.0)
        a = check_strong_monotone(op, 1.9, dom, 300, seed=5)
        b = check_strong_monotone(op, 1.9, dom, 300, seed=5)
        assert a == b
