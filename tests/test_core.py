"""Unit tests for domains, operators, and verification primitives."""

import numpy as np
import pytest

from tvvi.core import (Domain, Operator, analytic_solution, check_constants,
                       evaluate, project, rescale_overflowed_norms)


class TestProjection:
    def test_box_clamp(self):
        d = Domain.box([-1, -1], [1, 1])
        assert np.allclose(project(d, [2.0, 0.5]), [1.0, 0.5])

    def test_unbounded_identity(self):
        d = Domain.unbounded(2)
        assert np.allclose(project(d, [3.0, -7.0]), [3.0, -7.0])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            project(Domain.box([0], [1]), [1.0, 2.0])

    @pytest.mark.parametrize("domain", [
        Domain.box([-1, -2], [2, 1]),
        Domain.interval(-3.0, 2.0),
        Domain.unbounded(2),
    ], ids=["box", "interval", "unbounded"])
    def test_nonexpansive_and_idempotent(self, domain):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            x = rng.uniform(-5, 5, domain.dim)
            y = rng.uniform(-5, 5, domain.dim)
            px, py = project(domain, x), project(domain, y)
            assert np.linalg.norm(px - py) <= np.linalg.norm(x - y) + 1e-12
            assert np.array_equal(project(domain, px), px)

    @pytest.mark.parametrize("domain", [
        Domain.box([-1, -2], [2, 1]),
        Domain.interval(-3.0, 2.0),
        Domain.unbounded(2),
    ], ids=["box", "interval", "unbounded"])
    def test_block_matches_rows(self, domain):
        rng = np.random.default_rng(8)
        pts = rng.uniform(-5, 5, (1000, domain.dim))
        block = project(domain, pts)
        assert block.shape == pts.shape
        for x, px in zip(pts, block):
            assert np.array_equal(project(domain, x), px)
        assert np.array_equal(project(domain, block), block)

    def test_diameter(self):
        assert Domain.box([0, 0], [3, 4]).diameter == 5.0
        assert Domain.interval(-1, 1).diameter == 2.0
        assert Domain.unbounded(3).diameter is None

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            Domain.box([1.0], [0.0])


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


class TestFromAffine:
    def test_float_matrix_kept_as_it_is(self):
        A = np.array([[2.0, 1.0], [0.0, 3.0]])
        op = Operator.from_affine(A, [1.0, -1.0])
        assert op.affine[0] is A
        assert np.array_equal(op.fn(np.array([1.0, 2.0])), [5.0, 5.0])

    @pytest.mark.parametrize("A", [[[2, 1], [0, 3]], np.array([[2, 1], [0, 3]]),
                                   np.array([[2.0, 1.0], [0.0, 3.0]], dtype=np.float32)])
    def test_other_matrices_coerced_to_float(self, A):
        op = Operator.from_affine(A, [1, -1])
        M, b = op.affine
        assert M.dtype == float and b.dtype == float
        assert np.array_equal(M, [[2.0, 1.0], [0.0, 3.0]])

    def test_scalar_matrix_is_one_by_one(self):
        assert Operator.from_affine(2.0, [1.0]).affine[0].shape == (1, 1)


class TestRescaledNorms:
    def test_finite_rows_past_the_square_root_of_the_largest_float(self):
        X = np.array([[3e200, 4e200], [-2.5e154, 0.0], [1.5e308, 1.5e308], [1.0, 2.0]])
        with np.errstate(over="ignore"):
            plain = np.linalg.norm(X, axis=-1)
        got = rescale_overflowed_norms(X, plain)
        assert got[0] == pytest.approx(5e200, rel=1e-15)
        assert got[1] == 2.5e154
        assert got[2] == np.inf          # the norm itself is past the largest float
        assert got[3] == plain[3]        # a norm that did not overflow is kept

    def test_nonfinite_rows_keep_their_norm(self):
        X = np.array([[np.inf, 1.0], [np.nan, 1e200]])
        got = rescale_overflowed_norms(X, [np.inf, np.inf])
        assert np.array_equal(got, [np.inf, np.inf])

    def test_one_point(self):
        assert rescale_overflowed_norms(np.array([-1e200]), np.inf) == 1e200
        assert rescale_overflowed_norms(np.array([3.0, 4.0]), 5.0) == 5.0


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
        assert check_constants(op, 1.0, None, dom, 500, seed=1)[0]
        assert not check_constants(op, 2.0, None, dom, 500, seed=1)[0]

    def test_scaling_lipschitz(self):
        op = Operator.from_affine([[8.0]], [0.0])
        dom = Domain.unbounded(1)
        assert check_constants(op, None, 8.0, dom, 500, seed=2)[1]
        assert not check_constants(op, None, 7.0, dom, 500, seed=2)[1]

    def test_chaos_component_constants(self):
        # odd component: (1/8)-strongly monotone, (1.31/4)-Lipschitz
        f1 = exp_quadratic_1d(0.25)
        dom = Domain.unbounded(1)
        assert check_constants(f1, 1.0 / 8.0, None, dom, 2000, seed=3)[0]
        assert check_constants(f1, None, 1.31 / 4.0, dom, 2000, seed=3)[1]
        # even component: 2-strongly monotone, 5.24-Lipschitz
        f2 = exp_quadratic_1d(4.0)
        assert check_constants(f2, 2.0, None, dom, 2000, seed=4)[0]
        assert check_constants(f2, None, 5.24, dom, 2000, seed=4)[1]

    def test_row_only_fn_rejected(self):
        # indexing x[0] reads the first row of a block, not a coordinate
        op = Operator(fn=lambda x: np.array([2.0 * x[0]]), dim=1)
        assert evaluate(op, [1.5])[0] == 3.0
        with pytest.raises(ValueError, match="last axis"):
            check_constants(op, None, 2.0, Domain.unbounded(1), 50, seed=0)[1]

    @pytest.mark.parametrize("mu, lip", [(0.75, 2.25), (0.85, 2.1), (None, 2.25),
                                         (0.75, None)])
    def test_both_constants_from_one_evaluation(self, mu, lip):
        # eigenvalues (3 -+ sqrt 2) / 2 = 0.79, 2.21: the second pair fails
        op = Operator.from_affine([[2.0, 0.5], [0.5, 1.0]], [1.0, -1.0])
        dom = Domain.unbounded(2)
        got = check_constants(op, mu, lip, dom, 400, seed=6)
        assert op.evals == 800
        # each constant alone gives the same answer
        assert got == (check_constants(op, mu, None, dom, 400, seed=6)[0],
                       check_constants(op, None, lip, dom, 400, seed=6)[1])
        assert got[0] is (None if mu is None else mu < 0.79)
        assert got[1] is (None if lip is None else lip > 2.21)
        assert check_constants(op, None, None, dom, 400, seed=6) == (None, None)

    def test_deterministic_given_seed(self):
        op = exp_quadratic_1d(4.0)
        dom = Domain.interval(-3.0, 3.0)
        a = check_constants(op, 1.9, None, dom, 300, seed=5)[0]
        b = check_constants(op, 1.9, None, dom, 300, seed=5)[0]
        assert a == b
