"""Unit tests for domains, operators, and verification primitives."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tvvi.core import (ROUND_BLOCK, SAMPLING_BOX_HALF_WIDTH, Domain, Operator,
                       _evaluate_block, _round_blocks, _sample_points,
                       check_constants, evaluate, project, row_norms)
from tvvi.scenarios import build_scenario, rsi_operator


DOMAINS = pytest.mark.parametrize("domain", [
    Domain.box([-1, -2], [2, 1]), Domain.interval(-3.0, 2.0), Domain.unbounded(2)],
    ids=["box", "interval", "unbounded"])


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

    @DOMAINS
    def test_nonexpansive_and_idempotent(self, domain):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            x = rng.uniform(-5, 5, domain.dim)
            y = rng.uniform(-5, 5, domain.dim)
            px, py = project(domain, x), project(domain, y)
            assert np.linalg.norm(px - py) <= np.linalg.norm(x - y) + 1e-12
            assert np.array_equal(project(domain, px), px)

    @DOMAINS
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

    @pytest.mark.filterwarnings("error")
    def test_diameter_past_the_squares_range(self):
        # the squared widths overflow; the norm itself is a float
        d = Domain.box(np.zeros(3), np.full(3, 1e308))
        assert d.diameter == pytest.approx(math.sqrt(3.0) * 1e308, rel=1e-15)
        assert Domain.box([0.0], [1e308]).diameter == 1e308

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

    @pytest.mark.parametrize("name", ["chaos_1d", "star_2d", "exp_quadratic"])
    def test_block_equals_rows_bit_for_bit(self, name):
        sc = build_scenario(name)
        X = np.random.default_rng(0).uniform(-3.0, 3.0, size=(17, sc.seq.dim))
        for t in range(1, sc.period + 1):
            op = sc.seq.at(t)
            rows = np.array([evaluate(op, x) for x in X])
            before = op.evals
            block = evaluate(op, X)
            assert op.evals - before == len(X)
            assert block.tobytes() == rows.tobytes()

    @pytest.mark.parametrize("row", [0, 2, 4])
    def test_nan_in_any_row_raises(self, row):
        X = np.ones((5, 2))
        X[row, 1] = np.nan
        with pytest.raises(FloatingPointError):
            evaluate(Operator(fn=lambda Z: 2.0 * Z, dim=2), X)

    def test_infinite_rows_are_not_nan(self):
        X = np.array([[np.inf, -np.inf], [1e300, 1.0]])
        assert np.array_equal(evaluate(Operator(fn=lambda Z: Z, dim=2), X), X)

    @pytest.mark.parametrize("X", [np.zeros(3), np.zeros((4, 3)), np.zeros((4, 1))],
                             ids=["point", "block", "narrow_block"])
    def test_wrong_width_rejected_before_fn(self, X):
        seen = []
        op = Operator(fn=lambda Z: seen.append(Z.shape) or Z, dim=2)
        for call in (evaluate, _evaluate_block):
            with pytest.raises(ValueError,
                               match=f"dimension mismatch: point {X.shape[-1]}, operator 2"):
                call(op, X)
        assert seen == [] and op.evals == 0

    def test_sampled_checks_reject_the_wrong_width(self):
        # rsi_game's operator reads two coordinates of each row, so a 3-D
        # domain's samples must stop before its fn
        op = rsi_operator(0.5)
        with pytest.raises(ValueError, match="dimension mismatch: point 3, operator 2"):
            check_constants(op, None, 100.0, Domain.unbounded(3), n_samples=50)
        assert op.evals == 0


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


def bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


def ulps(a, b) -> int:
    """How many floats apart two nonnegative floats are."""
    return abs(int(np.float64(a).view(np.int64)) - int(np.float64(b).view(np.int64)))


@st.composite
def scaled_rows(draw):
    """One to four coordinates in [-1, 1], times 10**k for k in [-300, 300]."""
    x = draw(st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=4))
    return np.array(x) * 10.0 ** draw(st.integers(-300, 300))


@st.composite
def normal_square_blocks(draw):
    """Blocks whose squares are all 0 or finite normal numbers: each
    coordinate 0 or of magnitude 1e-3 to 1, each row times 10**k for k
    in [-150, 150]."""
    d, n = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    coord = st.one_of(st.just(0.0), st.floats(1e-3, 1.0), st.floats(-1.0, -1e-3))
    X = np.array(draw(st.lists(st.lists(coord, min_size=d, max_size=d),
                               min_size=n, max_size=n)))
    k = draw(st.lists(st.integers(-150, 150), min_size=n, max_size=n))
    return X * 10.0 ** np.array(k, dtype=float)[:, None]


class TestRowNorms:
    @settings(derandomize=True, database=None, deadline=None, max_examples=500)
    @given(x=scaled_rows())
    def test_within_two_ulp_of_hypot(self, x):
        want = math.hypot(*x)
        assert ulps(row_norms(x), want) <= 2
        assert ulps(row_norms(x[None, :])[0], want) <= 2

    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(X=normal_square_blocks())
    def test_numpys_bits_where_the_squares_are_normal(self, X):
        sq = X * X
        assert np.all((sq == 0) | ((sq >= np.finfo(float).tiny) & (sq < np.inf)))
        # a block rounds as numpy's norm along the rows, a point as its
        # dot product
        assert bits(row_norms(X)) == bits(np.linalg.norm(X, axis=-1))
        for x in X:
            assert bits(row_norms(x)) == bits(np.linalg.norm(x))

    def test_rows_whose_squares_overflow_or_underflow(self):
        X = np.array([[3e200, 4e200], [-2.5e154, 0.0], [1e-170, 0.0],
                      [3e-320, -4e-320], [1.5e308, 1.5e308], [0.0, -0.0]])
        got = row_norms(X)
        assert got[0] == pytest.approx(5e200, rel=1e-15)
        assert (got[1], got[2]) == (2.5e154, 1e-170)
        assert got[3] == math.hypot(3e-320, 4e-320)
        assert got[4] == np.inf          # the norm itself is past the largest float
        assert got[5] == 0.0             # only a zero row has norm 0

    def test_nonfinite_rows_keep_numpys_norm(self):
        X = np.array([[np.inf, 1.0], [np.nan, 1e200], [-np.inf, np.nan]])
        with np.errstate(over="ignore"):
            want = np.linalg.norm(X, axis=-1)
            points = [np.linalg.norm(x) for x in X]
        assert bits(row_norms(X)) == bits(want)
        assert bits([row_norms(x) for x in X]) == bits(points)

    def test_one_point(self):
        assert row_norms(np.array([-1e200])) == 1e200
        assert row_norms(np.array([1e-170])) == 1e-170
        assert row_norms(np.array([3.0, 4.0])) == 5.0


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

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_box_samples_are_uniforms_bits(self, d):
        # the box draws apply rng.uniform's formula per element, so they
        # are its draws for array bounds, bit for bit; widths mix the full
        # sampling box, clipped and narrow sides and a point
        widths = [(-10.0, 10.0), (-3.0, 25.0), (0.5, 0.5 + 2.0 ** -30), (2.0, 2.0),
                  (-50.0, -9.0), (0.0, 1e308)]
        rng = np.random.default_rng(d)
        for _ in range(10):
            sides = [widths[i] for i in rng.integers(len(widths), size=d)]
            domain = Domain.box([lo for lo, _ in sides], [hi for _, hi in sides])
            half = SAMPLING_BOX_HALF_WIDTH
            lo, hi = np.maximum(domain.lower, -half), np.minimum(domain.upper, half)
            seed = int(rng.integers(2 ** 31))
            want = np.random.default_rng(seed).uniform(lo, hi, size=(500, d))
            got = _sample_points(domain, 500, np.random.default_rng(seed))
            assert got.tobytes() == want.tobytes()

    def test_deterministic_given_seed(self):
        op = exp_quadratic_1d(4.0)
        dom = Domain.interval(-3.0, 3.0)
        a = check_constants(op, 1.9, None, dom, 300, seed=5)[0]
        b = check_constants(op, 1.9, None, dom, 300, seed=5)[0]
        assert a == b


class TestRoundBlocks:
    """The aligned-block cache of round data: one ``block`` call per
    aligned range of ROUND_BLOCK rounds read in order, the same bytes in
    any order of reads, and IndexError past the block's arrays."""

    @staticmethod
    def block(calls: list, last: int = None):
        def block(rounds: range) -> tuple:
            calls.append(rounds)
            t = np.arange(rounds[0], min(rounds[-1], last or rounds[-1]) + 1, dtype=float)
            return np.sqrt(t), np.stack([t, 1.0 / t], axis=-1)

        return block

    def test_in_order_reads_compute_each_aligned_block_once(self):
        calls = []
        round_data = _round_blocks(self.block(calls))
        for t in range(1, 201):
            root, row = round_data(t)
            assert root == math.sqrt(t) and row.tolist() == [t, 1.0 / t]
        assert ROUND_BLOCK == 64
        assert calls == [range(1, 65), range(65, 129), range(129, 193), range(193, 257)]

    def test_shuffled_reads_give_the_same_bytes(self):
        def data_bytes(round_data, t):
            return [x.tobytes() for x in round_data(t)]

        in_order = _round_blocks(self.block([]))
        expected = {t: data_bytes(in_order, t) for t in range(1, 201)}
        shuffled = _round_blocks(self.block([]))
        for t in np.random.default_rng(0).permutation(np.arange(1, 201)).tolist():
            assert data_bytes(shuffled, t) == expected[t]

    def test_round_past_the_arrays_raises_index_error(self):
        calls = []
        round_data = _round_blocks(self.block(calls, last=70))
        assert round_data(70)[0] == math.sqrt(70)
        with pytest.raises(IndexError):
            round_data(71)
        with pytest.raises(IndexError):
            round_data(128)
        assert round_data(1)[0] == 1.0
        assert calls == [range(65, 129), range(1, 65)]

    @pytest.mark.parametrize("t", [0, -1, -64])
    def test_round_below_one_raises_value_error(self, t):
        # rounds are 1-based: no block is computed for rounds -63..0
        calls = []
        round_data = _round_blocks(self.block(calls))
        with pytest.raises(ValueError, match=f"round {t}: rounds are numbered from 1"):
            round_data(t)
        assert calls == []
        assert round_data(1)[0] == 1.0


def test_every_export_resolves():
    # a name left in __all__ after its definition is gone fails here
    import tvvi
    assert [name for name in tvvi.__all__ if not hasattr(tvvi, name)] == []
