import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapfill.numerics import Rng, finite_diff_grad, sigmoid

from _reference import ScalarXorshiftStar, mse


class TestActivations:
    def test_sigmoid_zero(self):
        assert sigmoid(np.array([0.0]))[0] == 0.5

    def test_sigmoid_log3(self):
        # closed form: 1 / (1 + 1/3)
        assert sigmoid(np.array([math.log(3.0)]))[0] == pytest.approx(0.75, abs=1e-15)

    def test_saturation_is_finite(self):
        out = sigmoid(np.array([-1e6, 1e6]))
        assert np.all(np.isfinite(out))
        assert out[0] == 0.0 and out[1] == 1.0

    def test_saturation_raises_no_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with np.errstate(all="raise"):
                out = sigmoid(np.array([-1e6, 1e6, -1e300, 1e300]))
        assert np.array_equal(out, [0.0, 1.0, 0.0, 1.0])

    @given(st.floats(-700, 700))
    @settings(max_examples=100)
    def test_sigmoid_symmetry(self, x):
        s = sigmoid(np.array([x, -x]))
        assert abs(s[0] + s[1] - 1.0) < 1e-15

    def test_sigmoid_keeps_a_float_dtype(self):
        x = np.linspace(-30, 30, 101)
        out32 = sigmoid(x.astype(np.float32))
        assert out32.dtype == np.float32
        assert np.allclose(out32, sigmoid(x), rtol=0, atol=1e-7)
        # float64 keeps the bits of (1 + tanh(x/2)) / 2
        assert sigmoid(x).tobytes() == ((np.tanh(0.5 * x) + 1.0) * 0.5).tobytes()

    @pytest.mark.parametrize("v", [[0, 1, -2], np.array([0, 1, -2]), 3])
    def test_sigmoid_of_a_non_float_input_is_float64(self, v):
        assert np.asarray(sigmoid(v)).dtype == np.float64
        assert np.array_equal(sigmoid(v), sigmoid(np.asarray(v, dtype=np.float64)))

    def test_ranges(self):
        xs = np.linspace(-40, 40, 201)
        assert np.all((sigmoid(xs) >= 0) & (sigmoid(xs) <= 1))
        # strict interior holds before float saturation kicks in
        mid = np.linspace(-15, 15, 201)
        assert np.all((sigmoid(mid) > 0) & (sigmoid(mid) < 1))


class TestMse:
    """The plain-float oracle `_reference.mse` the model tests compare against."""

    def test_perfect(self):
        assert mse(np.array([1.0, 2.0]), np.array([1.0, 2.0])) == 0.0

    def test_single(self):
        assert mse(np.array([0.0]), np.array([2.0])) == 4.0

    def test_two_points(self):
        assert mse(np.array([1.0, 3.0]), np.array([2.0, 2.0])) == 1.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            mse(np.zeros(2), np.zeros(3))

    @given(st.integers(0, 1000))
    @settings(max_examples=30)
    def test_symmetric_and_definite(self, seed):
        rng = Rng(seed)
        a = rng.uniform_array((5,), -2.0, 2.0)
        b = rng.uniform_array((5,), -2.0, 2.0)
        assert mse(a, b) == mse(b, a)
        assert mse(a, a) == 0.0
        if not np.array_equal(a, b):
            assert mse(a, b) > 0.0


class TestFiniteDiff:
    def test_quadratic(self):
        grad = finite_diff_grad(lambda th: float(th[0] ** 2), np.array([3.0]), eps=1e-5)
        assert grad[0] == pytest.approx(6.0, abs=1e-8)

    def test_constant(self):
        grad = finite_diff_grad(lambda th: 7.5, np.array([1.0, -2.0, 0.0]), eps=1e-5)
        assert np.array_equal(grad, np.zeros(3))

    def test_matches_analytic_polynomial(self):
        # f = sum(th_i^3): gradient 3 th_i^2, computed independently
        theta = np.array([0.5, -1.5, 2.0])
        grad = finite_diff_grad(lambda th: float(np.sum(th ** 3)), theta, eps=1e-5)
        assert np.allclose(grad, 3 * theta ** 2, rtol=1e-8)

    def test_rejects_bad_eps(self):
        with pytest.raises(ValueError):
            finite_diff_grad(lambda th: 0.0, np.zeros(1), eps=0.0)

    def test_rejects_non_finite_with_coordinate(self):
        def f(th):
            return math.inf if th[1] > 1.0 else 0.0

        with pytest.raises(ValueError, match=r"\(1,\)"):
            finite_diff_grad(f, np.array([0.0, 1.0, 0.0]), eps=1e-3)


class TestRng:
    def test_equal_seeds_bit_identical(self):
        a, b = Rng(12345), Rng(12345)
        for _ in range(1_000_000):
            assert a.u64() == b.u64()

    def test_float_streams_identical(self):
        a, b = Rng(7), Rng(7)
        xs = [a.random() for _ in range(1000)]
        ys = [b.random() for _ in range(1000)]
        assert xs == ys

    def test_different_seeds_differ(self):
        a, b = Rng(0), Rng(1)
        assert [a.u64() for _ in range(10)] != [b.u64() for _ in range(10)]

    def test_uniform_bounds(self):
        rng = Rng(3)
        xs = rng.uniform_array((10_000,), -2.0, 5.0)
        assert xs.min() >= -2.0 and xs.max() < 5.0

    def test_normal_moments(self):
        rng = Rng(11)
        xs = rng.normal_array((50_000,))
        assert abs(xs.mean()) < 0.02
        assert abs(xs.std() - 1.0) < 0.02

    def test_shuffle_is_permutation_and_deterministic(self):
        items = list(range(50))
        a = list(items)
        Rng(42).shuffle(a)
        b = list(items)
        Rng(42).shuffle(b)
        assert a == b
        assert sorted(a) == items
        assert a != items

    def test_randrange_bounds(self):
        rng = Rng(5)
        draws = [rng.randrange(7) for _ in range(2000)]
        assert set(draws) == set(range(7))


# array sizes straddling lane boundaries: lanes are a power of two near
# sqrt(n) steps long, so 64 is 8 lanes of 8 and 4096 is 64 lanes of 64
_LANE_EDGES = [2, 3, 4, 7, 8, 9, 63, 64, 65, 4095, 4096, 4097, 8191, 8192, 8193]
_SHAPES = st.one_of(
    st.integers(0, 300),
    st.sampled_from(_LANE_EDGES),
    st.tuples(st.integers(0, 70), st.integers(0, 70)),
    st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5)),
)


class TestUniformArrayStream:
    @given(seed=st.integers(0, 2**64 - 1), shape=_SHAPES,
           pre=st.lists(st.sampled_from(["uniform", "normal"]), max_size=6),
           lo=st.floats(-1e3, 1e3), span=st.floats(0.0, 1e3))
    @settings(max_examples=150, deadline=None)
    def test_equals_the_sequential_scalar_stream(self, seed, shape, pre, lo, span):
        hi = lo + span
        rng, oracle = Rng(seed), ScalarXorshiftStar(seed)
        for kind in pre:
            assert getattr(rng, kind)(-1.0, 2.0) == getattr(oracle, kind)(-1.0, 2.0)
        if oracle.spare is None:  # leave a spare normal pending on both sides
            assert rng.normal() == oracle.normal()

        out = rng.uniform_array(shape, lo, hi)
        n = int(np.prod(shape))
        expected = np.array([oracle.uniform(lo, hi) for _ in range(n)], dtype=np.float64)
        assert out.shape == (shape if isinstance(shape, tuple) else (shape,))
        assert out.tobytes() == expected.tobytes()
        # the spare normal survives and the stream resumes where n draws leave it
        assert rng.normal() == oracle.normal()
        assert rng.u64() == oracle.next_u64()
        assert rng.normal() == oracle.normal()

    def test_scalar_draws_match_the_oracle(self):
        rng, oracle = Rng(2**63 + 5), ScalarXorshiftStar(2**63 + 5)
        assert [rng.u64() for _ in range(1000)] == [oracle.next_u64() for _ in range(1000)]
        assert [rng.normal() for _ in range(101)] == [oracle.normal() for _ in range(101)]
