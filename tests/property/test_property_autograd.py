"""Hypothesis property tests for the autograd engine."""

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays, array_shapes

from repro.autograd import Tensor
from repro.autograd.ops import _log_softmax_data
from repro.autograd.tensor import unbroadcast

finite_floats = st.floats(
    min_value=-100.0, max_value=100.0, allow_nan=False, allow_infinity=False
)


def small_arrays(max_dims=3, max_side=4):
    return arrays(
        dtype=np.float64,
        shape=array_shapes(min_dims=1, max_dims=max_dims, max_side=max_side),
        elements=finite_floats,
    )


class TestGradientLinearity:
    @given(small_arrays(), st.floats(min_value=-5, max_value=5, allow_nan=False))
    @settings(max_examples=50, deadline=None)
    def test_grad_scales_linearly(self, data, scale):
        """d(c * sum(x))/dx == c everywhere."""
        x = Tensor(data, requires_grad=True)
        (x.sum() * scale).backward()
        np.testing.assert_allclose(x.grad, np.full(data.shape, scale), atol=1e-10)

    @given(small_arrays())
    @settings(max_examples=50, deadline=None)
    def test_sum_of_two_paths_adds_gradients(self, data):
        x = Tensor(data, requires_grad=True)
        (x.sum() + x.sum()).backward()
        np.testing.assert_allclose(x.grad, np.full(data.shape, 2.0), atol=1e-10)

    @given(small_arrays())
    @settings(max_examples=50, deadline=None)
    def test_mean_gradient_is_uniform(self, data):
        x = Tensor(data, requires_grad=True)
        x.mean().backward()
        np.testing.assert_allclose(
            x.grad, np.full(data.shape, 1.0 / data.size), atol=1e-12
        )


class TestUnbroadcastProperties:
    @given(small_arrays())
    @settings(max_examples=50, deadline=None)
    def test_gradient_sum_preserved(self, data):
        """Unbroadcasting conserves the total gradient mass."""
        grad = np.ones((3,) + data.shape)
        reduced = unbroadcast(grad, data.shape)
        assert reduced.shape == data.shape
        np.testing.assert_allclose(reduced.sum(), grad.sum())

    @given(
        arrays(
            dtype=np.float64,
            shape=st.tuples(st.integers(1, 4), st.integers(1, 4)),
            elements=finite_floats,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_broadcast_add_grad_consistency(self, data):
        """Gradient of broadcast add equals column-sum of output grad."""
        row = Tensor(np.zeros(data.shape[1]), requires_grad=True)
        x = Tensor(data)
        (x + row).sum().backward()
        np.testing.assert_allclose(row.grad, np.full(data.shape[1], data.shape[0]))


def softmax(logits, axis):
    """The stable softmax inside ``softmax_cross_entropy``."""
    return np.exp(_log_softmax_data(logits, axis))


class TestSoftmaxProperties:
    @given(
        arrays(
            dtype=np.float64,
            shape=st.tuples(st.integers(1, 5), st.integers(2, 6)),
            elements=finite_floats,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_rows_sum_to_one(self, logits):
        out = softmax(logits, axis=1)
        np.testing.assert_allclose(out.sum(axis=1), np.ones(len(logits)), atol=1e-9)
        assert (out >= 0).all()

    @given(
        arrays(
            dtype=np.float64,
            shape=st.tuples(st.integers(1, 5), st.integers(2, 6)),
            elements=finite_floats,
        ),
        st.floats(min_value=-50, max_value=50, allow_nan=False),
    )
    @settings(max_examples=50, deadline=None)
    def test_shift_invariance(self, logits, shift):
        a = softmax(logits, axis=1)
        b = softmax(logits + shift, axis=1)
        np.testing.assert_allclose(a, b, atol=1e-9)


class TestMatmulProperties:
    @given(
        st.integers(1, 4), st.integers(1, 4), st.integers(1, 4),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=30, deadline=None)
    def test_matmul_grad_shapes(self, m, k, n, rnd):
        rng = np.random.default_rng(rnd.randint(0, 2**31))
        a = Tensor(rng.normal(size=(m, k)), requires_grad=True)
        b = Tensor(rng.normal(size=(k, n)), requires_grad=True)
        (a @ b).sum().backward()
        assert a.grad.shape == (m, k)
        assert b.grad.shape == (k, n)
        # Analytic: dL/da = ones(m,n) @ b.T
        np.testing.assert_allclose(a.grad, np.ones((m, n)) @ b.data.T, atol=1e-10)
