"""Unit tests for the autograd Tensor: arithmetic, reductions, shapes."""

import numpy as np
import pytest

from repro.autograd import Tensor, gradcheck, no_grad
from repro.autograd.tensor import unbroadcast

RNG = np.random.default_rng(1234)


def _t(shape, requires_grad=True):
    return Tensor(RNG.normal(size=shape), requires_grad=requires_grad)


class TestArithmetic:
    def test_add_grad(self):
        assert gradcheck(lambda a, b: a + b, [_t((3, 4)), _t((3, 4))])

    def test_add_broadcast_grad(self):
        assert gradcheck(lambda a, b: a + b, [_t((3, 4)), _t((4,))])

    def test_sub_grad(self):
        assert gradcheck(lambda a, b: a - b, [_t((2, 3)), _t((2, 3))])

    def test_rsub_scalar(self):
        x = _t((3,))
        y = 2.0 - x
        y.backward(np.ones(3))
        np.testing.assert_allclose(x.grad, -np.ones(3))

    def test_mul_grad(self):
        assert gradcheck(lambda a, b: a * b, [_t((3, 4)), _t((3, 4))])

    def test_mul_broadcast_column(self):
        assert gradcheck(lambda a, b: a * b, [_t((3, 4)), _t((3, 1))])

    def test_div_grad(self):
        a, b = _t((3,)), Tensor(RNG.uniform(1, 2, size=(3,)), requires_grad=True)
        assert gradcheck(lambda a, b: a / b, [a, b])

    def test_pow_grad(self):
        x = Tensor(RNG.uniform(0.5, 2.0, size=(4,)), requires_grad=True)
        assert gradcheck(lambda t: t**3, [x])

    def test_neg(self):
        assert gradcheck(lambda a: -a, [_t((5,))])

    def test_scalar_promotion(self):
        x = _t((3,))
        y = x + 1.5
        assert y.shape == (3,)
        y.backward(np.ones(3))
        np.testing.assert_allclose(x.grad, np.ones(3))


class TestMatmul:
    def test_2d_2d(self):
        assert gradcheck(lambda a, b: a @ b, [_t((3, 4)), _t((4, 5))])

    def test_1d_1d_inner(self):
        assert gradcheck(lambda a, b: a @ b, [_t((4,)), _t((4,))])

    def test_1d_2d(self):
        assert gradcheck(lambda a, b: a @ b, [_t((4,)), _t((4, 3))])

    def test_2d_1d(self):
        assert gradcheck(lambda a, b: a @ b, [_t((3, 4)), _t((4,))])

    def test_value(self):
        a, b = _t((2, 3)), _t((3, 2))
        np.testing.assert_allclose((a @ b).data, a.data @ b.data)


class TestNonlinearities:
    @pytest.mark.parametrize(
        "name", ["exp", "tanh", "relu", "abs", "sqrt"]
    )
    def test_elementwise_grads(self, name):
        if name == "sqrt":
            x = Tensor(RNG.uniform(0.5, 2.0, size=(3, 3)), requires_grad=True)
        elif name in ("relu", "abs"):
            # Keep away from the kink at 0 where finite differences lie.
            data = RNG.normal(size=(3, 3))
            data[np.abs(data) < 0.1] = 0.5
            x = Tensor(data, requires_grad=True)
        else:
            x = _t((3, 3))
        assert gradcheck(lambda t: getattr(t, name)(), [x])

    def test_log_grad(self):
        x = Tensor(RNG.uniform(0.5, 3.0, size=(4,)), requires_grad=True)
        assert gradcheck(lambda t: t.log(), [x])

    def test_relu_zeroes_negative(self):
        x = Tensor([-1.0, 2.0, -3.0])
        np.testing.assert_allclose(x.relu().data, [0.0, 2.0, 0.0])

    def test_leaky_relu_slope(self):
        x = Tensor([-2.0, 2.0], requires_grad=True)
        y = x.leaky_relu(0.1)
        y.backward(np.ones(2))
        np.testing.assert_allclose(y.data, [-0.2, 2.0])
        np.testing.assert_allclose(x.grad, [0.1, 1.0])

    def test_clip_grad_mask(self):
        x = Tensor([-2.0, 0.5, 3.0], requires_grad=True)
        y = x.clip(-1.0, 1.0)
        y.backward(np.ones(3))
        np.testing.assert_allclose(y.data, [-1.0, 0.5, 1.0])
        np.testing.assert_allclose(x.grad, [0.0, 1.0, 0.0])


class TestReductions:
    def test_sum_all(self):
        assert gradcheck(lambda t: t.sum(), [_t((3, 4))])

    def test_sum_axis(self):
        assert gradcheck(lambda t: t.sum(axis=1), [_t((3, 4))])

    def test_sum_axis_keepdims(self):
        assert gradcheck(lambda t: t.sum(axis=0, keepdims=True), [_t((3, 4))])

    def test_sum_multi_axis(self):
        assert gradcheck(lambda t: t.sum(axis=(0, 2)), [_t((2, 3, 4))])

    def test_mean_matches_numpy(self):
        x = _t((4, 5))
        np.testing.assert_allclose(x.mean(axis=1).data, x.data.mean(axis=1))

    def test_mean_grad_scaling(self):
        x = _t((4,))
        y = x.mean()
        y.backward()
        np.testing.assert_allclose(x.grad, np.full(4, 0.25))

    def test_var_biased(self):
        x = _t((6,))
        np.testing.assert_allclose(x.var().data, x.data.var(), rtol=1e-10)

    def test_max_grad_unique(self):
        x = Tensor([1.0, 5.0, 3.0], requires_grad=True)
        x.max().backward()
        np.testing.assert_allclose(x.grad, [0.0, 1.0, 0.0])

    def test_max_grad_ties_split(self):
        x = Tensor([5.0, 5.0, 3.0], requires_grad=True)
        x.max().backward()
        np.testing.assert_allclose(x.grad, [0.5, 0.5, 0.0])

    def test_max_axis(self):
        data = RNG.normal(size=(3, 4))
        x = Tensor(data, requires_grad=True)
        np.testing.assert_allclose(x.max(axis=1).data, data.max(axis=1))


class TestShapeOps:
    def test_reshape_grad(self):
        assert gradcheck(lambda t: t.reshape(6, 2), [_t((3, 4))])

    def test_reshape_tuple_arg(self):
        x = _t((2, 6))
        assert x.reshape((3, 4)).shape == (3, 4)

    def test_transpose_grad(self):
        assert gradcheck(lambda t: t.transpose(1, 0), [_t((3, 4))])

    def test_transpose_3d(self):
        assert gradcheck(lambda t: t.transpose(2, 0, 1), [_t((2, 3, 4))])

    def test_T_property(self):
        x = _t((3, 5))
        assert x.T.shape == (5, 3)

    def test_getitem_grad(self):
        x = _t((4, 4))
        y = x[1:3]
        y.backward(np.ones((2, 4)))
        expected = np.zeros((4, 4))
        expected[1:3] = 1.0
        np.testing.assert_allclose(x.grad, expected)

    def test_getitem_fancy_repeated_accumulates(self):
        x = _t((3,))
        y = x[np.array([0, 0, 2])]
        y.backward(np.ones(3))
        np.testing.assert_allclose(x.grad, [2.0, 0.0, 1.0])

    @pytest.mark.parametrize(
        "index",
        [
            1,
            (2, 3),
            slice(1, 3),
            (slice(None), slice(0, 4, 2)),
            np.array([0, 0, 2, 0]),
            (np.array([3, 3, 1]), np.array([0, 0, 2])),
            (slice(1, 3), np.array([1, 1, 0])),
            np.array([True, False, True, True]),
            (Ellipsis, None, 0),
            slice(0, 0),
        ],
        ids=repr,
    )
    def test_getitem_grad_is_ordered_scatter_add(self, index):
        """Bitwise the sequential scatter-add ``np.add.at`` defines."""
        x = _t((4, 4))
        y = x[index]
        g = RNG.normal(size=y.shape) * 10.0 ** RNG.uniform(-8, 8, size=y.shape)
        y.backward(g)
        expected = np.zeros((4, 4))
        np.add.at(expected, index, g)
        assert x.grad.tobytes() == expected.tobytes()

    def test_flatten_batch(self):
        x = _t((2, 3, 4))
        assert x.flatten_batch().shape == (2, 12)


class TestGraphMechanics:
    def test_diamond_graph_accumulates(self):
        # y = x*x + x*x must give dy/dx = 4x, exercising grad accumulation
        # through two paths to the same parent.
        x = Tensor([3.0], requires_grad=True)
        y = x * x + x * x
        y.backward()
        np.testing.assert_allclose(x.grad, [12.0])

    def test_reused_intermediate(self):
        x = Tensor([2.0], requires_grad=True)
        h = x * 3.0
        y = h * h
        y.backward()
        np.testing.assert_allclose(x.grad, [36.0])  # d(9x^2)/dx = 18x

    def test_backward_nonscalar_requires_grad_arg(self):
        x = _t((3,))
        with pytest.raises(ValueError):
            (x * 2).backward()

    def test_no_grad_blocks_graph(self):
        x = _t((3,))
        with no_grad():
            y = x * 2
        assert not y.requires_grad
        assert y._parents == ()

    def test_zero_grad(self):
        x = _t((2,))
        (x * 2).backward(np.ones(2))
        assert x.grad is not None
        x.zero_grad()
        assert x.grad is None

    def test_grad_not_tracked_for_constants(self):
        a = _t((2,))
        b = Tensor(np.ones(2))  # requires_grad=False
        y = a * b
        y.backward(np.ones(2))
        assert b.grad is None

    def test_int_input_promoted_to_float(self):
        x = Tensor(np.array([1, 2, 3]))
        assert x.dtype.kind == "f"


class TestUnbroadcast:
    def test_identity(self):
        g = np.ones((3, 4))
        assert unbroadcast(g, (3, 4)) is g

    def test_sum_leading(self):
        g = np.ones((5, 3, 4))
        np.testing.assert_allclose(unbroadcast(g, (3, 4)), np.full((3, 4), 5.0))

    def test_sum_size_one_axis(self):
        g = np.ones((3, 4))
        np.testing.assert_allclose(unbroadcast(g, (3, 1)), np.full((3, 1), 4.0))

    def test_scalar_target(self):
        g = np.ones((2, 2))
        np.testing.assert_allclose(unbroadcast(g, ()), 4.0)
