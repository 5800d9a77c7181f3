"""Unit tests for structured ops: conv, pooling, concatenation, softmax family."""

import numpy as np
import pytest

from repro.autograd import (
    Tensor,
    avg_pool2d,
    concatenate,
    conv2d,
    gradcheck,
    max_pool2d,
    no_grad,
    softmax_cross_entropy,
)
from repro.autograd.ops import _log_softmax_data, col2im, global_avg_pool2d, im2col
from repro.nn import Conv2d

RNG = np.random.default_rng(7)


def _t(shape):
    return Tensor(RNG.normal(size=shape), requires_grad=True)


def softmax(x, axis=-1):
    """The stable softmax inside ``softmax_cross_entropy``."""
    return np.exp(_log_softmax_data(x, axis))


def _count_calls(monkeypatch, name):
    """Wrap ``np.<name>`` for the test's duration; returns the call log."""
    calls, real = [], getattr(np, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(np, name, counted)
    return calls


class TestConv2d:
    def _reference_conv(self, x, w, b, stride, padding):
        """Direct nested-loop cross-correlation for verification."""
        n, c_in, h, width = x.shape
        c_out, _, kh, kw = w.shape
        xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
        out_h = (h + 2 * padding - kh) // stride + 1
        out_w = (width + 2 * padding - kw) // stride + 1
        out = np.zeros((n, c_out, out_h, out_w))
        for i in range(out_h):
            for j in range(out_w):
                patch = xp[:, :, i * stride : i * stride + kh, j * stride : j * stride + kw]
                out[:, :, i, j] = np.einsum("nchw,ochw->no", patch, w)
        if b is not None:
            out += b.reshape(1, -1, 1, 1)
        return out

    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 1), (2, 0)])
    def test_forward_matches_reference(self, stride, padding):
        x = RNG.normal(size=(2, 3, 8, 8))
        w = RNG.normal(size=(4, 3, 3, 3))
        b = RNG.normal(size=(4,))
        out = conv2d(Tensor(x), Tensor(w), Tensor(b), stride=stride, padding=padding)
        np.testing.assert_allclose(
            out.data, self._reference_conv(x, w, b, stride, padding), atol=1e-10
        )

    @pytest.mark.parametrize("stride,padding", [(1, 1), (2, 1)])
    def test_gradcheck(self, stride, padding):
        x, w, b = _t((2, 2, 6, 6)), _t((3, 2, 3, 3)), _t((3,))
        assert gradcheck(
            lambda x, w, b: conv2d(x, w, b, stride=stride, padding=padding),
            [x, w, b],
            atol=1e-5,
        )

    def test_gradcheck_no_bias(self):
        x, w = _t((1, 2, 5, 5)), _t((2, 2, 3, 3))
        assert gradcheck(lambda x, w: conv2d(x, w, padding=1), [x, w], atol=1e-5)

    def test_1x1_kernel(self):
        x, w = _t((2, 4, 5, 5)), _t((6, 4, 1, 1))
        out = conv2d(x, w)
        assert out.shape == (2, 6, 5, 5)

    def test_channel_mismatch_raises(self):
        with pytest.raises(ValueError, match="channel mismatch"):
            conv2d(_t((1, 3, 4, 4)), _t((2, 4, 3, 3)))

    def test_too_small_input_raises(self):
        with pytest.raises(ValueError, match="output size"):
            conv2d(_t((1, 1, 2, 2)), _t((1, 1, 5, 5)))

    @pytest.mark.parametrize("stride,padding", [(0, 0), (-1, 0), (1, -1), (0, -2)])
    def test_degenerate_stride_padding_raise(self, stride, padding):
        """stride=0 used to die with ZeroDivisionError inside the lowering."""
        match = "stride >= 1 and padding >= 0"
        with pytest.raises(ValueError, match=match):
            conv2d(_t((1, 1, 4, 4)), _t((1, 1, 3, 3)), stride=stride, padding=padding)
        with pytest.raises(ValueError, match=match):
            conv2d(
                _t((2, 1, 1, 4, 4)), _t((2, 1, 1, 3, 3)), stride=stride, padding=padding
            )
        with pytest.raises(ValueError, match=match):
            Conv2d(1, 1, 3, stride=stride, padding=padding)


class TestIm2col:
    def test_roundtrip_adjoint(self):
        """col2im must be the exact adjoint of im2col: <Ax, y> == <x, A'y>."""
        x = RNG.normal(size=(2, 3, 6, 6))
        kh = kw = 3
        stride, padding = 1, 1
        cols = im2col(x, kh, kw, stride, padding)
        y = RNG.normal(size=cols.shape)
        back = col2im(y, x.shape, kh, kw, stride, padding)
        np.testing.assert_allclose((cols * y).sum(), (x * back).sum(), rtol=1e-10)

    def test_column_count(self):
        x = RNG.normal(size=(2, 3, 8, 8))
        cols = im2col(x, 3, 3, 2, 1)
        out_side = (8 + 2 - 3) // 2 + 1
        assert cols.shape == (3 * 9, out_side * out_side * 2)


class TestPooling:
    def test_max_pool_forward(self):
        x = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
        out = max_pool2d(Tensor(x), 2)
        np.testing.assert_allclose(out.data, [[[[5, 7], [13, 15]]]])

    def test_max_pool_gradcheck(self):
        # Distinct values avoid ties that break finite differences.
        data = RNG.permutation(64).astype(float).reshape(1, 1, 8, 8)
        x = Tensor(data, requires_grad=True)
        assert gradcheck(lambda t: max_pool2d(t, 2), [x], atol=1e-5)

    def test_max_pool_tie_routes_to_single_winner(self):
        x = Tensor(np.ones((1, 1, 2, 2)), requires_grad=True)
        max_pool2d(x, 2).backward(np.ones((1, 1, 1, 1)))
        assert x.grad.sum() == 1.0  # exactly one element gets the gradient

    def test_max_pool_builds_routing_mask_only_in_backward(self, monkeypatch):
        calls = _count_calls(monkeypatch, "put_along_axis")
        data = RNG.normal(size=(2, 3, 4, 4))
        with no_grad():
            max_pool2d(Tensor(data, requires_grad=True), 2)
        out = max_pool2d(Tensor(data, requires_grad=True), 2)
        assert calls == []  # neither forward materialised the mask
        out.backward(np.ones(out.shape))
        assert len(calls) == 1

    def test_avg_pool_forward(self):
        x = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
        out = avg_pool2d(Tensor(x), 2)
        np.testing.assert_allclose(out.data, [[[[2.5, 4.5], [10.5, 12.5]]]])

    def test_avg_pool_gradcheck(self):
        assert gradcheck(lambda t: avg_pool2d(t, 2), [_t((2, 2, 4, 4))], atol=1e-5)

    def test_global_avg_pool(self):
        x = _t((2, 3, 4, 4))
        out = global_avg_pool2d(x)
        assert out.shape == (2, 3)
        np.testing.assert_allclose(out.data, x.data.mean(axis=(2, 3)))

    def test_global_avg_pool_gradcheck(self):
        assert gradcheck(global_avg_pool2d, [_t((2, 2, 3, 3))], atol=1e-5)

    def test_indivisible_raises(self):
        with pytest.raises(ValueError, match="divisible"):
            max_pool2d(_t((1, 1, 5, 5)), 2)

    def test_kernel_3(self):
        x = _t((1, 1, 6, 6))
        assert max_pool2d(x, 3).shape == (1, 1, 2, 2)


class TestPadConcat:
    def test_concatenate_axis0(self):
        a, b = _t((2, 3)), _t((4, 3))
        out = concatenate([a, b], axis=0)
        assert out.shape == (6, 3)

    def test_concatenate_gradcheck(self):
        a, b = _t((2, 3)), _t((2, 2))
        assert gradcheck(lambda a, b: concatenate([a, b], axis=1), [a, b], atol=1e-5)


class TestSoftmaxFamily:
    def test_softmax_sums_to_one(self):
        x = RNG.normal(size=(4, 7))
        np.testing.assert_allclose(softmax(x).sum(axis=1), np.ones(4), atol=1e-12)

    def test_softmax_stability_large_logits(self):
        x = np.array([[1000.0, 1000.0, 0.0]])
        out = softmax(x)
        assert np.isfinite(out).all()
        np.testing.assert_allclose(out[0, :2], [0.5, 0.5], atol=1e-6)

    def test_log_softmax_consistency(self):
        x = RNG.normal(size=(3, 5))
        naive = np.log(np.exp(x) / np.exp(x).sum(axis=1, keepdims=True))
        np.testing.assert_allclose(_log_softmax_data(x, 1), naive, atol=1e-12)

    def test_cross_entropy_known_value(self):
        logits = Tensor(np.log(np.array([[0.7, 0.2, 0.1], [0.1, 0.8, 0.1]])))
        loss = softmax_cross_entropy(logits, np.array([0, 1]))
        expected = -(np.log(0.7) + np.log(0.8)) / 2
        np.testing.assert_allclose(float(loss.data), expected, rtol=1e-10)

    def test_cross_entropy_gradient_formula(self):
        logits = _t((4, 3))
        targets = np.array([0, 1, 2, 0])
        loss = softmax_cross_entropy(logits, targets)
        loss.backward()
        probs = softmax(logits.data, axis=1)
        expected = probs.copy()
        expected[np.arange(4), targets] -= 1
        np.testing.assert_allclose(logits.grad, expected / 4, atol=1e-10)

    def test_cross_entropy_gradcheck(self):
        logits = _t((5, 4))
        targets = np.array([0, 1, 2, 3, 1])
        assert gradcheck(
            lambda t: softmax_cross_entropy(t, targets), [logits], atol=1e-5
        )

    def test_cross_entropy_defers_probs_to_backward(self, monkeypatch):
        """Evaluation under no_grad pays one exp (the log-sum-exp), not two."""
        calls = _count_calls(monkeypatch, "exp")
        logits, targets = _t((4, 3)), np.array([0, 1, 2, 0])
        with no_grad():
            softmax_cross_entropy(logits, targets)
        assert len(calls) == 1
        loss = softmax_cross_entropy(logits, targets)
        assert len(calls) == 2  # forward still pays only the log-sum-exp
        loss.backward()
        assert len(calls) == 3

    def test_cross_entropy_float_targets_coerced(self):
        loss = softmax_cross_entropy(_t((2, 3)), np.array([0.0, 2.0]))
        assert np.isfinite(float(loss.data))
