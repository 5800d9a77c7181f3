"""Property tests: strided conv kernels and the ``normalize`` node ≡ reference.

The production kernels in ``repro.autograd.ops`` replaced the CS231n
fancy-index ``im2col`` / ``np.add.at`` ``col2im`` and the composed
normalise-and-affine chain of BatchNorm2d / GroupNorm, which now live
in ``tests/reference_conv.py``.  The contract is *bitwise*: equal bytes
(hence sign bits), equal strides and equal contiguity flags, because
downstream GEMMs and reductions round by operand layout.  Values span ±1e±8 so any change in a pixel's summation
order shows up as a differing low bit.
"""

import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import reference_conv as ref  # noqa: E402
from repro.autograd import Tensor, no_grad, normalize  # noqa: E402
from repro.autograd.ops import col2im, im2col  # noqa: E402


def _wide_values(rng: np.random.Generator, shape) -> np.ndarray:
    """Signed values over sixteen decades, with exact and negative zeros."""
    magnitude = 10.0 ** rng.uniform(-8, 8, size=shape)
    values = rng.choice([-1.0, 1.0], size=shape) * magnitude
    zeros = rng.random(size=shape) < 0.1
    values[zeros] = rng.choice([0.0, -0.0], size=int(zeros.sum()))
    return values


def _assert_same_array(got: np.ndarray, want: np.ndarray) -> None:
    assert got.shape == want.shape
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()  # values and sign bits
    assert got.strides == want.strides
    assert got.flags.c_contiguous == want.flags.c_contiguous
    assert got.flags.f_contiguous == want.flags.f_contiguous


@st.composite
def conv_geometry(draw):
    kh = draw(st.integers(1, 4))
    kw = draw(st.integers(1, 4))
    stride = draw(st.integers(1, 3))
    padding = draw(st.integers(0, 2))
    # Smallest legal input up to a few windows; stride > kernel is reachable.
    height = draw(st.integers(max(1, kh - 2 * padding), kh + 5))
    width = draw(st.integers(max(1, kw - 2 * padding), kw + 5))
    n = draw(st.integers(1, 3))
    channels = draw(st.integers(1, 3))
    seed = draw(st.integers(0, 2**31 - 1))
    return (n, channels, height, width), kh, kw, stride, padding, seed


@settings(max_examples=150, deadline=None)
@given(conv_geometry())
def test_im2col_matches_reference(geometry):
    x_shape, kh, kw, stride, padding, seed = geometry
    x = _wide_values(np.random.default_rng(seed), x_shape)
    got = im2col(x, kh, kw, stride, padding)
    want = ref.im2col(x, kh, kw, stride, padding)
    _assert_same_array(got, want)
    assert got.flags.c_contiguous


@settings(max_examples=150, deadline=None)
@given(conv_geometry())
def test_col2im_matches_reference(geometry):
    x_shape, kh, kw, stride, padding, seed = geometry
    rng = np.random.default_rng(seed)
    cols_shape = ref.im2col(np.zeros(x_shape), kh, kw, stride, padding).shape
    cols = _wide_values(rng, cols_shape)
    got = col2im(cols, x_shape, kh, kw, stride, padding)
    want = ref.col2im(cols, x_shape, kh, kw, stride, padding)
    _assert_same_array(got, want)


def test_im2col_accepts_a_batch_minor_view():
    """A stacked conv2d hands im2col non-contiguous slices; layout must not leak."""
    rng = np.random.default_rng(3)
    x = _wide_values(rng, (5, 5, 2, 3)).transpose(3, 2, 0, 1)
    _assert_same_array(im2col(x, 3, 2, 2, 1), ref.im2col(x, 3, 2, 2, 1))


# --------------------------------------------------------------------- #
# col2im: zero cells that wrap across rows and channels
# --------------------------------------------------------------------- #
@pytest.mark.parametrize(
    "x_shape, kh, kw, stride, padding",
    [
        ((1, 3, 7, 9), 2, 1, 3, 2),  # stride > kernel, padding 2, N = 1
        ((1, 2, 5, 5), 1, 1, 3, 2),  # 1x1 taps, every other cell a gap
        ((1, 4, 6, 4), 2, 3, 4, 2),  # gaps wider than a kernel both ways
        ((1, 1, 1, 1), 1, 1, 2, 2),  # a single output pixel inside padding
        ((2, 3, 3, 8), 3, 2, 3, 2),  # N = 2: gap cells between samples too
    ],
)
def test_col2im_matches_reference_where_zero_cells_wrap(x_shape, kh, kw, stride, padding):
    """Every tap plane's unwritten cells — trailing rows and columns and
    the stride gaps — are shifted across row and channel boundaries by
    the whole-buffer adds; they must add +0.0 and nothing else."""
    rng = np.random.default_rng(sum(x_shape) * 97 + kh * 13 + kw * 7 + stride)
    cols_shape = ref.im2col(np.zeros(x_shape), kh, kw, stride, padding).shape
    for cols in (_wide_values(rng, cols_shape), -np.zeros(cols_shape)):
        got = col2im(cols, x_shape, kh, kw, stride, padding)
        want = ref.col2im(cols, x_shape, kh, kw, stride, padding)
        _assert_same_array(got, want)


# --------------------------------------------------------------------- #
# normalize ≡ composed chain + affine
# --------------------------------------------------------------------- #
NORM_CASES = {  # name: (x shape, groups; None is BatchNorm)
    "batchnorm": ((2, 3, 4, 4), None),
    "batchnorm_n1": ((1, 3, 4, 4), None),
    "batchnorm_1x1": ((4, 3, 1, 1), None),
    "batchnorm_n1_1x1": ((1, 3, 1, 1), None),
    "groupnorm": ((3, 4, 2, 3), 2),
    "groupnorm_n1_1x1": ((1, 4, 1, 1), 2),
    "groupnorm_single_group": ((2, 3, 3, 2), 1),
    "groupnorm_per_channel": ((2, 3, 2, 2), 3),
}


def _leaves(rng, shape, wide):
    draw = (lambda s: _wide_values(rng, s)) if wide else (lambda s: rng.normal(size=s))
    return draw(shape), draw(shape[1:2]), draw(shape[1:2]), draw(shape)


def _leaf_tensors(*arrays):
    return [Tensor(data.copy(), requires_grad=True) for data in arrays]


def _run_norm(fn, x_data, weight_data, bias_data, groups, g):
    x, weight, bias = _leaf_tensors(x_data, weight_data, bias_data)
    out, mu, var = fn(x, weight, bias, 1e-5, groups)
    out.backward(g)
    return out.data, mu, var, x.grad, weight.grad, bias.grad


@settings(max_examples=60, deadline=None)
@given(
    case=st.sampled_from(sorted(NORM_CASES)),
    seed=st.integers(0, 2**31 - 1),
    wide=st.booleans(),
)
def test_normalize_matches_composed_chain(case, seed, wide):
    shape, groups = NORM_CASES[case]
    *inputs, g = _leaves(np.random.default_rng(seed), shape, wide)
    got = _run_norm(normalize, *inputs, groups, g)
    want = _run_norm(ref.normalize, *inputs, groups, g)
    for got_arr, want_arr in zip(got, want):
        _assert_same_array(got_arr, want_arr)


def test_normalize_second_consumer_gradient_order():
    """With a second consumer of ``x`` scheduled before or after the
    node, ``x`` still accumulates in the chain's order: the direct term,
    then the mean term (their sum, for GroupNorm's grouped layout)."""
    rng = np.random.default_rng(11)
    x_data, weight_data, bias_data, g = _leaves(rng, (2, 4, 4, 4), wide=True)
    for groups in (None, 2):
        for norm_first in (True, False):
            grads = []
            for fn in (normalize, ref.normalize):
                x, weight, bias = _leaf_tensors(x_data, weight_data, bias_data)
                normed = fn(x, weight, bias, 1e-5, groups)[0]
                out = normed + x * 3.0 if norm_first else x * 3.0 + normed
                out.backward(g)
                grads.append((x.grad, weight.grad, bias.grad))
            for got, want in zip(*grads):
                _assert_same_array(got, want)


def test_normalize_without_grad_builds_no_graph():
    rng = np.random.default_rng(5)
    x = Tensor(rng.normal(size=(2, 4, 4, 4)), requires_grad=True)
    weight = Tensor(rng.normal(size=4), requires_grad=True)
    bias = Tensor(rng.normal(size=4), requires_grad=True)
    for groups, stats_shape in ((None, (1, 4, 1, 1)), (2, (2, 2, 1))):
        with no_grad():
            out, mu, var = normalize(x, weight, bias, 1e-5, groups)
        assert not out.requires_grad and out._backward is None
        assert mu.shape == var.shape == stats_shape
