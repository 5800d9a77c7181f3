"""Property tests: strided conv kernels and fused ``standardize`` ≡ reference.

The production kernels in ``repro.autograd.ops`` replaced the CS231n
fancy-index ``im2col`` / ``np.add.at`` ``col2im`` and the composed
normalise chain, which now live in ``tests/reference_conv.py``.  The
contract is *bitwise*: equal bytes (hence sign bits), equal strides and
equal contiguity flags, because downstream GEMMs and reductions round by
operand layout.  Values span ±1e±8 so any change in a pixel's summation
order shows up as a differing low bit.
"""

import sys
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import reference_conv as ref  # noqa: E402
from repro.autograd import Tensor, standardize  # noqa: E402
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
# standardize ≡ composed chain
# --------------------------------------------------------------------- #
AXES_CASES = {
    "batchnorm": ((2, 3, 4, 4), (0, 2, 3)),
    "batchnorm_n1": ((1, 3, 4, 4), (0, 2, 3)),
    "batchnorm_1x1": ((4, 3, 1, 1), (0, 2, 3)),
    "batchnorm_n1_1x1": ((1, 3, 1, 1), (0, 2, 3)),
    "groupnorm": ((3, 2, 12), (2,)),
    "groupnorm_single": ((1, 2, 1), (2,)),
    "fleet_batchnorm": ((2, 3, 2, 4, 4), (1, 3, 4)),
    "fleet_batchnorm_n1": ((2, 1, 2, 1, 1), (1, 3, 4)),
    "fleet_groupnorm": ((2, 3, 2, 8), (-1,)),
}


def _run(fn, x_data, axes, eps, g):
    x = Tensor(x_data.copy(), requires_grad=True)
    x_hat, mu, var = fn(x, axes, eps)
    x_hat.backward(g)
    return x_hat.data, mu, var, x.grad


@settings(max_examples=40, deadline=None)
@given(
    case=st.sampled_from(sorted(AXES_CASES)),
    seed=st.integers(0, 2**31 - 1),
    wide=st.booleans(),
)
def test_standardize_matches_composed_chain(case, seed, wide):
    shape, axes = AXES_CASES[case]
    rng = np.random.default_rng(seed)
    x_data = _wide_values(rng, shape) if wide else rng.normal(size=shape)
    g = _wide_values(rng, shape) if wide else rng.normal(size=shape)
    got = _run(standardize, x_data, axes, 1e-5, g)
    want = _run(ref.standardize, x_data, axes, 1e-5, g)
    for got_arr, want_arr in zip(got, want):
        _assert_same_array(got_arr, want_arr)


def test_standardize_second_consumer_gradient_order():
    """With a second consumer of ``x`` (scheduled before or after the
    normaliser), ``x`` still accumulates direct term, then mean term."""
    rng = np.random.default_rng(11)
    x_data, g = _wide_values(rng, (2, 3, 4, 4)), _wide_values(rng, (2, 3, 4, 4))
    for norm_first in (True, False):
        grads = []
        for fn in (standardize, ref.standardize):
            x = Tensor(x_data.copy(), requires_grad=True)
            x_hat = fn(x, (0, 2, 3), 1e-5)[0]
            out = x_hat + x * 3.0 if norm_first else x * 3.0 + x_hat
            out.backward(g)
            grads.append(x.grad)
        _assert_same_array(*grads)


def test_standardize_without_grad_builds_no_graph():
    x = Tensor(np.random.default_rng(5).normal(size=(2, 3, 4, 4)))
    x_hat, mu, var = standardize(x, (0, 2, 3), 1e-5)
    assert not x_hat.requires_grad and x_hat._backward is None
    assert mu.shape == var.shape == (1, 3, 1, 1)

