"""Property tests: strided conv kernels and the ``normalize`` node ≡ reference.

The production kernels in ``repro.autograd.ops`` replaced the CS231n
fancy-index ``im2col`` / ``np.add.at`` ``col2im`` and the composed
normalise-and-affine chain of BatchNorm2d / GroupNorm, which now live
in ``tests/reference_conv.py``.  For the conv kernels and the
normalisation forward the contract is *bitwise*: equal bytes (hence
sign bits), equal strides and equal contiguity flags, because
downstream GEMMs and reductions round by operand layout.  Values span
±1e±8 so any change in a pixel's summation order shows up as a
differing low bit.  The normalisation backward is a closed form, not
the chain's replay: it is pinned within a stated ulp-scaled tolerance
of the chain, and against finite differences.
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
# normalize ≡ composed chain + affine: forward bitwise, backward within an
# ulp-scaled tolerance (the node's backward is the closed form)
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
EPS = 1e-5
# The closed form and the chain round different expressions of the same
# gradient, and the chain's mean term sums terms that cancel.  Allowed
# per element: NORM_ULPS * m * eps64 times the magnitude of the element's
# terms taken in absolute value, m being the count its statistic covers,
# plus twice the term the closed form drops by taking mean(x_hat) = 0
# where the forward's rounded x_hat has a residual mean (see
# _norm_tolerances).  Measured worst case over 12 800 draws of the cases
# and regimes below: 0.44 of this bound.
NORM_ULPS = 4


def _leaves(rng, shape, regime):
    """``(x, weight, bias, g)``.  ``regime``: ``unit`` normal draws;
    ``wide`` signed values over sixteen decades with exact and negative
    zeros; ``near_constant`` channels at large offsets plus 1e-6 noise,
    whose variance is a rounding residue far below ``eps``; ``eps_scale``
    inputs whose variance is about ``eps``."""

    def draw(size):
        return _wide_values(rng, size) if regime == "wide" else rng.normal(size=size)

    x = draw(shape)
    if regime == "near_constant":
        offsets = rng.choice([-1.0, 1.0], size=shape[1]) * 10.0 ** rng.uniform(0, 3, shape[1])
        x = offsets.reshape(1, -1, 1, 1) + 1e-6 * x
    elif regime == "eps_scale":
        x = 3e-3 * x
    return x, draw(shape[1:2]), draw(shape[1:2]), draw(shape)


NORM_REGIMES = ("unit", "wide", "near_constant", "eps_scale")


def _leaf_tensors(*arrays):
    return [Tensor(data.copy(), requires_grad=True) for data in arrays]


def _run_norm(fn, x_data, weight_data, bias_data, groups, g):
    x, weight, bias = _leaf_tensors(x_data, weight_data, bias_data)
    out, mu, var = fn(x, weight, bias, EPS, groups)
    out.backward(g)
    return out.data, mu, var, x.grad, weight.grad, bias.grad


def _norm_tolerances(x, weight, g, groups, mu, var):
    """Allowed ``|node - chain|`` for ``(x.grad, weight.grad, bias.grad)``.

    ``x``: per element, ``(|g_hat| + mean|g_hat| + (|x_hat| + 2) *
    mean|g_hat * x_hat|) / sd`` with ``g_hat = g * gamma`` and means over
    the element's statistic (m terms), scaled by NORM_ULPS * m * eps64,
    plus ``2 * |mean(g_hat * x_hat) * mean(x_hat)| / sd``: the chain
    differentiates its rounded ``centered``, whose mean is not exactly
    zero.  The parameters: ``sum|g * x_hat|`` and ``sum|g|`` over (N, H,
    W), scaled by NORM_ULPS * N*H*W * eps64."""
    n, c, h, w = x.shape
    grouped, axes = (x.shape, (0, 2, 3)) if groups is None else ((n, groups, -1), (2,))
    sd = np.sqrt(var + EPS)
    x_hat = (x.reshape(grouped) - mu) / sd
    g_hat = (g * weight.reshape(1, c, 1, 1)).reshape(grouped)
    m = x_hat.size // sd.size

    def mean(a):
        return a.mean(axis=axes, keepdims=True)

    g_x = g_hat * x_hat
    magnitude = (np.abs(g_hat) + mean(np.abs(g_hat)) + (np.abs(x_hat) + 2) * mean(np.abs(g_x))) / sd
    residual = mean(g_x) * mean(x_hat)
    unit = NORM_ULPS * np.finfo(np.float64).eps
    x_hat = x_hat.reshape(x.shape)
    return (
        (unit * m * magnitude + 2 * np.abs(residual) / sd).reshape(x.shape),
        unit * n * h * w * np.abs(g * x_hat).sum(axis=(0, 2, 3)),
        unit * n * h * w * np.abs(g).sum(axis=(0, 2, 3)),
    )


def _assert_within(got: np.ndarray, want: np.ndarray, tolerance: np.ndarray) -> None:
    assert got.shape == want.shape and got.dtype == want.dtype
    excess = np.abs(got - want) - tolerance
    assert np.all(excess <= 0), f"over the tolerance by up to {excess.max():.3g}"


@settings(max_examples=120, deadline=None)
@given(
    case=st.sampled_from(sorted(NORM_CASES)),
    seed=st.integers(0, 2**31 - 1),
    regime=st.sampled_from(NORM_REGIMES),
)
def test_normalize_matches_composed_chain(case, seed, regime):
    """Forward (``out``, ``mu``, ``var``) bitwise the chain's; gradients
    within the stated tolerance."""
    shape, groups = NORM_CASES[case]
    x, weight, bias, g = _leaves(np.random.default_rng(seed), shape, regime)
    got = _run_norm(normalize, x, weight, bias, groups, g)
    want = _run_norm(ref.normalize, x, weight, bias, groups, g)
    for got_arr, want_arr in zip(got[:3], want[:3]):
        _assert_same_array(got_arr, want_arr)
    tolerances = _norm_tolerances(x, weight, g, groups, want[1], want[2])
    for got_arr, want_arr, tolerance in zip(got[3:], want[3:], tolerances):
        _assert_within(got_arr, want_arr, tolerance)


@pytest.mark.parametrize("groups", [None, 2], ids=["batchnorm", "groupnorm"])
def test_normalize_gradient_matches_finite_differences(groups):
    """Central differences of ``sum(out * r)`` in every input element and
    affine parameter agree with the closed-form gradients."""
    rng = np.random.default_rng(23)
    x_data, weight_data, bias_data, _ = _leaves(rng, (3, 4, 2, 2), "unit")
    r = rng.normal(size=x_data.shape)
    x, weight, bias = _leaf_tensors(x_data, weight_data, bias_data)
    normalize(x, weight, bias, EPS, groups)[0].backward(r)
    arrays = [x_data, weight_data, bias_data]
    for which, analytic in enumerate((x.grad, weight.grad, bias.grad)):
        numeric = np.empty_like(analytic)
        for index in np.ndindex(analytic.shape):
            values = []
            for step in (1e-6, -1e-6):
                shifted = [a.copy() for a in arrays]
                shifted[which][index] += step
                with no_grad():
                    out = normalize(*map(Tensor, shifted), EPS, groups)[0]
                values.append(float((out.data * r).sum()))
            numeric[index] = (values[0] - values[1]) / 2e-6
        np.testing.assert_allclose(analytic, numeric, rtol=1e-6, atol=1e-7)


def test_normalize_second_consumer_gradient_order():
    """With a second consumer of ``x`` scheduled before or after the
    node, ``x`` receives the node's gradient in one accumulation, so
    both orders leave the same bytes — within the tolerance of the
    chain's, which accumulates its terms in the other consumer's order."""
    rng = np.random.default_rng(11)
    for regime in NORM_REGIMES:
        x_data, weight_data, bias_data, g = _leaves(rng, (2, 4, 4, 4), regime)
        for groups in (None, 2):
            grads = {}
            for fn in (normalize, ref.normalize):
                for norm_first in (True, False):
                    x, weight, bias = _leaf_tensors(x_data, weight_data, bias_data)
                    normed, mu, var = fn(x, weight, bias, EPS, groups)
                    out = normed + x * 3.0 if norm_first else x * 3.0 + normed
                    out.backward(g)
                    grads[fn, norm_first] = (x.grad, weight.grad, bias.grad)
            for got, again in zip(grads[normalize, True], grads[normalize, False]):
                _assert_same_array(got, again)
            tolerances = _norm_tolerances(x_data, weight_data, g, groups, mu, var)
            # Adding the other consumer's 3 * g rounds once more.
            x_tolerance = tolerances[0] + 2 * np.finfo(np.float64).eps * np.abs(3.0 * g)
            tolerances = (x_tolerance,) + tolerances[1:]
            for norm_first in (True, False):
                for got, want, tolerance in zip(
                    grads[normalize, norm_first], grads[ref.normalize, norm_first], tolerances
                ):
                    _assert_within(got, want, tolerance)


def test_normalize_without_grad_builds_no_graph():
    rng = np.random.default_rng(5)
    x = Tensor(rng.normal(size=(2, 4, 4, 4)), requires_grad=True)
    weight = Tensor(rng.normal(size=4), requires_grad=True)
    bias = Tensor(rng.normal(size=4), requires_grad=True)
    for groups, stats_shape in ((None, (1, 4, 1, 1)), (2, (2, 2, 1))):
        with no_grad():
            out, mu, var = normalize(x, weight, bias, EPS, groups)
        assert not out.requires_grad and out._backward is None
        assert mu.shape == var.shape == stats_shape
