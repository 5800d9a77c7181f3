"""``conv2d`` / the rank-generic ``softmax_cross_entropy`` vs the
functions they replaced.

Before the merge the package carried ``conv2d`` + ``fleet_conv2d`` and
``softmax_cross_entropy`` + ``fleet_softmax_cross_entropy``; those live
on as ``tests/reference_conv.py`` (``conv2d_serial``; the stacked conv
went with the conv fleet handler, so ``conv2d`` is 4-D only) and
``tests/reference_autograd.py`` (``softmax_cross_entropy_serial`` /
``_stacked``).  The production ops must reproduce them bit for bit —
output and every gradient: values and sign bits, dtype, shape *and
strides* (downstream GEMMs round by operand layout) — with and without
a graph.
"""

import sys
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import reference_autograd as ref_autograd  # noqa: E402
import reference_conv as ref_conv  # noqa: E402
from repro.autograd import Tensor, conv2d, no_grad, softmax_cross_entropy  # noqa: E402

from test_property_conv import _assert_same_array, _wide_values, conv_geometry  # noqa: E402


def _leaf(data, requires_grad=True):
    return Tensor(data.copy(), requires_grad=requires_grad)


def _assert_same_grad(got, want):
    assert (got.grad is None) == (want.grad is None)
    if want.grad is not None:
        _assert_same_array(got.grad, want.grad)


# --------------------------------------------------------------------- #
# conv2d
# --------------------------------------------------------------------- #
@settings(max_examples=120, deadline=None)
@given(
    geometry=conv_geometry(),
    c_out=st.integers(1, 3),
    use_bias=st.booleans(),
    x_grad=st.booleans(),
    wide=st.booleans(),
)
def test_conv2d_matches_retired_pair(geometry, c_out, use_bias, x_grad, wide):
    x_shape, kh, kw, stride, padding, seed = geometry
    rng = np.random.default_rng(seed)
    draw = (lambda shape: _wide_values(rng, shape)) if wide else (
        lambda shape: rng.normal(size=shape)
    )
    x_data = draw(x_shape)
    w_data = draw((c_out, x_shape[1], kh, kw))
    b_data = draw((c_out,)) if use_bias else None
    reference = ref_conv.conv2d_serial

    def run(fn):
        x, w = _leaf(x_data, x_grad), _leaf(w_data)
        b = _leaf(b_data) if use_bias else None
        out = fn(x, w, b, stride=stride, padding=padding)
        return x, w, b, out

    got, want = run(conv2d), run(reference)
    _assert_same_array(got[3].data, want[3].data)
    g = draw(want[3].shape)
    got[3].backward(g)
    want[3].backward(g)
    for got_leaf, want_leaf in zip(got[:3], want[:3]):
        if want_leaf is not None:
            _assert_same_grad(got_leaf, want_leaf)

    with no_grad():
        graphless, graphless_want = run(conv2d)[3], run(reference)[3]
    _assert_same_array(graphless.data, graphless_want.data)
    assert not graphless.requires_grad


def test_conv2d_rejects_rank_mismatches():
    """4-D only: a replica stack is a ValueError, never a batched conv."""
    import pytest

    w4, w5 = Tensor(np.zeros((2, 1, 3, 3))), Tensor(np.zeros((3, 2, 1, 3, 3)))
    with pytest.raises(ValueError, match=r"got \(3, 2, 1, 5, 5\) with \(3, 2, 1, 3, 3\)"):
        conv2d(Tensor(np.zeros((3, 2, 1, 5, 5))), w5)  # a stacked call
    with pytest.raises(ValueError, match=r"\(N, C_in, H, W\)"):
        conv2d(Tensor(np.zeros((3, 1, 5, 5))), w5)
    with pytest.raises(ValueError, match=r"\(N, C_in, H, W\)"):
        conv2d(Tensor(np.zeros((3, 2, 1, 5, 5))), w4)
    with pytest.raises(ValueError, match="weight"):
        conv2d(Tensor(np.zeros((2, 1, 5, 5))), Tensor(np.zeros((1, 3, 3))))
    with pytest.raises(ValueError, match="channel mismatch"):
        conv2d(Tensor(np.zeros((3, 2, 5, 5))), w4)


# --------------------------------------------------------------------- #
# softmax_cross_entropy
# --------------------------------------------------------------------- #
@settings(max_examples=200, deadline=None)
@given(
    replicas=st.integers(0, 4),  # 0: the (N, C) call
    n=st.integers(1, 40),
    classes=st.integers(1, 10),
    seed=st.integers(0, 2**31 - 1),
    target_dtype=st.sampled_from([np.int64, np.int32, np.float64]),
    scale=st.sampled_from([1.0, 1e-3, 30.0]),
    unit_seed=st.booleans(),
)
def test_softmax_cross_entropy_matches_retired_pair(
    replicas, n, classes, seed, target_dtype, scale, unit_seed
):
    rng = np.random.default_rng(seed)
    lead = (replicas,) if replicas else ()
    logits_data = rng.normal(size=lead + (n, classes)) * scale
    targets = rng.integers(0, classes, size=lead + (n,)).astype(target_dtype)
    reference = (
        ref_autograd.softmax_cross_entropy_stacked
        if replicas
        else ref_autograd.softmax_cross_entropy_serial
    )
    g = np.ones(lead) if unit_seed else rng.normal(size=lead)

    def run(fn):
        logits = _leaf(logits_data)
        loss = fn(logits, targets)
        loss.backward(g)
        return logits, loss

    (got_logits, got), (want_logits, want) = run(softmax_cross_entropy), run(reference)
    _assert_same_array(got.data, want.data)
    _assert_same_grad(got_logits, want_logits)

    with no_grad():
        graphless = softmax_cross_entropy(Tensor(logits_data), targets)
        graphless_want = reference(Tensor(logits_data), targets)
    _assert_same_array(graphless.data, graphless_want.data)
    assert not graphless.requires_grad


def test_softmax_cross_entropy_rejects_shape_mismatches():
    import pytest

    for logits_shape, targets_shape in [
        ((2, 2, 3, 4), (2, 2, 3)),  # rank 4
        ((2, 3, 4), (3,)),  # shared targets under a stack
        ((3, 4), (1, 3)),
        ((3, 4), (4,)),
    ]:
        with pytest.raises(ValueError, match=r"\(D, N, C\) with \(D, N\)"):
            softmax_cross_entropy(
                Tensor(np.zeros(logits_shape)), np.zeros(targets_shape, int)
            )
