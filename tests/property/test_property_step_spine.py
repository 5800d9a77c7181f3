"""Property tests: the serial step spine ≡ its reference, bit for bit.

Three contracts (ROADMAP "Step spine"), each against the pre-rewrite
implementation kept in ``tests/reference_autograd.py``:

* the one-node ``linear`` op equals the composed ``x @ W.T + b`` chain in
  its output and all three gradients — 2-D weights and 3-D replica
  stacks, shared and stacked inputs, ``N == 1``, no bias — and skips the
  input-gradient GEMM when ``x`` carries no gradient;
* ``Tensor.backward`` runs interior nodes in the reference's order on
  random DAGs with shared parents (diamonds, residual adds), so every
  accumulation order is unchanged;
* ``BatchCycler.next_batch`` yields the bytes ``dataset.features[batch]``
  yields — across reshuffles and a ``get_state`` / ``set_state`` round
  trip — without ever touching ``Subset.features``.
"""

import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import reference_autograd as ref  # noqa: E402
from repro.autograd import Tensor, linear  # noqa: E402
from repro.data.dataset import ArrayDataset, Subset  # noqa: E402
from repro.data.loader import BatchCycler  # noqa: E402


def _wide_values(rng: np.random.Generator, shape) -> np.ndarray:
    """Signed values over eight decades, with exact and negative zeros."""
    magnitude = 10.0 ** rng.uniform(-4, 4, size=shape)
    values = rng.choice([-1.0, 1.0], size=shape) * magnitude
    zeros = rng.random(size=shape) < 0.1
    values[zeros] = rng.choice([0.0, -0.0], size=int(zeros.sum()))
    return values


def _same_bytes(got: np.ndarray, want: np.ndarray) -> None:
    assert got.shape == want.shape
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()  # values and sign bits


# --------------------------------------------------------------------- #
# linear ≡ composed chain
# --------------------------------------------------------------------- #
class GemmSpy(np.ndarray):
    """Weight payload that logs the output shape of every GEMM it enters."""

    calls: list = []

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        plain = tuple(np.asarray(i) if isinstance(i, GemmSpy) else i for i in inputs)
        out = getattr(ufunc, method)(*plain, **kwargs)
        if ufunc is np.matmul:
            GemmSpy.calls.append(out.shape)
        return out


@st.composite
def linear_case(draw):
    replicas = draw(st.sampled_from([None, 1, 2, 3]))  # None: 2-D weight
    stacked_x = replicas is not None and draw(st.booleans())
    n = draw(st.integers(1, 4))
    fan_in = draw(st.integers(1, 5))
    fan_out = draw(st.integers(1, 5))
    return (
        replicas, stacked_x, n, fan_in, fan_out,
        draw(st.booleans()),  # bias
        draw(st.booleans()),  # x.requires_grad
        draw(st.integers(0, 2**31 - 1)),
    )


def _linear_operands(case):
    replicas, stacked_x, n, fan_in, fan_out, has_bias, x_grad, seed = case
    rng = np.random.default_rng(seed)
    lead = () if replicas is None else (replicas,)
    x = _wide_values(rng, (lead if stacked_x else ()) + (n, fan_in))
    w = _wide_values(rng, lead + (fan_out, fan_in))
    b = _wide_values(rng, lead + (fan_out,)) if has_bias else None
    g = _wide_values(rng, lead + (n, fan_out))
    return x, w, b, g


def _reference(case, x, w, b, g):
    """Per-replica loop of the composed 2-D chain: (out, gx, gw, gb)."""
    replicas, stacked_x, *_, x_grad, _ = case
    shared = None if stacked_x else Tensor(x, requires_grad=x_grad)
    outs, gxs, gws, gbs = [], [], [], []
    for d in range(1 if replicas is None else replicas):
        index = () if replicas is None else (d,)
        x_d = Tensor(x[d], requires_grad=x_grad) if stacked_x else shared
        w_d = Tensor(w[index], requires_grad=True)
        b_d = None if b is None else Tensor(b[index], requires_grad=True)
        out = ref.linear_chain(x_d, w_d, b_d)
        ref.backward(out, g[index])
        outs.append(out.data)
        gxs.append(x_d.grad)
        gws.append(w_d.grad)
        gbs.append(None if b_d is None else b_d.grad)
    if replicas is None:
        return outs[0], gxs[0], gws[0], gbs[0]
    gx = (np.stack(gxs) if stacked_x else shared.grad) if x_grad else None
    return np.stack(outs), gx, np.stack(gws), None if b is None else np.stack(gbs)


@settings(max_examples=200, deadline=None)
@given(linear_case())
def test_linear_matches_composed_chain(case):
    x, w, b, g = _linear_operands(case)
    x_grad = case[6]
    xt = Tensor(x, requires_grad=x_grad)
    wt = Tensor(w, requires_grad=True)
    bt = None if b is None else Tensor(b, requires_grad=True)
    out = linear(xt, wt, bt)
    out.backward(g)
    want_out, want_gx, want_gw, want_gb = _reference(case, x, w, b, g)
    _same_bytes(out.data, want_out)
    _same_bytes(wt.grad, want_gw)
    if b is not None:
        _same_bytes(bt.grad, want_gb)
    if x_grad:
        _same_bytes(xt.grad, want_gx)
    else:
        assert xt.grad is None


@settings(max_examples=60, deadline=None)
@given(linear_case())
def test_linear_skips_input_gradient_gemm_for_data(case):
    x, w, b, g = _linear_operands(case)
    x_grad = case[6]
    xt = Tensor(x, requires_grad=x_grad)
    wt = Tensor(w, requires_grad=True)
    wt.data = w.view(GemmSpy)
    bt = None if b is None else Tensor(b, requires_grad=True)
    GemmSpy.calls = []
    linear(xt, wt, bt).backward(g)
    forward, *rest = GemmSpy.calls
    assert forward == g.shape
    # The only other GEMM the weight enters is ``g @ W`` -> (..., N, in):
    # issued for an input that carries a gradient, never for plain data.
    assert rest == ([g.shape[:-1] + (x.shape[-1],)] if x_grad else [])


def test_linear_rejects_mismatched_shapes():
    w = Tensor(np.zeros((3, 4)), requires_grad=True)
    with pytest.raises(ValueError):
        linear(Tensor(np.zeros((2, 5))), w)
    with pytest.raises(ValueError):
        linear(Tensor(np.zeros(4)), w)
    with pytest.raises(ValueError):
        linear(Tensor(np.zeros((2, 4))), w, Tensor(np.zeros(4)))


# --------------------------------------------------------------------- #
# backward: interior execution order on random DAGs
# --------------------------------------------------------------------- #
_UNARY = (Tensor.relu, Tensor.tanh, lambda t: t * 0.5, lambda t: t.sum(axis=0, keepdims=True))
_BINARY = (Tensor.__add__, Tensor.__mul__, Tensor.__sub__)


@st.composite
def dag_spec(draw):
    """``(num_leaves, ops, seed)``; an op picks earlier nodes by index, so
    picking one node twice or by two ops makes diamonds and residuals."""
    leaves = draw(st.integers(1, 3))
    ops = []
    for position in range(draw(st.integers(1, 12))):
        available = leaves + position
        if draw(st.booleans()):
            ops.append((draw(st.integers(0, len(_UNARY) - 1)),
                        draw(st.integers(0, available - 1)), None))
        else:
            ops.append((draw(st.integers(0, len(_BINARY) - 1)),
                        draw(st.integers(0, available - 1)),
                        draw(st.integers(0, available - 1))))
    return leaves, ops, draw(st.integers(0, 2**31 - 1))


def _build_dag(spec):
    """Nodes in creation order; leaf 0 carries no gradient (it is data)."""
    leaves, ops, seed = spec
    rng = np.random.default_rng(seed)
    nodes = [
        Tensor(_wide_values(rng, (2, 3)), requires_grad=k > 0 or leaves == 1)
        for k in range(leaves)
    ]
    for op, a, b in ops:
        if b is None:
            nodes.append(_UNARY[op](nodes[a]))
        else:
            nodes.append(_BINARY[op](nodes[a], nodes[b]))
    return nodes, leaves


def _run(spec, run_backward):
    """Interior execution order (creation indices) and leaf gradients."""
    nodes, leaves = _build_dag(spec)
    order = []
    for index, node in enumerate(nodes):
        if node._backward is not None:
            closure = node._backward

            def logged(g, index=index, closure=closure):
                order.append(index)
                closure(g)

            node._backward = logged
    root = nodes[-1]
    run_backward(root, np.ones_like(root.data))
    return order, [leaf.grad for leaf in nodes[:leaves]]


@settings(max_examples=200, deadline=None)
@given(dag_spec())
def test_backward_keeps_reference_interior_order(spec):
    got_order, got_grads = _run(spec, lambda root, g: root.backward(g))
    want_order, want_grads = _run(spec, ref.backward)
    assert got_order == want_order
    for got, want in zip(got_grads, want_grads):
        assert (got is None) == (want is None)
        if got is not None:
            _same_bytes(got, want)


# --------------------------------------------------------------------- #
# BatchCycler: O(batch) gather, same bytes
# --------------------------------------------------------------------- #
@st.composite
def cycler_case(draw):
    base = draw(st.integers(4, 40))
    depth = draw(st.integers(0, 3))  # nesting of Subset(Subset(...))
    sizes = []
    current = base
    for _ in range(depth):
        current = draw(st.integers(1, current))
        sizes.append(current)
    batch = draw(st.integers(1, current + 2))
    steps = draw(st.integers(1, 3 * (current // min(batch, current)) + 3))
    return base, sizes, batch, steps, draw(st.integers(0, 2**31 - 1))


def _nested_dataset(case):
    base, sizes, _, _, seed = case
    rng = np.random.default_rng(seed)
    dataset = ArrayDataset(rng.normal(size=(base, 2, 3)), rng.integers(0, 5, size=base))
    for size in sizes:
        # Sampling with replacement also covers repeated rows in a shard.
        dataset = Subset(dataset, rng.integers(0, len(dataset), size=size))
    return dataset


@settings(max_examples=150, deadline=None)
@given(cycler_case())
def test_next_batch_matches_dataset_gather(case):
    _, _, batch, steps, seed = case
    dataset = _nested_dataset(case)
    cycler = BatchCycler(dataset, batch, rng=np.random.default_rng(seed))
    twin = BatchCycler(dataset, batch, rng=np.random.default_rng(seed))
    resumed = BatchCycler(dataset, batch, rng=np.random.default_rng(seed + 1))
    for step in range(steps):
        if step == steps // 2:
            resumed.set_state(cycler.get_state())
        want_x, want_y = ref.next_batch(twin)
        got_x, got_y = cycler.next_batch()
        _same_bytes(got_x, want_x)
        _same_bytes(got_y, want_y)
        assert got_x.flags.c_contiguous and got_x.flags.owndata
        if step >= steps // 2:
            again_x, again_y = resumed.next_batch()
            _same_bytes(again_x, want_x)
            _same_bytes(again_y, want_y)
    assert cycler.samples_consumed == twin.samples_consumed
    assert cycler.epochs_consumed == twin.epochs_consumed


def test_next_batch_never_materialises_the_shard(monkeypatch):
    rng = np.random.default_rng(0)
    base = ArrayDataset(rng.normal(size=(50, 4)), rng.integers(0, 3, size=50))
    shard = Subset(Subset(base, rng.permutation(50)[:30]), rng.permutation(30)[:12])
    cycler = BatchCycler(shard, 5, rng=np.random.default_rng(1))

    def touched(self):
        raise AssertionError("next_batch went through Subset.features/labels")

    monkeypatch.setattr(Subset, "features", property(touched))
    monkeypatch.setattr(Subset, "labels", property(touched))
    for _ in range(7):  # crosses two reshuffles
        features, labels = cycler.next_batch()
        assert features.shape == (5, 4) and labels.shape == (5,)
