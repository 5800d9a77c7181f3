"""Property tests: the serial step spine ≡ its reference, bit for bit.

Three contracts (ROADMAP "Step spine"), each against the pre-rewrite
implementation kept in ``tests/reference_autograd.py``:

* the one-node ``linear`` op equals the composed ``x @ W.T + b`` chain in
  its output and all three gradients — 2-D weights and 3-D replica
  stacks, shared and stacked inputs, ``N == 1``, no bias — and skips the
  input-gradient GEMM when ``x`` carries no gradient;
* the weight gradient ``linear`` writes straight into bound grad storage
  leaves the bytes the chain's ``_accumulate`` leaves — first fill and
  add-to-zeros — and everything that must still *add* still adds;
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
from repro.autograd import tensor as tensor_module  # noqa: E402
from repro.comm.params import FleetArena, ParamArena  # noqa: E402
from repro.data.dataset import ArrayDataset, Subset  # noqa: E402
from repro.data.loader import BatchCycler  # noqa: E402
from repro.nn.fleet import FleetModule  # noqa: E402
from repro.nn.layers import Linear  # noqa: E402
from repro.nn.models.mlp import MLP  # noqa: E402
from repro.optim import SGD  # noqa: E402
from repro.parallel.tasks import (  # noqa: E402
    device_state_scalars,
    export_state_into,
    import_state_from,
)


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
# linear: the weight gradient written where it lives
# --------------------------------------------------------------------- #
@st.composite
def in_place_case(draw):
    return (
        draw(st.sampled_from([None, 1, 2, 3])),  # replicas; None: 2-D weight
        draw(st.sampled_from([1, 1, 2, 3, 5])),  # N (1: the gemv / dot dispatches)
        draw(st.sampled_from([1, 1, 2, 4, 7])),  # fan_in
        draw(st.sampled_from([1, 1, 2, 3, 6])),  # fan_out
        draw(st.booleans()),  # bias
        draw(st.integers(0, 2**31 - 1)),
    )


def _step_operands(rng, lead, n, fan_in, fan_out):
    """One step's ``(x, g)``: wide values, exact ±0.0 entries, and columns
    that are zero for the whole batch (a ReLU-dead input feature, a
    saturated output) — the all-zero-product sums whose sign is at stake."""
    x = _wide_values(rng, lead + (n, fan_in))
    g = _wide_values(rng, lead + (n, fan_out))
    x[..., rng.integers(0, fan_in)] = rng.choice([0.0, -0.0])
    g[..., rng.integers(0, fan_out)] = rng.choice([0.0, -0.0])
    return x, g


def _bound_layers(layer_type, replicas, fan_in, fan_out, has_bias, seed):
    """``replicas`` arena-backed layers with wide weights; the gradient
    storage starts as garbage a first fill has to overwrite."""
    rng = np.random.default_rng(seed)
    layers = []
    for _ in range(replicas):
        layer = layer_type(fan_in, fan_out, bias=has_bias, rng=rng)
        arena = ParamArena(layer)
        arena.write(_wide_values(rng, (arena.num_scalars,)))
        arena.grad_flat[:] = 7.0
        layers.append(layer)
    return layers


@settings(max_examples=200, deadline=None)
@given(in_place_case())
def test_linear_weight_grad_written_in_place(case):
    replicas, n, fan_in, fan_out, has_bias, seed = case
    count = 1 if replicas is None else replicas
    want = _bound_layers(ref.ChainLinear, count, fan_in, fan_out, has_bias, seed)
    got = _bound_layers(Linear, count, fan_in, fan_out, has_bias, seed)
    if replicas is not None:
        fleet = FleetArena([layer.arena for layer in got])
        stacked = FleetModule(
            got, fleet.stack, got[0].arena.layout(), grad_stack=fleet.grad_stack
        )
    rng = np.random.default_rng(seed + 1)
    lead = () if replicas is None else (count,)
    # Step 0 is the first fill (no gradient yet), step 1 runs after a
    # zero fill (live views of zeros): overwrite vs add-to-zeros.
    for step in range(2):
        x, g = _step_operands(rng, lead, n, fan_in, fan_out)
        for d, layer in enumerate(want):
            index = () if replicas is None else (d,)
            ref.backward(layer(Tensor(x[index])), g[index])
        if replicas is None:
            got[0](Tensor(x)).backward(g)
        else:
            stacked.sync_grad_liveness(count)
            stacked.forward(Tensor(x), count=count).backward(g)
            stacked.adopt_member_grads(count)
        for want_layer, got_layer in zip(want, got):
            _same_bytes(got_layer.arena.grad_flat, want_layer.arena.grad_flat)
            assert got_layer.weight.grad is got_layer.weight._grad_view
            want_layer.zero_grad()
            got_layer.zero_grad()


def test_gemm_output_has_no_negative_zero():
    """The premise of writing into zeroed storage: ``0.0 + G`` and ``G``
    differ only where ``G`` is ``-0.0``, and a GEMM whose products are
    all zeros — of either sign, through the gemm, gemv and dot
    dispatches — yields ``+0.0``."""
    rng = np.random.default_rng(0)

    def zeros(kind, shape):
        if kind == "mixed":
            return np.where(rng.random(shape) < 0.5, 0.0, -0.0)
        return np.full(shape, 0.0 if kind == "+" else -0.0)

    def signed(kind, shape):
        return rng.uniform(1, 2, shape) * (1.0 if kind == "+" else -1.0)

    operand_pairs = [(zeros, zeros), (zeros, signed), (signed, zeros)]
    cases = 0
    for lead in [(), (3,)]:
        for n, fan_in, fan_out in [(1, 1, 1), (1, 5, 3), (4, 1, 3), (4, 5, 1),
                                   (1, 1, 4), (3, 7, 5), (16, 64, 10), (64, 192, 64)]:
            for make_x, make_g in operand_pairs:
                for x_kind in ["+", "-"] + (["mixed"] if make_x is zeros else []):
                    for g_kind in ["+", "-"] + (["mixed"] if make_g is zeros else []):
                        x = make_x(x_kind, lead + (n, fan_in))
                        g = make_g(g_kind, lead + (n, fan_out))
                        view = np.full(lead + (fan_out, fan_in), 7.0)
                        np.matmul(x.swapaxes(-1, -2), g, out=view.swapaxes(-1, -2))
                        for product in (view, g.swapaxes(-1, -2) @ x,
                                        (x.swapaxes(-1, -2) @ g).swapaxes(-1, -2)):
                            assert not product.any()
                            assert not np.signbit(product).any()
                        cases += 1
    assert cases == 2 * 8 * (9 + 6 + 6)


def _chain_twin(seed=3, hidden=(5, 4)):
    """The same arena-backed MLP twice, each as ``(model, arena,
    backward)``: production ``linear`` + ``Tensor.backward``, and the
    composed reference chain + the reference traversal."""
    got = MLP(6, hidden=hidden, num_classes=3, rng=np.random.default_rng(seed))
    want = MLP(6, hidden=hidden, num_classes=3, rng=np.random.default_rng(seed))
    for module in want.modules():
        if type(module) is Linear:
            module.__class__ = ref.ChainLinear
    return (
        (got, ParamArena(got), Tensor.backward),
        (want, ParamArena(want), ref.backward),
    )


def _loss(model, x):
    return (model(Tensor(x)) * Tensor(np.linspace(-1.0, 1.0, 3))).sum()


class TestWeightGradStillAdds:
    """Everything that is *not* a fill of empty or zeroed storage keeps
    today's accumulate: the direct write may never swallow a gradient
    that was already there."""

    def test_weight_shared_by_two_linear_nodes(self):
        rng = np.random.default_rng(0)
        w = _wide_values(rng, (4, 5))
        xs = [_wide_values(rng, (3, 5)) for _ in range(2)]
        flats = []
        for op in (linear, ref.linear_chain):
            flat = np.full(20, 7.0)
            weight = Tensor(w.copy(), requires_grad=True)
            weight.bind_grad(flat.reshape(4, 5))
            for _ in range(2):  # first fill, then after a zero fill
                out = op(Tensor(xs[0]), weight) + op(Tensor(xs[1]), weight)
                (ref.backward if op is ref.linear_chain else Tensor.backward)(
                    out, np.ones_like(out.data)
                )
                flats.append(flat.copy())
                flat.fill(0.0)
                weight._mark_grad_zeroed()  # what the owner of ``flat`` records
        _same_bytes(flats[0], flats[2])
        _same_bytes(flats[1], flats[3])

    def test_second_backward_without_zero_grad(self):
        twins = _chain_twin()
        rng = np.random.default_rng(1)
        for model, _, _ in twins:
            model.zero_grad()
        for _ in range(3):
            x = _wide_values(rng, (4, 6))
            for model, _, backward in twins:
                backward(_loss(model, x))
            _same_bytes(*(arena.grad_flat for _, arena, _ in twins))

    def test_backward_after_executor_write_back(self):
        """``import_state_from`` is what the process pool runs when a
        worker's slot comes home: it overwrites ``grad_flat`` behind the
        parameters' backs, right after a ``zero_grad`` here."""
        rng = np.random.default_rng(2)
        shipped = None
        results = []
        for model, arena, backward in _chain_twin():
            optimizer = SGD(model.parameters(), lr=0.1, momentum=0.9)
            device = type("Slot", (), {"arena": arena, "optimizer": optimizer})()
            if shipped is None:
                shipped = _wide_values(rng, (device_state_scalars(device),))
                x = _wide_values(rng, (4, 6))
            backward(_loss(model, x))  # live gradients: what follows must add
            optimizer.zero_grad()
            import_state_from(device, shipped.copy())
            backward(_loss(model, x))
            slot = np.empty_like(shipped)
            export_state_into(device, slot)
            results.append(slot)
        _same_bytes(*results)
        assert results[0].tobytes() != shipped.tobytes()

    @pytest.mark.parametrize("through", ["param.grad", "grad_flat"])
    def test_in_place_write_after_zero_grad_declared_written(self, through):
        """A gradient written *through* the live view after ``zero_grad``
        is invisible to the tensor; declared with ``mark_grads_written``
        the next backward adds to it, as the reference chain does."""
        rng = np.random.default_rng(6)
        x = _wide_values(rng, (4, 6))
        flats = []
        for model, arena, backward in _chain_twin():
            fill = np.random.default_rng(7)
            backward(_loss(model, x))
            model.zero_grad()
            if through == "param.grad":
                for param in model.parameters():
                    param.grad += _wide_values(fill, param.shape)
            else:
                arena.grad_flat[:] = _wide_values(fill, arena.grad_flat.shape)
            arena.mark_grads_written()
            backward(_loss(model, x))
            flats.append(arena.grad_flat.copy())
        _same_bytes(*flats)

    def test_storage_migration_between_zero_grad_and_backward(self):
        rng = np.random.default_rng(4)
        x0, x1 = _wide_values(rng, (4, 6)), _wide_values(rng, (4, 6))
        flats = []
        for model, arena, backward in _chain_twin():
            backward(_loss(model, x0))
            model.zero_grad()
            fleet = FleetArena([arena])  # bind_grad onto a stack row ...
            backward(_loss(model, x1))
            flats.append(fleet.grad_stack[0].copy())
            model.zero_grad()
            fleet.release()  # ... and back onto private storage
            backward(_loss(model, x0))
            flats.append(arena.grad_flat.copy())
        _same_bytes(flats[0], flats[2])
        _same_bytes(flats[1], flats[3])


@pytest.mark.parametrize("replicas", [None, 3])
def test_weight_gemm_writes_into_grad_flat(monkeypatch, replicas):
    """With bound storage every weight GEMM of a step — serial, or
    stacked over a fleet's rows — names (a view of) the gradient vector
    as its ``out``: nothing ``(out, in)``-sized is allocated, and no
    weight gradient passes through ``_accumulate``."""
    if replicas is None:
        (model, arena, _), _ = _chain_twin(hidden=(5, 4, 4))
        weights = [m.weight for m in model.modules() if type(m) is Linear]
        storage = arena.grad_flat
    else:
        members = [_chain_twin(hidden=(5, 4, 4))[0][0] for _ in range(replicas)]
        fleet = FleetArena([member.arena for member in members])
        stacked = FleetModule(
            members, fleet.stack, members[0].arena.layout(), grad_stack=fleet.grad_stack
        )
        weights = [
            t for name, t in stacked._slice(replicas).params.items()
            if name.endswith("weight")
        ]
        storage = fleet.grad_stack
    matmul, accumulate = np.matmul, Tensor._accumulate
    outs, accumulated = [], []

    def spy_matmul(a, b, out=None):
        outs.append(out)
        return matmul(a, b, out=out)

    def spy_accumulate(self, grad):
        accumulated.append(self)
        accumulate(self, grad)

    monkeypatch.setattr(np, "matmul", spy_matmul)
    monkeypatch.setattr(Tensor, "_accumulate", spy_accumulate)
    rng = np.random.default_rng(5)
    for _ in range(2):  # first fill, then after zero_grad
        outs.clear(), accumulated.clear()
        if replicas is None:
            _loss(model, _wide_values(rng, (4, 6))).backward()
        else:
            stacked.sync_grad_liveness(replicas)
            x = Tensor(_wide_values(rng, (replicas, 4, 6)))
            stacked.forward(x).backward(np.ones((replicas, 4, 3)))
            stacked.adopt_member_grads(replicas)
        assert len(outs) == len(weights)
        for out, weight in zip(outs, reversed(weights)):
            assert out.shape == weight.shape[:-2] + weight.shape[:-3:-1]
            assert np.shares_memory(out, weight.grad)
            assert np.shares_memory(out, storage)
        assert not any(w is t for w in weights for t in accumulated)
        if replicas is None:
            model.zero_grad()
        else:
            for member in members:
                # A row written through the stack is no longer known-zero.
                assert not any(p._grad_zeroed for p in member.parameters())
                member.zero_grad()


@pytest.mark.parametrize(
    "op", [Tensor.__add__, Tensor.__sub__, Tensor.__mul__, Tensor.__truediv__]
)
@pytest.mark.parametrize("constant_first", [False, True])
def test_constant_operand_gradient_is_never_evaluated(monkeypatch, op, constant_first):
    """``x * mask`` (Dropout), ``x + 1.0``: the side without a gradient
    gets no gradient expression — its ``unbroadcast(...)`` statement,
    argument included, never runs."""
    requested = []
    unbroadcast = tensor_module.unbroadcast

    def spy(grad, shape):
        requested.append(shape)
        return unbroadcast(grad, shape)

    monkeypatch.setattr(tensor_module, "unbroadcast", spy)
    rng = np.random.default_rng(6)
    x = Tensor(_wide_values(rng, (3, 4)), requires_grad=True)
    constant = Tensor(rng.uniform(1, 2, size=(1, 4)))
    out = op(constant, x) if constant_first else op(x, constant)
    out.backward(np.ones((3, 4)))
    assert requested == [(3, 4)]
    assert x.grad is not None and constant.grad is None


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
