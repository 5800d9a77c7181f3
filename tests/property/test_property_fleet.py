"""Hypothesis properties of the replica-batched (fleet) kernels.

The fleet contract: every batched kernel computes *per replica slice*,
so stacking D replicas into one forward/backward is bitwise identical to
looping them serially — over arbitrary shapes, replica counts, input
dtypes, broadcast bias gradients, and per-replica dropout streams.
These properties fuzz that contract at the op level (stacked ``conv2d``,
stacked ``softmax_cross_entropy``) and through the ``FleetModule`` handler
path (linear layers, dropout masks, whole-MLP training steps).
"""

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from repro.autograd import Tensor, softmax_cross_entropy
from repro.autograd.ops import conv2d
from repro.comm.params import FleetArena, ParamArena
from repro.nn.fleet import FleetModule
from repro.nn.layers import Dropout, Linear, ReLU, Sequential
from repro.nn.models.mlp import MLP
from repro.optim.sgd import SGD

finite = st.floats(
    min_value=-10.0,
    max_value=10.0,
    allow_nan=False,
    allow_infinity=False,
    allow_subnormal=False,
)


def _bitwise(a, b):
    np.testing.assert_array_equal(np.asarray(a), np.asarray(b))
    assert np.asarray(a).tobytes() == np.asarray(b).tobytes()


# ---------------------------------------------------------------------- #
class TestLinearFleetProperties:
    @given(
        data=st.data(),
        d=st.integers(min_value=1, max_value=5),
        n=st.integers(min_value=1, max_value=6),
        fin=st.integers(min_value=1, max_value=7),
        fout=st.integers(min_value=1, max_value=7),
        bias=st.booleans(),
        x32=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_batched_linear_fwd_bwd_bitwise(self, data, d, n, fin, fout, bias, x32):
        """One batched linear == D serial linears, incl. the broadcast
        bias gradient (summed over the batch axis per replica)."""
        rng = np.random.default_rng(data.draw(st.integers(0, 2**31 - 1)))
        serial = [Linear(fin, fout, bias=bias, rng=rng) for _ in range(d)]
        fleet = [Linear(fin, fout, bias=bias, rng=np.random.default_rng(0))
                 for _ in range(d)]
        for src, dst in zip(serial, fleet):
            dst.weight.data[...] = src.weight.data
            if bias:
                src.bias.data[...] = rng.normal(size=fout)
                dst.bias.data[...] = src.bias.data
        arenas = [ParamArena(m) for m in fleet]
        stack_arena = FleetArena(arenas)
        module = FleetModule(fleet, stack_arena.stack, arenas[0].layout(),
                             grad_stack=stack_arena.grad_stack)
        dtype = np.float32 if x32 else np.float64
        x = rng.normal(size=(d, n, fin)).astype(dtype)
        g = rng.normal(size=(d, n, fout))
        try:
            module.sync_grad_liveness(d)
            xt = Tensor(np.asarray(x, dtype=np.float64), requires_grad=True)
            out = module.forward(xt, count=d)
            out.backward(g)
            module.adopt_member_grads(d)
            for k in range(d):
                ref_x = Tensor(np.asarray(x[k], dtype=np.float64),
                               requires_grad=True)
                ref_out = serial[k](ref_x)
                ref_out.backward(g[k])
                _bitwise(ref_out.data, out.data[k])
                _bitwise(ref_x.grad, xt.grad[k])
                _bitwise(serial[k].weight.grad, fleet[k].weight.grad)
                if bias:
                    _bitwise(serial[k].bias.grad, fleet[k].bias.grad)
        finally:
            stack_arena.release()


class TestConvFleetProperties:
    @given(
        data=st.data(),
        d=st.integers(min_value=1, max_value=3),
        n=st.integers(min_value=1, max_value=3),
        c_in=st.integers(min_value=1, max_value=3),
        c_out=st.integers(min_value=1, max_value=3),
        kernel=st.integers(min_value=1, max_value=3),
        stride=st.integers(min_value=1, max_value=2),
        padding=st.integers(min_value=0, max_value=1),
        bias=st.booleans(),
    )
    @settings(max_examples=30, deadline=None)
    def test_batched_conv_fwd_bwd_bitwise(
        self, data, d, n, c_in, c_out, kernel, stride, padding, bias
    ):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**31 - 1)))
        h = w = kernel + data.draw(st.integers(0, 3))
        x = rng.normal(size=(d, n, c_in, h, w))
        weight = rng.normal(size=(d, c_out, c_in, kernel, kernel))
        b = rng.normal(size=(d, c_out)) if bias else None

        xt = Tensor(x, requires_grad=True)
        wt = Tensor(weight, requires_grad=True)
        bt = Tensor(b, requires_grad=True) if bias else None
        out = conv2d(xt, wt, bt, stride=stride, padding=padding)
        g = rng.normal(size=out.shape)
        out.backward(g)

        for k in range(d):
            rx = Tensor(x[k], requires_grad=True)
            rw = Tensor(weight[k], requires_grad=True)
            rb = Tensor(b[k], requires_grad=True) if bias else None
            ref = conv2d(rx, rw, rb, stride=stride, padding=padding)
            ref.backward(g[k])
            _bitwise(ref.data, out.data[k])
            _bitwise(rx.grad, xt.grad[k])
            _bitwise(rw.grad, wt.grad[k])
            if bias:
                _bitwise(rb.grad, bt.grad[k])


class TestCrossEntropyFleetProperties:
    @given(
        data=st.data(),
        d=st.integers(min_value=1, max_value=6),
        n=st.integers(min_value=1, max_value=8),
        c=st.integers(min_value=2, max_value=7),
    )
    @settings(max_examples=50, deadline=None)
    def test_batched_ce_fwd_bwd_bitwise(self, data, d, n, c):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**31 - 1)))
        logits = rng.normal(size=(d, n, c)) * 5.0
        targets = rng.integers(0, c, size=(d, n))
        scale = rng.normal(size=d)

        lt = Tensor(logits, requires_grad=True)
        loss = softmax_cross_entropy(lt, targets)
        assert loss.shape == (d,)
        loss.backward(scale)

        for k in range(d):
            rl = Tensor(logits[k], requires_grad=True)
            ref = softmax_cross_entropy(rl, targets[k])
            ref.backward(np.asarray(scale[k]))
            _bitwise(ref.data, loss.data[k])
            _bitwise(rl.grad, lt.grad[k])


class TestDropoutFleetProperties:
    @given(
        data=st.data(),
        d=st.integers(min_value=1, max_value=4),
        n=st.integers(min_value=1, max_value=5),
        width=st.integers(min_value=1, max_value=6),
        p=st.floats(min_value=0.05, max_value=0.8),
        steps=st.integers(min_value=1, max_value=3),
    )
    @settings(max_examples=30, deadline=None)
    def test_per_replica_streams_bitwise(self, data, d, n, width, p, steps):
        """Each replica's dropout stream sees exactly the serial draw
        sequence: masks and post-burst RNG states match bitwise over
        multiple consecutive batched forwards."""
        seed = data.draw(st.integers(0, 2**31 - 1))
        serial = [Dropout(p, rng=np.random.default_rng(seed + k))
                  for k in range(d)]
        fleet = [Dropout(p, rng=np.random.default_rng(seed + k))
                 for k in range(d)]
        for m in serial + fleet:
            m.train()
        # Dropout has no parameters: drive the handler through a
        # single-layer Sequential fleet over an empty stack.
        seqs = [Sequential(fleet[k]) for k in range(d)]
        arenas = [ParamArena(s) for s in seqs]
        module = FleetModule(
            seqs, np.zeros((d, 0)), arenas[0].layout(), grad_stack=np.zeros((d, 0))
        )
        rng = np.random.default_rng(seed ^ 0xF1EE7)
        for _ in range(steps):
            x = rng.normal(size=(d, n, width))
            out = module.forward(Tensor(x), count=d)
            for k in range(d):
                ref = serial[k](Tensor(x[k]))
                _bitwise(ref.data, out.data[k])
        for k in range(d):
            assert (
                serial[k]._rng.bit_generator.state
                == fleet[k]._rng.bit_generator.state
            )


class TestMLPTrainingStepProperties:
    @given(
        data=st.data(),
        d=st.integers(min_value=2, max_value=4),
        n=st.integers(min_value=1, max_value=5),
        fin=st.integers(min_value=1, max_value=6),
        hidden=st.integers(min_value=1, max_value=8),
        classes=st.integers(min_value=2, max_value=5),
        momentum=st.sampled_from([0.0, 0.9]),
    )
    @settings(max_examples=25, deadline=None)
    def test_full_training_step_bitwise(
        self, data, d, n, fin, hidden, classes, momentum
    ):
        """A complete batched SGD step (forward, CE, backward, update)
        leaves parameters, gradients and optimizer state bitwise equal
        to D serial steps."""
        seed = data.draw(st.integers(0, 2**31 - 1))

        def build():
            return [
                MLP(fin, hidden=(hidden,), num_classes=classes,
                    rng=np.random.default_rng(seed + k))
                for k in range(d)
            ]

        serial, fleet = build(), build()
        serial_arenas = [ParamArena(m) for m in serial]
        fleet_arenas = [ParamArena(m) for m in fleet]
        serial_opts = [SGD(m.parameters(), lr=0.1, momentum=momentum)
                       for m in serial]
        fleet_opts = [SGD(m.parameters(), lr=0.1, momentum=momentum)
                      for m in fleet]
        rng = np.random.default_rng(seed ^ 0xABCD)
        x = rng.normal(size=(d, n, fin))
        y = rng.integers(0, classes, size=(d, n))

        ref_losses = []
        for k in range(d):
            serial_opts[k].zero_grad()
            loss = softmax_cross_entropy(serial[k](Tensor(x[k])), y[k])
            loss.backward()
            serial_opts[k].step()
            ref_losses.append(float(loss.data))

        stack_arena = FleetArena(fleet_arenas)
        try:
            module = FleetModule(fleet, stack_arena.stack,
                                 fleet_arenas[0].layout(),
                                 grad_stack=stack_arena.grad_stack)
            for opt in fleet_opts:
                opt.zero_grad()
            module.sync_grad_liveness(d)
            logits = module.forward(Tensor(x), count=d)
            loss_vec = softmax_cross_entropy(logits, y)
            loss_vec.backward(np.ones(d))
            module.adopt_member_grads(d)
            for opt in fleet_opts:
                opt.step()
        finally:
            stack_arena.release()

        assert ref_losses == [float(v) for v in loss_vec.data]
        for k in range(d):
            _bitwise(serial_arenas[k].read(), fleet_arenas[k].read())
            _bitwise(serial_arenas[k].grad_flat, fleet_arenas[k].grad_flat)
            for sv, fv in zip(serial_opts[k].flat_state(),
                              fleet_opts[k].flat_state()):
                _bitwise(sv, fv)
