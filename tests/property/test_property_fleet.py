"""Hypothesis properties of the replica-batched (fleet) kernels.

The fleet contract: every batched kernel computes *per replica slice*,
so stacking D replicas into one forward/backward is bitwise identical to
looping them serially — over arbitrary shapes, replica counts, input
dtypes, broadcast bias gradients, and per-replica dropout streams.
These properties fuzz that contract at the op level (stacked
``softmax_cross_entropy``), through the ``FleetModule`` layer plan
(linear layers, dropout masks, whole-MLP training steps, the one-node
step over gradient rows that were never zero-filled), and at the
executor level: the in-process executor against the per-device
reference loop (``tests/reference_executor.py``) over nested ``Subset``
shards whose bursts cross reshuffles, runs of one, dropout, jittered
deadline bursts and a CNN that trains per device.
"""

import sys
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from reference_executor import ReferenceExecutor  # noqa: E402
from stacking import stack_arenas  # noqa: E402

from repro.autograd import Tensor, softmax_cross_entropy  # noqa: E402
from repro.comm.params import ParamArena  # noqa: E402
from repro.data.dataset import ArrayDataset, Subset  # noqa: E402
from repro.nn.fleet import FleetModule  # noqa: E402
from repro.nn.layers import Dropout, Flatten, Linear, ReLU, Sequential  # noqa: E402
from repro.nn.models.mlp import MLP  # noqa: E402
from repro.nn.models.simple_cnn import SimpleCNN  # noqa: E402
from repro.optim.sgd import SGD  # noqa: E402
from repro.sim import DeviceSpec, SimulatedCluster  # noqa: E402
from repro.sim.device import LocalTrainTask  # noqa: E402

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
        stack, grad_stack = stack_arenas(arenas)
        module = FleetModule(fleet, stack, arenas[0].layout(),
                             grad_stack=grad_stack)
        dtype = np.float32 if x32 else np.float64
        x = rng.normal(size=(d, n, fin)).astype(dtype)
        g = rng.normal(size=(d, n, fout))
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
        # Dropout has no parameters: drive the plan through a
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
        serial_opts = [SGD(a, lr=0.1, momentum=momentum) for a in serial_arenas]
        fleet_opts = [SGD(a, lr=0.1, momentum=momentum) for a in fleet_arenas]
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

        stack, grad_stack = stack_arenas(fleet_arenas)
        module = FleetModule(fleet, stack, fleet_arenas[0].layout(),
                             grad_stack=grad_stack)
        for opt in fleet_opts:
            opt.zero_grad()
        logits = module.forward(Tensor(x), count=d)
        loss_vec = softmax_cross_entropy(logits, y)
        loss_vec.backward(np.ones(d))
        module.adopt_member_grads(d)
        for opt in fleet_opts:
            opt.step()

        assert ref_losses == [float(v) for v in loss_vec.data]
        for k in range(d):
            _bitwise(serial_arenas[k].read(), fleet_arenas[k].read())
            _bitwise(serial_arenas[k].grad_flat, fleet_arenas[k].grad_flat)
            for sv, fv in zip(serial_opts[k].flat_state(),
                              fleet_opts[k].flat_state()):
                _bitwise(sv, fv)


# Garbage a never-filled gradient row may hold: the batched step must
# write every element of its rows without reading one.
_GARBAGE = np.array([7.0, np.nan, -0.0])


def _plan_replica(kind, fin, hidden, classes, dead, p, seed):
    """One replica of the planned step's model.  ``dead`` hidden units
    get a large negative bias: their ReLU gates are shut for every
    sample, so the gradients reaching their inputs and biases are
    zeros of either sign (``g * False``)."""
    rng = np.random.default_rng(seed)
    if kind == "mlp":
        model = MLP(fin, hidden=hidden, num_classes=classes, rng=rng)
    else:
        layers, previous = [Flatten()], fin
        for width in hidden:
            layers += [Linear(previous, width, rng=rng), ReLU()]
            if p:
                layers.append(Dropout(p, rng=np.random.default_rng(seed + 7)))
            previous = width
        model = Sequential(*layers, Linear(previous, classes, rng=rng))
    linears = [m for m in model.modules() if type(m) is Linear]
    for layer in linears[:-1]:
        layer.bias.data[: min(dead, layer.out_features)] = -50.0
    return model


class TestPlanNodeProperties:
    @given(
        data=st.data(),
        kind=st.sampled_from(["mlp", "sequential"]),
        hidden=st.lists(st.integers(1, 6), min_size=0, max_size=3).map(tuple),
        dead=st.integers(0, 3),
        dropout=st.sampled_from([0.0, 0.4]),
        d=st.integers(min_value=1, max_value=4),
        n=st.integers(min_value=1, max_value=4),
        image=st.booleans(),
        input_grad=st.booleans(),
        steps=st.integers(min_value=1, max_value=3),
    )
    @settings(max_examples=60, deadline=None)
    def test_one_node_step_over_garbage_rows_bitwise(
        self, data, kind, hidden, dead, dropout, d, n, image, input_grad, steps
    ):
        """The batched step is one tape node that writes every gradient
        element itself: with no ``zero_grad`` and its rows pre-seeded
        with garbage (7.0, NaN, -0.0) before every step, each step —
        the first, whose gradients adopt their views, and later ones,
        which add to live ones — leaves losses, parameters, gradients,
        optimizer state and the input's gradient bitwise equal to D
        serial steps."""
        seed = data.draw(st.integers(0, 2**31 - 1))
        shape = (2, 2, 2) if image else (5,)
        fin, classes = int(np.prod(shape)), 3
        p = dropout if kind == "sequential" else 0.0

        def build():
            return [
                _plan_replica(kind, fin, hidden, classes, dead, p, seed + k)
                for k in range(d)
            ]

        serial, fleet = build(), build()
        serial_arenas = [ParamArena(m) for m in serial]
        fleet_arenas = [ParamArena(m) for m in fleet]
        serial_opts = [SGD(a, lr=0.1, momentum=0.9) for a in serial_arenas]
        fleet_opts = [SGD(a, lr=0.1, momentum=0.9) for a in fleet_arenas]
        stack, grad_stack = stack_arenas(fleet_arenas)
        module = FleetModule(fleet, stack, fleet_arenas[0].layout(),
                             grad_stack=grad_stack)
        rng = np.random.default_rng(seed ^ 0x5EED)
        for _ in range(steps):
            x = rng.normal(size=(d, n) + shape)
            y = rng.integers(0, classes, size=(d, n))
            ref_losses, ref_x_grads = [], []
            for k in range(d):
                serial_opts[k].zero_grad()
                xk = Tensor(x[k], requires_grad=input_grad)
                loss = softmax_cross_entropy(serial[k](xk), y[k])
                loss.backward()
                serial_opts[k].step()
                ref_losses.append(float(loss.data))
                ref_x_grads.append(xk.grad)

            grad_stack[...] = np.resize(_GARBAGE, grad_stack.shape)
            xt = Tensor(x, requires_grad=input_grad)
            loss_vec = softmax_cross_entropy(module.forward(xt, count=d), y)
            loss_vec.backward(np.ones(d))
            module.adopt_member_grads(d)
            for opt in fleet_opts:
                opt.step()

            assert ref_losses == [float(v) for v in loss_vec.data]
            for k in range(d):
                _bitwise(serial_arenas[k].grad_flat, fleet_arenas[k].grad_flat)
                _bitwise(serial_arenas[k].read(), fleet_arenas[k].read())
                for sv, fv in zip(serial_opts[k].flat_state(),
                                  fleet_opts[k].flat_state()):
                    _bitwise(sv, fv)
                if input_grad:
                    _bitwise(ref_x_grads[k], xt.grad[k])
                else:
                    assert xt.grad is None


# ---------------------------------------------------------------------- #
def _executor_model(kind):
    def factory(rng):
        if kind == "cnn":
            return SimpleCNN(in_channels=1, num_classes=4, image_size=8,
                             width=2, rng=rng)
        if kind == "dropout":
            return Sequential(
                Flatten(),
                Linear(64, 12, rng=rng),
                ReLU(),
                Dropout(0.3, rng=np.random.default_rng(rng.integers(2**31))),
                Linear(12, 4, rng=rng),
            )
        return MLP(64, hidden=(12,), num_classes=4, rng=rng)

    return factory


class TestExecutorReferenceProperties:
    @given(
        data=st.data(),
        kind=st.sampled_from(["mlp", "dropout", "cnn"]),
        powers=st.lists(st.sampled_from([1.0, 2.0, 4.0]), min_size=1, max_size=4),
        batch=st.integers(min_value=1, max_value=6),
        jitter=st.sampled_from([0.0, 0.3]),
        momentum=st.sampled_from([0.0, 0.9]),
    )
    @settings(max_examples=20, deadline=None)
    def test_in_process_executor_matches_reference(
        self, data, kind, powers, batch, jitter, momentum
    ):
        """Two bursts of mixed fixed-step and (capped) deadline tasks on
        ``Subset(Subset(...))`` shards of a dozen samples: batches cross
        reshuffles, step counts that rise along the rows split runs down
        to D = 1, dropout streams and jitter draws advance per device, and
        a CNN takes the per-device path — every result and every piece of
        device state equals the per-device reference loop's."""
        seed = data.draw(st.integers(0, 2**31 - 1))
        rng = np.random.default_rng(seed)
        base = ArrayDataset(
            rng.normal(size=(80, 1, 8, 8)), rng.integers(0, 4, size=80)
        )
        train = Subset(base, rng.permutation(80)[: 12 * len(powers)])
        specs = [
            DeviceSpec(device_id=k, power=power, base_step_time=0.1, jitter=jitter)
            for k, power in enumerate(powers)
        ]
        bursts = [
            [
                data.draw(
                    st.one_of(
                        st.builds(dict, max_steps=st.integers(0, 9)),
                        st.builds(
                            dict,
                            deadline=st.floats(0.0, 1.5),
                            max_steps=st.none() | st.integers(1, 9),
                        ),
                    )
                )
                for _ in specs
            ]
            for _ in range(2)
        ]

        def run(executor):
            cluster = SimulatedCluster(
                _executor_model(kind), train, None, specs, batch_size=batch,
                optimizer_factory=lambda arena: SGD(arena, lr=0.05, momentum=momentum),
                seed=seed % 1000, executor=executor,
            )
            results = []
            for index, burst in enumerate(bursts):
                start = 2.0 * index
                tasks = []
                for spec, kw in zip(specs, burst):
                    kw = dict(kw)
                    if "deadline" in kw:
                        kw["deadline"] += start
                    tasks.append(LocalTrainTask(spec.device_id, start_time=start, **kw))
                results.append({
                    device_id: (r.steps, r.elapsed, r.losses)
                    for device_id, r in cluster.run_local_tasks(tasks).items()
                })
            return results, cluster

        want, ref = run(ReferenceExecutor())
        got, cluster = run("serial")
        assert want == got
        for a, b in zip(ref.devices, cluster.devices):
            assert a.version == b.version and a.busy_until == b.busy_until
            _bitwise(a.get_params(), b.get_params())
            _bitwise(a.arena.grad_flat, b.arena.grad_flat)
            for va, vb in zip(a.optimizer.flat_state(), b.optimizer.flat_state()):
                _bitwise(va, vb)
            state_a, state_b = a.export_train_state(), b.export_train_state()
            cycler_a, cycler_b = state_a.pop("cycler"), state_b.pop("cycler")
            _bitwise(cycler_a.pop("order"), cycler_b.pop("order"))
            assert cycler_a == cycler_b
            assert state_a == state_b
