"""Hypothesis pin: the dense cluster and a virtual population build the
same device.

A :class:`~repro.sim.population.VirtualPopulation` materialises a device
from the same seeds, shard, optimizer factory and initial dispatch as the
:class:`~repro.sim.cluster.SimulatedCluster` device with that id, so the
two must be bitwise the same replica: parameters, optimizer flat and
scalar state, exported train state (version, jitter RNG, batch-cycler
order and RNG, dropout streams) and shard rows — and they must stay the
same through the same local steps.  The gradient vector is the same
from the first step on: a recycled block's vector holds its last
occupant's gradient until the step's ``zero_grad``, its one fill.  Drawn over three
optimizers, three shard specs, three wires, an MLP and a Dropout-bearing
conv model, on a pool block that 0-2 other devices trained in first (its
device shell rebound for each), started from the initial dispatch or
from a payload the cluster device is set to.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.data import synthetic_cifar10
from repro.data.partition import DirichletShardSpec, IIDShardSpec, SampledShardSpec
from repro.nn import models
from repro.nn.models.vgg import CFG_MINI, VGG
from repro.optim import SGD, Adam
from repro.sim import FailureInjector, SimulatedCluster
from repro.sim.population import PopulationSpecs, VirtualPopulation

NUM_DEVICES = 4
IMAGE = 8
TRAIN, TEST = synthetic_cifar10(num_train=96, num_test=32, image_size=IMAGE, seed=0)

OPTIMIZERS = {
    "sgd": lambda arena: SGD(arena, lr=0.05),
    "momentum": lambda arena: SGD(arena, lr=0.05, momentum=0.9),
    "adam": lambda arena: Adam(arena, lr=1e-3),
}
MODELS = {
    "mlp": lambda rng: models.MLP(3 * IMAGE * IMAGE, (16,), 10, rng=rng),
    "vgg_dropout": lambda rng: VGG(CFG_MINI, image_size=IMAGE, dropout=0.5, rng=rng),
}


def _shards(kind, seed):
    rng = np.random.default_rng(seed)
    if kind == "iid":
        return IIDShardSpec(len(TRAIN), NUM_DEVICES, rng=rng)
    if kind == "dirichlet":
        return DirichletShardSpec(TRAIN.labels, NUM_DEVICES, alpha=0.5, rng=rng)
    return SampledShardSpec(len(TRAIN), NUM_DEVICES, shard_size=20, seed=seed)


def _substrates(model, optimizer, shards, failure_injector=None, **kwargs):
    """A cluster and a population over the same ids, specs and shards."""
    specs = PopulationSpecs(NUM_DEVICES, shards, power_levels=(3.0, 1.0))
    common = dict(
        optimizer_factory=OPTIMIZERS[optimizer],
        failure_injector=failure_injector,
        **kwargs,
    )
    cluster = SimulatedCluster(
        MODELS[model],
        TRAIN,
        TEST,
        [specs.device_spec(d) for d in range(NUM_DEVICES)],
        partition=shards,
        **common,
    )
    population = VirtualPopulation(
        MODELS[model], TRAIN, specs, test_set=TEST, **common
    )
    return cluster, population


def _bitwise(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def _assert_same_state(a, b):
    if isinstance(a, dict):
        assert a.keys() == b.keys()
        for key in a:
            _assert_same_state(a[key], b[key])
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            _assert_same_state(x, y)
    elif isinstance(a, np.ndarray):
        _bitwise(a, b)
    else:
        assert a == b


def _assert_same_device(a, b, grads=True):
    assert a.spec == b.spec
    _bitwise(a.get_params_view(), b.get_params_view())
    if grads:
        _bitwise(a.arena.grad_flat, b.arena.grad_flat)
    opt_a, opt_b = a.optimizer.flat_state(), b.optimizer.flat_state()
    assert len(opt_a) == len(opt_b)
    for va, vb in zip(opt_a, opt_b):
        _bitwise(va, vb)
    assert a.optimizer.scalar_state() == b.optimizer.scalar_state()
    _assert_same_state(a.export_train_state(), b.export_train_state())
    _bitwise(a.cycler.dataset.indices, b.cycler.dataset.indices)
    assert a.cycler.batch_size == b.cycler.batch_size
    assert a.burst_signature == b.burst_signature


@given(
    model=st.sampled_from(sorted(MODELS)),
    optimizer=st.sampled_from(sorted(OPTIMIZERS)),
    shard_kind=st.sampled_from(["iid", "dirichlet", "sampled"]),
    wire=st.sampled_from(["fp64", "fp16", "topk0.2"]),
    seed=st.integers(0, 2**16),
    batch_size=st.sampled_from([4, 8]),
    device_id=st.integers(0, NUM_DEVICES - 1),
    prior=st.lists(st.integers(1, NUM_DEVICES - 1), max_size=2, unique=True),
    payload=st.booleans(),
    steps=st.lists(st.integers(0, 4), min_size=1, max_size=2),
)
@settings(max_examples=25, deadline=None)
def test_materialised_device_is_the_cluster_device(
    model, optimizer, shard_kind, wire, seed, batch_size, device_id, prior,
    payload, steps,
):
    cluster, population = _substrates(
        model,
        optimizer,
        _shards(shard_kind, seed),
        seed=seed,
        batch_size=batch_size,
        wire=wire,
    )
    _bitwise(cluster.initial_params, population.initial_params)
    assert cluster.model_nbytes == population.model_nbytes
    for offset in prior:
        # A block that served (and trained) other devices first.
        other = (device_id + offset) % NUM_DEVICES
        population.materialise(other).train_steps(2)
        population.release(other)
    dense = cluster.device_by_id(device_id)
    params = None
    if payload:
        params = np.random.default_rng(seed).normal(size=cluster.initial_params.size)
        dense.set_params(params)
    virtual = population.materialise(device_id, params)
    if model == "vgg_dropout":
        assert virtual.export_train_state()["module_rng_states"]
    # A block no one trained in holds zero gradients, as the cluster's
    # device does; a recycled one holds its last occupant's until a step.
    stepped = not prior
    _assert_same_device(dense, virtual, grads=stepped)
    for count in steps:
        ran_dense = dense.train_steps(count, start_time=0.0)
        ran_virtual = virtual.train_steps(count, start_time=0.0)
        _bitwise(ran_dense.losses, ran_virtual.losses)
        assert ran_dense.elapsed == ran_virtual.elapsed
        stepped = stepped or count > 0
        _assert_same_device(dense, virtual, grads=stepped)


def test_population_devices_honour_slowdown_windows():
    """A straggler window slows a population device exactly as it slows
    the cluster's device with that id, and only inside the window."""
    injector = FailureInjector()
    injector.slow(3, start=0.0, end=10.0, factor=4.0)
    cluster, population = _substrates(
        "mlp", "sgd", _shards("iid", 0), failure_injector=injector
    )
    slowed = population.materialise(3)
    unslowed = population.materialise(1)  # same power level, no window
    assert slowed.step_time(1.0) == 4.0 * unslowed.step_time(1.0)
    assert slowed.step_time(11.0) == unslowed.step_time(11.0)
    for time in (1.0, 9.5, 10.0, 11.0):
        assert slowed.step_time(time) == cluster.device_by_id(3).step_time(time)
