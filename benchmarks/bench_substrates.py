"""Substrate micro-benchmarks: the building blocks under the experiments.

Classic pytest-benchmark timing of the hot paths — ring all-reduce,
conv2d forward/backward, the event engine — so substrate regressions are
visible independently of the end-to-end runs (the arena snapshot/write
round-trip is timed by ``bench_hotpath.py::bench_codec``).
"""

import numpy as np
import pytest

from repro.autograd import Tensor, conv2d, softmax_cross_entropy
from repro.comm import ring_allreduce
from repro.nn import models
from repro.sim import Simulator

RNG = np.random.default_rng(0)


def test_ring_allreduce_4x100k(benchmark):
    vectors = [RNG.normal(size=100_000) for _ in range(4)]
    result = benchmark(ring_allreduce, vectors)
    np.testing.assert_allclose(result, np.mean(vectors, axis=0), atol=1e-9)


def test_ring_allreduce_16x10k(benchmark):
    vectors = [RNG.normal(size=10_000) for _ in range(16)]
    benchmark(ring_allreduce, vectors)


def test_conv2d_forward_backward(benchmark):
    x = Tensor(RNG.normal(size=(16, 8, 8, 8)), requires_grad=True)
    w = Tensor(RNG.normal(size=(16, 8, 3, 3)), requires_grad=True)

    def run():
        out = conv2d(x, w, padding=1)
        out.backward(np.ones(out.shape))
        x.zero_grad()
        w.zero_grad()

    benchmark(run)


def test_resnet_mini_training_step(benchmark):
    model = models.resnet_mini(rng=np.random.default_rng(0))
    from repro.optim import SGD

    opt = SGD(model.parameters(), lr=0.01)
    images = RNG.normal(size=(16, 3, 8, 8))
    labels = RNG.integers(0, 10, size=16)

    def step():
        opt.zero_grad()
        loss = softmax_cross_entropy(model(Tensor(images)), labels)
        loss.backward()
        opt.step()

    benchmark(step)


def test_event_engine_throughput(benchmark):
    def run():
        sim = Simulator()
        counter = [0]

        def tick():
            counter[0] += 1
            if counter[0] < 5000:
                sim.schedule(0.001, tick)

        sim.schedule(0.0, tick)
        sim.run()
        return counter[0]

    assert benchmark(run) == 5000


def test_gossip_ring_sync_protocol(benchmark):
    from repro.comm import FaultTolerantRingSync
    from repro.sim import NetworkModel

    sync = FaultTolerantRingSync(NetworkModel())
    vectors = {i: RNG.normal(size=50_000) for i in range(4)}

    def run():
        return sync.run(
            Simulator(), [0, 1, 2, 3], vectors, lambda d, t: True, 200_000
        )

    result = benchmark(run)
    assert result.survivors == [0, 1, 2, 3]
