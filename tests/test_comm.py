"""Unit tests for comm: flat model state, all-reduce, the sync ring, gossip, volume."""

import numpy as np
import pytest

from repro import nn
from repro.nn import models
from repro.comm import (
    CommVolumeAccountant,
    ParamArena,
    device_volume,
    directed_ring,
    fedavg_server_volume,
    ring_allreduce,
    ring_allreduce_detailed,
)
from repro.comm.allreduce import _ingest_buffers, _node_buffer, _run_schedule
from repro.comm.gossip import gossip_ring_exchange
from repro.comm.wire import get_wire_format

RNG = np.random.default_rng(17)


def ring_allreduce_buffers(vectors, wire=None):
    """Every node's final buffer after the two-phase ring schedule."""
    cube, size = _ingest_buffers(vectors)
    _run_schedule(cube, size, get_wire_format(wire))
    return [_node_buffer(cube, size, node) for node in range(len(cube))]


class TestParamCodec:
    """Model state <-> flat vector, through the arena (the only codec)."""

    def _model(self, seed=0):
        return models.SimpleCNN(image_size=8, width=4, rng=np.random.default_rng(seed))

    def test_flatten_size_matches(self):
        model = self._model()
        flat = ParamArena(model).snapshot()
        param_scalars = sum(p.size for p in model.parameters())
        buffer_scalars = sum(b.size for _, b in model.named_buffers())
        assert flat.size == param_scalars + buffer_scalars

    def test_roundtrip_restores_model(self):
        model = self._model(0)
        other = self._model(1)
        ParamArena(other).write(ParamArena(model).snapshot())
        for (_, pa), (_, pb) in zip(model.named_parameters(), other.named_parameters()):
            np.testing.assert_array_equal(pa.data, pb.data)
        for (_, ba), (_, bb) in zip(model.named_buffers(), other.named_buffers()):
            np.testing.assert_array_equal(ba, bb)

    def test_wrong_size_raises(self):
        with pytest.raises(ValueError):
            ParamArena(self._model()).write(np.zeros(3))


class TestRingAllreduce:
    @pytest.mark.parametrize("k,n", [(2, 10), (3, 7), (4, 16), (5, 3), (7, 100)])
    def test_matches_mean(self, k, n):
        vectors = [RNG.normal(size=n) for _ in range(k)]
        result = ring_allreduce(vectors)
        np.testing.assert_allclose(result, np.mean(vectors, axis=0), atol=1e-12)

    def test_sum_mode(self):
        vectors = [RNG.normal(size=8) for _ in range(3)]
        result = ring_allreduce(vectors, average=False)
        np.testing.assert_allclose(result, np.sum(vectors, axis=0), atol=1e-12)

    def test_all_nodes_converge_to_same_buffer(self):
        vectors = [RNG.normal(size=13) for _ in range(4)]
        buffers = ring_allreduce_buffers(vectors)
        for buf in buffers[1:]:
            np.testing.assert_allclose(buf, buffers[0], atol=1e-12)

    def test_single_node_identity(self):
        v = RNG.normal(size=5)
        result, stats = ring_allreduce_detailed([v])
        np.testing.assert_allclose(result, v)
        assert stats.steps == 0
        assert stats.total_bytes == 0

    def test_stats_step_count(self):
        vectors = [RNG.normal(size=100) for _ in range(4)]
        _, stats = ring_allreduce_detailed(vectors)
        assert stats.steps == 2 * 3
        assert stats.num_nodes == 4
        # 25 scalars per segment at the fp64 wire's 8 B/scalar.
        assert stats.bytes_sent_per_node == stats.steps * 25 * 8

    def test_vector_shorter_than_ring(self):
        vectors = [RNG.normal(size=2) for _ in range(5)]
        np.testing.assert_allclose(
            ring_allreduce(vectors), np.mean(vectors, axis=0), atol=1e-12
        )

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            ring_allreduce([np.zeros(3), np.zeros(4)])

    def test_non_flat_raises(self):
        with pytest.raises(ValueError):
            ring_allreduce([np.zeros((2, 2)), np.zeros((2, 2))])

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            ring_allreduce([])


class TestTopology:
    def test_directed_ring_structure(self):
        order = directed_ring([3, 1, 4, 2], np.random.default_rng(0))
        assert sorted(order) == [1, 2, 3, 4]
        # The traversal order starts at the smallest id.
        assert order[0] == 1

    def test_ring_shuffle_randomises_order(self):
        orders = {
            tuple(directed_ring(range(6), np.random.default_rng(s)))
            for s in range(10)
        }
        assert len(orders) > 1

    def test_single_node_ring(self):
        assert directed_ring([7], np.random.default_rng(0)) == [7]

    def test_two_node_ring(self):
        for seed in range(4):
            assert directed_ring([1, 0], np.random.default_rng(seed)) == [0, 1]

    def test_duplicate_ids_raise(self):
        with pytest.raises(ValueError):
            directed_ring([1, 1, 2], np.random.default_rng(0))


class TestGossip:
    def test_uniform_average(self):
        vectors = [RNG.normal(size=6) for _ in range(3)]
        average, _ = gossip_ring_exchange(vectors)
        np.testing.assert_allclose(average, np.mean(vectors, axis=0), atol=1e-12)


class TestVolume:
    def test_fedavg_server_volume_formula(self):
        # 2 * M * K * epochs / E
        assert fedavg_server_volume(1000, 4, 10, 5) == pytest.approx(
            2 * 1000 * 4 * 10 / 5
        )

    def test_device_volume_formula(self):
        assert device_volume(1000, 4) == 8000

    def test_formula_validation(self):
        with pytest.raises(ValueError):
            fedavg_server_volume(0, 4, 10, 5)
        with pytest.raises(ValueError):
            device_volume(1000, 0)

    def test_accountant_totals(self):
        acc = CommVolumeAccountant()
        acc.record(0.0, 100, "gossip", src=0, dst=1)
        acc.record(1.0, 50, "broadcast", src=0, dst=2)
        acc.record(2.0, 25, "gossip", src=1, dst=0)
        assert acc.total_bytes == 175
        assert acc.bytes_by_kind() == {"gossip": 125, "broadcast": 50}
        assert "gossip" in acc.summary()

    def test_accountant_rejects_negative(self):
        with pytest.raises(ValueError):
            CommVolumeAccountant().record(0.0, -1, "x")
