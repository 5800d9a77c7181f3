"""Unit tests for comm: flat model state, all-reduce, topology, gossip, volume."""

import numpy as np
import pytest

from repro import nn
from repro.nn import models
from repro.comm import (
    CommVolumeAccountant,
    ParamArena,
    complete_topology,
    device_volume,
    directed_ring,
    fedavg_server_volume,
    gossip_average,
    random_regular_topology,
    ring_allreduce,
    ring_allreduce_detailed,
)
from repro.comm.allreduce import ring_allreduce_buffers
from repro.comm.gossip import neighborhood_average

RNG = np.random.default_rng(17)


class TestParamCodec:
    """Model state <-> flat vector, through the arena (the only codec)."""

    def _model(self, seed=0):
        return models.SimpleCNN(image_size=8, width=4, rng=np.random.default_rng(seed))

    def test_flatten_size_matches(self):
        model = self._model()
        flat = ParamArena(model).snapshot()
        param_scalars = model.num_parameters()
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
        topo = directed_ring([3, 1, 4, 2], rng=np.random.default_rng(0))
        assert topo.is_ring()
        assert len(topo) == 4
        order = topo.ring_order()
        assert sorted(order) == [1, 2, 3, 4]
        # Walking downstream from each node returns home in exactly 4 hops.
        node = order[0]
        for _ in range(4):
            node = topo.downstream(node)
        assert node == order[0]

    def test_ring_upstream_inverse_of_downstream(self):
        topo = directed_ring([0, 1, 2], rng=np.random.default_rng(1))
        for node in topo.nodes:
            assert topo.upstream(topo.downstream(node)) == node

    def test_ring_shuffle_randomises_order(self):
        orders = {
            tuple(directed_ring(range(6), rng=np.random.default_rng(s)).ring_order())
            for s in range(10)
        }
        assert len(orders) > 1

    def test_single_node_ring(self):
        topo = directed_ring([7], shuffle=False)
        assert len(topo) == 1
        assert topo.successors(7) == []

    def test_two_node_ring(self):
        topo = directed_ring([0, 1], shuffle=False)
        assert topo.downstream(0) == 1
        assert topo.downstream(1) == 0

    def test_duplicate_ids_raise(self):
        with pytest.raises(ValueError):
            directed_ring([1, 1, 2])

    def test_complete_topology(self):
        topo = complete_topology([0, 1, 2])
        assert not topo.is_ring()
        assert topo.is_strongly_connected()
        assert set(topo.successors(0)) == {1, 2}

    def test_random_regular_connected(self):
        topo = random_regular_topology(range(8), degree=3, rng=np.random.default_rng(0))
        assert topo.is_strongly_connected()
        assert all(topo.graph.out_degree(n) == 3 for n in topo.nodes)

    def test_random_regular_validation(self):
        with pytest.raises(ValueError):
            random_regular_topology([0, 1], degree=2)
        with pytest.raises(ValueError):
            random_regular_topology(range(5), degree=3)  # odd product


class TestGossip:
    def test_uniform_average(self):
        vectors = [RNG.normal(size=6) for _ in range(3)]
        np.testing.assert_allclose(
            gossip_average(vectors), np.mean(vectors, axis=0), atol=1e-12
        )

    def test_weighted_average(self):
        vectors = [np.zeros(4), np.ones(4)]
        result = gossip_average(vectors, weights=[1.0, 3.0])
        np.testing.assert_allclose(result, np.full(4, 0.75))

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            gossip_average([np.zeros(2)], weights=[1.0, 2.0])
        with pytest.raises(ValueError):
            gossip_average([np.zeros(2), np.ones(2)], weights=[-1.0, 1.0])

    def test_neighborhood_average_complete_graph_is_mean(self):
        topo = complete_topology([0, 1, 2])
        vectors = {i: np.full(3, float(i)) for i in range(3)}
        result = neighborhood_average(vectors, topo)
        for node in range(3):
            np.testing.assert_allclose(result[node], np.ones(3))

    def test_neighborhood_average_converges_on_ring(self):
        topo = directed_ring([0, 1, 2, 3], shuffle=False)
        vectors = {i: np.array([float(i)]) for i in range(4)}
        for _ in range(60):
            vectors = neighborhood_average(vectors, topo)
        values = np.array([vectors[i][0] for i in range(4)])
        assert np.ptp(values) < 1e-6  # consensus

    def test_neighborhood_missing_vector_raises(self):
        topo = directed_ring([0, 1], shuffle=False)
        with pytest.raises(ValueError, match="missing"):
            neighborhood_average({0: np.zeros(2)}, topo)


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
        assert acc.bytes_by_device() == {0: 150, 1: 25}
        assert "gossip" in acc.summary()

    def test_accountant_rejects_negative(self):
        with pytest.raises(ValueError):
            CommVolumeAccountant().record(0.0, -1, "x")
