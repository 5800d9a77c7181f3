"""Hypothesis property tests for collectives, partitioning, codecs."""

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from repro.comm import ParamArena, ring_allreduce
from repro.comm.allreduce import ring_allreduce_buffers
from repro.comm.topology import directed_ring
from repro.data.partition import partition_iid, partition_proportional
from repro.nn import models

finite = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


class TestAllReduceProperties:
    @given(
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=1, max_value=40),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_equals_numpy_mean(self, k, n, rnd):
        rng = np.random.default_rng(rnd.randint(0, 2**31))
        vectors = [rng.normal(size=n) for _ in range(k)]
        np.testing.assert_allclose(
            ring_allreduce(vectors), np.mean(vectors, axis=0), atol=1e-9
        )

    @given(
        st.integers(min_value=2, max_value=6),
        st.integers(min_value=1, max_value=30),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=40, deadline=None)
    def test_all_nodes_agree(self, k, n, rnd):
        rng = np.random.default_rng(rnd.randint(0, 2**31))
        buffers = ring_allreduce_buffers([rng.normal(size=n) for _ in range(k)])
        for buf in buffers[1:]:
            np.testing.assert_allclose(buf, buffers[0], atol=1e-9)

    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=20))
    @settings(max_examples=30, deadline=None)
    def test_idempotent_on_identical_inputs(self, k, n):
        vectors = [np.full(n, 3.5) for _ in range(k)]
        np.testing.assert_allclose(ring_allreduce(vectors), np.full(n, 3.5), atol=1e-12)


class TestPartitionProperties:
    @given(
        st.integers(min_value=1, max_value=500),
        st.integers(min_value=1, max_value=10),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_iid_disjoint_cover(self, n, k, rnd):
        rng = np.random.default_rng(rnd.randint(0, 2**31))
        parts = partition_iid(n, k, rng=rng)
        combined = np.concatenate(parts) if parts else np.array([])
        assert len(combined) == n
        assert len(np.unique(combined)) == n
        sizes = [len(p) for p in parts]
        assert max(sizes) - min(sizes) <= 1

    @given(
        st.integers(min_value=10, max_value=300),
        st.lists(st.floats(min_value=0.1, max_value=10), min_size=1, max_size=6),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_proportional_disjoint_cover_exact_total(self, n, props, rnd):
        rng = np.random.default_rng(rnd.randint(0, 2**31))
        parts = partition_proportional(n, props, rng=rng)
        combined = np.concatenate(parts)
        assert len(combined) == n
        assert len(np.unique(combined)) == n


class TestRingTopologyProperties:
    @given(st.integers(min_value=2, max_value=12), st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_ring_traversal_visits_all_once(self, k, rnd):
        rng = np.random.default_rng(rnd.randint(0, 2**31))
        ids = list(rng.choice(1000, size=k, replace=False))
        topo = directed_ring(ids, rng=rng)
        order = topo.ring_order()
        assert sorted(order) == sorted(int(i) for i in ids)

    @given(st.integers(min_value=2, max_value=10), st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_every_node_has_unique_neighbours(self, k, rnd):
        rng = np.random.default_rng(rnd.randint(0, 2**31))
        topo = directed_ring(range(k), rng=rng)
        for node in topo.nodes:
            assert topo.upstream(topo.downstream(node)) == node


class TestCodecProperties:
    @given(
        st.integers(min_value=1, max_value=16),
        st.integers(min_value=1, max_value=16),
        st.integers(min_value=2, max_value=8),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=30, deadline=None)
    def test_flatten_unflatten_roundtrip(self, in_dim, hidden, classes, rnd):
        rng = np.random.default_rng(rnd.randint(0, 2**31))
        model = models.MLP(in_dim, (hidden,), classes, rng=rng)
        arena = ParamArena(model)
        perturbed = arena.snapshot() + 1.0
        arena.write(perturbed)
        np.testing.assert_array_equal(arena.snapshot(), perturbed)
        # The write landed in the parameters themselves, in layout order.
        np.testing.assert_array_equal(
            np.concatenate([p.data.reshape(-1) for p in model.parameters()]),
            perturbed,
        )
