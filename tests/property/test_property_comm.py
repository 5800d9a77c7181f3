"""Hypothesis property tests for collectives, partitioning, the sync ring,
codecs."""

import sys
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import reference_allreduce as ref  # noqa: E402
import reference_topology  # noqa: E402
from repro.comm import ParamArena  # noqa: E402
from repro.comm.allreduce import (  # noqa: E402
    _ingest_buffers,
    _node_buffer,
    _run_schedule,
    ring_allreduce_detailed,
)
from repro.comm.wire import get_wire_format  # noqa: E402
from repro.comm.topology import directed_ring  # noqa: E402
from repro.data.partition import IIDShardSpec  # noqa: E402
from repro.nn import models  # noqa: E402

finite = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


def ring_allreduce_buffers(vectors, wire=None, reference=None):
    """Every node's final buffer after the two-phase ring schedule (the
    element-wise *sum* of the inputs as seen through the wire)."""
    cube, size = _ingest_buffers(vectors)
    _run_schedule(cube, size, get_wire_format(wire), reference)
    return [_node_buffer(cube, size, node) for node in range(len(cube))]


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
            ring_allreduce_detailed(vectors)[0], np.mean(vectors, axis=0), atol=1e-9
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
        np.testing.assert_allclose(
            ring_allreduce_detailed(vectors)[0], np.full(n, 3.5), atol=1e-12
        )


@st.composite
def ring_case(draw):
    k = draw(st.integers(1, 17))
    # n < K (empty segments), n % K != 0 (two segment lengths), n % K == 0.
    n = draw(st.one_of(st.integers(0, k), st.integers(k, 4 * k + 3), st.integers(40, 90)))
    return (
        k, n,
        draw(st.sampled_from(["fp64", "fp32", "fp16", "int8_sr", "qsgd4", "topk0.2"])),
        draw(st.booleans()),  # with a shared reference
        draw(st.integers(0, 2**31 - 1)),
    )


@settings(max_examples=250, deadline=None)
@given(ring_case())
def test_cube_ring_matches_per_send_reference(case):
    """The block-per-step schedule leaves what ``2·K·(K−1)`` separate
    sends leave: every node buffer, the worst cast error and every byte
    figure, exactly — values over sixteen decades, so a reordered
    addition flips a low bit."""
    k, n, wire_name, with_reference, seed = case
    rng = np.random.default_rng(seed)
    wire = get_wire_format(wire_name)

    def wide(scale=1.0):
        return scale * rng.choice([-1.0, 1.0], size=n) * 10.0 ** rng.uniform(-8, 8, size=n)

    # fp16 tops out at 65504: keep its payloads finite after K-fold sums.
    vectors = [wide(1e-6 if wire_name == "fp16" else 1.0) for _ in range(k)]
    reference = np.mean(vectors, axis=0) if with_reference else None

    want = ref.ingest_buffers(vectors)
    want_err, want_bytes = (
        ref.run_schedule(want, wire, reference) if k > 1 else (0.0, [0])
    )
    got = ring_allreduce_buffers(vectors, wire=wire, reference=reference)
    assert len(got) == k
    for got_buf, want_buf in zip(got, want):
        assert got_buf.shape == want_buf.shape
        assert got_buf.tobytes() == want_buf.tobytes()

    result, stats = ring_allreduce_detailed(
        vectors, average=False, wire=wire, reference=reference
    )
    assert result.tobytes() == want[0].tobytes()
    assert stats.max_cast_error == want_err
    assert stats.bytes_sent_by_node == tuple(want_bytes)
    assert all(type(b) is int for b in stats.bytes_sent_by_node)
    assert stats.total_bytes == sum(want_bytes)
    assert stats.bytes_sent_per_node == max(want_bytes)
    averaged, _ = ring_allreduce_detailed(vectors, wire=wire, reference=reference)
    assert averaged.tobytes() == (want[0] / k).tobytes()


def test_cube_ring_nan_payload_costs_one_segments_error_like_reference():
    """A NaN poisons the error of the segment carrying it, not of the
    whole ring step: ``max_cast_error`` stays the reference's."""
    k, n = 5, 23
    rng = np.random.default_rng(11)
    vectors = [rng.normal(size=n) for _ in range(k)]
    vectors[2][7] = np.nan
    wire = get_wire_format("fp32")
    want = ref.ingest_buffers(vectors)
    want_err, _ = ref.run_schedule(want, wire, None)
    result, stats = ring_allreduce_detailed(vectors, average=False, wire=wire)
    assert want_err > 0.0
    assert stats.max_cast_error == want_err
    assert result.tobytes() == want[0].tobytes()


class TestPartitionProperties:
    @given(
        st.integers(min_value=1, max_value=500),
        st.integers(min_value=1, max_value=10),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_iid_disjoint_cover(self, n, k, rnd):
        rng = np.random.default_rng(rnd.randint(0, 2**31))
        parts = IIDShardSpec(n, k, rng=rng).materialise()
        combined = np.concatenate(parts) if parts else np.array([])
        assert len(combined) == n
        assert len(np.unique(combined)) == n
        sizes = [len(p) for p in parts]
        assert max(sizes) - min(sizes) <= 1


class TestRingTopologyProperties:
    @given(st.integers(min_value=2, max_value=12), st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_ring_traversal_visits_all_once(self, k, rnd):
        rng = np.random.default_rng(rnd.randint(0, 2**31))
        ids = list(rng.choice(1000, size=k, replace=False))
        order = directed_ring(ids, rng)
        assert sorted(order) == sorted(int(i) for i in ids)
        assert order[0] == min(order)

    @given(st.integers(min_value=2, max_value=10), st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_every_node_has_unique_neighbours(self, k, rnd):
        rng = np.random.default_rng(rnd.randint(0, 2**31))
        order = directed_ring(range(k), rng)
        downstream = dict(zip(order, order[1:] + order[:1]))
        upstream = {b: a for a, b in downstream.items()}
        assert sorted(downstream) == sorted(upstream) == list(range(k))
        for node in order:
            assert upstream[downstream[node]] == node

    @given(
        st.lists(st.integers(-50, 10**6), min_size=1, max_size=40, unique=True),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_graph_walk_reference(self, ids, seed):
        """The rotated permutation is the order the graph walk it
        replaced produced, and it consumes the same draws."""
        rng = np.random.default_rng(seed)
        ref_rng = np.random.default_rng(seed)
        assert directed_ring(ids, rng) == reference_topology.ring_order(ids, ref_rng)
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert rng.random() == ref_rng.random()


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
