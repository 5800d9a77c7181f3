"""Quantised wire formats: codecs, pricing, delta shipping, integration.

Pins the contracts of :mod:`repro.comm.quantise`:

* round-trip error bounds — ``int8_sr`` within one per-chunk scale step
  (``max|chunk| / 127``), ``qsgd{b}`` within one per-bucket grid step
  (``norm / s``), ``topk`` exact (up to fp32) on survivors and zero on
  the dropped complement;
* content-derived determinism — ``transmit`` is a pure function of the
  payload, so fixed-seed trajectories are reproducible regardless of
  how many transfers ran before;
* payload-aware pricing — ``nbytes`` / ``payload_nbytes`` replace the
  width × scalars law, and every pricing site (model bytes, all-reduce
  stats, network granularity) follows;
* delta shipping — ``prefer_delta`` formats carry ``vec - reference``
  where both endpoints share a reference, which is what makes top-k
  viable on model-state payloads.
"""

import numpy as np
import pytest
from reference_quantise import topk_encode_reference

from repro.comm.allreduce import ring_allreduce_detailed
from repro.comm.quantise import (
    Int8SRWireFormat,
    QSGDWireFormat,
    TopKWireFormat,
)
from repro.comm.wire import available_wire_formats, get_wire_format
from repro.core import HADFLTrainer
from repro.experiments import ExperimentConfig

RNG = np.random.default_rng(11)


def _config(**overrides):
    defaults = dict(
        model="mlp", num_train=256, num_test=128, image_size=8,
        target_epochs=3.0, seed=3,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


# ---------------------------------------------------------------------- #
# int8 + stochastic rounding
# ---------------------------------------------------------------------- #
class TestInt8SR:
    def test_roundtrip_error_within_one_scale_step(self):
        fmt = Int8SRWireFormat(chunk_size=64)
        vec = RNG.normal(size=1000) * 3.0
        received = fmt.transmit(vec)
        assert received.shape == vec.shape and received.dtype == np.float64
        for start in range(0, vec.size, 64):
            chunk = vec[start : start + 64]
            scale = np.abs(chunk).max() / fmt.LEVELS
            err = np.abs(chunk - received[start : start + 64]).max()
            assert err <= scale * (1 + 1e-12)

    def test_transmit_is_deterministic_per_payload(self):
        """Content-derived seeding: the same payload quantises the same
        way every time — no hidden stream position between runs."""
        fmt = get_wire_format("int8_sr")
        vec = RNG.normal(size=777)
        first = fmt.transmit(vec)
        # Interleave unrelated transfers; the repeat must not budge.
        fmt.transmit(RNG.normal(size=100))
        np.testing.assert_array_equal(fmt.transmit(vec), first)

    def test_different_seeds_round_differently(self):
        vec = RNG.normal(size=512)
        a = Int8SRWireFormat(seed=0).transmit(vec)
        b = Int8SRWireFormat(seed=1).transmit(vec)
        assert not np.array_equal(a, b)

    def test_stochastic_rounding_is_unbiased(self):
        """Across independent seeds the mean reconstruction approaches
        the input — the property deterministic rounding lacks."""
        vec = np.full(256, 0.3)  # deliberately between grid points
        mean = np.mean(
            [Int8SRWireFormat(seed=s).transmit(vec) for s in range(64)],
            axis=0,
        )
        scale = 0.3 / 127
        assert np.abs(mean - vec).max() < 0.3 * scale

    def test_zero_and_empty_payloads(self):
        fmt = get_wire_format("int8_sr")
        np.testing.assert_array_equal(fmt.transmit(np.zeros(10)), np.zeros(10))
        assert fmt.transmit(np.array([])).size == 0
        assert fmt.nbytes(0) == 0

    def test_nbytes_law(self):
        fmt = Int8SRWireFormat(chunk_size=1024)
        assert fmt.nbytes(1000) == 1000 + 1 * 8
        assert fmt.nbytes(1025) == 1025 + 2 * 8
        assert fmt.payload_nbytes(np.zeros(1025)) == fmt.nbytes(1025)
        with pytest.raises(ValueError):
            fmt.nbytes(-1)


# ---------------------------------------------------------------------- #
# QSGD buckets
# ---------------------------------------------------------------------- #
class TestQSGD:
    @pytest.mark.parametrize("bits,levels", [(2, 1), (4, 7), (8, 127)])
    def test_levels_and_grid(self, bits, levels):
        fmt = QSGDWireFormat(bits=bits, bucket_size=50)
        assert fmt.levels == levels
        vec = RNG.normal(size=50)
        payload = fmt.encode(vec)
        assert payload.levels.dtype == np.int8
        assert np.abs(payload.levels).max() <= levels
        # Decoded values sit exactly on the per-bucket grid.
        received = fmt.decode(payload)
        norm = float(payload.norms[0])
        np.testing.assert_allclose(
            received[:50] * levels / norm if norm else received[:50],
            np.round(received[:50] * levels / norm) if norm else received[:50],
            atol=1e-9,
        )

    def test_roundtrip_error_within_one_grid_step(self):
        fmt = QSGDWireFormat(bits=8, bucket_size=128)
        vec = RNG.normal(size=1000)
        received = fmt.transmit(vec)
        for start in range(0, vec.size, 128):
            chunk = vec[start : start + 128]
            norm = np.float64(np.float32(np.abs(chunk).max()))
            err = np.abs(chunk - received[start : start + 128]).max()
            assert err <= norm / fmt.levels * (1 + 1e-6) + 1e-30

    def test_l2_norm_variant(self):
        fmt = QSGDWireFormat(bits=8, bucket_size=64, norm="l2")
        vec = RNG.normal(size=64)
        received = fmt.transmit(vec)
        norm = np.float64(np.float32(np.sqrt((vec * vec).sum())))
        assert np.abs(vec - received).max() <= norm / 127 * (1 + 1e-6)

    def test_determinism(self):
        fmt = get_wire_format("qsgd4")
        vec = RNG.normal(size=300)
        np.testing.assert_array_equal(fmt.transmit(vec), fmt.transmit(vec))

    def test_nbytes_packs_sub_byte_levels(self):
        assert QSGDWireFormat(bits=4, bucket_size=512).nbytes(1000) == 500 + 2 * 4
        assert QSGDWireFormat(bits=2, bucket_size=512).nbytes(1000) == 250 + 2 * 4
        assert QSGDWireFormat(bits=8, bucket_size=512).nbytes(1000) == 1000 + 2 * 4

    def test_validation(self):
        with pytest.raises(ValueError):
            QSGDWireFormat(bits=1)
        with pytest.raises(ValueError):
            QSGDWireFormat(bits=9)
        with pytest.raises(ValueError):
            QSGDWireFormat(bits=4, norm="nuclear")


# ---------------------------------------------------------------------- #
# top-k sparsification
# ---------------------------------------------------------------------- #
class TestTopK:
    def test_keeps_largest_magnitudes_exactly(self):
        fmt = TopKWireFormat(0.1)
        vec = RNG.normal(size=200)
        received = fmt.transmit(vec)
        k = fmt.k_for(200)
        assert k == 20
        kept = np.flatnonzero(received)
        assert len(kept) == k
        # Survivors are the k largest magnitudes, fp32-cast.
        assert set(kept) == set(topk_encode_reference(fmt, vec).indices)
        np.testing.assert_array_equal(
            received[kept], vec[kept].astype(np.float32).astype(np.float64)
        )
        # Cast error equals the largest dropped magnitude (a sparsity
        # figure, not a precision one).
        dropped = np.setdiff1d(np.arange(200), kept)
        assert fmt.transmit_with_error(vec)[1] == pytest.approx(
            np.abs(vec[dropped]).max(), rel=1e-6
        )

    def test_ties_break_toward_lower_index(self):
        fmt = TopKWireFormat(0.5)
        vec = np.array([1.0, -1.0, 1.0, -1.0])
        received = fmt.transmit(vec)
        np.testing.assert_array_equal(received, [1.0, -1.0, 0.0, 0.0])

    def test_variable_payload_pricing(self):
        fmt = TopKWireFormat(0.01)
        assert fmt.k_for(1000) == 10
        assert fmt.nbytes(1000) == 8 + 10 * 8
        assert fmt.nbytes(5) == 8 + 1 * 8  # min one survivor
        assert fmt.nbytes(0) == 0
        assert fmt.payload_nbytes(np.zeros(1000)) == fmt.nbytes(1000)

    def test_prefer_delta_ships_reference_deltas(self):
        """The DGC pattern: with a shared reference the wire carries the
        sparse *drift*, and an unchanged payload arrives exactly."""
        fmt = TopKWireFormat(0.1)
        assert fmt.prefer_delta
        base = RNG.normal(size=100)
        received, err = fmt.transmit_delta_with_error(base, base)
        np.testing.assert_array_equal(received, base)
        assert err == 0.0
        # A localized drift smaller than fraction*n arrives fp32-exact.
        drifted = np.array(base)
        drifted[7] += 0.5
        received, err = fmt.transmit_delta_with_error(drifted, base)
        np.testing.assert_allclose(received, drifted, atol=1e-7)
        # Without a reference the raw payload is sparsified.
        received, _ = fmt.transmit_delta_with_error(drifted, None)
        assert np.count_nonzero(received) == fmt.k_for(100)

    def test_cast_formats_ignore_reference(self):
        fp32 = get_wire_format("fp32")
        vec = RNG.normal(size=64)
        received, err = fp32.transmit_delta_with_error(vec, np.zeros(64))
        np.testing.assert_array_equal(
            received, vec.astype(np.float32).astype(np.float64)
        )
        assert err > 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            TopKWireFormat(0.0)
        with pytest.raises(ValueError):
            TopKWireFormat(1.5)


# ---------------------------------------------------------------------- #
# Registry families
# ---------------------------------------------------------------------- #
class TestRegistryFamilies:
    def test_presets_registered(self):
        names = available_wire_formats()
        for name in ("int8_sr", "qsgd2", "qsgd4", "qsgd8", "topk0.01", "topk0.1"):
            assert name in names

    def test_topk_family_resolves_on_demand(self):
        fmt = get_wire_format("topk0.05")
        assert isinstance(fmt, TopKWireFormat)
        assert fmt.fraction == 0.05
        assert get_wire_format("topk0.05") is fmt  # cached
        assert "topk0.05" in available_wire_formats()

    def test_qsgd_family_resolves_on_demand(self):
        fmt = get_wire_format("qsgd3")
        assert isinstance(fmt, QSGDWireFormat)
        assert fmt.bits == 3

    def test_unknown_names_still_rejected(self):
        with pytest.raises(ValueError):
            get_wire_format("int4")
        with pytest.raises(ValueError):
            get_wire_format("topkfoo")
        with pytest.raises(ValueError):
            get_wire_format("qsgd99")  # parseable but invalid bits


# ---------------------------------------------------------------------- #
# Payload-aware pricing through the stack
# ---------------------------------------------------------------------- #
class TestQuantisedPricing:
    def test_cluster_model_nbytes_follows_payload_law(self):
        cfg = _config(wire_dtype="int8_sr")
        cluster = cfg.make_cluster()
        n = cluster.initial_params.size
        assert cluster.model_nbytes == cluster.wire.nbytes(n)
        assert cluster.model_nbytes < n * 2  # far below any float width
        assert cluster.network.bytes_per_scalar == 1  # byte-granular

    def test_topk_model_nbytes_is_pair_priced(self):
        cfg = _config(wire_dtype="topk0.01")
        cluster = cfg.make_cluster()
        fmt = cluster.wire
        n = cluster.initial_params.size
        assert cluster.model_nbytes == 8 + fmt.k_for(n) * 8

    def test_allreduce_prices_actual_segments(self):
        """Byte accounting sums `payload_nbytes` of every sent segment —
        the variable-size law, not width × scalars."""
        k, n = 4, 103
        fmt = get_wire_format("topk0.1")
        vectors = [RNG.normal(size=n) for _ in range(k)]
        _, stats = ring_allreduce_detailed(vectors, wire=fmt)
        seg_sizes = [26, 26, 26, 25]
        expected_per_step = sum(fmt.nbytes(s) for s in seg_sizes)
        assert stats.total_bytes == 2 * (k - 1) * expected_per_step
        assert sum(stats.bytes_sent_by_node) == stats.total_bytes

    def test_allreduce_with_reference_matches_mean_drift(self):
        """With a shared reference and drift sparser than the kept
        fraction, the delta-shipped ring reproduces the exact mean."""
        k, n = 3, 90
        ref = RNG.normal(size=n)
        vectors = []
        for i in range(k):
            v = np.array(ref)
            v[i] += 1.0  # one-coordinate drift per node
            vectors.append(v)
        result, stats = ring_allreduce_detailed(
            vectors, wire="topk0.1", reference=ref
        )
        np.testing.assert_allclose(result, np.mean(vectors, axis=0), atol=1e-6)

    def test_end_to_end_int8_run_records_errors(self):
        from repro.experiments import run_scheme

        result = run_scheme("hadfl", _config(wire_dtype="int8_sr"))
        assert result.config["wire_dtype"] == "int8_sr"
        errors = [r.detail.get("wire_cast_error", 0.0) for r in result.rounds]
        assert max(errors) > 0.0
        assert result.final_accuracy() > 0.3  # trains, does not collapse

    def test_trainer_override_accepts_quantiser(self):
        cfg = _config(wire_dtype="int8_sr")
        cluster = cfg.make_cluster()
        trainer = HADFLTrainer(
            cluster, params=cfg.hadfl_params(), seed=cfg.seed
        )
        n = cluster.initial_params.size
        assert trainer.model_nbytes == trainer.wire.nbytes(n)
        assert trainer.network.bytes_per_scalar == 1
        result = trainer.run(target_epochs=2.0)
        assert result.config["wire_dtype"] == "int8_sr"
