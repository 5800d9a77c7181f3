"""Wire-format subsystem: cast-on-the-wire payloads + unified pricing.

Pins the contract that retired the fp32-pricing / fp64-payload mismatch:

* a receiver only ever sees ``wire.transmit(sent)`` — for the fp32 wire,
  exactly ``sent.astype(np.float32).astype(np.float64)`` — at *every*
  simulated sync boundary;
* the default fp64 wire is an identity passthrough (bitwise-trajectory
  safe) priced at 8 B/scalar everywhere: model bytes, all-reduce stats,
  network segment granularity;
* the registry hook admits custom quantisers by name.
"""

import json

import numpy as np
import pytest

from repro.comm.allreduce import ring_allreduce_detailed
from repro.comm.wire import (
    DEFAULT_WIRE,
    WIRE_FP16,
    WIRE_FP32,
    WIRE_FP64,
    CastWireFormat,
    WireFormat,
    available_wire_formats,
    get_wire_format,
    register_wire_format,
)
from repro.core import HADFLTrainer
from repro.core.config import HADFLParams
from repro.experiments import ExperimentConfig, run_scheme
from repro.sim import NetworkModel

RNG = np.random.default_rng(23)


def _config(**overrides):
    defaults = dict(
        model="mlp", num_train=256, num_test=128, image_size=8,
        target_epochs=3.0, seed=3,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


# ---------------------------------------------------------------------- #
# Format primitives
# ---------------------------------------------------------------------- #
class TestWireFormats:
    def test_bytes_per_scalar(self):
        assert WIRE_FP64.bytes_per_scalar == 8
        assert WIRE_FP32.bytes_per_scalar == 4
        assert WIRE_FP16.bytes_per_scalar == 2

    def test_fp64_transmit_is_identity_object(self):
        """The lossless default cannot perturb a trajectory: transmit
        returns the input itself, not even a copy."""
        vec = RNG.normal(size=64)
        assert WIRE_FP64.transmit(vec) is vec
        assert WIRE_FP64.encode(vec) is vec
        assert WIRE_FP64.lossless
        assert WIRE_FP64.transmit_with_error(vec)[1] == 0.0

    def test_fp32_transmit_is_cast_roundtrip(self):
        vec = RNG.normal(size=257)
        received = WIRE_FP32.transmit(vec)
        np.testing.assert_array_equal(
            received, vec.astype(np.float32).astype(np.float64)
        )
        assert received.dtype == np.float64
        assert not np.array_equal(received, vec)  # genuinely lossy

    def test_cast_error_matches_roundtrip(self):
        vec = RNG.normal(size=100)
        expected = float(
            np.max(np.abs(vec - vec.astype(np.float32).astype(np.float64)))
        )
        assert WIRE_FP32.transmit_with_error(vec)[1] == expected
        assert WIRE_FP16.transmit_with_error(vec)[1] > WIRE_FP32.transmit_with_error(vec)[1]

    def test_nbytes(self):
        assert WIRE_FP64.nbytes(10) == 80
        assert WIRE_FP32.nbytes(10) == 40
        assert WIRE_FP16.nbytes(10) == 20
        with pytest.raises(ValueError):
            WIRE_FP64.nbytes(-1)

    def test_payload_nbytes_default_is_width_times_scalars(self):
        """The payload-aware pricing hook: for fixed-width casts it
        degrades to the classic bytes_per_scalar × scalars law."""
        vec = RNG.normal(size=13)
        assert WIRE_FP64.payload_nbytes(vec) == 13 * 8
        assert WIRE_FP32.payload_nbytes(vec) == 13 * 4
        assert WIRE_FP16.payload_nbytes(vec) == 13 * 2
        assert WIRE_FP64.payload_nbytes(np.zeros((3, 4))) == 12 * 8

    def test_cast_formats_do_not_prefer_delta(self):
        for fmt in (WIRE_FP64, WIRE_FP32, WIRE_FP16):
            assert not fmt.prefer_delta

    def test_delta_shipping_rejects_a_mis_sized_reference(self):
        """A one-element reference used to broadcast against the whole
        payload and return a plausible-looking reconstruction."""
        topk, vec = get_wire_format("topk0.2"), np.arange(10.0)
        for reference in (np.array([1.0]), 1.0, np.ones((10, 1)), np.ones(9)):
            with pytest.raises(ValueError, match="reference shape"):
                topk.transmit_delta_with_error(vec, reference)
        received, err = topk.transmit_delta_with_error(vec, np.ones(10))
        np.testing.assert_array_equal(received, [1, 1, 1, 1, 1, 1, 1, 1, 8, 9])
        assert err == 6.0
        # Only the delta branch has a reference to check: no reference,
        # or a format that ships raw state, ignores the argument's shape.
        assert topk.transmit_delta_with_error(vec, None)[0].shape == (10,)
        assert WIRE_FP32.transmit_delta_with_error(vec, np.array([1.0]))[1] == 0.0

    def test_registry(self):
        assert get_wire_format() is DEFAULT_WIRE
        assert get_wire_format(None) is WIRE_FP64
        assert get_wire_format("fp32") is WIRE_FP32
        assert get_wire_format(WIRE_FP16) is WIRE_FP16
        with pytest.raises(ValueError):
            get_wire_format("int8")
        assert available_wire_formats()[:3] == ["fp64", "fp32", "fp16"]

    def test_quantiser_hook(self):
        """Any WireFormat subclass is registrable and name-addressable."""

        class HalfUlpQuantiser(WireFormat):
            name = "test-quantiser"
            bytes_per_scalar = 1
            lossless = False

            def encode(self, vec):
                return np.round(np.asarray(vec) * 4.0)

            def decode(self, payload):
                return np.asarray(payload, dtype=np.float64) / 4.0

        fmt = register_wire_format(HalfUlpQuantiser())
        try:
            assert get_wire_format("test-quantiser") is fmt
            assert "test-quantiser" in available_wire_formats()
            vec = np.array([0.1, 0.9, -0.3])
            np.testing.assert_allclose(
                fmt.transmit(vec), np.round(vec * 4) / 4
            )
            # The whole stack accepts it wherever a dtype name goes.
            _, stats = ring_allreduce_detailed(
                [RNG.normal(size=8) for _ in range(3)], wire="test-quantiser"
            )
            assert stats.total_bytes == 2 * 2 * 8 * 1
        finally:
            from repro.comm import wire as wire_mod

            wire_mod._REGISTRY.pop("test-quantiser", None)


# ---------------------------------------------------------------------- #
# Unified pricing: 8 B/scalar everywhere on the fp64 wire
# ---------------------------------------------------------------------- #
class TestUnifiedPricing:
    def test_fp64_prices_8_bytes_everywhere(self):
        cfg = _config()
        cluster = cfg.make_cluster()
        # Model wire size.
        assert cluster.model_nbytes == cluster.initial_params.size * 8
        # Network segment granularity.
        assert cluster.network.bytes_per_scalar == 8
        # All-reduce byte accounting.
        k, n = 4, 10
        _, stats = ring_allreduce_detailed(
            [RNG.normal(size=n) for _ in range(k)]
        )
        assert stats.total_bytes == 2 * (k - 1) * n * 8
        # Default NetworkModel granularity matches the default wire.
        assert NetworkModel().bytes_per_scalar == 8

    @pytest.mark.parametrize("wire_dtype,width", [("fp32", 4), ("fp16", 2)])
    def test_narrow_wire_prices_follow(self, wire_dtype, width):
        cfg = _config(wire_dtype=wire_dtype)
        cluster = cfg.make_cluster()
        assert cluster.model_nbytes == cluster.initial_params.size * width
        assert cluster.network.bytes_per_scalar == width
        assert cluster.wire.bytes_per_scalar == width

    def test_cluster_aligns_explicit_network_granularity(self):
        """Segment granularity is not an independent knob: a cluster
        re-aligns a mismatched network to its wire's scalar width."""
        from repro.data import synthetic_cifar10
        from repro.sim.cluster import SimulatedCluster
        from repro.sim.device import DeviceSpec

        train, test = synthetic_cifar10(64, 32, image_size=8, seed=0)
        cluster = SimulatedCluster(
            model_factory=_config().make_model_factory(),
            train_set=train,
            test_set=test,
            specs=[DeviceSpec(device_id=0), DeviceSpec(device_id=1)],
            network=NetworkModel(latency=1e-3, bandwidth=1e6, bytes_per_scalar=8),
            wire="fp32",
        )
        assert cluster.network.bytes_per_scalar == 4
        assert cluster.network.bandwidth == 1e6  # other fields preserved

    def test_wire_halves_comm_volume(self):
        cfg = _config()
        r64 = run_scheme("hadfl", cfg)
        r32 = run_scheme("hadfl", cfg.with_overrides(wire_dtype="fp32"))
        assert r64.total_comm_bytes == 2 * r32.total_comm_bytes
        assert r64.config["wire_dtype"] == "fp64"
        assert r32.config["wire_dtype"] == "fp32"


# ---------------------------------------------------------------------- #
# Cast at every sync boundary
# ---------------------------------------------------------------------- #
class RecordingFp32Wire(CastWireFormat):
    """fp32 wire that records every (sent, received) payload pair."""

    def __init__(self):
        super().__init__("fp32-recording", np.float32)
        self.pairs = []

    def transmit(self, vec):
        received = super().transmit(vec)
        self.pairs.append((np.array(vec, copy=True), received))
        return received


def _recording_cluster(cfg, wire):
    """A canonical cluster built around a caller-supplied wire instance."""
    from repro.optim import SGD
    from repro.sim.cluster import SimulatedCluster

    train, test = cfg.make_data()
    return SimulatedCluster(
        model_factory=cfg.make_model_factory(),
        train_set=train,
        test_set=test,
        specs=cfg.make_specs(),
        batch_size=cfg.batch_size,
        optimizer_factory=lambda arena: SGD(arena, lr=cfg.lr),
        lr_schedule=cfg.make_lr_schedule(),
        network=cfg.make_network(),
        seed=cfg.seed,
        wire=wire,
    )


class TestCastAtBoundaries:
    def test_receiver_sees_fp32_roundtrip_at_every_boundary(self):
        """Acceptance pin: received params equal
        ``sent.astype(np.float32).astype(np.float64)`` of the sent params
        at every sync boundary — initial dispatch, every ring gossip
        segment, and the aggregate broadcast."""
        wire = RecordingFp32Wire()
        cfg = _config()
        cluster = _recording_cluster(cfg, wire)

        # Initial dispatch: every device starts from the cast master.
        expected_initial = cluster.initial_params.astype(np.float32).astype(
            np.float64
        )
        for device in cluster.devices:
            np.testing.assert_array_equal(
                device.get_params(), expected_initial
            )

        trainer = HADFLTrainer(cluster, params=cfg.hadfl_params(), seed=cfg.seed)
        result = trainer.run(target_epochs=cfg.target_epochs)
        assert len(result.rounds) >= 1

        # Every transfer that crossed the wire — dispatch, each ring
        # gossip segment of every sync, each broadcast — round-trips
        # through fp32 exactly.
        assert len(wire.pairs) > len(result.rounds)  # segments + dispatch
        for sent, received in wire.pairs:
            np.testing.assert_array_equal(
                received, sent.astype(np.float32).astype(np.float64)
            )

    def test_hadfl_params_has_no_wire_override(self):
        """The wire is chosen in one place — the cluster."""
        with pytest.raises(TypeError):
            HADFLParams(wire_dtype="fp32")

    def test_grouped_trainer_uses_cluster_wire(self):
        """GroupedHADFLTrainer prices and casts by the cluster's wire."""
        from repro.core.groups import GroupedHADFLTrainer

        cfg = _config(wire_dtype="fp32")
        cluster = cfg.make_cluster()
        trainer = GroupedHADFLTrainer(
            cluster,
            params=HADFLParams(num_selected=1),
            groups=2,
            seed=cfg.seed,
        )
        assert trainer.wire is cluster.wire
        assert trainer.model_nbytes == cluster.initial_params.size * 4
        assert trainer.network.bytes_per_scalar == 4
        expected_initial = cluster.initial_params.astype(np.float32).astype(
            np.float64
        )
        for device in cluster.devices:
            np.testing.assert_array_equal(device.get_params(), expected_initial)
        result = trainer.run(target_epochs=2.0)
        assert result.config["wire_dtype"] == "fp32"
        assert all(
            r.detail.get("wire_dtype") == "fp32" for r in result.rounds
        )

    def test_round_detail_records_cast_error(self):
        result = run_scheme("hadfl", _config(wire_dtype="fp32"))
        errors = [r.detail.get("wire_cast_error") for r in result.rounds]
        assert all(e is not None for e in errors)
        assert max(errors) > 0.0
        assert all(r.detail.get("wire_dtype") == "fp32" for r in result.rounds)

    def test_fp64_detail_records_zero_error(self):
        result = run_scheme("hadfl", _config())
        assert all(
            r.detail.get("wire_cast_error") == 0.0 for r in result.rounds
        )
        assert all(r.detail.get("wire_dtype") == "fp64" for r in result.rounds)
