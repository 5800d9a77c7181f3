"""Communication-accounting invariants.

Two drift bugs are pinned here:

* ``RoundRecord.comm_bytes`` used to charge a nominal broadcast for every
  unselected device even when no aggregate existed (``aggregated is
  None``) or the receiver was dead at delivery time — while the
  :class:`~repro.comm.volume.CommVolumeAccountant` correctly skipped
  them.  The record is now derived from the accountant's per-round
  delta, so the two can never disagree again.
* ``ring_allreduce_detailed`` used to price every segment at
  ``ceil(n/k)`` scalars, overcounting whenever ``n % k != 0``; bytes now
  come from the actual per-step segment sizes, and the network time
  model prices each step by its largest in-flight segment.
"""

import numpy as np
import pytest

from repro.comm.allreduce import ring_allreduce_detailed
from repro.core import GroupedHADFLTrainer, HADFLTrainer
from repro.core.selection import ForcedWorstSelection
from repro.experiments import ExperimentConfig
from repro.sim import FailureInjector, NetworkModel

RNG = np.random.default_rng(7)


def _config(**overrides):
    defaults = dict(
        model="mlp", num_train=256, num_test=128, image_size=8,
        target_epochs=4.0, seed=3,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


def _run(config, failure_injector=None, selection=None):
    cluster = config.make_cluster(failure_injector=failure_injector)
    trainer = HADFLTrainer(
        cluster, params=config.hadfl_params(), selection=selection,
        seed=config.seed,
    )
    result = trainer.run(target_epochs=config.target_epochs)
    return result, trainer


def _assert_record_accountant_agree(result, trainer):
    """The one invariant: every byte the accountant saw after the initial
    dispatch is attributed to exactly one round record."""
    by_kind = trainer.volume.bytes_by_kind()
    initial_dispatch = by_kind.get("initial_dispatch", 0)
    assert (
        sum(r.comm_bytes for r in result.rounds) + initial_dispatch
        == trainer.volume.total_bytes
    )


def _per_round_sync_and_broadcasts(trainer):
    """Group post-dispatch accountant records into rounds.

    Record order is deterministic: ``initial_dispatch``, then per round
    one ``partial_sync`` followed by that round's ``broadcast`` records.
    """
    rounds = []
    for record in trainer.volume.records():
        if record.kind == "initial_dispatch":
            continue
        if record.kind == "partial_sync":
            rounds.append({"sync": record.nbytes, "broadcasts": 0})
        elif record.kind == "broadcast":
            rounds[-1]["broadcasts"] += 1
    return rounds


class TestRoundRecordInvariant:
    def test_clean_run_record_matches_accountant(self):
        result, trainer = _run(_config())
        assert len(result.rounds) >= 2
        _assert_record_accountant_agree(result, trainer)

    @pytest.mark.parametrize(
        "wire_dtype", ["fp32", "fp16", "int8_sr", "qsgd4", "topk0.01"]
    )
    def test_lossy_wire_record_matches_accountant(self, wire_dtype):
        """The PR-2 invariant holds for every wire dtype — including the
        quantised formats with variable-size (top-k) payloads."""
        result, trainer = _run(_config(wire_dtype=wire_dtype))
        assert len(result.rounds) >= 2
        _assert_record_accountant_agree(result, trainer)

    @pytest.mark.parametrize("wire_dtype", ["fp64", "topk0.01"])
    def test_grouped_record_matches_accountant(self, wire_dtype):
        """The grouped trainer used to record only ``inter_group_sync``
        while its round records also counted the per-group rings and mix
        broadcasts; every byte now goes through the accountant."""
        config = _config(
            power_ratio=(4, 4, 3, 3, 2, 2, 1, 1),
            num_train=512,
            target_epochs=6.0,
            wire_dtype=wire_dtype,
        )
        cluster = config.make_cluster()
        trainer = GroupedHADFLTrainer(
            cluster, params=config.hadfl_params(), groups=2,
            inter_group_period=2, seed=config.seed,
        )
        result = trainer.run(target_epochs=config.target_epochs)
        assert len(result.rounds) >= 2
        _assert_record_accountant_agree(result, trainer)
        by_kind = trainer.volume.bytes_by_kind()
        assert {"partial_sync", "broadcast", "inter_group_sync"} <= set(by_kind)
        assert result.config["accounting"] == trainer.volume.snapshot()

    def test_jittered_run_record_matches_accountant(self):
        result, trainer = _run(_config(jitter=0.15, seed=9, target_epochs=5.0))
        _assert_record_accountant_agree(result, trainer)

    def test_dead_receiver_is_not_charged(self):
        """Device 0 (never selected under forced-worst) drops mid-window:
        the broadcast loop skips it, and comm_bytes must skip it too —
        the old ``sync + M * |unselected|`` formula would not have."""
        failures = FailureInjector()
        failures.fail(0, down_at=3.0, up_at=30.0)
        result, trainer = _run(
            _config(), failure_injector=failures, selection=ForcedWorstSelection()
        )
        _assert_record_accountant_agree(result, trainer)
        model_nbytes = trainer.cluster.model_nbytes
        rounds = _per_round_sync_and_broadcasts(trainer)
        drifted = 0
        for record, accounted in zip(result.rounds, rounds):
            unselected = len(record.versions) - len(record.selected)
            old_formula = accounted["sync"] + model_nbytes * unselected
            actual = accounted["sync"] + model_nbytes * accounted["broadcasts"]
            assert record.comm_bytes == actual
            if accounted["broadcasts"] < unselected:
                drifted += 1
                assert record.comm_bytes < old_formula
        assert drifted >= 1, "no round exercised a skipped broadcast"

    def test_no_aggregate_round_counts_zero_bytes(self):
        """Both forced-worst-selected devices die mid-window: the sync
        has no survivors, no aggregate, no broadcast — the round's
        comm_bytes must be exactly the bytes that moved (zero)."""
        failures = FailureInjector()
        failures.fail(2, down_at=3.0, up_at=30.0)
        failures.fail(3, down_at=3.0, up_at=30.0)
        result, trainer = _run(
            _config(target_epochs=5.0),
            failure_injector=failures,
            selection=ForcedWorstSelection(),
        )
        _assert_record_accountant_agree(result, trainer)
        empty_sync_rounds = [
            r
            for r in result.rounds
            if r.selected and r.comm_bytes == 0 and len(r.versions) > len(r.selected)
        ]
        assert empty_sync_rounds, "no round hit the aggregated-is-None path"


class TestReceiverSideAccounting:
    """``dst`` is aggregated symmetrically to ``src`` — the receiver-side
    pressure figure HADFL's decentralisation claims to remove."""

    def test_sent_received_symmetry_per_record(self):
        from repro.comm.volume import CommVolumeAccountant

        acct = CommVolumeAccountant()
        acct.record(0.0, 100, "broadcast", src=1, dst=2)
        acct.record(1.0, 50, "broadcast", src=1, dst=3)
        acct.record(2.0, 25, "upload", src=2, dst=1)
        sent = {}
        for record in acct.records():
            sent[record.src] = sent.get(record.src, 0) + record.nbytes
        received = acct.bytes_received_by_device()
        assert sent == {1: 150, 2: 25}
        assert received == {2: 100, 3: 50, 1: 25}
        # Every byte with a named src also names a dst here: totals match.
        assert sum(sent.values()) == sum(received.values()) == 175

    def test_trainer_broadcasts_are_received_symmetrically(self):
        result, trainer = _run(_config())
        records = [r for r in trainer.volume.records() if r.kind == "broadcast"]
        assert records, "run produced no broadcasts"
        received = trainer.volume.bytes_received_by_device()
        # Broadcasts are the only dst-carrying records in a clean HADFL
        # run: the receiver-side totals must account for exactly them.
        assert sum(received.values()) == sum(r.nbytes for r in records)
        by_dst = {}
        for r in records:
            by_dst[r.dst] = by_dst.get(r.dst, 0) + r.nbytes
        assert received == by_dst
        # And sender-side symmetry: everything received was sent by a
        # named broadcaster.
        sent = [r.nbytes for r in records if r.src is not None]
        assert sum(sent) == sum(received.values())

    def test_central_fedavg_server_is_the_receive_hotspot(self):
        """Sec. II-B arithmetic: the server receives K·M per round —
        the hotspot figure bytes_received_by_device makes reportable."""
        from repro.baselines.central_fedavg import CentralizedFedAvgTrainer

        config = _config()
        cluster = config.make_cluster()
        trainer = CentralizedFedAvgTrainer(cluster, seed=config.seed)
        result = trainer.run(target_epochs=2.0)
        received = trainer.volume.bytes_received_by_device()
        rounds = len(result.rounds)
        k, m = len(cluster.devices), cluster.model_nbytes
        assert received[trainer.SERVER_ID] == rounds * k * m


class TestRingAllReduceBytes:
    def test_uneven_split_exact_total(self):
        k, n = 4, 10  # segments [3, 3, 2, 2]
        vectors = [RNG.normal(size=n) for _ in range(k)]
        result, stats = ring_allreduce_detailed(vectors)
        np.testing.assert_allclose(result, np.mean(vectors, axis=0), atol=1e-12)
        # Each of the 2(k-1) steps moves the whole vector exactly once
        # across the ring: no ceil inflation.  The default fp64 wire
        # prices 8 B/scalar.
        assert stats.total_bytes == 2 * (k - 1) * n * 8
        assert stats.bytes_sent_by_node == (120, 128, 120, 112)
        assert sum(stats.bytes_sent_by_node) == stats.total_bytes
        assert stats.bytes_sent_per_node == max(stats.bytes_sent_by_node)
        # The old per-segment ceil pricing overcounted this case.
        old_total = 2 * (k - 1) * int(np.ceil(n / k)) * 8 * k
        assert stats.total_bytes < old_total

    @pytest.mark.parametrize("k,n", [(3, 7), (4, 10), (5, 2), (6, 33), (7, 100)])
    def test_total_is_exactly_two_vector_sweeps(self, k, n):
        vectors = [RNG.normal(size=n) for _ in range(k)]
        _, stats = ring_allreduce_detailed(vectors)
        assert stats.total_bytes == 2 * (k - 1) * n * 8
        assert sum(stats.bytes_sent_by_node) == stats.total_bytes

    @pytest.mark.parametrize(
        "wire,width", [("fp64", 8), ("fp32", 4), ("fp16", 2)]
    )
    def test_byte_width_follows_wire_format(self, wire, width):
        """The wire format is the single source of scalar width."""
        k, n = 4, 10
        vectors = [RNG.normal(size=n) for _ in range(k)]
        _, stats = ring_allreduce_detailed(vectors, wire=wire)
        assert stats.total_bytes == 2 * (k - 1) * n * width

    def test_divisible_split_matches_uniform_formula(self):
        k, n = 4, 100
        vectors = [RNG.normal(size=n) for _ in range(k)]
        _, stats = ring_allreduce_detailed(vectors)
        per_node = 2 * (k - 1) * (n // k) * 8
        assert stats.bytes_sent_by_node == (per_node,) * k
        assert stats.bytes_sent_per_node == per_node

    def test_time_model_prices_largest_segment(self):
        net = NetworkModel(latency=0.0, bandwidth=1.0)
        assert net.bytes_per_scalar == 8  # fp64 wire granularity
        # 10 scalars (80 B) over 4 nodes: the largest segment holds
        # ceil(10/4) = 3 scalars = 24 B and gates each of the 6 steps.
        assert net.ring_allreduce_time(80, 4) == pytest.approx(2 * 3 * 24)
        # Evenly divisible payloads keep the classic n/K pricing.
        assert net.ring_allreduce_time(800, 4) == pytest.approx(2 * 3 * 200)

    def test_time_model_granularity_follows_wire(self):
        # An fp32-wire network splits the same 10 scalars at 4 B each.
        net = NetworkModel(latency=0.0, bandwidth=1.0, bytes_per_scalar=4)
        assert net.ring_allreduce_time(40, 4) == pytest.approx(2 * 3 * 12)


class TestControlByteAccounting:
    """Satellite of the chaos layer: repair control traffic (handshakes,
    warnings) is pinned byte-for-byte and survives the round invariant."""

    def test_paper_example_bytes_pinned(self):
        """Fig. 2(b): one bypass costs exactly one handshake+warning pair
        (2 x CONTROL_MESSAGE_BYTES) plus one repair resend segment on top
        of the surviving ring's gossip bytes."""
        from repro.comm import CONTROL_MESSAGE_BYTES, FaultTolerantRingSync
        from repro.sim import NetworkModel, Simulator

        net = NetworkModel(latency=1e-3, bandwidth=1e8)
        payload = 40_000
        vectors = {i: np.full(10, float(i)) for i in range(4)}
        injector = FailureInjector()
        injector.fail(2, down_at=0.0)
        repaired = FaultTolerantRingSync(net).run(
            Simulator(), [0, 1, 2, 3], vectors,
            lambda d, t: injector.is_alive(d, t), payload,
        )
        healthy = FaultTolerantRingSync(net).run(
            Simulator(), [0, 1, 3], {d: vectors[d] for d in (0, 1, 3)},
            lambda d, t: True, payload,
        )
        seg_bytes = int(np.ceil(payload / 3))  # 3 devices alive at start
        assert repaired.control_bytes == 2 * CONTROL_MESSAGE_BYTES
        assert (
            repaired.bytes_sent
            == healthy.bytes_sent + seg_bytes + 2 * CONTROL_MESSAGE_BYTES
        )

    def test_failed_syncs_charge_attempted_bytes(self):
        """Every sync fails (the selected pair's link is permanently
        dark): rounds still charge the attempted payload + control bytes
        and the invariant keeps holding."""
        from repro.sim import LinkFaultModel, RetryPolicy

        config = _config(target_epochs=3.0)
        faults = LinkFaultModel()
        faults.flap(2, 3, down_at=0.0)  # symmetric: the pair can't talk
        cluster = config.make_cluster(
            link_faults=faults,
            retry_policy=RetryPolicy(max_attempts=2, base_timeout=0.01),
        )
        trainer = HADFLTrainer(
            cluster, params=config.hadfl_params(),
            selection=ForcedWorstSelection(), seed=config.seed,
        )
        result = trainer.run(target_epochs=config.target_epochs)
        _assert_record_accountant_agree(result, trainer)
        failed = [r for r in result.rounds if r.detail.get("sync_failed")]
        assert failed, "no round hit the zero-survivor path"
        for record in failed:
            assert record.comm_bytes > 0  # attempted traffic is real
        assert result.robustness_summary()["failed_syncs"] == len(failed)

    def test_chaos_kinds_are_closed_set(self):
        """Whatever faults fire, every accounted byte belongs to a known
        traffic kind — nothing leaks in unlabelled."""
        config = _config(
            target_epochs=3.0, wire_dtype="topk0.2",
            failure_rate=0.05, mean_downtime=2.0,
            link_drop_prob=0.1, chaos_seed=5,
        )
        cluster = config.make_cluster()
        trainer = HADFLTrainer(
            cluster, params=config.hadfl_params(), seed=config.seed
        )
        result = trainer.run(target_epochs=config.target_epochs)
        _assert_record_accountant_agree(result, trainer)
        assert set(trainer.volume.bytes_by_kind()) <= {
            "initial_dispatch", "partial_sync", "broadcast",
            "resync", "fallback_dense",
        }
