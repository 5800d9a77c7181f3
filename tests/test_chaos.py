"""Chaos harness: the simulator must survive *any* fault schedule.

The tentpole guarantees pinned here:

* completion — whatever combination of crash windows, straggler
  windows, lossy links and latency jitter fires, a run finishes and its
  accounting invariant (``sum(round bytes) + initial dispatch ==
  accountant total``) holds, retries/handshakes/re-syncs included;
* determinism — a fixed ``chaos_seed`` reproduces the fault schedule
  and therefore the whole trajectory, bit for bit;
* graceful degradation — moderate fault rates cost a bounded amount of
  accuracy, and the ``sync_failure_policy`` knobs behave as documented;
* revival re-sync — a delta-coded (top-k) wire never ships a delta to a
  device whose reference went stale while it was down: the device is
  densely re-synced (and charged for it) first.
"""

import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import HADFLTrainer
from repro.core.trainer import MAX_ROUND_ROLLBACKS
from repro.core.selection import ForcedWorstSelection
from repro.experiments import ExperimentConfig
from repro.sim import FailureInjector, LinkFaultModel, RetryPolicy

sys.path.insert(0, str(Path(__file__).resolve().parent))
from transfer_log import record_transfers  # noqa: E402


def _config(**overrides):
    defaults = dict(
        model="mlp", num_train=96, num_test=48, image_size=8,
        target_epochs=2.0, seed=3,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


def _run(config, **cluster_kwargs):
    selection = cluster_kwargs.pop("selection", None)
    cluster = config.make_cluster(**cluster_kwargs)
    trainer = HADFLTrainer(
        cluster,
        params=config.hadfl_params(),
        selection=selection,
        seed=config.seed,
    )
    result = trainer.run(target_epochs=config.target_epochs)
    return result, trainer


def _assert_invariant(result, trainer):
    by_kind = trainer.volume.bytes_by_kind()
    assert (
        sum(r.comm_bytes for r in result.rounds)
        + by_kind.get("initial_dispatch", 0)
        == trainer.volume.total_bytes
    )


def _trajectory(result, trainer):
    """Everything that must be bitwise reproducible."""
    return (
        trainer.global_params.tobytes(),
        [(r.sim_time, r.comm_bytes, tuple(sorted(r.versions.items())))
         for r in result.rounds],
        result.robustness_summary(),
    )


class TestAnyScheduleCompletes:
    @given(
        chaos_seed=st.integers(min_value=0, max_value=2**31 - 1),
        failure_rate=st.floats(min_value=0.0, max_value=0.15),
        slowdown_rate=st.floats(min_value=0.0, max_value=0.1),
        link_drop=st.floats(min_value=0.0, max_value=0.3),
        link_jitter=st.floats(min_value=0.0, max_value=0.5),
        policy=st.sampled_from(["continue", "skip_round", "fallback_dense"]),
        wire=st.sampled_from(["fp64", "topk0.2"]),
    )
    @settings(max_examples=8, deadline=None)
    def test_run_completes_and_invariant_holds(
        self, chaos_seed, failure_rate, slowdown_rate, link_drop,
        link_jitter, policy, wire,
    ):
        config = _config(
            chaos_seed=chaos_seed,
            failure_rate=failure_rate,
            mean_downtime=1.0,
            slowdown_rate=slowdown_rate,
            slowdown_factor=3.0,
            link_drop_prob=link_drop,
            link_jitter=link_jitter,
            sync_failure_policy=policy,
            wire_dtype=wire,
        )
        result, trainer = _run(config)
        assert len(result.rounds) >= 1
        assert np.all(np.isfinite(trainer.global_params))
        _assert_invariant(result, trainer)
        # Per-round telemetry survives the record layer.
        for record in result.rounds:
            for key in ("retries", "dropped_messages", "bypasses", "resyncs"):
                assert record.detail[key] >= 0


class TestDeterminism:
    def test_fixed_chaos_seed_reproduces_trajectory(self):
        config = _config(
            chaos_seed=11, failure_rate=0.05, mean_downtime=1.0,
            slowdown_rate=0.03, link_drop_prob=0.1, link_jitter=0.2,
            wire_dtype="topk0.2",
        )
        first = _trajectory(*_run(config))
        second = _trajectory(*_run(config))
        assert first == second

    def test_different_chaos_seed_changes_schedule(self):
        kwargs = dict(failure_rate=0.5, mean_downtime=1.0, chaos_horizon=50.0)
        a = _config(chaos_seed=1, **kwargs).make_failure_injector()
        b = _config(chaos_seed=2, **kwargs).make_failure_injector()
        windows = lambda inj: [
            (d, w.down_at, w.up_at)
            for d in range(4) for w in inj.windows_for(d)
        ]
        assert windows(a) != windows(b)

    def test_zero_rate_chaos_is_the_null_config(self):
        """All-zero chaos knobs construct no injector and no link model,
        and the trajectory equals the knob-free config's exactly."""
        chaos = _config(
            failure_rate=0.0, slowdown_rate=0.0,
            link_drop_prob=0.0, link_jitter=0.0,
        )
        assert chaos.make_failure_injector() is None
        assert chaos.make_link_faults() is None
        plain = _config()
        assert _trajectory(*_run(chaos)) == _trajectory(*_run(plain))


class TestGracefulDegradation:
    def test_moderate_faults_cost_bounded_accuracy(self):
        base = dict(num_train=256, num_test=128, target_epochs=4.0, seed=3)
        clean, _ = _run(_config(**base))
        chaotic, trainer = _run(_config(
            **base, chaos_seed=7, failure_rate=0.01, mean_downtime=1.0,
            link_drop_prob=0.05,
        ))
        _assert_invariant(chaotic, trainer)
        assert (
            abs(clean.final_accuracy() - chaotic.final_accuracy()) <= 0.05
        )

    def test_skip_round_rolls_back_then_breaks_livelock(self):
        """With the selected pair's link permanently dark every sync
        fails; under ``skip_round`` the first ``MAX_ROUND_ROLLBACKS``
        windows are rolled back (version counters frozen), then the
        live-lock guard keeps local progress so the run terminates."""
        config = _config(target_epochs=2.0, sync_failure_policy="skip_round")
        faults = LinkFaultModel()
        for i in range(4):  # every pair dark: no selection can sync
            for j in range(i + 1, 4):
                faults.flap(i, j, down_at=0.0)
        result, trainer = _run(
            config, link_faults=faults,
            retry_policy=RetryPolicy(max_attempts=2, base_timeout=0.01),
        )
        _assert_invariant(result, trainer)
        failed = [r for r in result.rounds if r.detail.get("sync_failed")]
        assert len(failed) == len(result.rounds)
        limit = MAX_ROUND_ROLLBACKS
        assert len(failed) > limit, "run never outlived the rollback budget"
        frozen = failed[0].versions
        for record in failed[:limit]:
            assert record.versions == frozen  # rolled back
        assert result.rounds[-1].versions != frozen  # guard kicked in
        assert result.total_epochs >= config.target_epochs

    def test_continue_keeps_training_through_failures(self):
        config = _config(target_epochs=3.0, sync_failure_policy="continue")
        faults = LinkFaultModel()
        faults.flap(2, 3, down_at=0.0)
        result, trainer = _run(
            config, link_faults=faults,
            retry_policy=RetryPolicy(max_attempts=2, base_timeout=0.01),
            selection=ForcedWorstSelection(),
        )
        _assert_invariant(result, trainer)
        assert result.rounds[-1].versions != result.rounds[0].versions

    def test_fallback_dense_redispatches_the_model(self):
        config = _config(
            target_epochs=3.0, sync_failure_policy="fallback_dense",
        )
        faults = LinkFaultModel()
        faults.flap(2, 3, down_at=0.0)
        result, trainer = _run(
            config, link_faults=faults,
            retry_policy=RetryPolicy(max_attempts=2, base_timeout=0.01),
            selection=ForcedWorstSelection(),
        )
        _assert_invariant(result, trainer)
        by_kind = trainer.volume.bytes_by_kind()
        assert by_kind.get("fallback_dense", 0) > 0
        # Dense dispatch is priced full-width: a multiple of 8 B/scalar.
        n = trainer.global_params.size
        assert by_kind["fallback_dense"] % (n * 8) == 0


class TestRevivalResync:
    def _probe_round_times(self, config):
        result, _ = _run(config)
        assert len(result.rounds) >= 2
        return [r.sim_time for r in result.rounds]

    def test_topk_revived_device_densely_resynced_before_mixing(self, monkeypatch):
        """Device 0 sleeps through round 0's broadcast (its delta
        reference goes stale) and revives before round 1: the trainer
        must charge a full-width ``resync`` for it before any further
        delta-coded traffic reaches it."""
        config = _config(
            num_train=192, num_test=64, target_epochs=8.0,
            wire_dtype="topk0.2",
        )
        times = self._probe_round_times(config)
        t0, t1 = times[0], times[1]
        injector = FailureInjector()
        injector.fail(0, down_at=t0 - 1e-6, up_at=t0 + 0.5 * (t1 - t0))
        log = record_transfers(monkeypatch)
        result, trainer = _run(
            config, failure_injector=injector,
            selection=ForcedWorstSelection(),  # 0 is never selected
        )
        _assert_invariant(result, trainer)
        records = log.of(trainer.volume)
        resyncs = [r for r in records if r.kind == "resync" and r.dst == 0]
        assert resyncs, "revived device was never re-synced"
        n = trainer.global_params.size
        for record in resyncs:
            assert record.nbytes == n * 8  # full-width, not top-k priced
        # The re-sync precedes the next delta-coded broadcast to device 0.
        first_resync = next(
            i for i, r in enumerate(records)
            if r.kind == "resync" and r.dst == 0
        )
        later_broadcasts = [
            i for i, r in enumerate(records)
            if r.kind == "broadcast" and r.dst == 0 and r.time > t0
        ]
        assert later_broadcasts and min(later_broadcasts) > first_resync
        assert sum(r.detail["resyncs"] for r in result.rounds) >= 1

    def test_lossless_wire_needs_no_resync(self):
        """fp64 ships absolute parameters — a stale reference is
        harmless, so revival must not charge re-sync traffic."""
        config = _config(
            num_train=192, num_test=64, target_epochs=8.0, wire_dtype="fp64",
        )
        times = self._probe_round_times(config)
        t0, t1 = times[0], times[1]
        injector = FailureInjector()
        injector.fail(0, down_at=t0 - 1e-6, up_at=t0 + 0.5 * (t1 - t0))
        result, trainer = _run(
            config, failure_injector=injector,
            selection=ForcedWorstSelection(),
        )
        _assert_invariant(result, trainer)
        assert "resync" not in trainer.volume.bytes_by_kind()


class TestTelemetryRoundtrip:
    def test_robustness_counters_survive_json_roundtrip(self, tmp_path):
        """Per-round chaos telemetry must survive ``to_dict`` →
        ``io.save_result`` → ``io.load_result`` intact."""
        from repro import io

        config = _config(
            chaos_seed=11, failure_rate=0.05, mean_downtime=1.0,
            link_drop_prob=0.1, wire_dtype="topk0.2",
        )
        result, trainer = _run(config)
        loaded = io.load_result(io.save_result(result, tmp_path / "run.json"))
        assert loaded.robustness_summary() == result.robustness_summary()
        for original, restored in zip(result.rounds, loaded.rounds):
            for key in ("retries", "dropped_messages", "bypasses", "resyncs"):
                assert restored.detail[key] == original.detail[key]
        assert loaded.config.get("accounting") == result.config.get("accounting")
