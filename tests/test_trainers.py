"""Unit tests for the three trainers (HADFL, distributed, dec-FedAvg)."""

import numpy as np
import pytest

from repro.baselines import DecentralizedFedAvgTrainer, DistributedTrainer
from repro.core import GroupedHADFLTrainer, HADFLParams, HADFLTrainer
from repro.core.selection import ForcedWorstSelection
from repro.experiments import ExperimentConfig
from repro.sim import FailureInjector, TraceRecorder


def _config(**overrides):
    base = dict(
        model="mlp",
        power_ratio=(3, 3, 1, 1),
        num_train=320,
        num_test=160,
        image_size=8,
        target_epochs=6.0,
        seed=7,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestHADFLTrainer:
    def test_run_produces_rounds_and_improves(self):
        config = _config()
        trainer = HADFLTrainer(config.make_cluster(), params=config.hadfl_params())
        result = trainer.run(target_epochs=config.target_epochs)
        assert result.scheme == "hadfl"
        assert len(result.rounds) >= 2
        assert result.total_epochs >= config.target_epochs
        first_acc = result.rounds[0].test_accuracy
        assert result.best_accuracy() > first_acc

    def test_respects_num_selected(self):
        config = _config(num_selected=2)
        trainer = HADFLTrainer(config.make_cluster(), params=config.hadfl_params())
        result = trainer.run(target_epochs=4)
        for record in result.rounds:
            assert len(record.selected) == 2

    def test_versions_monotone_and_heterogeneous(self):
        config = _config()
        trainer = HADFLTrainer(config.make_cluster(), params=config.hadfl_params())
        result = trainer.run(target_epochs=5)
        last = result.rounds[-1].versions
        # Fast devices (power 3) accumulate strictly more steps than slow.
        assert last[0] > last[2]
        assert last[1] > last[3]
        previous = result.rounds[0].versions
        for key in last:
            assert last[key] >= previous[key]

    def test_final_round_always_evaluated(self):
        config = _config(eval_every=1000)  # would skip all evals
        trainer = HADFLTrainer(config.make_cluster(), params=config.hadfl_params())
        result = trainer.run(target_epochs=3, eval_every=1000)
        assert result.rounds[-1].test_accuracy is not None

    def test_forced_worst_selection_used(self):
        config = _config()
        trainer = HADFLTrainer(
            config.make_cluster(),
            params=config.hadfl_params(),
            selection=ForcedWorstSelection(),
        )
        result = trainer.run(target_epochs=4)
        # Devices 2, 3 are the weakest (power 1) and must always be picked.
        for record in result.rounds[1:]:
            assert record.selected == [2, 3]

    def test_failure_triggers_bypass(self):
        # Device 3 dies mid-run and stays down.  With a 3-member ring the
        # repair protocol must bypass it (a 2-ring degenerates instead).
        injector = FailureInjector()
        injector.fail(3, down_at=4.0)
        config = _config(num_selected=3)
        cluster = config.make_cluster(failure_injector=injector)
        trainer = HADFLTrainer(
            cluster, params=config.hadfl_params(), selection=ForcedWorstSelection()
        )
        result = trainer.run(target_epochs=5)
        assert sum(r.bypasses for r in result.rounds) > 0

    def test_disconnected_device_stops_computing(self):
        injector = FailureInjector()
        injector.fail(2, down_at=3.0)  # dies during the first window
        config = _config()
        cluster = config.make_cluster(failure_injector=injector)
        healthy = _config().make_cluster()
        HADFLTrainer(cluster, params=config.hadfl_params()).run(target_epochs=3)
        HADFLTrainer(healthy, params=config.hadfl_params()).run(target_epochs=3)
        dead = cluster.device_by_id(2)
        alive = healthy.device_by_id(2)
        assert dead.version < alive.version

    def test_model_manager_backups(self):
        config = _config()
        trainer = HADFLTrainer(config.make_cluster(), params=config.hadfl_params())
        trainer.run(target_epochs=3)
        assert len(trainer.coordinator.model_manager) > 0
        latest = trainer.coordinator.model_manager.latest()
        np.testing.assert_allclose(latest.params, trainer.global_params)

    def test_invalid_target_epochs(self):
        config = _config()
        trainer = HADFLTrainer(config.make_cluster())
        with pytest.raises(ValueError):
            trainer.run(target_epochs=0)

    def test_comm_volume_accounted(self):
        config = _config()
        trainer = HADFLTrainer(config.make_cluster(), params=config.hadfl_params())
        trainer.run(target_epochs=3)
        kinds = trainer.volume.bytes_by_kind()
        assert kinds.get("initial_dispatch", 0) > 0
        assert kinds.get("partial_sync", 0) > 0

    def test_trace_records_workflow(self):
        config = _config()
        trace = TraceRecorder()
        trainer = HADFLTrainer(
            config.make_cluster(), params=config.hadfl_params(), trace=trace
        )
        trainer.run(target_epochs=3)
        kinds = trace.kinds()
        assert "negotiation_done" in kinds
        assert "strategy_generated" in kinds
        assert "local_training_done" in kinds


class TestDistributedTrainer:
    def test_devices_stay_synchronised(self):
        config = _config()
        cluster = config.make_cluster()
        trainer = DistributedTrainer(cluster)
        trainer.run(target_epochs=2)
        reference = cluster.devices[0].get_params()
        for device in cluster.devices[1:]:
            np.testing.assert_allclose(device.get_params(), reference)

    def test_equal_versions_across_devices(self):
        config = _config()
        trainer = DistributedTrainer(config.make_cluster())
        result = trainer.run(target_epochs=2)
        versions = set(result.rounds[-1].versions.values())
        assert len(versions) == 1

    def test_straggler_gates_iteration_time(self):
        """Per-iteration time must reflect the slowest device + collective."""
        config = _config()
        cluster = config.make_cluster()
        trainer = DistributedTrainer(cluster)
        result = trainer.run(target_epochs=1)
        iterations = max(d.cycler.batches_per_epoch for d in cluster.devices)
        slowest_step = max(
            s.base_step_time / s.power for s in cluster.specs
        )
        allreduce = cluster.network.ring_allreduce_time(
            cluster.model_nbytes, len(cluster.devices)
        )
        expected = iterations * (slowest_step + allreduce)
        assert result.rounds[0].sim_time == pytest.approx(expected, rel=1e-6)

    def test_slower_on_more_heterogeneous_ratio(self):
        """Table I: distributed training takes longer on [4,2,2,1] than
        [3,3,1,1] because the worst straggler is 4x (vs 3x) slower."""
        t_3311 = DistributedTrainer(
            _config(power_ratio=(3, 3, 1, 1)).make_cluster()
        ).run(target_epochs=2).total_time
        t_4221 = DistributedTrainer(
            _config(power_ratio=(4, 2, 2, 1)).make_cluster()
        ).run(target_epochs=2).total_time
        assert t_4221 > t_3311


class TestDecentralizedFedAvgTrainer:
    def test_uniform_local_steps(self):
        config = _config()
        trainer = DecentralizedFedAvgTrainer(config.make_cluster(), local_steps=5)
        result = trainer.run(target_epochs=2)
        versions = result.rounds[0].versions
        assert len(set(versions.values())) == 1  # same E for every device

    def test_devices_synchronised_after_round(self):
        config = _config()
        cluster = config.make_cluster()
        DecentralizedFedAvgTrainer(cluster).run(target_epochs=2)
        reference = cluster.devices[0].get_params()
        for device in cluster.devices[1:]:
            np.testing.assert_allclose(device.get_params(), reference)

    def test_default_local_steps_is_one_epoch(self):
        config = _config()
        cluster = config.make_cluster()
        trainer = DecentralizedFedAvgTrainer(cluster)
        assert trainer.local_steps == max(
            d.cycler.batches_per_epoch for d in cluster.devices
        )

    def test_fewer_syncs_than_distributed(self):
        config = _config()
        fedavg = DecentralizedFedAvgTrainer(config.make_cluster())
        dist = DistributedTrainer(config.make_cluster())
        r_fed = fedavg.run(target_epochs=2)
        r_dist = dist.run(target_epochs=2)
        assert r_fed.total_comm_bytes < r_dist.total_comm_bytes

    def test_invalid_local_steps(self):
        config = _config()
        with pytest.raises(ValueError):
            DecentralizedFedAvgTrainer(config.make_cluster(), local_steps=0)

    def test_stalls_until_recovery(self):
        injector = FailureInjector()
        injector.fail(0, down_at=0.0, up_at=50.0)
        config = _config()
        cluster = config.make_cluster(failure_injector=injector)
        result = DecentralizedFedAvgTrainer(cluster).run(target_epochs=1)
        assert result.total_time > 50.0  # stalled through the outage

    def test_permanent_failure_raises(self):
        injector = FailureInjector()
        injector.fail(0, down_at=0.0)  # never comes back
        config = _config()
        cluster = config.make_cluster(failure_injector=injector)
        with pytest.raises(RuntimeError, match="disconnected permanently"):
            DecentralizedFedAvgTrainer(cluster).run(target_epochs=1)


class TestGroupedHADFLTrainer:
    def _big_config(self):
        return _config(power_ratio=(3, 3, 1, 1, 4, 2, 2, 1), num_train=640)

    def test_runs_and_improves(self):
        config = self._big_config()
        trainer = GroupedHADFLTrainer(
            config.make_cluster(), params=config.hadfl_params(), groups=2,
            inter_group_period=2,
        )
        result = trainer.run(target_epochs=5)
        assert result.scheme == "hadfl_grouped"
        assert result.best_accuracy() > result.rounds[0].test_accuracy

    def test_explicit_groups(self):
        config = self._big_config()
        trainer = GroupedHADFLTrainer(
            config.make_cluster(),
            groups=[[0, 1, 2, 3], [4, 5, 6, 7]],
        )
        assert trainer.groups == [[0, 1, 2, 3], [4, 5, 6, 7]]

    def test_invalid_groups(self):
        config = self._big_config()
        cluster = config.make_cluster()
        with pytest.raises(ValueError, match="partition"):
            GroupedHADFLTrainer(cluster, groups=[[0, 1], [2, 3]])  # missing ids
        with pytest.raises(ValueError):
            GroupedHADFLTrainer(cluster, groups=0)
        with pytest.raises(ValueError):
            GroupedHADFLTrainer(cluster, groups=2, inter_group_period=0)

    def test_inter_group_sync_aligns_groups(self):
        config = self._big_config()
        trainer = GroupedHADFLTrainer(
            config.make_cluster(), params=config.hadfl_params(), groups=2,
            inter_group_period=1,
        )
        trainer.run(target_epochs=3)
        # After an inter-group sync every round, both group aggregates match.
        np.testing.assert_allclose(
            trainer.members[0].global_params, trainer.members[1].global_params
        )

    def test_rejects_buffered_async(self):
        """Groups run window rounds only; the async mode used to be
        ignored silently."""
        config = _config(power_ratio=(4, 2, 2, 1) * 2, aggregation="buffered_async")
        with pytest.raises(ValueError, match="buffered_async"):
            GroupedHADFLTrainer(
                config.make_cluster(), params=config.hadfl_params(), groups=2
            )

    def test_crashed_device_stops_training(self):
        """A group's burst ends when its device goes down, as in
        HADFLTrainer — it used to train through the whole window."""
        injector = FailureInjector()
        injector.fail(2, down_at=3.0, up_at=float("inf"))
        config = _config(power_ratio=(4, 4, 3, 3, 2, 2, 1, 1), num_train=640)
        cluster = config.make_cluster(failure_injector=injector)
        trainer = GroupedHADFLTrainer(
            cluster, params=config.hadfl_params(), groups=2, seed=config.seed
        )
        result = trainer.run(target_epochs=3)
        assert result.rounds[0].sim_time > 3.0  # the window outlived the crash
        assert cluster.device_by_id(2).busy_until <= 3.0

    def test_chaos_conserves_bytes_and_resyncs_revived_devices(self):
        """Crashes and lossy links on a delta-coded wire: every byte is
        accounted, and a device that missed a broadcast while down is
        densely re-synced on revival (never modelled before)."""
        config = _config(
            power_ratio=(4, 4, 3, 3, 2, 2, 1, 1), num_train=512,
            wire_dtype="topk0.2", chaos_seed=6, failure_rate=0.3,
            mean_downtime=2.0, link_drop_prob=0.2, retry_attempts=2,
        )
        trainer = GroupedHADFLTrainer(
            config.make_cluster(), params=config.hadfl_params(), groups=2,
            seed=config.seed,
        )
        result = trainer.run(target_epochs=config.target_epochs)
        assert result.total_comm_bytes == trainer.volume.total_bytes
        assert result.robustness_summary()["resyncs"] >= 1
        assert trainer.volume.bytes_by_kind()["resync"] > 0

    def test_merge_resyncs_a_device_revived_since_its_group_broadcast(self):
        """Device 6 (group 0) is down at round 0's group broadcast and at
        round 1's start, and back before round 1's inter-group merge: the
        merge re-syncs it densely before mixing, as a broadcast would."""
        injector = FailureInjector()
        injector.fail(6, down_at=2.5, up_at=4.0)
        config = _config(
            power_ratio=(4, 4, 3, 3, 2, 2, 1, 1), num_train=512, wire_dtype="topk0.2"
        )
        trainer = GroupedHADFLTrainer(
            config.make_cluster(failure_injector=injector),
            params=config.hadfl_params(), groups=2, seed=config.seed,
        )
        result = trainer.run(target_epochs=4)
        assert [r.sim_time > 4.0 for r in result.rounds] == [False, True]
        resyncs = [r for r in trainer.volume.records() if r.kind == "resync"]
        assert [(r.time, r.dst) for r in resyncs] == [(result.rounds[1].sim_time, 6)]
        assert [r.detail["resyncs"] for r in result.rounds] == [0, 1]
        assert result.total_comm_bytes == trainer.volume.total_bytes

    def test_ring_sync_crosses_the_clusters_lossy_links(self):
        """The group rings use the cluster's link model and retry policy,
        as HADFLTrainer's ring does: dropped segments are retried, the
        retransmissions are charged, and the round detail reports them."""

        def run(link_drop_prob):
            config = _config(
                power_ratio=(4, 2, 2, 1) * 2, num_train=640, seed=2,
                link_drop_prob=link_drop_prob, chaos_seed=2,
            )
            trainer = GroupedHADFLTrainer(
                config.make_cluster(), params=config.hadfl_params(), groups=2,
                seed=config.seed,
            )
            result = trainer.run(target_epochs=3)
            assert result.total_comm_bytes == trainer.volume.total_bytes
            return result

        clean, lossy = run(0.0), run(0.3)
        assert clean.robustness_summary()["retries"] == 0
        assert lossy.robustness_summary()["retries"] > 0
        assert lossy.robustness_summary()["dropped_messages"] > 0
        assert lossy.total_comm_bytes > clean.total_comm_bytes
