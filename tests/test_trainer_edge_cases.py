"""Edge-case coverage for trainers: jitter, momentum, extreme N_p, tsync."""

import numpy as np
import pytest

from repro.core import GroupedHADFLTrainer, HADFLParams, HADFLTrainer
from repro.experiments import ExperimentConfig, run_scheme
from repro.optim import SGD


def _config(**overrides):
    base = dict(
        model="mlp", num_train=320, num_test=160, image_size=8,
        target_epochs=6.0, seed=17,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestJitter:
    def test_hadfl_completes_under_step_jitter(self):
        config = _config(jitter=0.2)
        result = run_scheme("hadfl", config)
        assert result.total_epochs >= config.target_epochs
        assert result.best_accuracy() > 0.4

    def test_jitter_varies_versions_across_rounds(self):
        config = _config(jitter=0.2)
        result = run_scheme("hadfl", config)
        # Per-round increments of device 0 should not be all identical.
        versions = [r.versions.get(0) for r in result.rounds if 0 in r.versions]
        increments = np.diff(versions)
        assert len(set(increments.tolist())) > 1

    def test_baselines_complete_under_jitter(self):
        config = _config(jitter=0.2, target_epochs=3.0)
        for scheme in ("distributed", "decentralized_fedavg"):
            result = run_scheme(scheme, config)
            assert result.total_epochs >= 3.0


class TestOptimizerVariants:
    def test_hadfl_with_momentum(self):
        config = _config(momentum=0.9, lr=0.01)
        result = run_scheme("hadfl", config)
        assert result.best_accuracy() > 0.4

    def test_hadfl_with_weight_decay(self):
        config = _config(weight_decay=1e-4)
        result = run_scheme("hadfl", config)
        assert result.best_accuracy() > 0.4


class TestSelectionWidthExtremes:
    def test_full_participation(self):
        """N_p = K: every device aggregates every round (no broadcast)."""
        config = _config(num_selected=4)
        result = run_scheme("hadfl", config)
        for record in result.rounds:
            assert len(record.selected) == 4
        assert result.best_accuracy() > 0.5

    def test_single_device_sync(self):
        """N_p = 1 degenerates to broadcast-from-one; still trains."""
        config = _config(num_selected=1)
        result = run_scheme("hadfl", config)
        for record in result.rounds:
            assert len(record.selected) == 1
        assert result.best_accuracy() > 0.4


class TestTsync:
    def test_larger_tsync_stretches_rounds(self):
        r1 = run_scheme("hadfl", _config(tsync=1))
        r2 = run_scheme("hadfl", _config(tsync=2))

        def median_round_length(result):
            times = result.times()
            return float(np.median(np.diff(times))) if times.size > 1 else 0.0

        assert median_round_length(r2) > 1.5 * median_round_length(r1)

    def test_larger_tsync_fewer_rounds_for_same_epochs(self):
        r1 = run_scheme("hadfl", _config(tsync=1))
        r2 = run_scheme("hadfl", _config(tsync=2))
        assert len(r2.rounds) < len(r1.rounds)


class TestEvalCadence:
    def test_eval_every_skips_intermediate_rounds(self):
        config = _config(eval_every=3, target_epochs=8.0)
        result = run_scheme("hadfl", config)
        evaluated = [r for r in result.rounds if r.test_accuracy is not None]
        assert len(evaluated) < len(result.rounds)
        # Times still strictly increase across all rounds.
        times = result.times()
        assert (np.diff(times) > 0).all()


class TestSingleDeviceCluster:
    def test_hadfl_degenerates_gracefully(self):
        """One device: no ring, no broadcast — just local training."""
        config = _config(power_ratio=(1,), num_selected=1)
        result = run_scheme("hadfl", config)
        assert result.best_accuracy() > 0.4

    def test_distributed_single_device(self):
        config = _config(power_ratio=(1,), num_selected=1, target_epochs=2.0)
        result = run_scheme("distributed", config)
        assert result.total_epochs >= 2.0


class TestWarmupBehaviour:
    def test_warmup_lr_applied_during_negotiation(self):
        config = _config(warmup_epochs=1, warmup_lr=1e-4, lr=0.05)
        cluster = config.make_cluster()
        trainer = HADFLTrainer(cluster, params=config.hadfl_params(), seed=17)
        trainer._negotiate()
        # After exactly one warm-up epoch the device lr is still ramping.
        assert cluster.devices[0].optimizer.lr < 0.05

    def test_zero_warmup_epochs_still_measures(self):
        """warmup_epochs=0 is clamped to one measurement epoch."""
        config = _config(warmup_epochs=0)
        result = run_scheme("hadfl", config)
        assert result.total_epochs >= config.target_epochs

    @pytest.mark.parametrize("grouped", [False, True])
    def test_target_met_by_warmup_still_runs_a_round(self, grouped):
        """Regression: the one-epoch warm-up reaches ``target_epochs=1``
        before the round loop, which then recorded no round and no
        accuracy (``repro table1 --epochs 1`` crashed on it)."""
        config = _config(num_train=128, num_test=64)
        cluster = config.make_cluster()
        if grouped:
            trainer = GroupedHADFLTrainer(cluster, params=config.hadfl_params())
        else:
            trainer = HADFLTrainer(cluster, params=config.hadfl_params())
        result = trainer.run(target_epochs=1.0)
        assert len(result.rounds) == 1
        assert result.rounds[-1].test_accuracy is not None
