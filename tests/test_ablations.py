"""HADFL with one design knob varied at a time + regression guards.

Each test runs :func:`run_scheme` with one of the paper's design choices
changed — the selection policy (Sec. III-C), the partial-sync width N_p
(Sec. IV-B), the aggregation period T_sync, the unselected devices' mix
weight (Sec. III-D) — everything else identical.
"""

import numpy as np

from repro.core import HADFLTrainer
from repro.core.selection import make_selection_policy
from repro.experiments import ExperimentConfig, run_scheme


def _tiny_config(**overrides):
    base = dict(
        model="mlp",
        num_train=160,
        num_test=80,
        image_size=8,
        target_epochs=3.0,
        seed=4,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestSelectionAblation:
    def test_runs_all_policies(self):
        config = _tiny_config()
        for name in ("uniform", "worst"):
            policy = make_selection_policy(name, sigma=config.selection_sigma)
            result = run_scheme("hadfl", config, selection=policy)
            assert result.best_accuracy() > 0


class TestNumSelectedAblation:
    def test_selection_width_respected(self):
        for num_selected in (1, 3):
            config = _tiny_config(num_selected=num_selected)
            for record in run_scheme("hadfl", config).rounds:
                assert len(record.selected) == num_selected


class TestOtherSweeps:
    def test_tsync_sweep(self):
        results = {
            tsync: run_scheme("hadfl", _tiny_config(tsync=tsync))
            for tsync in (1, 2)
        }
        # Larger tsync → longer windows → fewer rounds for same epochs.
        assert len(results[2].rounds) <= len(results[1].rounds)

    def test_mix_weight_sweep(self):
        for weight in (0.0, 0.5):
            config = _tiny_config(unselected_mix_weight=weight)
            assert run_scheme("hadfl", config).best_accuracy() > 0


class TestBudgetRegression:
    def test_round_throughput_does_not_collapse(self):
        """Regression guard for the forecast-cap death spiral: per-round
        epoch progress in a steady cluster must not decay over time
        (it once ratcheted from 1.9 epochs/round down to 0.08)."""
        config = _tiny_config(num_train=320, target_epochs=12.0)
        trainer = HADFLTrainer(config.make_cluster(), params=config.hadfl_params())
        result = trainer.run(target_epochs=12.0)
        epochs = result.epochs()
        deltas = np.diff(epochs)
        assert len(deltas) >= 4
        early = deltas[:2].mean()
        late = deltas[-2:].mean()
        assert late > 0.5 * early
