"""Unit tests for hyperperiod computation and strategy generation."""

import numpy as np
import pytest

from repro.core import StrategyGenerator, hyperperiod
from repro.core.strategy import TrainingStrategy


class TestHyperperiod:
    def test_integer_ratio_lcm(self):
        # Per-epoch times 1.2 and 3.6 (powers 3 and 1): LCM is 3.6.
        assert hyperperiod([1.2, 3.6]) == pytest.approx(3.6)

    def test_paper_fig1_ratio_421(self):
        # Fig. 1's 4:2:1 computing power → epoch times 1, 2, 4 → LCM 4.
        assert hyperperiod([1.0, 2.0, 4.0]) == pytest.approx(4.0)

    def test_coprime_times(self):
        assert hyperperiod([2.0, 3.0], quantum=1.0) == pytest.approx(6.0)

    def test_single_device(self):
        assert hyperperiod([0.7]) == pytest.approx(0.7)

    def test_identical_times(self):
        assert hyperperiod([0.5, 0.5, 0.5]) == pytest.approx(0.5)

    def test_cap_falls_back_to_max(self):
        # Nearly-coprime jittery values explode the LCM; fall back to max.
        times = [1.0001, 1.0003, 0.9997]
        result = hyperperiod(times, quantum=1e-4, max_multiple=16.0)
        assert result == max(times)

    def test_near_coprime_measurements_capped(self):
        # 0.6667s vs 2.0s quantise to 667 vs 2000 — LCM would be 1334s.
        result = hyperperiod([2 / 3, 2.0], quantum=1e-3)
        assert result == pytest.approx(2.0)

    def test_quantisation_tolerates_float_noise(self):
        noisy = [1.2000000001, 3.5999999999]
        assert hyperperiod(noisy, quantum=1e-3) == pytest.approx(3.6)

    def test_validation(self):
        with pytest.raises(ValueError):
            hyperperiod([])
        with pytest.raises(ValueError):
            hyperperiod([1.0], quantum=0)
        with pytest.raises(ValueError):
            hyperperiod([0.0, 1.0])


class TestTrainingStrategy:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrainingStrategy(
                sync_window=0.0, hyperperiod=1.0, local_steps={0: 1},
                expected_versions={0: 1.0},
            )
        with pytest.raises(ValueError):
            TrainingStrategy(
                sync_window=1.0, hyperperiod=1.0, local_steps={0: 0},
                expected_versions={0: 0.0},
            )


class TestStrategyGenerator:
    def test_generate_heterogeneous_budgets(self):
        """Powers 3:1 (epoch times 1.2 vs 3.6, 12 steps/epoch each):
        window 3.6 → fast device budget 36 steps, slow 12."""
        generator = StrategyGenerator(tsync=1)
        strategy = generator.generate(
            calc_times={0: 1.2, 1: 3.6},
            warmup_epochs=1,
            steps_per_epoch={0: 12, 1: 12},
        )
        assert strategy.hyperperiod == pytest.approx(3.6)
        assert strategy.sync_window == pytest.approx(3.6)
        assert strategy.local_steps == {0: 36, 1: 12}
        assert strategy.expected_versions[0] == pytest.approx(36.0)

    def test_budget_proportional_to_power(self):
        generator = StrategyGenerator()
        strategy = generator.generate(
            calc_times={0: 1.0, 1: 2.0, 2: 4.0},
            warmup_epochs=1,
            steps_per_epoch={0: 10, 1: 10, 2: 10},
        )
        steps = strategy.local_steps
        assert steps[0] == 2 * steps[1] == 4 * steps[2]

    def test_tsync_scales_window(self):
        gen1 = StrategyGenerator(tsync=1)
        gen3 = StrategyGenerator(tsync=3)
        args = dict(
            calc_times={0: 1.0, 1: 2.0}, warmup_epochs=1,
            steps_per_epoch={0: 10, 1: 10},
        )
        assert gen3.generate(**args).sync_window == pytest.approx(
            3 * gen1.generate(**args).sync_window
        )

    def test_multi_epoch_warmup_normalised(self):
        generator = StrategyGenerator()
        one = generator.generate({0: 1.0}, 1, {0: 10})
        two = generator.generate({0: 2.0}, 2, {0: 10})
        assert one.sync_window == pytest.approx(two.sync_window)
        assert one.local_steps == two.local_steps

    def test_update_local_steps_applies_forecasts(self):
        generator = StrategyGenerator()
        strategy = generator.generate(
            {0: 1.0, 1: 2.0}, 1, {0: 10, 1: 10}
        )
        updated = generator.update_local_steps(strategy, {0: 15.0, 1: 4.6})
        assert updated.local_steps[0] == 15
        assert updated.local_steps[1] == 5

    def test_update_ignores_degenerate_forecasts(self):
        generator = StrategyGenerator()
        strategy = generator.generate({0: 1.0}, 1, {0: 10})
        original = strategy.local_steps[0]
        updated = generator.update_local_steps(
            strategy, {0: 0.0}
        )
        assert updated.local_steps[0] == original
        updated = generator.update_local_steps(strategy, {0: float("nan")})
        assert updated.local_steps[0] == original

    def test_update_ignores_unknown_devices(self):
        generator = StrategyGenerator()
        strategy = generator.generate({0: 1.0}, 1, {0: 10})
        updated = generator.update_local_steps(strategy, {99: 5.0})
        assert 99 not in updated.local_steps

    def test_make_topology_is_ring_over_selected(self):
        generator = StrategyGenerator()
        ring = generator.make_ring([3, 1, 2], np.random.default_rng(0))
        assert sorted(ring) == [1, 2, 3] and ring[0] == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            StrategyGenerator(tsync=0)
        generator = StrategyGenerator()
        with pytest.raises(ValueError):
            generator.generate({}, 1, {})
        with pytest.raises(ValueError):
            generator.generate({0: 1.0}, 0, {0: 10})
        with pytest.raises(ValueError):
            generator.generate({0: -1.0}, 1, {0: 10})
