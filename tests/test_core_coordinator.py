"""Unit tests for the Coordinator and ModelManager."""

import numpy as np
import pytest

from repro.core import Coordinator, HADFLParams, ModelManager
from repro.core.selection import ForcedWorstSelection
from repro.sim import FailureInjector


def _coordinator(**param_overrides):
    params = HADFLParams(**param_overrides)
    return Coordinator(params, seed=0)


class TestHADFLParams:
    def test_defaults_valid(self):
        HADFLParams()

    @pytest.mark.parametrize(
        "field,value",
        [
            ("tsync", 0),
            ("num_selected", 0),
            ("smoothing_alpha", 0.0),
            ("smoothing_alpha", 1.0),
            ("selection_sigma", 0.0),
            ("selection_sigma", float("nan")),
            ("staleness_exponent", -1.0),
            ("staleness_exponent", float("nan")),
            ("selection", "bogus"),
            ("sync_failure_policy", "bogus"),
            ("unselected_mix_weight", 1.5),
            ("warmup_epochs", -1),
            ("warmup_epochs", 0),
        ],
    )
    def test_invalid_fields(self, field, value):
        with pytest.raises(ValueError):
            HADFLParams(**{field: value})


class TestModelManager:
    def test_backup_and_latest(self):
        manager = ModelManager(keep_last=3)
        for index in range(5):
            manager.backup(index, float(index), np.full(4, index))
        assert len(manager) == 3
        assert manager.latest().round_index == 4
        np.testing.assert_allclose(manager.latest().params, np.full(4, 4))

    def test_backup_copies_params(self):
        manager = ModelManager()
        params = np.zeros(3)
        manager.backup(0, 0.0, params)
        params[:] = 99.0
        np.testing.assert_allclose(manager.latest().params, np.zeros(3))

    def test_snapshot_at_round(self):
        manager = ModelManager(keep_last=10)
        manager.backup(0, 0.0, np.zeros(2))
        manager.backup(1, 1.0, np.ones(2))
        assert manager.snapshot_at_round(1).sim_time == 1.0
        assert manager.snapshot_at_round(7) is None

    def test_invalid_keep_last(self):
        with pytest.raises(ValueError):
            ModelManager(keep_last=0)


class TestLiveness:
    def test_filters_dead_devices(self):
        failures = FailureInjector()
        failures.fail(1, down_at=0.0, up_at=10.0)
        coordinator = Coordinator(HADFLParams(), failures=failures)
        assert coordinator.available_devices([0, 1, 2], 5.0) == [0, 2]
        assert coordinator.available_devices([0, 1, 2], 15.0) == [0, 1, 2]


class TestVersionTracking:
    def test_estimates_before_any_observation_use_strategy(self):
        coordinator = _coordinator()
        coordinator.negotiate({0: 1.0, 1: 2.0}, {0: 10, 1: 10})
        estimates = coordinator.version_estimates([0, 1])
        assert estimates[0] == pytest.approx(
            coordinator.strategy.expected_versions[0]
        )

    def test_estimates_track_cumulative_plus_increment(self):
        coordinator = _coordinator()
        coordinator.negotiate({0: 1.0}, {0: 10})
        coordinator.record_versions({0: 20})
        coordinator.record_versions({0: 40})  # steady 20-step increments
        estimate = coordinator.version_estimates([0])[0]
        assert estimate == pytest.approx(60.0, rel=0.05)

    def test_increments_fed_to_predictor(self):
        coordinator = _coordinator()
        coordinator.record_versions({0: 10})
        coordinator.record_versions({0: 30})
        # Increments were 10 then 20; last observation is 20, not 30.
        assert coordinator.predictor.last_observation(0) == 20.0

    def test_unobserved_device_keeps_its_negotiated_estimate(self):
        """A strategy update forecasts only observed devices; one never
        observed is still estimated at its negotiation-time expectation."""
        coordinator = _coordinator()
        coordinator.negotiate({0: 1.0, 1: 2.0}, {0: 10, 1: 10})
        negotiated = coordinator.strategy.expected_versions[1]
        for version in (20, 40, 60):
            coordinator.record_versions({0: version})
        coordinator.update_strategy()
        assert coordinator.version_estimates([1])[1] == negotiated
        assert coordinator.version_estimates([0])[0] == pytest.approx(80.0)

    def test_update_strategy_uses_forecast_increments(self):
        coordinator = _coordinator()
        coordinator.negotiate({0: 1.0}, {0: 10})
        for version in (20, 40, 60):
            coordinator.record_versions({0: version})
        strategy = coordinator.update_strategy()
        assert strategy.local_steps[0] == pytest.approx(20, abs=2)

    def test_update_strategy_noop_when_adaptation_disabled(self):
        coordinator = _coordinator(adapt_local_steps=False)
        coordinator.negotiate({0: 1.0}, {0: 10})
        before = dict(coordinator.strategy.local_steps)
        coordinator.record_versions({0: 3})
        assert coordinator.update_strategy().local_steps == before

    def test_update_strategy_requires_negotiation(self):
        with pytest.raises(RuntimeError):
            _coordinator().update_strategy()


class TestSelectionIntegration:
    def test_select_devices_respects_np(self):
        coordinator = _coordinator(num_selected=2)
        coordinator.negotiate(
            {0: 1.0, 1: 1.0, 2: 3.0, 3: 3.0}, {i: 10 for i in range(4)}
        )
        selected = coordinator.select_devices([0, 1, 2, 3])
        assert len(selected) == 2

    def test_select_devices_empty_candidates(self):
        assert _coordinator().select_devices([]) == []

    def test_custom_selection_policy_injected(self):
        coordinator = Coordinator(
            HADFLParams(num_selected=2), selection=ForcedWorstSelection()
        )
        coordinator.negotiate(
            {0: 1.0, 1: 2.0, 2: 4.0}, {i: 10 for i in range(3)}
        )
        # Expected versions: device 0 fastest. Forced-worst must pick the
        # two slowest (2 then 1).
        assert coordinator.select_devices([0, 1, 2]) == [1, 2]

    def test_topology_over_selection(self):
        coordinator = _coordinator(num_selected=3)
        ring = coordinator.make_ring([0, 1, 2])
        assert sorted(ring) == [0, 1, 2] and ring[0] == 0
