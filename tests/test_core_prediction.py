"""Unit tests for the version predictor (Eq. 7, Brown's smoothing)."""

import numpy as np
import pytest

from repro.core import VersionPredictor


def _trend(predictor, device_id):
    """Eq. 7's b term, the per-round increment: one step of the forecast."""
    return predictor.predict(device_id, 2) - predictor.predict(device_id, 1)


class TestInitialisation:
    def test_invalid_alpha(self):
        for alpha in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError):
                VersionPredictor(alpha=alpha)

    def test_unknown_device_predicts_zero(self):
        assert VersionPredictor().predict(42) == 0.0

    def test_first_observation_is_forecast(self):
        # With v1 = v2 = v, a = v and b = 0, so the forecast equals v.
        predictor = VersionPredictor(alpha=0.5)
        predictor.observe(0, 10.0)
        assert predictor.predict(0) == pytest.approx(10.0)
        assert _trend(predictor, 0) == 0.0


class TestRecurrence:
    def test_matches_hand_computed_eq7(self):
        """Pin the exact Eq. 7 recurrence for alpha=0.5, obs 10 then 20."""
        predictor = VersionPredictor(alpha=0.5)
        predictor.observe(0, 10.0)   # v1 = v2 = 10
        predictor.observe(0, 20.0)
        # v1 = .5*20 + .5*10 = 15 ; v2 = .5*15 + .5*10 = 12.5
        # a = 2*15 - 12.5 = 17.5 ; b = (0.5/0.5)*(15-12.5) = 2.5
        assert predictor.predict(0, steps_ahead=1) == pytest.approx(20.0)
        assert predictor.predict(0, steps_ahead=2) == pytest.approx(22.5)
        assert _trend(predictor, 0) == pytest.approx(2.5)

    def test_constant_series_converges_to_constant(self):
        predictor = VersionPredictor(alpha=0.3)
        for _ in range(50):
            predictor.observe(1, 36.0)
        assert predictor.predict(1) == pytest.approx(36.0, abs=1e-6)
        assert _trend(predictor, 1) == pytest.approx(0.0, abs=1e-6)

    def test_linear_series_trend_converges_to_slope(self):
        predictor = VersionPredictor(alpha=0.5)
        for j in range(200):
            predictor.observe(0, 5.0 * j)
        assert _trend(predictor, 0) == pytest.approx(5.0, rel=1e-3)
        # One-step forecast tracks the next point.
        assert predictor.predict(0, 1) == pytest.approx(5.0 * 200, rel=1e-2)

    def test_larger_alpha_tracks_change_faster(self):
        """After a speed change persists a few rounds, a high-α predictor
        has converged to the new level while a low-α one still lags —
        "the larger α, the closer the predicted value to v_i" (III-B)."""
        slow = VersionPredictor(alpha=0.1)
        fast = VersionPredictor(alpha=0.9)
        for predictor in (slow, fast):
            for _ in range(20):
                predictor.observe(0, 10.0)
            for _ in range(3):
                predictor.observe(0, 50.0)  # new level persists
        assert abs(fast.predict(0) - 50.0) < abs(slow.predict(0) - 50.0)

    def test_steps_ahead_scaling(self):
        predictor = VersionPredictor(alpha=0.5)
        predictor.observe(0, 0.0)
        predictor.observe(0, 10.0)
        one = predictor.predict(0, 1)
        three = predictor.predict(0, 3)
        assert three - one == pytest.approx(2 * _trend(predictor, 0))

    def test_negative_steps_ahead_rejected(self):
        predictor = VersionPredictor()
        with pytest.raises(ValueError):
            predictor.predict(0, steps_ahead=-1)


class TestBookkeeping:
    def test_known_devices_sorted(self):
        predictor = VersionPredictor()
        predictor.observe(3, 1.0)
        predictor.observe(1, 1.0)
        assert predictor.known_devices() == [1, 3]

    def test_last_observation(self):
        predictor = VersionPredictor()
        assert predictor.last_observation(0) is None
        predictor.observe(0, 4.0)
        predictor.observe(0, 9.0)
        assert predictor.last_observation(0) == 9.0
