"""Runtime parameter-version prediction (paper Sec. III-B, Eq. 7).

The runtime supervisor "collects devices' actual parameter version in
each model synchronization round, and predicts the expected model version
in the next round" with Brown's double exponential smoothing::

    v1_j = α v_j + (1-α) v1_{j-1}          (first-order smoothed)
    v2_j = α v1_j + (1-α) v2_{j-1}         (second-order smoothed)
    a_j  = 2 v1_j − v2_j
    b_j  = α/(1−α) (v1_j − v2_j)
    v̂_{j+m} = a_j + b_j · m               (m-step-ahead forecast)

Larger α weights recent observations more ("the larger α, the closer the
predicted value to v_i").  The forecast both tracks drifting device speed
(the trend term b) and feeds the selection function's version estimates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional


@dataclass
class _SmoothingState:
    first: float   # v^(1), first-order exponential smoothing
    second: float  # v^(2), second-order
    last_observation: float
    observations: int = 1


class VersionPredictor:
    """Per-device Brown's linear (double) exponential smoothing."""

    def __init__(self, alpha: float = 0.5):
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {alpha}")
        self.alpha = alpha
        self._state: Dict[int, _SmoothingState] = {}

    def observe(self, device_id: int, version: float) -> None:
        """Record device ``device_id``'s actual version for this round."""
        version = float(version)
        state = self._state.get(device_id)
        if state is None:
            # Standard initialisation: seed both orders with the first
            # observation (zero trend until a second point arrives).
            self._state[device_id] = _SmoothingState(
                first=version, second=version, last_observation=version
            )
            return
        a = self.alpha
        state.first = a * version + (1 - a) * state.first
        state.second = a * state.first + (1 - a) * state.second
        state.last_observation = version
        state.observations += 1

    def predict(self, device_id: int, steps_ahead: int = 1) -> float:
        """Forecast the device's version ``steps_ahead`` rounds from now.

        Unknown devices (no observations yet) forecast 0 — the coordinator
        treats them as fresh and lets the first real round calibrate them.
        """
        if steps_ahead < 0:
            raise ValueError(f"steps_ahead must be non-negative, got {steps_ahead}")
        state = self._state.get(device_id)
        if state is None:
            return 0.0
        a = self.alpha
        intercept = 2 * state.first - state.second
        trend = (a / (1 - a)) * (state.first - state.second)
        return intercept + trend * steps_ahead

    def last_observation(self, device_id: int) -> Optional[float]:
        state = self._state.get(device_id)
        return None if state is None else state.last_observation

    def known_devices(self) -> List[int]:
        return sorted(self._state)
