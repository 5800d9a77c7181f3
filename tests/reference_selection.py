"""Reference participant draw and diurnal mask: O(population) per round
(test-only).

These are ``repro.core.selection.sample_participants`` and
``repro.sim.failures.DiurnalAvailability``'s masks as they were
written before the per-round work began to scale with participants:
Eq. 8 scores and a Gumbel draw for every available device, a ``sin``
for every device.  They define the bits — which devices are picked,
where the generator stream ends, which devices are available — the
production code must reproduce, and are compared against it by
``tests/property/test_property_selection.py`` and the count / perf
tests in ``tests/test_hotpath_perf.py``.
"""

import numpy as np

from repro.core.selection import gaussian_quartile_scores
from repro.sim.failures import DiurnalAvailability, _hash_uniform


def sample_participants_reference(
    values: np.ndarray,
    count: int,
    rng: np.random.Generator,
    sigma: float = 1.0,
) -> np.ndarray:
    """``sample_participants`` as it was written before the uniform draw."""
    values = np.asarray(values, dtype=float)
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    count = min(count, values.size)
    probs = gaussian_quartile_scores(values, sigma)
    with np.errstate(divide="ignore"):
        keys = np.log(probs) + rng.gumbel(size=probs.size)
    if count == probs.size:
        return np.arange(probs.size, dtype=np.int64)
    top = np.argpartition(keys, -count)[-count:]
    return np.sort(top.astype(np.int64, copy=False))


def threshold_mask_reference(
    model: DiurnalAvailability, level: np.ndarray, phase: np.ndarray, time: float
) -> np.ndarray:
    """``level < f(t + phase)`` with the ``sin`` of every device."""
    cycle = 0.5 + 0.5 * np.sin(2.0 * np.pi * (time + phase) / model.period)
    return level < model.low + (model.high - model.low) * cycle


def available_mask_reference(
    model: DiurnalAvailability, device_ids: np.ndarray, time: float
) -> np.ndarray:
    """``DiurnalAvailability.available_mask`` as it was written before the
    band: both draws hashed for every device, the ``sin`` of every
    device."""
    device_ids = np.asarray(device_ids)
    salt = model.seed * 31
    level = _hash_uniform(device_ids, salt + model._SALT_LEVEL)
    phase = _hash_uniform(device_ids, salt + model._SALT_PHASE)
    phase = (phase - 0.5) * model.phase_spread * model.period
    return threshold_mask_reference(model, level, phase, time)
