"""Failure injection: device crash windows and slowdown (straggler) faults.

Models the paper's third challenge — "the geographic distribution of
devices ... brings high communication unreliability.  If the system cannot
handle the suddenly disconnected device well, its performance will suffer
a great loss" (Sec. I) — as two fault types:

* **crash windows** — time windows during which a device neither computes
  nor answers messages (:class:`FailureWindow`);
* **slowdown windows** — degraded-rate (straggler) intervals during which
  a device keeps computing and answering, just slower by a factor
  (:class:`SlowdownWindow`).  Distinct from crashes: a straggler still
  participates in synchronisation and never triggers the bypass walk.

Liveness queries bisect a per-device list of merged disjoint intervals
(built lazily, invalidated on insertion), so ``is_alive`` is
``O(log windows)`` rather than a linear scan — the difference matters for
trace-driven availability schedules with thousands of windows.

Link-level faults (message drops, latency jitter, flaps) live in
:mod:`repro.sim.linkfaults`.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

#: Seed for :meth:`FailureInjector.random`'s rng-less fallback — an
#: OS-entropy generator would make identical calls draw different fault
#: schedules, silently breaking the fixed-seed reproducibility contract.
#: In-repo callers always pass an explicit ``rng``.
_FALLBACK_SEED = 0x48AD


@dataclass(frozen=True)
class FailureWindow:
    """A closed-open interval [down_at, up_at) during which a device is dead."""

    device_id: int
    down_at: float
    up_at: float = float("inf")

    def __post_init__(self) -> None:
        if self.down_at < 0:
            raise ValueError(f"down_at must be non-negative, got {self.down_at}")
        if self.up_at <= self.down_at:
            raise ValueError(
                f"up_at ({self.up_at}) must be after down_at ({self.down_at})"
            )

    def covers(self, time: float) -> bool:
        return self.down_at <= time < self.up_at


@dataclass(frozen=True)
class SlowdownWindow:
    """A closed-open interval during which a device computes ``factor``
    times slower than its nominal rate (factor > 1 slows)."""

    device_id: int
    start: float
    end: float
    factor: float

    def __post_init__(self) -> None:
        if self.start < 0:
            raise ValueError(f"start must be non-negative, got {self.start}")
        if self.end <= self.start:
            raise ValueError(f"end ({self.end}) must be after start ({self.start})")
        if self.factor <= 0:
            raise ValueError(f"factor must be positive, got {self.factor}")

    def covers(self, time: float) -> bool:
        return self.start <= time < self.end


class SlowdownDrift:
    """Picklable ``time -> power multiplier`` composing an optional base
    drift with the injector's slowdown windows.

    :class:`~repro.sim.cluster.DeviceSubstrate` installs one per device
    (cluster and population alike) as the spec's ``power_drift``; with
    no active window the multiplier
    is exactly the base drift (or exactly 1.0), so chaos-off step times
    are bitwise identical.
    """

    def __init__(
        self,
        failures: "FailureInjector",
        device_id: int,
        base_drift: Optional[Callable[[float], float]] = None,
    ) -> None:
        self.failures = failures
        self.device_id = device_id
        self.base_drift = base_drift

    def __call__(self, time: float) -> float:
        multiplier = 1.0 if self.base_drift is None else self.base_drift(time)
        return multiplier / self.failures.slowdown_factor(self.device_id, time)


class FailureInjector:
    """Answers "is device d alive (and how slow) at time t?" from windows."""

    def __init__(self, windows: Sequence[FailureWindow] = ()) -> None:
        self._windows: Dict[int, List[FailureWindow]] = {}
        self._slowdowns: Dict[int, List[SlowdownWindow]] = {}
        # Lazily built per-device merged disjoint (down, up) intervals,
        # sorted by start — the bisect substrate of every liveness query.
        self._merged_cache: Dict[int, List[Tuple[float, float]]] = {}
        for window in windows:
            self.add_window(window)

    # ------------------------------------------------------------------ #
    # Crash windows
    # ------------------------------------------------------------------ #
    def add_window(self, window: FailureWindow) -> None:
        self._windows.setdefault(window.device_id, []).append(window)
        self._merged_cache.pop(window.device_id, None)

    def fail(self, device_id: int, down_at: float, up_at: float = float("inf")) -> None:
        """Convenience: schedule a disconnect for ``device_id``."""
        self.add_window(FailureWindow(device_id, down_at, up_at))

    def _merged(self, device_id: int) -> List[Tuple[float, float]]:
        """Sorted, merged, disjoint crash intervals for one device."""
        merged = self._merged_cache.get(device_id)
        if merged is None:
            intervals = sorted(
                (w.down_at, w.up_at) for w in self._windows.get(device_id, ())
            )
            merged = []
            for down, up in intervals:
                if merged and down <= merged[-1][1]:
                    merged[-1] = (merged[-1][0], max(merged[-1][1], up))
                else:
                    merged.append((down, up))
            self._merged_cache[device_id] = merged
        return merged

    def is_alive(self, device_id: int, time: float) -> bool:
        merged = self._merged(device_id)
        if not merged:
            return True
        index = bisect.bisect_right(merged, (time, float("inf"))) - 1
        return not (index >= 0 and merged[index][1] > time)

    def alive_devices(self, device_ids: Sequence[int], time: float) -> List[int]:
        return [d for d in device_ids if self.is_alive(d, time)]

    def next_down_time(self, device_id: int, from_time: float) -> float:
        """Earliest instant at or after ``from_time`` the device is dead.

        Returns ``from_time`` itself when the device is already down, and
        ``inf`` when no failure lies ahead.  Trainers use this to stop a
        device's compute at the moment it disconnects mid-window.
        """
        merged = self._merged(device_id)
        if not merged:
            return float("inf")
        index = bisect.bisect_right(merged, (from_time, float("inf"))) - 1
        if index >= 0 and merged[index][1] > from_time:
            return from_time
        if index + 1 < len(merged):
            return merged[index + 1][0]
        return float("inf")

    def alive_mask(self, device_ids: np.ndarray, time: float) -> np.ndarray:
        """Vectorised :meth:`is_alive` over an id array.

        Cost is ``O(devices_with_windows · log windows)`` plus one
        ``np.isin`` — *not* ``O(population)`` per-device Python calls —
        so population-scale availability checks stay in vector land.
        Devices without any crash window never enter the scan.
        """
        device_ids = np.asarray(device_ids)
        mask = np.ones(device_ids.size, dtype=bool)
        dead = [d for d in self._windows if not self.is_alive(d, time)]
        if dead:
            mask &= ~np.isin(device_ids, dead)
        return mask

    def windows_for(self, device_id: int) -> List[FailureWindow]:
        return list(self._windows.get(device_id, ()))

    # ------------------------------------------------------------------ #
    # Slowdown (straggler) windows
    # ------------------------------------------------------------------ #
    def slow(
        self, device_id: int, start: float, end: float, factor: float
    ) -> None:
        """Schedule a degraded-rate window (``factor`` > 1 slows)."""
        self._slowdowns.setdefault(device_id, []).append(
            SlowdownWindow(device_id, start, end, factor)
        )

    def slowdown_factor(self, device_id: int, time: float) -> float:
        """Compound slowdown at ``time`` (1.0 = full speed; overlapping
        windows multiply)."""
        factor = 1.0
        for window in self._slowdowns.get(device_id, ()):
            if window.covers(time):
                factor *= window.factor
        return factor

    def has_slowdowns(self) -> bool:
        return any(self._slowdowns.values())

    # ------------------------------------------------------------------ #
    @classmethod
    def random(
        cls,
        device_ids: Sequence[int],
        horizon: float,
        failure_rate: float,
        mean_downtime: float,
        rng: Optional[np.random.Generator] = None,
        slowdown_rate: float = 0.0,
        mean_slowdown: float = 5.0,
        slowdown_factor: float = 4.0,
    ) -> "FailureInjector":
        """Poisson faults: each device crashes at ``failure_rate`` per unit
        time (down for an exponential ``mean_downtime``) and, independently,
        enters ``slowdown_factor``-times-degraded straggler windows at
        ``slowdown_rate`` (lasting an exponential ``mean_slowdown``).
        Without an ``rng`` a fixed-seed generator is used, so repeated
        calls draw the same schedule."""
        if failure_rate < 0 or mean_downtime <= 0:
            raise ValueError("failure_rate must be >= 0, mean_downtime > 0")
        if slowdown_rate < 0 or mean_slowdown <= 0 or slowdown_factor <= 0:
            raise ValueError(
                "slowdown_rate must be >= 0, mean_slowdown and "
                "slowdown_factor > 0"
            )
        rng = rng or np.random.default_rng(_FALLBACK_SEED)
        injector = cls()
        for device in device_ids:
            t = 0.0
            while failure_rate > 0:
                t += rng.exponential(1.0 / failure_rate)
                if t >= horizon:
                    break
                downtime = rng.exponential(mean_downtime)
                injector.fail(device, t, t + downtime)
                t += downtime
        for device in device_ids:
            t = 0.0
            while slowdown_rate > 0:
                t += rng.exponential(1.0 / slowdown_rate)
                if t >= horizon:
                    break
                duration = rng.exponential(mean_slowdown)
                injector.slow(device, t, t + duration, slowdown_factor)
                t += duration
        return injector


# ---------------------------------------------------------------------- #
# Population availability models
# ---------------------------------------------------------------------- #
#
# Crash windows (above) enumerate per-device intervals — exact, but the
# schedule itself is O(population).  Availability models answer the same
# "who is reachable at time t?" question *functionally*: a device's
# availability is computed on demand from a hash of its id, so a
# million-device schedule costs nothing to store (at most the hashed
# draws of one registered id array) and a round's mask is a handful of
# vector ops.  The two layers compose — the population
# trainer ANDs the model's mask with ``FailureInjector.alive_mask`` so
# chaos-injected crashes still bite devices the model deems available.

_U64 = np.uint64
_MASK64 = 0xFFFFFFFFFFFFFFFF


def _hash_uniform(device_ids: np.ndarray, salt: int) -> np.ndarray:
    """Deterministic per-device uniforms in ``[0, 1)`` via splitmix64.

    A keyed integer hash, not a Generator: re-derivable for any id
    subset in any order (no stream to advance), independent of
    ``PYTHONHASHSEED``, and vectorised over uint64 arrays (whose
    arithmetic wraps mod 2^64 by construction).
    """
    z = device_ids.astype(_U64, copy=True)
    z += _U64((salt * 0x9E3779B97F4A7C15) & _MASK64)
    z = (z ^ (z >> _U64(30))) * _U64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> _U64(27))) * _U64(0x94D049BB133111EB)
    z ^= z >> _U64(31)
    return (z >> _U64(11)).astype(np.float64) * (1.0 / (1 << 53))


class AvailabilityModel:
    """Base class: ``device available at time t?`` as a pure function.

    Subclasses derive each device's availability from ``(device_id,
    time)`` alone, so any subset of devices can be queried independently
    and a query leaves no state behind — with one exception, made for
    the query a population repeats every round: the hashed per-device
    draws of the id array registered through :meth:`keep_draws_for` are
    kept between queries (8 B per device and draw — 16 B/device for the
    diurnal model, 16 MB at a million devices), so a round re-evaluates
    only what depends on time.  The draws are filled on the first query
    with that array, not at registration; every other id array is
    hashed on the spot, and the model stays O(1) memory when nothing is
    registered.  Masks are bit-identical either way.
    """

    _kept_ids: Optional[np.ndarray] = None
    _kept_draws: Optional[tuple] = None

    def keep_draws_for(self, device_ids: np.ndarray) -> None:
        """Keep the per-device draws of this id array *object* between
        queries (``PopulationSpecs`` registers its shared id array)."""
        self._kept_ids = device_ids
        self._kept_draws = None

    def _draws(self, device_ids: np.ndarray) -> tuple:
        """The time-independent per-device draws of ``device_ids`` — kept
        for the registered id array, derived on the spot for any other."""
        if device_ids is not self._kept_ids:
            return self._derive_draws(np.asarray(device_ids))
        if self._kept_draws is None:
            self._kept_draws = self._derive_draws(device_ids)
        return self._kept_draws

    def _derive_draws(self, device_ids: np.ndarray) -> tuple:
        raise NotImplementedError

    def fraction(self, time: float) -> float:
        """Nominal fraction of the population available at ``time``."""
        raise NotImplementedError

    def available_mask(self, device_ids: np.ndarray, time: float) -> np.ndarray:
        """Boolean mask over ``device_ids``: available at ``time``?"""
        raise NotImplementedError


class AlwaysAvailable(AvailabilityModel):
    """Every device reachable at every instant (the dense-cluster default)."""

    def fraction(self, time: float) -> float:
        return 1.0

    def available_mask(self, device_ids: np.ndarray, time: float) -> np.ndarray:
        return np.ones(np.asarray(device_ids).size, dtype=bool)


class DiurnalAvailability(AvailabilityModel):
    """Sinusoidal day/night availability with per-device phase jitter.

    The population-level availability follows the classic diurnal curve
    (cf. the cross-device FL literature: phones charge overnight)::

        f(t) = low + (high − low) · (0.5 + 0.5·sin(2πt / period))

    Each device holds a fixed hashed uniform ``u_d`` and a hashed phase
    offset ``p_d`` of at most ``phase_spread × period``; it is available
    iff ``u_d < f(t + p_d)``.  Devices with small ``u_d`` are
    almost-always-on, large ``u_d`` almost-always-off, and the band in
    between churns as the threshold sweeps — the participant-churn
    dynamic the heterogeneity surveys identify.  ``u_d`` and ``p_d`` are
    pure functions of ``(device_id, seed)``: nothing is stored per
    device, except for the one id array a population registers
    (:meth:`AvailabilityModel.keep_draws_for`), whose two draws are kept
    so that each round costs the ``sin`` and not two more hash passes —
    and the ``sin`` only for the devices whose level lies in the band the
    phase offsets can reach (:meth:`available_mask`).
    """

    _SALT_LEVEL = 0xD1A1
    _SALT_PHASE = 0xD1A2
    #: Widening of the threshold bounds that decide without a ``sin``.
    _BAND_MARGIN = 1e-9

    def __init__(
        self,
        period: float = 24.0,
        low: float = 0.3,
        high: float = 0.9,
        phase_spread: float = 0.25,
        seed: int = 0,
    ) -> None:
        if period <= 0:
            raise ValueError(f"period must be positive, got {period}")
        if not 0.0 <= low <= high <= 1.0:
            raise ValueError(
                f"need 0 <= low <= high <= 1, got low={low}, high={high}"
            )
        if not 0.0 <= phase_spread <= 1.0:
            raise ValueError(
                f"phase_spread must be in [0, 1], got {phase_spread}"
            )
        self.period = float(period)
        self.low = float(low)
        self.high = float(high)
        self.phase_spread = float(phase_spread)
        self.seed = int(seed)

    def fraction(self, time: float) -> float:
        cycle = 0.5 + 0.5 * np.sin(2.0 * np.pi * time / self.period)
        return float(self.low + (self.high - self.low) * cycle)

    def _derive_draws(self, device_ids: np.ndarray) -> tuple:
        level = _hash_uniform(device_ids, self.seed * 31 + self._SALT_LEVEL)
        phase = _hash_uniform(device_ids, self.seed * 31 + self._SALT_PHASE)
        return level, (phase - 0.5) * self.phase_spread * self.period

    def _threshold(self, time: float, phase: np.ndarray) -> np.ndarray:
        """``f(t + p)`` per phase offset — the one place the ``sin`` runs."""
        cycle = 0.5 + 0.5 * np.sin(2.0 * np.pi * (time + phase) / self.period)
        return self.low + (self.high - self.low) * cycle

    def _threshold_range(self, time: float) -> Optional[Tuple[float, float]]:
        """Bounds on ``f(t + p)`` over every phase offset a device can hold.

        The argument ``2π(t + p)/T`` is computed with rounded operations
        that are each monotone in ``p``, so every device's argument lies in
        the interval computed from the extreme offsets; ``sin`` over it
        is bounded by its endpoints and by ±1 at an interior ``π/2 + kπ``.
        The bounds are widened by ``_BAND_MARGIN``, far above the few-ulp
        error of ``np.sin`` and of the affine map.  ``None`` when the
        argument is too large (or not finite) for that reasoning.
        """
        # The extreme offsets, through the arithmetic of _derive_draws.
        early = (0.0 - 0.5) * self.phase_spread * self.period
        late = (1.0 - 0.5) * self.phase_spread * self.period
        lo_arg = 2.0 * np.pi * (time + early) / self.period
        hi_arg = 2.0 * np.pi * (time + late) / self.period
        if not (abs(lo_arg) < 1e12 and abs(hi_arg) < 1e12):
            return None
        slack = 1e-9 * (1.0 + abs(lo_arg) + abs(hi_arg))
        ends = (math.sin(lo_arg), math.sin(hi_arg))
        sin_lo, sin_hi = min(ends), max(ends)
        for extreme, value in ((0.5 * math.pi, 1.0), (-0.5 * math.pi, -1.0)):
            turns = math.ceil((lo_arg - slack - extreme) / (2.0 * math.pi))
            if extreme + 2.0 * math.pi * turns <= hi_arg + slack:
                sin_lo, sin_hi = min(sin_lo, value), max(sin_hi, value)
        swing = self.high - self.low
        return (
            self.low + swing * (0.5 + 0.5 * sin_lo) - self._BAND_MARGIN,
            self.low + swing * (0.5 + 0.5 * sin_hi) + self._BAND_MARGIN,
        )

    def available_mask(self, device_ids: np.ndarray, time: float) -> np.ndarray:
        """``level < f(t + p)``, with the ``sin`` evaluated only for the
        band of devices whose level lies between the bounds of ``f`` over
        all phase offsets (:meth:`_threshold_range`): below it a device is
        available whatever its phase, above it unavailable."""
        level, phase = self._draws(device_ids)
        bounds = self._threshold_range(time)
        if bounds is None:
            return level < self._threshold(time, phase)
        mask = level < bounds[0]
        band = np.flatnonzero(mask != (level < bounds[1]))
        mask[band] = level.take(band) < self._threshold(time, phase.take(band))
        return mask


def make_availability_model(
    name: str, seed: int = 0, **kwargs: float
) -> AvailabilityModel:
    """Build an availability model by config name (``always``/``diurnal``)."""
    if name == "always":
        return AlwaysAvailable()
    if name == "diurnal":
        return DiurnalAvailability(seed=seed, **kwargs)
    raise KeyError(
        f"unknown availability model {name!r}; choose from ['always', 'diurnal']"
    )
