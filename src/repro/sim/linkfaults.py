"""Link-level fault injection and reliable (retry/backoff) delivery.

:class:`~repro.sim.failures.FailureInjector` models *device* faults —
crash windows and compute slowdowns.  This module models the *links*
between devices, the other half of the paper's third challenge ("the
geographic distribution of devices ... brings high communication
unreliability", Sec. I):

* :class:`LinkFaultModel` — per-link message-drop probability,
  multiplicative latency jitter, and flap windows (intervals during
  which a directed link delivers nothing at all).
* :class:`RetryPolicy` — timeout + exponential-backoff retransmission
  knobs for simulated transfers.
* :class:`ReliableDelivery` — the envelope every message-level transfer
  crosses: attempts a send, detects the drop by timeout, backs off and
  retries up to ``max_attempts``.  Every attempt costs wire bytes, so
  callers can charge retries through the
  :class:`~repro.comm.volume.CommVolumeAccountant` and the accounting
  invariant keeps covering repair traffic.

Determinism
-----------
Drop and jitter draws come from *per-directed-link* RNG streams seeded
by ``(model seed, src, dst)``.  The discrete-event engine executes
events in a deterministic order, so each link's stream is consumed in a
deterministic order and fixed-seed trajectories are reproducible.  With
no faults configured (``LinkFaultModel.active`` false, or no model at
all) :meth:`ReliableDelivery.send` degrades to exactly one attempt
priced at ``network.p2p_time_between`` — bitwise identical to the
pre-chaos simulator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.sim.network import NetworkModel


@dataclass(frozen=True)
class LinkFlapWindow:
    """A closed-open interval ``[down_at, up_at)`` during which the
    directed link ``src -> dst`` delivers nothing."""

    src: int
    dst: int
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


class LinkFaultModel:
    """Per-link unreliability: drops, latency jitter, flap windows.

    Parameters
    ----------
    drop_prob:
        Default probability that any single message attempt is lost.
    latency_jitter:
        Sigma of multiplicative lognormal noise on per-message transfer
        time (0 = deterministic latency).
    seed:
        Master seed of the per-link RNG streams.
    link_drop_prob:
        Optional ``(src, dst) -> probability`` overrides for specific
        directed links.
    """

    def __init__(
        self,
        drop_prob: float = 0.0,
        latency_jitter: float = 0.0,
        seed: int = 0,
        link_drop_prob: Optional[Dict[Tuple[int, int], float]] = None,
    ) -> None:
        if not 0.0 <= drop_prob < 1.0:
            raise ValueError(f"drop_prob must be in [0, 1), got {drop_prob}")
        if latency_jitter < 0:
            raise ValueError(
                f"latency_jitter must be non-negative, got {latency_jitter}"
            )
        self.drop_prob = float(drop_prob)
        self.latency_jitter = float(latency_jitter)
        self.seed = int(seed)
        self.link_drop_prob: Dict[Tuple[int, int], float] = dict(
            link_drop_prob or {}
        )
        for link, prob in self.link_drop_prob.items():
            if not 0.0 <= prob < 1.0:
                raise ValueError(f"drop prob for link {link} must be in [0, 1)")
        self._flaps: Dict[Tuple[int, int], List[LinkFlapWindow]] = {}
        self._streams: Dict[Tuple[int, int], np.random.Generator] = {}

    # ------------------------------------------------------------------ #
    @property
    def active(self) -> bool:
        """Whether this model can perturb any transfer at all."""
        return bool(
            self.drop_prob
            or self.latency_jitter
            or self.link_drop_prob
            or self._flaps
        )

    def flap(
        self,
        src: int,
        dst: int,
        down_at: float,
        up_at: float = float("inf"),
        symmetric: bool = True,
    ) -> None:
        """Schedule a flap window; ``symmetric`` covers both directions."""
        self._flaps.setdefault((src, dst), []).append(
            LinkFlapWindow(src, dst, down_at, up_at)
        )
        if symmetric and src != dst:
            self._flaps.setdefault((dst, src), []).append(
                LinkFlapWindow(dst, src, down_at, up_at)
            )

    def is_up(self, src: int, dst: int, time: float) -> bool:
        """Whether the directed link is outside every flap window."""
        return not any(w.covers(time) for w in self._flaps.get((src, dst), ()))

    def drop_probability(self, src: int, dst: int) -> float:
        return self.link_drop_prob.get((src, dst), self.drop_prob)

    # ------------------------------------------------------------------ #
    def _stream(self, src: int, dst: int) -> np.random.Generator:
        key = (src, dst)
        stream = self._streams.get(key)
        if stream is None:
            stream = np.random.default_rng(
                np.random.SeedSequence([self.seed, 0x11FA, src, dst])
            )
            self._streams[key] = stream
        return stream

    def attempt(self, src: int, dst: int, time: float) -> Tuple[bool, float]:
        """One message attempt: ``(delivered, latency_factor)``.

        Draws (jitter first, then the drop coin — each only when its
        knob is non-trivial, so enabling one fault type never shifts the
        other's stream) from the link's RNG.  A flapped link drops every
        attempt without consuming a drop draw.
        """
        factor = 1.0
        if self.latency_jitter:
            factor = float(
                self._stream(src, dst).lognormal(
                    mean=0.0, sigma=self.latency_jitter
                )
            )
        if not self.is_up(src, dst, time):
            return False, factor
        prob = self.drop_probability(src, dst)
        if prob and float(self._stream(src, dst).random()) < prob:
            return False, factor
        return True, factor


@dataclass(frozen=True)
class RetryPolicy:
    """Timeout + exponential-backoff retransmission knobs.

    ``max_attempts`` bounds total transmissions (1 = no retries).  After
    a lost attempt the sender waits out the transfer, then backs off
    ``base_timeout * backoff_factor**k`` before the ``k``-th retry.
    """

    max_attempts: int = 4
    base_timeout: float = 0.05
    backoff_factor: float = 2.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.base_timeout < 0:
            raise ValueError(
                f"base_timeout must be non-negative, got {self.base_timeout}"
            )
        if self.backoff_factor < 1.0:
            raise ValueError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )

    def backoff(self, retry_index: int) -> float:
        """Backoff delay before retry ``retry_index`` (0-based)."""
        return self.base_timeout * self.backoff_factor**retry_index


DEFAULT_RETRY_POLICY = RetryPolicy()


@dataclass(frozen=True)
class DeliveryOutcome:
    """Result of one reliable-delivery exchange."""

    delivered: bool
    attempts: int
    elapsed: float
    """Virtual seconds from first transmission to delivery (or to the
    final give-up)."""
    bytes_sent: int
    """Total payload bytes across every attempt."""

    @property
    def retries(self) -> int:
        """Retransmissions beyond the first attempt."""
        return self.attempts - 1

    @property
    def drops(self) -> int:
        """Attempts that were lost on the wire."""
        return self.attempts - 1 if self.delivered else self.attempts


class ReliableDelivery:
    """Retry-with-timeout/backoff envelope for simulated transfers.

    With no fault model (or an inactive one) every send is a single
    attempt priced exactly like the raw
    :meth:`~repro.sim.network.NetworkModel.p2p_time_between` — the
    envelope is numerically invisible, so chaos-off trajectories are
    bitwise identical to the pre-chaos simulator.
    """

    def __init__(
        self,
        network: NetworkModel,
        faults: Optional[LinkFaultModel] = None,
        policy: Optional[RetryPolicy] = None,
    ) -> None:
        self.network = network
        self.faults = faults
        self.policy = policy or DEFAULT_RETRY_POLICY

    def send(
        self, src: int, dst: int, nbytes: int, time: float
    ) -> DeliveryOutcome:
        """Deliver ``nbytes`` from ``src`` to ``dst`` starting at ``time``."""
        if self.faults is None or not self.faults.active:
            return DeliveryOutcome(
                delivered=True,
                attempts=1,
                elapsed=self.network.p2p_time_between(src, dst, nbytes),
                bytes_sent=int(nbytes),
            )
        elapsed = 0.0
        bytes_sent = 0
        for attempt in range(self.policy.max_attempts):
            delivered, factor = self.faults.attempt(src, dst, time + elapsed)
            transfer = self.network.degraded_p2p_time(src, dst, nbytes, factor)
            bytes_sent += int(nbytes)
            if delivered:
                elapsed += transfer
                return DeliveryOutcome(True, attempt + 1, elapsed, bytes_sent)
            # The sender waits out the transfer (timeout detection),
            # then backs off exponentially before retransmitting.
            elapsed += transfer + self.policy.backoff(attempt)
        return DeliveryOutcome(
            False, self.policy.max_attempts, elapsed, bytes_sent
        )
