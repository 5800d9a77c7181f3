"""Network cost models: latency + bandwidth pricing of every transfer.

The paper's testbed connects GPUs over PCIe 3.0 x8 (~8 GB/s); devices in a
real federated deployment would sit on much slower links.  The base model
is the standard alpha-beta model: a transfer of ``n`` bytes costs
``alpha + n / beta`` seconds.  Collective costs follow the classic ring
formulas (Thakur et al.), the same used to reason about Horovod/DDP.

:class:`HeterogeneousNetworkModel` implements the paper's stated future
work ("optimize it by taking into account heterogeneous network
bandwidth"): per-device link speeds, with collectives gated by the
slowest participating link — which is what makes *bandwidth-aware device
selection* (see :class:`repro.core.selection_ext.BandwidthAwareSelection`)
pay off.
"""

from __future__ import annotations

import math

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Dict, Optional, Sequence

if TYPE_CHECKING:
    # Annotation-only: ``repro.comm`` imports this module (via
    # ``ring_repair``), so a runtime import would be circular.
    from repro.comm.wire import WireFormat


def _default_bytes_per_scalar() -> int:
    """Scalar wire width of the default wire format (fp64 → 8 B).

    Imported lazily: ``repro.comm`` imports this module (via
    ``ring_repair``), so a top-level import would be circular.
    """
    from repro.comm.wire import DEFAULT_WIRE

    return DEFAULT_WIRE.bytes_per_scalar


def align_network_granularity(
    network: "NetworkModel", wire: "WireFormat"
) -> "NetworkModel":
    """``network`` with its segment granularity matched to ``wire``.

    Granularity is not an independent knob — it IS the wire's scalar
    width, so the time model always prices the same payloads the byte
    accounting counts.  Returns the input unchanged when already
    aligned; otherwise a field-preserving copy (works for subclasses).
    """
    if network.bytes_per_scalar == wire.bytes_per_scalar:
        return network
    return replace(network, bytes_per_scalar=wire.bytes_per_scalar)


def ring_step_segment_bytes(
    nbytes: float, num_nodes: int, bytes_per_scalar: Optional[int] = None
) -> float:
    """Bytes of the *largest* segment in one ring step.

    The two-phase ring schedule (see ``repro.comm.allreduce``) splits the
    vector into ``num_nodes`` contiguous segments on scalar boundaries —
    ``bytes_per_scalar`` wide, the width of the selected
    :class:`~repro.comm.wire.WireFormat` (default: the fp64 wire's 8 B) —
    so the largest segment of an uneven split carries ceil(n/K) scalars.
    All ``num_nodes`` transfers of a step run concurrently, so the step
    completes when the largest segment lands — which is what a time model
    must price.  Matches the byte accounting of
    :func:`repro.comm.allreduce.ring_allreduce_detailed` exactly.
    """
    if num_nodes < 1:
        raise ValueError(f"num_nodes must be >= 1, got {num_nodes}")
    if bytes_per_scalar is None:
        bytes_per_scalar = _default_bytes_per_scalar()
    scalars = nbytes / bytes_per_scalar
    return math.ceil(scalars / num_nodes) * bytes_per_scalar


@dataclass(frozen=True)
class NetworkModel:
    """Alpha-beta transfer cost model.

    Parameters
    ----------
    latency:
        Per-message fixed cost in seconds (alpha).
    bandwidth:
        Link bandwidth in bytes/second (beta).  The default is calibrated
        so one *scalar* costs the same seconds it did when transfers were
        priced at 4 B/scalar (the legacy fp32 pricing): honest fp64
        payloads are twice the bytes over twice the bandwidth — an exact
        power-of-two rescale, so default-network timings (and therefore
        fixed-seed trajectories) are bitwise unchanged.
    bytes_per_scalar:
        Scalar width on the wire — the segment granularity of ring
        collectives.  Comes from the wire format
        (:class:`~repro.comm.wire.WireFormat`); ``SimulatedCluster``
        aligns it with its wire automatically.
    """

    latency: float = 1e-3
    bandwidth: float = 2e9
    bytes_per_scalar: int = field(default_factory=_default_bytes_per_scalar)

    def __post_init__(self) -> None:
        if self.latency < 0:
            raise ValueError(f"latency must be non-negative, got {self.latency}")
        if self.bandwidth <= 0:
            raise ValueError(f"bandwidth must be positive, got {self.bandwidth}")
        if self.bytes_per_scalar < 1:
            raise ValueError(
                f"bytes_per_scalar must be >= 1, got {self.bytes_per_scalar}"
            )

    # ------------------------------------------------------------------ #
    # Primitive transfers
    # ------------------------------------------------------------------ #
    def p2p_time(self, nbytes: float) -> float:
        """One point-to-point message of ``nbytes``."""
        if nbytes < 0:
            raise ValueError(f"nbytes must be non-negative, got {nbytes}")
        return self.latency + nbytes / self.bandwidth

    def sequential_sends_time(self, nbytes: float, count: int) -> float:
        """``count`` back-to-back sends from one sender (linear broadcast)."""
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        return count * self.p2p_time(nbytes)

    # ------------------------------------------------------------------ #
    # Collectives
    # ------------------------------------------------------------------ #
    def ring_allreduce_time(self, nbytes: float, num_nodes: int) -> float:
        """Ring all-reduce (reduce-scatter + all-gather) on ``num_nodes``.

        2*(K-1) steps, each gated by its largest in-flight segment:
        ``2 (K-1) (alpha + ceil(n/K)/beta)`` — bandwidth-optimal, the
        schedule PyTorch-DDP/Horovod use (paper baseline [12]).  The
        ceil matches the byte accounting of
        :func:`repro.comm.allreduce.ring_allreduce_detailed`: when the
        vector does not divide evenly, some segments are one scalar
        longer and the step waits for them.
        """
        if num_nodes < 1:
            raise ValueError(f"num_nodes must be >= 1, got {num_nodes}")
        if num_nodes == 1:
            return 0.0
        steps = 2 * (num_nodes - 1)
        seg_bytes = ring_step_segment_bytes(nbytes, num_nodes, self.bytes_per_scalar)
        return steps * (self.latency + seg_bytes / self.bandwidth)

    def gossip_ring_time(self, nbytes: float, num_selected: int) -> float:
        """Scatter-gather gossip among the ``N_p`` selected devices.

        HADFL's partial synchronisation moves parameters around a directed
        ring "in a gossip-based scatter-gather manner (similar to [12])"
        (Sec. III-D) — cost-wise identical to a ring all-reduce restricted
        to the selected set.
        """
        return self.ring_allreduce_time(nbytes, num_selected)

    # ------------------------------------------------------------------ #
    # Participant-aware variants (overridden by the heterogeneous model)
    # ------------------------------------------------------------------ #
    def p2p_time_between(self, src: int, dst: int, nbytes: float) -> float:
        """Point-to-point cost between two named devices (uniform here)."""
        return self.p2p_time(nbytes)

    def degraded_p2p_time(
        self, src: int, dst: int, nbytes: float, latency_factor: float
    ) -> float:
        """Point-to-point cost under a link-fault latency multiplier.

        The :class:`~repro.sim.linkfaults.LinkFaultModel` jitter draw
        scales the whole transfer (congested links slow both the
        handshake and the stream).  A factor of exactly 1.0 reproduces
        :meth:`p2p_time_between` bitwise — the chaos-off guarantee.
        """
        if latency_factor <= 0:
            raise ValueError(
                f"latency_factor must be positive, got {latency_factor}"
            )
        return self.p2p_time_between(src, dst, nbytes) * latency_factor

    def ring_time_for(self, device_ids: Sequence[int], nbytes: float) -> float:
        """Ring collective cost for a named participant set."""
        return self.ring_allreduce_time(nbytes, len(device_ids))

    def effective_bandwidth(self, device_id: int) -> float:
        """Uplink bandwidth of a named device (uniform here)."""
        return self.bandwidth


@dataclass(frozen=True)
class HeterogeneousNetworkModel(NetworkModel):
    """Per-device link speeds (the paper's future-work network model).

    Parameters
    ----------
    latency, bandwidth:
        Defaults for devices not listed in the per-device maps.
    device_bandwidth:
        Map device id → uplink bandwidth (bytes/s).
    device_latency:
        Map device id → per-message latency (s).

    A transfer between two devices is gated by the slower endpoint; a
    ring collective advances at the pace of its slowest participating
    link — one throttled member drags the whole ring, which is exactly
    why bandwidth-aware selection helps.
    """

    device_bandwidth: Dict[int, float] = field(default_factory=dict)
    device_latency: Dict[int, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        super().__post_init__()
        for device, bw in self.device_bandwidth.items():
            if bw <= 0:
                raise ValueError(f"bandwidth for device {device} must be positive")
        for device, lat in self.device_latency.items():
            if lat < 0:
                raise ValueError(f"latency for device {device} must be non-negative")

    def effective_bandwidth(self, device_id: int) -> float:
        return self.device_bandwidth.get(device_id, self.bandwidth)

    def effective_latency(self, device_id: int) -> float:
        return self.device_latency.get(device_id, self.latency)

    def p2p_time_between(self, src: int, dst: int, nbytes: float) -> float:
        if nbytes < 0:
            raise ValueError(f"nbytes must be non-negative, got {nbytes}")
        bandwidth = min(self.effective_bandwidth(src), self.effective_bandwidth(dst))
        latency = max(self.effective_latency(src), self.effective_latency(dst))
        return latency + nbytes / bandwidth

    def ring_time_for(self, device_ids: Sequence[int], nbytes: float) -> float:
        ids = list(device_ids)
        if not ids:
            raise ValueError("empty participant set")
        if len(ids) == 1:
            return 0.0
        worst_bandwidth = min(self.effective_bandwidth(d) for d in ids)
        worst_latency = max(self.effective_latency(d) for d in ids)
        steps = 2 * (len(ids) - 1)
        seg_bytes = ring_step_segment_bytes(nbytes, len(ids), self.bytes_per_scalar)
        return steps * (worst_latency + seg_bytes / worst_bandwidth)
