"""Communication-volume accounting: every simulated byte, by kind.

Section II-B derives the centralised-FL volumes: the server moves
``2·K·M`` bytes per aggregation round; Sec. III-D claims HADFL keeps the
device total at ``2·K·M`` per round while removing the server entirely.
The accountant counts actual simulated bytes, so the paper-claims tests
(``tests/integration/test_paper_claims.py``) check that arithmetic
against the running implementation.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, Optional, Tuple


#: Memory modes of :class:`CommVolumeAccountant`.
ACCOUNTING_MODES = ("exact", "aggregate")


def check_accounting(mode: str) -> None:
    """Reject an unknown accountant mode; the one check of the knob."""
    if mode not in ACCOUNTING_MODES:
        raise ValueError(
            f"unknown accounting mode {mode!r}; choose from {ACCOUNTING_MODES}"
        )


@dataclass(frozen=True)
class VolumeRecord:
    time: float
    src: Optional[int]
    dst: Optional[int]
    nbytes: int
    kind: str


class CommVolumeAccountant:
    """Counts every simulated byte by traffic kind and receiver.

    ``mode`` bounds the accountant's memory:

    * ``"exact"`` (default) — keep every :class:`VolumeRecord` for
      post-hoc per-transfer analysis; memory grows with traffic count.
    * ``"aggregate"`` — keep only the running totals (per kind, per
      dst).  All totals — ``total_bytes``, ``bytes_by_kind``,
      ``bytes_received_by_device``, ``snapshot`` — are identical to
      exact mode by construction; only :meth:`records` degrades
      (returns an empty tuple).  This is the population-scale
      mode: memory is O(distinct devices touched), never O(transfers)
      and never the O(K²) of a per-(src, dst) matrix.
    """

    def __init__(self, mode: str = "exact") -> None:
        check_accounting(mode)
        self.mode = mode
        self._records: list[VolumeRecord] = []
        self._by_kind: Dict[str, int] = defaultdict(int)
        self._received_by_device: Dict[int, int] = defaultdict(int)

    def record(
        self,
        time: float,
        nbytes: int,
        kind: str,
        src: Optional[int] = None,
        dst: Optional[int] = None,
    ) -> None:
        if nbytes < 0:
            raise ValueError(f"nbytes must be non-negative, got {nbytes}")
        if self.mode == "exact":
            self._records.append(VolumeRecord(time, src, dst, int(nbytes), kind))
        self._by_kind[kind] += int(nbytes)
        if dst is not None:
            self._received_by_device[dst] += int(nbytes)

    @property
    def total_bytes(self) -> int:
        return sum(self._by_kind.values())

    def bytes_by_kind(self) -> Dict[str, int]:
        return dict(self._by_kind)

    def bytes_received_by_device(self) -> Dict[int, int]:
        """Bytes *received* per named destination device.

        The receiver-side pressure figure: centralised FL funnels
        ``K·M`` per round into the server (the hotspot Sec. III-D claims
        to remove), while HADFL spreads deliveries across peers.  Every
        record carrying a ``dst`` contributes, so for point-to-point
        records (broadcasts, uploads) sent and received totals are
        symmetric by construction.
        """
        return dict(self._received_by_device)

    def records(self) -> Tuple[VolumeRecord, ...]:
        """Every transfer, in record order — empty in ``aggregate`` mode."""
        return tuple(self._records)

    def snapshot(self) -> Dict[str, object]:
        """JSON-ready totals: ``{"total_bytes", "bytes_by_kind"}``.

        Trainers stash this in ``RunResult.config`` so the accounting
        invariant can be re-checked from a saved result file alone (the
        CLI's ``--verify-accounting`` and the CI chaos smoke do)."""
        return {
            "total_bytes": self.total_bytes,
            "bytes_by_kind": self.bytes_by_kind(),
        }

    def summary(self) -> str:
        lines = [f"total: {self.total_bytes:,} bytes"]
        for kind, nbytes in sorted(self._by_kind.items()):
            lines.append(f"  {kind:<20} {nbytes:,} bytes")
        return "\n".join(lines)
