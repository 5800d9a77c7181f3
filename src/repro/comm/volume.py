"""Communication-volume accounting: every simulated byte, by kind.

Section II-B derives the centralised-FL volumes: the server moves
``2·K·M`` bytes per aggregation round; Sec. III-D claims HADFL keeps the
device total at ``2·K·M`` per round while removing the server entirely.
The accountant counts actual simulated bytes, so the paper-claims tests
(``tests/integration/test_paper_claims.py``) check that arithmetic
against the running implementation.

It keeps one set of books, the byte totals per traffic kind: memory is
O(kinds) in every trainer, never O(transfers) or O(devices).  Tests that
need per-transfer facts (record order, receivers) wrap :meth:`record`
(``tests/transfer_log.py``).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Optional


class CommVolumeAccountant:
    """Counts every simulated byte by traffic kind.

    ``src`` and ``dst`` name a transfer's endpoints for callers and
    wrappers of :meth:`record`; the totals do not keep them.
    """

    def __init__(self) -> None:
        self._by_kind: Dict[str, int] = defaultdict(int)

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
        self._by_kind[kind] += int(nbytes)

    @property
    def total_bytes(self) -> int:
        return sum(self._by_kind.values())

    def bytes_by_kind(self) -> Dict[str, int]:
        return dict(self._by_kind)

    def snapshot(self) -> Dict[str, object]:
        """JSON-ready totals: ``{"total_bytes", "bytes_by_kind"}``.

        Trainers stash this in ``RunResult.config`` so the accounting
        invariant can be re-checked from a saved result file alone (the
        CLI's ``--verify-accounting`` and the CI chaos smoke do)."""
        return {
            "total_bytes": self.total_bytes,
            "bytes_by_kind": self.bytes_by_kind(),
        }
