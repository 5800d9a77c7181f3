"""Per-transfer view of the byte accountant (test-only).

:class:`~repro.comm.volume.CommVolumeAccountant` keeps one set of books,
the byte totals per traffic kind.  Tests that need per-transfer facts —
record order, who received what — install this recorder for the test's
duration: it wraps ``CommVolumeAccountant.record`` by monkeypatch and
keeps ``(time, nbytes, kind, src, dst)`` of every transfer, per
accountant, in record order.  The wrapped ``record`` still books every
byte, so the run and the accountant's totals are unchanged.

Usage::

    log = record_transfers(monkeypatch)
    result = trainer.run(...)
    resyncs = [t for t in log.of(trainer.volume) if t.kind == "resync"]
"""

from typing import Dict, List, NamedTuple, Optional

from repro.comm.volume import CommVolumeAccountant


class Transfer(NamedTuple):
    time: float
    nbytes: int
    kind: str
    src: Optional[int]
    dst: Optional[int]


class TransferLog:
    """Every transfer each accountant recorded while the log was installed."""

    def __init__(self) -> None:
        # Keyed by the accountant itself (identity hash), which keeps it
        # alive for the test: no id is reused under a live key.
        self._logs: Dict[CommVolumeAccountant, List[Transfer]] = {}

    def of(self, accountant: CommVolumeAccountant) -> List[Transfer]:
        """``accountant``'s transfers, in record order."""
        return list(self._logs.get(accountant, ()))

    def received_by_device(self, accountant: CommVolumeAccountant) -> Dict[int, int]:
        """Bytes received per named destination: every transfer that
        carries a ``dst`` counts toward it."""
        received: Dict[int, int] = {}
        for transfer in self._logs.get(accountant, ()):
            if transfer.dst is not None:
                received[transfer.dst] = received.get(transfer.dst, 0) + transfer.nbytes
        return received


def record_transfers(monkeypatch) -> TransferLog:
    """Install a :class:`TransferLog` on every accountant until the test ends."""
    log = TransferLog()
    record = CommVolumeAccountant.record

    def logged(self, time, nbytes, kind, src=None, dst=None):
        record(self, time, nbytes, kind, src=src, dst=dst)
        log._logs.setdefault(self, []).append(
            Transfer(time, int(nbytes), kind, src, dst)
        )

    monkeypatch.setattr(CommVolumeAccountant, "record", logged)
    return log
