"""Gossip averaging over a directed ring.

HADFL's partial synchronisation exchanges parameters among the selected
devices "in a gossip-based scatter-gather manner" around a directed ring
(Sec. III-D) — numerically an average over the selected set (Eq. 5 with
every flag 1; selection happens upstream), realised by the same
two-phase ring schedule as all-reduce.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.comm.allreduce import AllReduceStats, ring_allreduce_detailed
from repro.comm.wire import WireSpec


def gossip_ring_exchange(
    vectors: Sequence[np.ndarray],
    wire: WireSpec = None,
    reference: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, AllReduceStats]:
    """Scatter-gather averaging with explicit ring schedule + accounting.

    Every exchanged segment crosses the wire through ``wire`` (cast on
    the wire; ``None`` = lossless fp64); ``reference`` — a vector every
    participant already holds, e.g. the last aggregate — lets
    sparsifying formats ship deltas.  Returns ``(average, stats)`` where
    stats carries the byte counts the communication-volume report uses
    plus the max cast error of the exchange.
    """
    return ring_allreduce_detailed(
        vectors, average=True, wire=wire, reference=reference
    )
