"""The partial-synchronisation topology.

HADFL's strategy generator "randomly determines a directed ring as the
partial synchronization topology" (Sec. III-C).  A ring is its traversal
order: each device sends to the next id in the list, the last to the
first.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np


def directed_ring(device_ids: Sequence[int], rng: np.random.Generator) -> List[int]:
    """A random directed ring over ``device_ids``, as its traversal order.

    The ring is ``rng.permutation(device_ids)`` closed end to start; the
    order returned starts at the smallest id.  With one id the ring is a
    single vertex (no transfers); with two it is the bidirectional pair.
    """
    ids = list(device_ids)
    if not ids:
        raise ValueError("need at least one device id")
    if len(set(ids)) != len(ids):
        raise ValueError(f"duplicate device ids: {ids}")
    order = [int(i) for i in rng.permutation(ids)]
    start = order.index(min(order))
    return order[start:] + order[:start]
