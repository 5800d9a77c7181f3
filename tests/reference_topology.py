"""The graph-walk ring order that ``directed_ring`` replaced.

Until the ring became a plain list, ``repro.comm.topology.directed_ring``
drew ``rng.permutation(ids)``, built a directed graph from it — an edge
from every id to the next, the last back to the first — and
``Topology.ring_order`` walked that graph: check that every node has
exactly one successor and one predecessor and that the walk is strongly
connected, then follow successors from the smallest id.  This module is
that walk over a successor map, without the graph library, kept only as
the reference ``tests/property/test_property_comm.py`` pins
``directed_ring`` against: same order, same generator state afterwards.
"""

from typing import Dict, List, Sequence

import numpy as np


def ring_order(device_ids: Sequence[int], rng: np.random.Generator) -> List[int]:
    """The ring over ``device_ids`` drawn by ``rng``, walked from its
    smallest id (a single id is the one-vertex ring)."""
    nodes = [int(i) for i in rng.permutation(list(device_ids))]
    if len(nodes) == 1:
        return nodes
    successors: Dict[int, List[int]] = {n: [] for n in nodes}
    predecessors: Dict[int, List[int]] = {n: [] for n in nodes}
    for a, b in zip(nodes, nodes[1:] + nodes[:1]):
        successors[a].append(b)
        predecessors[b].append(a)
    if any(len(successors[n]) != 1 or len(predecessors[n]) != 1 for n in nodes):
        raise ValueError("topology is not a directed ring")
    start = min(nodes)
    order = [start]
    current = successors[start][0]
    while current != start:
        order.append(current)
        current = successors[current][0]
    if len(order) != len(nodes):
        raise ValueError("ring is not strongly connected")
    return order
