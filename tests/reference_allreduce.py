"""Reference ring all-reduce: one ``send()`` per node per step (test-only).

This is the schedule ``repro.comm.allreduce`` shipped before the segment
cube: ``K`` private fp64 buffers, ``2·K·(K−1)`` ``send()`` closures, each
pricing its payload through ``wire.payload_nbytes`` and crossing the wire
through ``wire.transmit_with_error`` on its own.  It defines the bits —
per-element addition order, what every codec sees as a payload, the
per-node byte totals — the production schedule must reproduce, and is
compared against it by ``tests/property/test_property_comm.py`` and the
count / perf tests in ``tests/test_hotpath_perf.py``.
"""

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.comm.wire import WireFormat


def segment_bounds(size: int, num_nodes: int) -> List[slice]:
    """Split ``size`` scalars into ``num_nodes`` contiguous segments."""
    base = size // num_nodes
    remainder = size % num_nodes
    bounds = []
    start = 0
    for node in range(num_nodes):
        length = base + (1 if node < remainder else 0)
        bounds.append(slice(start, start + length))
        start += length
    return bounds


def ingest_buffers(vectors: Sequence[np.ndarray]) -> List[np.ndarray]:
    """Per-node fp64 working copies of the inputs."""
    return [np.array(v, dtype=np.float64, copy=True) for v in vectors]


def run_schedule(
    buffers: List[np.ndarray],
    wire: WireFormat,
    reference: Optional[np.ndarray] = None,
) -> Tuple[float, List[int]]:
    """Run the two-phase ring schedule in place, one send at a time.

    Returns ``(max_cast_error, bytes_sent_by_node)``.  Within one ring
    step node i sends segment (i - step) while the segment written *into*
    it is (i - 1 - step): distinct for k >= 2, so the sequential sends
    read exactly the pre-step state.
    """
    k = len(buffers)
    n = buffers[0].size
    segments = segment_bounds(n, k)
    max_err = 0.0
    sent_bytes = [0] * k
    use_delta = reference is not None and wire.prefer_delta
    if use_delta:
        reference = np.asarray(reference, dtype=np.float64)

    def send(node: int, seg: slice, contributions: int) -> np.ndarray:
        nonlocal max_err
        payload = buffers[node][seg]
        if use_delta:
            base = reference[seg] * contributions
            received, err = wire.transmit_with_error(payload - base)
            received = base + received
        else:
            received, err = wire.transmit_with_error(payload)
        if err > max_err:
            max_err = err
        sent_bytes[node] += wire.payload_nbytes(payload)
        return received

    # Reduce-scatter: the segment sent at step s carries s+1 contributions.
    for step in range(k - 1):
        for node in range(k):
            seg = segments[(node - step) % k]
            buffers[(node + 1) % k][seg] += send(node, seg, step + 1)

    # All-gather: completed segments carry all k contributions.
    for step in range(k - 1):
        for node in range(k):
            seg = segments[(node + 1 - step) % k]
            buffers[(node + 1) % k][seg] = send(node, seg, k)

    return max_err, sent_bytes
