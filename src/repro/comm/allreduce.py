"""Ring all-reduce: the collective behind the distributed baseline.

Implements the bandwidth-optimal two-phase schedule (reduce-scatter then
all-gather) over explicit per-node segment buffers, not just ``np.mean``:
the tests verify both the numerical result *and* the schedule's byte
accounting, because the time model in :class:`repro.sim.NetworkModel`
prices exactly this schedule.

Every segment a node sends crosses the wire through a
:class:`~repro.comm.wire.WireFormat`: the receiving buffer only ever sees
``wire.transmit(segment)`` — what survived the cast — and the byte
accounting prices the *actual* segment lengths sent through the format's
own size law (``wire.nbytes``), so variable-size payloads (top-k (index,
value) pairs, per-chunk quantiser scales) are counted honestly.  The
default fp64 wire is an identity passthrough (bitwise identical to the
pre-wire schedule) priced at 8 B/scalar.

The K node buffers live in one skewed ``(K, K, L)`` segment cube in which
the K payloads of a ring step are one contiguous block
(:func:`_ingest_buffers`), so the schedule is ``2(K−1)`` block operations
for every K and every wire, not ``2·K·(K−1)`` sends; the per-send loop it
replaced is the test reference (``tests/reference_allreduce.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.comm.wire import WireFormat, WireSpec, get_wire_format


@dataclass(frozen=True)
class AllReduceStats:
    """Byte/step accounting for one ring all-reduce invocation.

    ``bytes_sent_by_node`` holds the exact per-node totals over the
    2(K−1)-step schedule, priced per actual sent segment length through
    the wire's size law ``nbytes`` (width × scalars for plain casts;
    survivor pairs plus headers for top-k); they differ when the
    vector does not divide evenly into K segments.
    ``bytes_sent_per_node`` is the busiest node's total (equal for every
    node when ``n % k == 0``), the figure link-capacity planning cares
    about.  ``max_cast_error`` is the largest absolute difference
    between any sent segment and what its receiver saw (0.0 on a
    lossless wire).
    """

    num_nodes: int
    vector_scalars: int
    steps: int
    bytes_sent_per_node: int
    total_bytes: int
    bytes_sent_by_node: Tuple[int, ...] = ()
    max_cast_error: float = 0.0


def _node_runs(
    cube: np.ndarray, size: int, node: int
) -> Iterator[Tuple[np.ndarray, int, int]]:
    """Node ``node``'s K segment slots in the skewed cube
    (:func:`_ingest_buffers`) as at most three ``(slots, start, stop)``
    runs: ``slots`` is a strided ``(run, length)`` view of the cube and
    ``[start, stop)`` the scalars of the node's vector it holds.

    Segment s of the node sits in row ``((s − node) % K)·K + s`` of the
    cube's ``(K², L)`` view — stride ``K + 1`` in s, wrapping once at
    ``s == node`` — and segments change length once, at ``n % K``; between
    those two cuts a run is one strided slice, so a node's vector moves
    in or out of the cube in ≤ 3 row-block copies whatever K is.
    """
    k = len(cube)
    base, longer = divmod(size, k)
    rows = cube.reshape(k * k, base + 1)
    cuts = sorted({0, node, longer, k})
    for lo, hi in zip(cuts, cuts[1:]):
        length = base + (lo < longer)
        first = ((lo - node) % k) * k + lo
        last = first + (hi - 1 - lo) * (k + 1)
        start = lo * base + min(lo, longer)
        stop = start + (hi - lo) * length
        yield rows[first : last + 1 : k + 1, :length], start, stop


def _ingest_buffers(vectors: Sequence[np.ndarray]) -> Tuple[np.ndarray, int]:
    """Copy the inputs into one zero-padded ``(K, K, n // K + 1)`` fp64
    segment cube, *skewed* so that a ring step is a block; returns it
    with the vector length ``n``.

    ``cube[d, s]`` is the copy of segment s held by node ``(s − d) % K``.
    In a ring step every node i sends one segment ``(i + o) % K`` to
    node i + 1, so all K senders share ``d = o``: the K payloads of a
    step are the contiguous block ``cube[o]`` and the K slots they land
    in are the block ``cube[o − 1]``.  Rows of a block are segments in
    order, so every block has the same row lengths and the same padding
    (``+0.0`` in the last column of the shorter segments' rows, which
    every step maps to ``+0.0`` again: ``0 + 0``, ``cast(0)``).  This is
    the only copy of the inputs the collective makes.
    """
    if not vectors:
        raise ValueError("need at least one vector")
    arrays = [np.asarray(v) for v in vectors]
    shape = arrays[0].shape
    if any(a.shape != shape for a in arrays):
        raise ValueError("all vectors must share a shape")
    if len(shape) != 1:
        raise ValueError("ring all-reduce operates on flat 1-D vectors")
    k, size = len(arrays), shape[0]
    base, longer = divmod(size, k)
    cube = np.empty((k, k, base + 1), dtype=np.float64)
    cube[:, longer:, base] = 0.0
    for node, vec in enumerate(arrays):
        for slots, start, stop in _node_runs(cube, size, node):
            slots[...] = vec[start:stop].reshape(slots.shape)
    return cube, size


def _node_buffer(
    cube: np.ndarray, size: int, node: int, divisor: int = 1
) -> np.ndarray:
    """Node ``node``'s vector out of the cube, unpadded and divided by
    ``divisor`` on the way out (an owned copy, written once)."""
    out = np.empty(size, dtype=np.float64)
    for slots, start, stop in _node_runs(cube, size, node):
        piece = out[start:stop].reshape(slots.shape)
        if divisor == 1:
            piece[...] = slots
        else:
            np.divide(slots, divisor, out=piece)
    return out


def _transmit_rows(
    wire: WireFormat, block: np.ndarray, lengths: Sequence[int]
) -> Tuple[np.ndarray, float]:
    """``wire.transmit_with_error`` over the rows of a zero-padded block.

    *Defined* as the row-wise map: row j crosses the wire as its
    true-length prefix ``block[j, :lengths[j]]``, the payload a node
    would send on its own — so payload-dependent codecs (content-derived
    rounding seeds, top-k survivor sets, per-chunk scales) see the
    payloads, seeds and call counts of per-segment sends.  An
    ``elementwise`` wire (plain casts) commutes with stacking, and maps
    the padding to zero with zero error, so one call on the whole block
    *is* that map — unless a payload carries a NaN, which poisons the
    block-wide ``max`` where the row-wise map loses only that row's
    error; such a block is mapped row by row.
    """
    if wire.elementwise:
        received, worst = wire.transmit_with_error(block)
        if worst == worst:
            return received, worst
    received = np.zeros_like(block)
    worst = 0.0
    for row, out, length in zip(block, received, lengths):
        out[:length], err = wire.transmit_with_error(row[:length])
        if err > worst:
            worst = err
    return received, worst


def _run_schedule(
    cube: np.ndarray,
    size: int,
    wire: WireFormat,
    reference: Optional[np.ndarray] = None,
) -> Tuple[float, List[int]]:
    """Run the two-phase ring schedule in place on the segment cube.

    Returns ``(max_cast_error, bytes_sent_by_node)``.  Each of the
    ``2(K−1)`` steps sends one block one block down
    (:func:`_ingest_buffers`): the K payloads cross the wire
    (:func:`_transmit_rows`) and are added into (reduce-scatter) or
    copied over (all-gather) the slots of the next nodes.  A node never
    receives the segment it is sending, so the block-at-once exchange
    reads exactly the pre-step state, and per element this is the
    addition order of K nodes exchanging one segment per step — sums
    are bitwise those of the per-send loop kept in
    ``tests/reference_allreduce.py``.  On the lossless wire
    ``transmit_with_error`` is the identity and a step is a bare
    ``cube[dst] += cube[src]``.

    ``reference`` enables delta shipping for ``wire.prefer_delta``
    formats (top-k): a partial sum of ``m`` contributions drifts around
    ``m × reference`` (linearity), so the sender ships the sparse top-k
    of ``payload - m·ref_segment`` and the receiver reconstructs —
    every node already holds the reference, the last shared aggregate.

    A node sends every segment but one in each phase — all but
    ``(i + 1) % K`` while reducing, all but ``(i + 2) % K`` while
    gathering — and a format's size is a pure function of the scalar
    count (``wire.nbytes``), so the per-node byte totals are arithmetic
    over the two segment lengths, not a per-send tally.
    """
    k = len(cube)
    base, longer = divmod(size, k)
    lengths = [base + 1] * longer + [base] * (k - longer)
    ref_rows = None
    if reference is not None and wire.prefer_delta:
        reference = np.asarray(reference, dtype=np.float64)
        if reference.shape != (size,):
            raise ValueError(
                f"reference shape {reference.shape} does not match "
                f"vector shape {(size,)}"
            )
        # Segment j of the reference in row j, padded like a block.
        split = longer * (base + 1)
        ref_rows = np.zeros(cube.shape[1:], dtype=np.float64)
        ref_rows[:longer] = reference[:split].reshape(longer, base + 1)
        ref_rows[longer:, :base] = reference[split:].reshape(k - longer, base)

    max_err = 0.0
    # Step j moves block -j one block down.  The first k-1 steps reduce:
    # node i sends segment (i - j), which has accumulated j+1
    # contributions, and receivers add the *cast* payload, so partial
    # sums degrade exactly as they would over a narrow wire; after them
    # node i holds the full sum of segment (i+1) mod k — block 1.  The
    # last k-1 steps gather: the completed segments (all k
    # contributions) circulate, overwriting.
    for step in range(2 * (k - 1)):
        reducing = step < k - 1
        sent = cube[-step % k]
        if ref_rows is not None:
            drift = ref_rows * (step + 1 if reducing else k)
            sent = sent - drift
        received, err = _transmit_rows(wire, sent, lengths)
        if ref_rows is not None:
            received = drift + received
        if err > max_err:
            max_err = err
        if reducing:
            cube[-(step + 1) % k] += received
        else:
            cube[-(step + 1) % k] = received

    price = {length: wire.nbytes(length) for length in set(lengths)}
    seg_bytes = [price[length] for length in lengths]
    every_segment_twice = 2 * sum(seg_bytes)
    sent_bytes = [
        every_segment_twice - seg_bytes[(node + 1) % k] - seg_bytes[(node + 2) % k]
        for node in range(k)
    ]
    return max_err, sent_bytes


def ring_allreduce(
    vectors: Sequence[np.ndarray],
    average: bool = True,
    wire: WireSpec = None,
    reference: Optional[np.ndarray] = None,
) -> np.ndarray:
    """All-reduce ``vectors`` (one per node) and return the shared result."""
    result, _ = ring_allreduce_detailed(
        vectors, average=average, wire=wire, reference=reference
    )
    return result


def ring_allreduce_detailed(
    vectors: Sequence[np.ndarray],
    average: bool = True,
    wire: WireSpec = None,
    reference: Optional[np.ndarray] = None,
) -> tuple:
    """Ring all-reduce with explicit per-step simulation and accounting.

    Parameters
    ----------
    vectors:
        One equally-shaped 1-D vector per participating node.
    average:
        Divide by node count at the end (True for model averaging).
    wire:
        Wire format (name or instance) applied to every sent segment;
        every sent segment is priced through its size law ``nbytes``
        (= ``bytes_per_scalar`` × scalars for plain casts).  ``None``:
        the lossless fp64 default (8 B/scalar).
    reference:
        Optional vector every node already holds (the last shared
        aggregate); ``prefer_delta`` formats (top-k) then ship sparse
        deltas against it instead of raw segments.  Ignored by plain
        cast formats.

    Returns
    -------
    (result, stats):
        ``result`` is the reduced vector every node ends up with;
        ``stats`` is an :class:`AllReduceStats`.
    """
    wire = get_wire_format(wire)
    cube, n = _ingest_buffers(vectors)
    k = len(cube)
    # One node is the same schedule with no steps: nothing sent, 0 bytes.
    max_cast_error, by_node = _run_schedule(cube, n, wire, reference)
    result = _node_buffer(cube, n, 0, divisor=k if average else 1)

    # Every node sends one segment per step over 2(k-1) steps; the
    # schedule priced each sent segment at its true length, so for
    # fixed-width wires the grand total is exactly 2(k-1) * n scalars —
    # no ceil inflation — while variable-size formats (top-k) charge
    # what each segment's survivors actually cost.
    steps = 2 * (k - 1)
    stats = AllReduceStats(
        num_nodes=k,
        vector_scalars=n,
        steps=steps,
        bytes_sent_per_node=max(by_node),
        total_bytes=sum(by_node),
        bytes_sent_by_node=tuple(by_node),
        max_cast_error=max_cast_error,
    )
    return result, stats
