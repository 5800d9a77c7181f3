"""Reference quantiser code paths, kept test-only for bitwise pins.

* :func:`topk_encode_reference` — the survivor selection
  ``repro.comm.quantise.TopKWireFormat`` shipped before the O(n)
  partition: a stable ``argsort`` of ``-|x|`` over the whole payload,
  its first ``k`` positions re-sorted into ascending index order.  It
  defines the bits — which entries survive when magnitudes tie across
  the threshold (the lower index), where NaN ranks (last), the index
  and value dtypes — the production encode must reproduce.
* :func:`transmit_with_error_reference` — the ``int8_sr`` / ``qsgd``
  round trip as it was written before the fused in-place kernel:
  ``encode`` into fresh temporaries (a masked divide, ``np.clip``),
  ``decode`` over the padded grid, then the generic max-abs error pass
  of ``WireFormat.transmit_with_error``.  It fixes the received bits,
  the error and the content-seeded rounding stream (crc32 of the
  payload bytes).

Both are compared against production by
``tests/property/test_property_quantise.py`` and the count / perf tests
in ``tests/test_hotpath_perf.py``.
"""

import zlib

import numpy as np

from repro.comm.quantise import (
    ChunkedInt8Payload,
    Int8SRWireFormat,
    QSGDPayload,
    QSGDWireFormat,
    TopKPayload,
    TopKWireFormat,
    _as_flat64,
)


def topk_encode_reference(fmt: TopKWireFormat, vec: np.ndarray) -> TopKPayload:
    """``TopKWireFormat.encode`` as it was written before the partition."""
    flat, shape = _as_flat64(vec)
    k = fmt.k_for(flat.size)
    # Stable sort on -|x|: ties keep the lower index, so the
    # selection is deterministic for a given payload.
    order = np.argsort(-np.abs(flat), kind="stable")[:k]
    indices = np.sort(order)
    return TopKPayload(
        indices=indices,
        values=flat[indices].astype(np.float32),
        size=flat.size,
        shape=shape,
    )


def _content_rng(seed: int, flat: np.ndarray) -> np.random.Generator:
    digest = zlib.crc32(flat.tobytes())
    return np.random.default_rng(np.random.SeedSequence([seed, digest]))


def _stochastic_round(y: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    lo = np.floor(y)
    return lo + (rng.random(y.shape) < (y - lo))


def int8_encode_reference(fmt: Int8SRWireFormat, vec: np.ndarray) -> ChunkedInt8Payload:
    """``Int8SRWireFormat.encode`` as it was written before the kernel."""
    flat, shape = _as_flat64(vec)
    n = flat.size
    chunks = -(-n // fmt.chunk_size) if n else 0
    padded = np.zeros(chunks * fmt.chunk_size, dtype=np.float64)
    padded[:n] = flat
    grid = padded.reshape(chunks, fmt.chunk_size)
    scales = np.abs(grid).max(axis=1) / fmt.LEVELS
    y = np.divide(
        grid,
        scales[:, None],
        out=np.zeros_like(grid),
        where=scales[:, None] > 0,
    )
    q = _stochastic_round(y, _content_rng(fmt.seed, flat))
    levels = np.clip(q, -fmt.LEVELS, fmt.LEVELS).astype(np.int8)
    return ChunkedInt8Payload(levels=levels, scales=scales, size=n, shape=shape)


def int8_decode_reference(payload: ChunkedInt8Payload) -> np.ndarray:
    grid = payload.levels.astype(np.float64) * payload.scales[:, None]
    return grid.ravel()[: payload.size].reshape(payload.shape)


def qsgd_encode_reference(fmt: QSGDWireFormat, vec: np.ndarray) -> QSGDPayload:
    """``QSGDWireFormat.encode`` as it was written before the shared
    in-place rounding core."""
    flat, shape = _as_flat64(vec)
    n = flat.size
    buckets = -(-n // fmt.bucket_size) if n else 0
    padded = np.zeros(buckets * fmt.bucket_size, dtype=np.float64)
    padded[:n] = flat
    grid = padded.reshape(buckets, fmt.bucket_size)
    if fmt.norm == "max":
        norms = np.abs(grid).max(axis=1)
    else:
        norms = np.sqrt((grid * grid).sum(axis=1))
    norms = norms.astype(np.float32)
    norms64 = norms.astype(np.float64)
    y = np.divide(
        np.abs(grid) * fmt.levels,
        norms64[:, None],
        out=np.zeros_like(grid),
        where=norms64[:, None] > 0,
    )
    q = _stochastic_round(y, _content_rng(fmt.seed, flat))
    q = np.clip(q, 0, fmt.levels) * np.sign(grid)
    return QSGDPayload(levels=q.astype(np.int8), norms=norms, size=n, shape=shape)


def qsgd_decode_reference(fmt: QSGDWireFormat, payload: QSGDPayload) -> np.ndarray:
    grid = (
        payload.levels.astype(np.float64)
        * payload.norms.astype(np.float64)[:, None]
        / fmt.levels
    )
    return grid.ravel()[: payload.size].reshape(payload.shape)


def encode_reference(fmt, vec: np.ndarray):
    """The reference encode of an ``int8_sr`` or ``qsgd`` format."""
    if isinstance(fmt, Int8SRWireFormat):
        return int8_encode_reference(fmt, vec)
    return qsgd_encode_reference(fmt, vec)


def transmit_with_error_reference(fmt, vec: np.ndarray) -> tuple:
    """``(received, max_abs_error)`` by encode → decode → generic error."""
    payload = encode_reference(fmt, vec)
    if isinstance(fmt, Int8SRWireFormat):
        received = int8_decode_reference(payload)
    else:
        received = qsgd_decode_reference(fmt, payload)
    if np.asarray(vec).size == 0:
        return received, 0.0
    return received, float(np.max(np.abs(np.asarray(vec) - received)))
