"""Quantised wire formats: int8-SR, QSGD buckets, top-k sparsification.

Three production-grade lossy codecs behind the
:func:`~repro.comm.wire.register_wire_format` hook, modelling the
communication-efficient-FL compressors (DGC, QSGD — see PAPERS.md) the
wire subsystem was built to host:

* :class:`Int8SRWireFormat` (``int8_sr``) — per-chunk scaled int8 with
  **stochastic rounding**: each chunk ships int8 levels plus one fp64
  scale (``max|chunk| / 127``), and the round to the int grid is
  randomised so the quantiser is unbiased (``E[decode] == x``).
* :class:`QSGDWireFormat` (``qsgd2``/``qsgd4``/``qsgd8``) — bucketed
  QSGD-style stochastic quantisation: per bucket, magnitudes are
  stochastically rounded onto ``s = 2^(bits-1) - 1`` signed levels of
  the bucket norm (max-norm by default, ``l2`` selectable), and the
  norm ships as fp32.
* :class:`TopKWireFormat` (``topk<frac>``, e.g. ``topk0.1``) — DGC-style
  top-k sparsification: only the ``k = frac·n`` largest-magnitude
  entries ship, as (int32 index, fp32 value) pairs; everything else
  decodes to zero.

Determinism
-----------
Stochastic codecs must not make fixed-seed trajectories irreproducible,
so their randomness is **content-derived**: the rounding RNG is seeded
from ``(format seed, crc32(payload bytes))``, making ``transmit`` a pure
function of the payload.  Two identical runs therefore quantise
identically, regardless of how many transfers other runs in the same
process performed — there is no hidden stream position.

Pricing
-------
All three break the fixed width×scalars assumption, so they override
:meth:`~repro.comm.wire.WireFormat.nbytes` (and, through it, the
payload-aware :meth:`~repro.comm.wire.WireFormat.payload_nbytes`):

* ``int8_sr``: ``n · 1 B + ceil(n/chunk) · 8 B`` (scales);
* ``qsgd{b}``: ``ceil(n·b/8) B + ceil(n/bucket) · 4 B`` (norms) — the
  simulator stores levels as int8 for convenience but prices the packed
  ``b``-bit figure;
* ``topk``: ``8 B + k · (4 + 4) B`` — a count header plus the
  (index, value) pairs; *variable* per payload size, which is why every
  pricing site routes through ``payload_nbytes``.

``bytes_per_scalar`` (the segment granularity of the network time
model) is 1 for all three: quantised payloads are byte-granular.
"""

from __future__ import annotations

import re
import zlib
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.comm import wire as _wire
from repro.comm.wire import WireFormat, register_wire_format


def _content_rng(seed: int, flat: np.ndarray) -> np.random.Generator:
    """RNG derived from the format seed and the payload *content*.

    crc32 is stable across processes and Python versions (unlike
    ``hash``), so the stochastic rounding of a given payload under a
    given format seed is reproducible everywhere.
    """
    digest = zlib.crc32(flat.tobytes())
    return np.random.default_rng(np.random.SeedSequence([seed, digest]))


def _as_flat64(vec: np.ndarray) -> Tuple[np.ndarray, Tuple[int, ...]]:
    arr = np.asarray(vec, dtype=np.float64)
    return arr.ravel(), arr.shape


def _stochastic_round(y: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Unbiased round of ``y`` to the integer grid: floor + Bernoulli(frac)."""
    lo = np.floor(y)
    return lo + (rng.random(y.shape) < (y - lo))


# ---------------------------------------------------------------------- #
# int8 with per-chunk scale + stochastic rounding
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class ChunkedInt8Payload:
    """On-wire form of :class:`Int8SRWireFormat`: levels + per-chunk scales."""

    levels: np.ndarray  # int8, padded to chunks * chunk_size
    scales: np.ndarray  # fp64, one per chunk
    size: int
    shape: Tuple[int, ...]


class Int8SRWireFormat(WireFormat):
    """Per-chunk scaled int8 with stochastic rounding.

    Each chunk of ``chunk_size`` scalars is mapped onto the signed int8
    grid of its own scale ``max|chunk| / 127`` and rounded
    *stochastically* (floor + Bernoulli on the fraction), so the
    round-trip is unbiased and the max-abs error is below one scale
    step.  The rounding RNG is content-derived (see module docstring),
    making ``transmit`` deterministic per payload.
    """

    lossless = False
    bytes_per_scalar = 1  # byte-granular payloads
    LEVELS = 127
    SCALE_NBYTES = 8  # the fp64 per-chunk scale ships uncompressed

    def __init__(self, chunk_size: int = 1024, seed: int = 0, name: str = "int8_sr") -> None:
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        if seed < 0:
            raise ValueError(f"seed must be non-negative, got {seed}")
        self.chunk_size = int(chunk_size)
        self.seed = int(seed)
        self.name = name

    def nbytes(self, num_scalars: int) -> int:
        if num_scalars < 0:
            raise ValueError(f"num_scalars must be non-negative, got {num_scalars}")
        if num_scalars == 0:
            return 0
        chunks = -(-num_scalars // self.chunk_size)
        return num_scalars + chunks * self.SCALE_NBYTES

    def encode(self, vec: np.ndarray) -> ChunkedInt8Payload:
        flat, shape = _as_flat64(vec)
        n = flat.size
        chunks = -(-n // self.chunk_size) if n else 0
        padded = np.zeros(chunks * self.chunk_size, dtype=np.float64)
        padded[:n] = flat
        grid = padded.reshape(chunks, self.chunk_size)
        scales = np.abs(grid).max(axis=1) / self.LEVELS
        y = np.divide(
            grid,
            scales[:, None],
            out=np.zeros_like(grid),
            where=scales[:, None] > 0,
        )
        q = _stochastic_round(y, _content_rng(self.seed, flat))
        levels = np.clip(q, -self.LEVELS, self.LEVELS).astype(np.int8)
        return ChunkedInt8Payload(levels=levels, scales=scales, size=n, shape=shape)

    def decode(self, payload: ChunkedInt8Payload) -> np.ndarray:
        grid = payload.levels.astype(np.float64) * payload.scales[:, None]
        return grid.ravel()[: payload.size].reshape(payload.shape)


# ---------------------------------------------------------------------- #
# QSGD-style bucketed stochastic quantisation
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class QSGDPayload:
    """On-wire form of :class:`QSGDWireFormat`: signed levels + norms."""

    levels: np.ndarray  # int8 in [-s, s], padded to buckets * bucket_size
    norms: np.ndarray  # fp32, one per bucket
    size: int
    shape: Tuple[int, ...]


class QSGDWireFormat(WireFormat):
    """Bucketed QSGD-style stochastic quantisation with per-bucket norm.

    Per bucket of ``bucket_size`` scalars, magnitudes are stochastically
    rounded onto ``s = 2^(bits-1) - 1`` uniform levels of the bucket
    norm; the norm crosses the wire as fp32.  ``norm="max"`` (default)
    uses the bucket's max-abs — the tight grid for dense parameter
    payloads; ``norm="l2"`` is the classic QSGD normaliser.  Levels are
    stored as int8 in the simulator but priced at the packed ``bits``
    figure.
    """

    lossless = False
    bytes_per_scalar = 1
    NORM_NBYTES = 4

    def __init__(
        self,
        bits: int,
        bucket_size: int = 512,
        norm: str = "max",
        seed: int = 0,
        name: Optional[str] = None,
    ) -> None:
        if not 2 <= bits <= 8:
            raise ValueError(f"bits must be in [2, 8], got {bits}")
        if bucket_size < 1:
            raise ValueError(f"bucket_size must be >= 1, got {bucket_size}")
        if norm not in ("max", "l2"):
            raise ValueError(f"norm must be 'max' or 'l2', got {norm!r}")
        if seed < 0:
            raise ValueError(f"seed must be non-negative, got {seed}")
        self.bits = int(bits)
        self.levels = 2 ** (bits - 1) - 1
        self.bucket_size = int(bucket_size)
        self.norm = norm
        self.seed = int(seed)
        self.name = name or f"qsgd{bits}"

    def nbytes(self, num_scalars: int) -> int:
        if num_scalars < 0:
            raise ValueError(f"num_scalars must be non-negative, got {num_scalars}")
        if num_scalars == 0:
            return 0
        buckets = -(-num_scalars // self.bucket_size)
        return -(-num_scalars * self.bits // 8) + buckets * self.NORM_NBYTES

    def _bucket_norms(self, grid: np.ndarray) -> np.ndarray:
        if self.norm == "max":
            return np.abs(grid).max(axis=1)
        return np.sqrt((grid * grid).sum(axis=1))

    def encode(self, vec: np.ndarray) -> QSGDPayload:
        flat, shape = _as_flat64(vec)
        n = flat.size
        buckets = -(-n // self.bucket_size) if n else 0
        padded = np.zeros(buckets * self.bucket_size, dtype=np.float64)
        padded[:n] = flat
        grid = padded.reshape(buckets, self.bucket_size)
        # The norm the receiver will use is the fp32 round trip; encode
        # against the same figure so the grid is consistent end to end.
        norms = self._bucket_norms(grid).astype(np.float32)
        norms64 = norms.astype(np.float64)
        y = np.divide(
            np.abs(grid) * self.levels,
            norms64[:, None],
            out=np.zeros_like(grid),
            where=norms64[:, None] > 0,
        )
        q = _stochastic_round(y, _content_rng(self.seed, flat))
        q = np.clip(q, 0, self.levels) * np.sign(grid)
        return QSGDPayload(
            levels=q.astype(np.int8), norms=norms, size=n, shape=shape
        )

    def decode(self, payload: QSGDPayload) -> np.ndarray:
        grid = (
            payload.levels.astype(np.float64)
            * payload.norms.astype(np.float64)[:, None]
            / self.levels
        )
        return grid.ravel()[: payload.size].reshape(payload.shape)


# ---------------------------------------------------------------------- #
# DGC-style top-k sparsification
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class TopKPayload:
    """On-wire form of :class:`TopKWireFormat`: (index, value) pairs."""

    indices: np.ndarray  # int64 positions into the flat vector
    values: np.ndarray  # fp32 surviving entries
    size: int
    shape: Tuple[int, ...]


class TopKWireFormat(WireFormat):
    """Top-k sparsification: ship only the largest-magnitude entries.

    The DGC trade: ``k = max(1, round(fraction · n))`` entries survive
    as (int32 index, fp32 value) pairs — everything else decodes to
    zero.  The payload size varies with the vector, which is exactly
    what :meth:`~repro.comm.wire.WireFormat.payload_nbytes` exists to
    price.

    **Selection rule** (a contract — it fixes every top-k trajectory):
    the survivors are the first ``k`` entries of the payload ordered by
    descending ``|x|``, equal magnitudes by ascending index, NaN last;
    they ship in ascending index order, values cast to fp32.  It needs
    no RNG, and it is found in O(n) by partition, never by sorting the
    payload — pinned bitwise against the stable-sort encode kept in
    ``tests/reference_quantise.py`` by
    ``test_topk_selection_matches_stable_sort_reference``
    (``tests/property/test_property_quantise.py``).

    Zeroing most of a raw *model* destroys it, so the format sets
    ``prefer_delta``: boundaries where both endpoints share a reference
    (the last aggregate) ship the top-k of ``vec - reference`` and the
    receiver reconstructs ``reference + decode(...)`` — sparsifying the
    *drift*, which is what DGC sparsifies, not the weights themselves.
    """

    lossless = False
    bytes_per_scalar = 1
    prefer_delta = True
    HEADER_NBYTES = 8  # element count + flags
    PAIR_NBYTES = 4 + 4  # int32 index + fp32 value

    def __init__(self, fraction: float, name: Optional[str] = None) -> None:
        if not 0.0 < fraction <= 1.0:
            raise ValueError(f"fraction must be in (0, 1], got {fraction}")
        self.fraction = float(fraction)
        self.name = name or f"topk{fraction:g}"

    def k_for(self, num_scalars: int) -> int:
        """Survivor count for a payload of ``num_scalars`` entries."""
        if num_scalars <= 0:
            return 0
        return min(num_scalars, max(1, int(round(self.fraction * num_scalars))))

    def nbytes(self, num_scalars: int) -> int:
        if num_scalars < 0:
            raise ValueError(f"num_scalars must be non-negative, got {num_scalars}")
        if num_scalars == 0:
            return 0
        return self.HEADER_NBYTES + self.k_for(num_scalars) * self.PAIR_NBYTES

    def encode(self, vec: np.ndarray) -> TopKPayload:
        flat, shape = _as_flat64(vec)
        k = self.k_for(flat.size)
        if k == flat.size:  # everything survives (and n == 0 has no k-th)
            indices = np.arange(k)
        else:
            # Selection, not a sort: the k-th smallest -|x| is the
            # threshold, everything strictly below it survives, and the
            # threshold class fills the remaining slots lowest index
            # first.  NaN orders last under partition as under sort.
            key = -np.abs(flat)
            threshold = np.partition(key, k - 1)[k - 1]
            if threshold == threshold:
                keep = key < threshold
                ties = key == threshold
            else:  # a NaN threshold: every number outranks it
                ties = np.isnan(key)
                keep = ~ties
            keep[np.flatnonzero(ties)[: k - np.count_nonzero(keep)]] = True
            indices = np.flatnonzero(keep)
        return TopKPayload(
            indices=indices,
            values=flat[indices].astype(np.float32),
            size=flat.size,
            shape=shape,
        )

    def decode(self, payload: TopKPayload) -> np.ndarray:
        out = np.zeros(payload.size, dtype=np.float64)
        out[payload.indices] = payload.values.astype(np.float64)
        return out.reshape(payload.shape)


# ---------------------------------------------------------------------- #
# Registration: presets + the name families the registry resolves lazily.
# ---------------------------------------------------------------------- #

WIRE_INT8_SR = register_wire_format(Int8SRWireFormat())
WIRE_QSGD2 = register_wire_format(QSGDWireFormat(bits=2))
WIRE_QSGD4 = register_wire_format(QSGDWireFormat(bits=4))
WIRE_QSGD8 = register_wire_format(QSGDWireFormat(bits=8))
WIRE_TOPK01 = register_wire_format(TopKWireFormat(0.1))
WIRE_TOPK001 = register_wire_format(TopKWireFormat(0.01))

_TOPK_NAME = re.compile(r"^topk(\d*\.?\d+(?:[eE]-?\d+)?)$")
_QSGD_NAME = re.compile(r"^qsgd(\d+)$")


def resolve(name: str) -> Optional[WireFormat]:
    """Resolve a quantiser name, constructing family members on demand.

    ``topk<frac>`` accepts any fraction in (0, 1] (``topk0.05``,
    ``topk0.25``, …) and ``qsgd<bits>`` any bit width in [2, 8]; newly
    constructed formats are registered under their canonical name so
    repeated lookups return the same instance.  Returns ``None`` for
    names outside the quantiser families (the registry then reports the
    unknown name).
    """
    fmt = _wire._REGISTRY.get(name)
    if fmt is not None:
        return fmt
    match = _TOPK_NAME.match(name)
    if match:
        fmt = TopKWireFormat(float(match.group(1)))
        return _wire._REGISTRY.get(fmt.name) or register_wire_format(fmt)
    match = _QSGD_NAME.match(name)
    if match:
        fmt = QSGDWireFormat(bits=int(match.group(1)))
        return _wire._REGISTRY.get(fmt.name) or register_wire_format(fmt)
    return None
