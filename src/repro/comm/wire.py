"""Wire formats: the cast-on-the-wire codec of every simulated transfer.

The paper's testbed exchanges fp32 tensors between GPUs while our NumPy
substrate computes in fp64.  Before this module existed the simulator
*priced* transfers at 4 bytes/scalar but shipped lossless fp64 payloads —
byte accounting and numerics described two different systems.  A
:class:`WireFormat` closes that gap: it defines both what a payload
*becomes* on the wire (``encode``/``decode``, applied at every simulated
transfer boundary so a receiver only ever sees what survived the cast)
and what that payload *costs* (``bytes_per_scalar``, the single source of
truth for all byte pricing and segment granularity).

Compressed collectives (DGC, QSGD-style quantisation — see PAPERS.md)
treat wire precision as a first-class accuracy/communication trade-off;
:func:`register_wire_format` is the hook for such quantisers: any object
implementing the :class:`WireFormat` interface can be registered and
selected by name everywhere a dtype string is accepted.  The production
quantisers live in :mod:`repro.comm.quantise` (``int8_sr``,
``qsgd{2,4,8}``, ``topk<frac>``); the registry resolves their name
families lazily, so e.g. ``topk0.05`` works anywhere a dtype string is
accepted without prior registration.

Contract
--------
* ``transmit(x)`` — what the receiver sees — is ``decode(encode(x))`` in
  fp64.  For the lossless default (``fp64``) it is the *identity on the
  same object* (zero-copy), so default trajectories are bitwise identical
  to a simulator with no wire layer at all.  ``encode`` may return any
  payload object (quantisers ship structured (levels, scales) or
  (indices, values) payloads); ``decode`` must reconstruct an fp64 array
  of the original shape.
* ``payload_nbytes(vec)`` prices one concrete transfer.  The default —
  ``nbytes(vec.size)``, i.e. ``bytes_per_scalar`` × scalars for a plain
  cast — is all a fixed-width format needs; quantisers override
  ``nbytes`` (per-chunk scales, packed sub-byte levels, variable top-k
  (index, value) pairs) and every pricing site routes through the
  payload-aware figure: model wire size
  (``SimulatedCluster.model_nbytes``) and the network model's
  per-transfer byte figure.  Size is a pure function of the scalar
  count for every format here, which the ring all-reduce relies on: it
  prices the two segment *lengths* it sends through ``nbytes`` once
  instead of every segment through ``payload_nbytes``
  (:class:`~repro.comm.allreduce.AllReduceStats`).
  ``bytes_per_scalar`` survives as the *segment granularity* of the
  network time model (byte-granular, i.e. 1, for quantised formats).
* ``transmit_with_error(x)`` also returns the max-abs round-trip
  error, the per-round
  quantisation-error telemetry recorded in ``RoundRecord.detail``.
  It is meaningful for value-preserving codecs (casts, int8/QSGD grids,
  where it tracks the grid step); for sparsifying codecs like top-k it
  reports the largest *dropped* magnitude instead — a sparsity figure,
  not a precision one.
* Stochastic quantisers derive their rounding RNG from the payload
  content plus a fixed format seed (see :mod:`repro.comm.quantise`), so
  ``transmit`` stays a pure function and fixed-seed trajectories remain
  reproducible.
"""

from __future__ import annotations

from typing import Dict, Optional, Union

import numpy as np


class WireFormat:
    """What a flat parameter payload becomes — and costs — on the wire.

    Subclasses must set ``name``, ``bytes_per_scalar`` and ``lossless``,
    and implement :meth:`encode` / :meth:`decode`.  ``transmit`` and
    ``transmit_with_error`` have generic implementations; lossy formats
    may override them to fuse the round trip.
    """

    name: str = "abstract"
    bytes_per_scalar: int = 8
    lossless: bool = False
    #: Sparsifying formats (top-k) are meaningless on raw state — zeroing
    #: most of a *model* destroys it — but excellent on *updates*.  A
    #: format that sets ``prefer_delta`` asks every boundary where sender
    #: and receiver share a reference vector (the last aggregate both
    #: ends hold) to ship ``vec - reference`` instead of ``vec``; the
    #: receiver reconstructs ``reference + decode(...)``.  Boundaries
    #: with no shared reference fall back to the plain transmit.
    prefer_delta: bool = False
    #: ``transmit`` acts on every scalar independently of its neighbours
    #: and of the payload's shape (a plain cast), so any stack of
    #: payloads may cross in one call with the same bits and the same
    #: maximum error — the ring schedule sends a whole step that way.
    #: Formats whose output depends on the payload as a whole
    #: (content-seeded rounding, per-chunk scales, top-k) leave it off
    #: and keep one call per payload.
    elementwise: bool = False

    # ------------------------------------------------------------------ #
    def encode(self, vec: np.ndarray) -> np.ndarray:
        """The on-wire representation of ``vec``."""
        raise NotImplementedError

    def decode(self, payload: np.ndarray) -> np.ndarray:
        """Reconstruct an fp64 vector from an on-wire payload."""
        raise NotImplementedError

    def transmit(self, vec: np.ndarray) -> np.ndarray:
        """What the receiver sees: ``decode(encode(vec))`` in fp64."""
        return self.decode(self.encode(vec))

    def transmit_with_error(self, vec: np.ndarray) -> tuple:
        """``(received, max_abs_error)`` of sending ``vec`` over this wire.

        The single place the cast-error metric lives: every boundary
        that records quantisation telemetry routes through it.  Lossless
        wires skip the error pass entirely.
        """
        received = self.transmit(vec)
        if self.lossless or np.asarray(vec).size == 0:
            return received, 0.0
        return received, float(np.max(np.abs(np.asarray(vec) - received)))

    def transmit_delta_with_error(
        self, vec: np.ndarray, reference: Optional[np.ndarray]
    ) -> tuple:
        """``(received, max_abs_error)`` with optional delta shipping.

        The reference-aware boundary entry point: when this format
        prefers delta coding (see :attr:`prefer_delta`) and the caller
        can name a ``reference`` both endpoints hold, the wire carries
        ``vec - reference`` and the receiver reconstructs
        ``reference + decode(...)`` — the DGC pattern that makes
        sparsification viable on model-state payloads.  The error equals
        the reconstruction error (the reference cancels).  Everything
        else degrades to :meth:`transmit_with_error`.  A reference of
        another shape is a ``ValueError`` — it would broadcast silently.
        """
        if reference is None or not self.prefer_delta:
            return self.transmit_with_error(vec)
        vec = np.asarray(vec)
        if np.shape(reference) != vec.shape:
            raise ValueError(
                f"reference shape {np.shape(reference)} does not match "
                f"vector shape {vec.shape}"
            )
        delta, err = self.transmit_with_error(vec - reference)
        return reference + delta, err

    def nbytes(self, num_scalars: int) -> int:
        """Wire size of ``num_scalars`` scalars (the paper's M for a model).

        Fixed-width formats price ``bytes_per_scalar`` per scalar;
        quantisers override this with their own size law (scale/norm
        overheads, packed sub-byte levels, top-k survivor counts).
        """
        if num_scalars < 0:
            raise ValueError(f"num_scalars must be non-negative, got {num_scalars}")
        return int(num_scalars) * self.bytes_per_scalar

    def payload_nbytes(self, vec: np.ndarray) -> int:
        """Wire size of this concrete payload.

        The payload-aware pricing entry point: every site that charges
        bytes for one actual transfer (model dispatch, broadcasts)
        routes through it.  The default delegates to :meth:`nbytes` on
        the element count, which is exact for every format whose size is
        a pure function of the count — including the quantisers in
        :mod:`repro.comm.quantise`.  No format overrides it, and the
        ring all-reduce prices its segments by length through
        :meth:`nbytes`: a content-dependent codec would have to teach
        the ring its size law as well.
        """
        return self.nbytes(int(np.asarray(vec).size))

    def dense_nbytes(self, num_scalars: int) -> int:
        """Wire size of a full-width (fp64) dense re-sync of the model.

        Revival re-sync ships the raw reference vector, bypassing this
        format's compression: a revived device's reference is stale, so
        a delta against it is undecodable and a sparsified model is
        garbage.  Priced at 8 B/scalar regardless of the format.
        """
        if num_scalars < 0:
            raise ValueError(f"num_scalars must be non-negative, got {num_scalars}")
        return int(num_scalars) * 8

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.name!r}, {self.bytes_per_scalar} B/scalar)"


class CastWireFormat(WireFormat):
    """Cast to a (possibly narrower) IEEE float dtype on the wire.

    ``fp64`` is a pure passthrough: ``encode``/``transmit`` return the
    input object itself, so the lossless default adds no copies and no
    numeric perturbation anywhere it is applied.
    """

    elementwise = True

    def __init__(self, name: str, dtype: "np.typing.DTypeLike") -> None:
        self.name = name
        self.dtype = np.dtype(dtype)
        if self.dtype.kind != "f":
            raise ValueError(f"wire dtype must be a float type, got {self.dtype}")
        self.bytes_per_scalar = int(self.dtype.itemsize)
        self.lossless = self.dtype == np.float64

    def encode(self, vec: np.ndarray) -> np.ndarray:
        vec = np.asarray(vec)
        if vec.dtype == self.dtype:
            return vec
        return vec.astype(self.dtype)

    def decode(self, payload: np.ndarray) -> np.ndarray:
        payload = np.asarray(payload)
        if payload.dtype == np.float64:
            return payload
        return payload.astype(np.float64)

    def transmit(self, vec: np.ndarray) -> np.ndarray:
        vec = np.asarray(vec)
        if self.lossless and vec.dtype == np.float64:
            return vec
        return vec.astype(self.dtype).astype(np.float64)


# ---------------------------------------------------------------------- #
# Registry: the built-in cast formats plus the hook for future quantisers.
# ---------------------------------------------------------------------- #

WIRE_FP64 = CastWireFormat("fp64", np.float64)
WIRE_FP32 = CastWireFormat("fp32", np.float32)
WIRE_FP16 = CastWireFormat("fp16", np.float16)

#: The default wire: lossless fp64 passthrough, priced honestly at
#: 8 bytes/scalar.  Bitwise identical trajectories to a wire-less
#: simulator by construction (identity transmit).
DEFAULT_WIRE = WIRE_FP64

_REGISTRY: Dict[str, WireFormat] = {
    fmt.name: fmt for fmt in (WIRE_FP64, WIRE_FP32, WIRE_FP16)
}

WireSpec = Optional[Union[str, WireFormat]]


def register_wire_format(fmt: WireFormat) -> WireFormat:
    """Make a custom format (e.g. a quantiser) selectable by name."""
    if not fmt.name or not isinstance(fmt.name, str):
        raise ValueError("wire format needs a non-empty string name")
    if fmt.bytes_per_scalar < 1:
        raise ValueError(
            f"bytes_per_scalar must be >= 1, got {fmt.bytes_per_scalar}"
        )
    _REGISTRY[fmt.name] = fmt
    return fmt


def get_wire_format(spec: WireSpec = None) -> WireFormat:
    """Resolve a wire-format spec: name, ready instance, or ``None``.

    ``None`` yields :data:`DEFAULT_WIRE` (fp64 passthrough).
    """
    if spec is None:
        return DEFAULT_WIRE
    if isinstance(spec, WireFormat):
        return spec
    fmt = _REGISTRY.get(spec)
    if fmt is None and isinstance(spec, str):
        # The quantiser families (topk<frac>, qsgd<bits>, int8_sr) are
        # resolved lazily: importing the module registers the presets,
        # and resolve() constructs family members on demand.  Imported
        # here (not at module top) to avoid a circular import.
        from repro.comm import quantise

        fmt = quantise.resolve(spec)
    if fmt is None:
        raise ValueError(
            f"unknown wire format {spec!r}; available: {available_wire_formats()} "
            "plus the topk<frac> / qsgd<bits> families"
        )
    return fmt


def available_wire_formats() -> list:
    """Registered format names, built-ins first (quantiser presets
    included — family members like ``topk0.25`` resolve on demand)."""
    from repro.comm import quantise  # noqa: F401  (registers the presets)

    builtins = ["fp64", "fp32", "fp16"]
    extras = sorted(name for name in _REGISTRY if name not in builtins)
    return builtins + extras
