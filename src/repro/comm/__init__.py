"""Communication substrate: flat parameters, collectives, the sync ring.

Everything the three training schemes exchange goes through this package:

* :mod:`~repro.comm.params` — the flat parameter arena: model state as
  one contiguous vector (what gets "sent" over the simulated network).
* :mod:`~repro.comm.allreduce` — ring all-reduce (reduce-scatter +
  all-gather), the collective behind the distributed-training baseline.
* :mod:`~repro.comm.gossip` — gossip scatter-gather averaging over a
  directed ring, HADFL's partial-synchronisation primitive.
* :mod:`~repro.comm.topology` — the random directed ring of a partial
  synchronisation, as its traversal order.
* :mod:`~repro.comm.ring_repair` — the fault-tolerant synchronisation
  protocol of Sec. III-D (timeout → handshake → warn upstream → bypass).
* :mod:`~repro.comm.volume` — communication-volume accounting: every
  simulated byte, by traffic kind and receiver.
* :mod:`~repro.comm.wire` — the cast-on-the-wire codec: what every
  payload becomes (fp64/fp32/fp16 cast, quantiser hook) and costs
  (``payload_nbytes``) at every simulated transfer boundary.
* :mod:`~repro.comm.quantise` — the lossy quantisers behind the hook:
  stochastic-rounding int8 (``int8_sr``), bucketed QSGD
  (``qsgd{2,4,8}``), DGC-style top-k sparsification (``topk<frac>``).
"""

from repro.comm.wire import (
    DEFAULT_WIRE,
    CastWireFormat,
    WireFormat,
    available_wire_formats,
    get_wire_format,
    register_wire_format,
)
from repro.comm.quantise import (
    Int8SRWireFormat,
    QSGDWireFormat,
    TopKWireFormat,
)
from repro.comm.params import ArenaSlot, ParamArena
from repro.comm.allreduce import ring_allreduce_detailed
from repro.comm.topology import directed_ring
from repro.comm.ring_repair import (
    CONTROL_MESSAGE_BYTES,
    FaultTolerantRingSync,
    RingSyncResult,
)
from repro.comm.volume import CommVolumeAccountant

__all__ = [
    "DEFAULT_WIRE",
    "CastWireFormat",
    "WireFormat",
    "available_wire_formats",
    "get_wire_format",
    "register_wire_format",
    "Int8SRWireFormat",
    "QSGDWireFormat",
    "TopKWireFormat",
    "ArenaSlot",
    "ParamArena",
    "ring_allreduce_detailed",
    "directed_ring",
    "FaultTolerantRingSync",
    "RingSyncResult",
    "CONTROL_MESSAGE_BYTES",
    "CommVolumeAccountant",
]
