"""Reference top-k encode: one full stable sort per payload (test-only).

This is the survivor selection ``repro.comm.quantise.TopKWireFormat``
shipped before the O(n) partition: a stable ``argsort`` of ``-|x|`` over
the whole payload, its first ``k`` positions re-sorted into ascending
index order.  It defines the bits — which entries survive when
magnitudes tie across the threshold (the lower index), where NaN ranks
(last), the index and value dtypes — the production encode must
reproduce, and is compared against it by
``tests/property/test_property_quantise.py`` and the count / perf tests
in ``tests/test_hotpath_perf.py``.
"""

import numpy as np

from repro.comm.quantise import TopKPayload, TopKWireFormat, _as_flat64


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
