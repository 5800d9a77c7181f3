"""Mini-batch loading: the cycling device feeder."""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.data.dataset import Dataset, resolve_arrays


class BatchCycler:
    """Endless batch source for asynchronous local training.

    HADFL devices "sample a mini-batch from P_k" an arbitrary number of
    times per aggregation cycle (Alg. 1 line 15) — local step counts
    differ per device and don't align with epoch boundaries.  The cycler
    reshuffles whenever an epoch's worth of indices is exhausted and
    tracks how many samples the device has consumed, which is what
    the paper's per-device "epoch" bookkeeping needs.
    """

    def __init__(
        self,
        dataset: Dataset,
        batch_size: int,
        rng: Optional[np.random.Generator] = None,
    ):
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        if len(dataset) == 0:
            raise ValueError("dataset is empty")
        self.dataset = dataset
        # Resolved once: a batch is gathered straight from the base arrays
        # (same rows, same bytes as ``dataset.features[batch]``) — never
        # through ``Subset.features``, which copies the whole shard.
        self.base_features, self.base_labels, self._rows = resolve_arrays(dataset)
        self.batch_size = min(batch_size, len(dataset))
        self._rng = rng or np.random.default_rng()
        self._order = self._rng.permutation(len(dataset))
        self._cursor = 0
        self.samples_consumed = 0

    @property
    def batches_per_epoch(self) -> int:
        return max(1, len(self.dataset) // self.batch_size)

    def get_state(self) -> dict:
        """Snapshot of everything a burst of :meth:`next_batch` mutates.

        Together with :meth:`set_state` this is the executor round-trip
        contract: restoring a snapshot and replaying the same number of
        ``next_batch`` calls yields bitwise-identical batches, including
        reshuffle points (the permutation RNG state travels too).
        """
        return {
            "order": self._order.copy(),
            "cursor": self._cursor,
            "samples_consumed": self.samples_consumed,
            "rng_state": self._rng.bit_generator.state,
        }

    def set_state(self, state: dict) -> None:
        order = np.asarray(state["order"])
        if order.shape != self._order.shape:
            raise ValueError(
                f"order has {order.size} indices, expected {self._order.size}"
            )
        self._order = order.copy()
        self._cursor = int(state["cursor"])
        self.samples_consumed = int(state["samples_consumed"])
        self._rng.bit_generator.state = state["rng_state"]

    def next_batch(self) -> Tuple[np.ndarray, np.ndarray]:
        """Return the next mini-batch, reshuffling across epoch boundaries."""
        n = len(self.dataset)
        if self._cursor + self.batch_size > n:
            self._order = self._rng.permutation(n)
            self._cursor = 0
        batch = self._order[self._cursor : self._cursor + self.batch_size]
        self._cursor += self.batch_size
        self.samples_consumed += len(batch)
        if self._rows is not None:
            batch = self._rows[batch]
        return self.base_features[batch], self.base_labels[batch]
