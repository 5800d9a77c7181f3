"""Federated data partitions as lazy shard descriptors.

A partition is a list of ``K`` disjoint index arrays covering the
dataset (every sample assigned to exactly one device) — the invariant
the property tests pin down.  The paper splits CIFAR-10 evenly across
the four GPUs ("The training data is split on four GPUs");
:class:`IIDShardSpec` reproduces that, while :class:`DirichletShardSpec`
supports the non-IID extension the paper lists as future work.

At population scale (10^5–10^6 virtual devices) materialising ``K``
index arrays up front is the memory bottleneck, so each partition is a
**shard descriptor** (:class:`ShardSpec`): a small object holding the
partition's RNG draws (one permutation, or a per-class count matrix)
from which any single device's index array is assembled on demand, and
:meth:`ShardSpec.materialise` is the eager list.
:class:`SampledShardSpec` covers the regime where even the descriptor
must not scale with ``K`` (per-device seeded draws).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np


def _validate_k(num_devices: int) -> None:
    if num_devices < 1:
        raise ValueError(f"need at least one device, got {num_devices}")


class ShardSpec:
    """Lazy partition descriptor: per-device index arrays on demand.

    Subclasses capture whatever randomness the partition scheme draws in
    ``O(dataset)`` (never ``O(K × shard)``) state at construction;
    :meth:`shard` then assembles one device's sorted index array without
    touching any other device's.  ``materialise`` recovers the classic
    eager list.
    """

    num_devices: int

    def shard(self, device: int) -> np.ndarray:
        """Sorted sample indices of one device's shard."""
        raise NotImplementedError

    def shard_sizes(self) -> np.ndarray:
        """Per-device shard lengths, without assembling any shard."""
        raise NotImplementedError

    def materialise(self) -> List[np.ndarray]:
        """All ``K`` shards, eagerly (the classic partition output)."""
        return [self.shard(device) for device in range(self.num_devices)]

    def _check_device(self, device: int) -> None:
        if not 0 <= device < self.num_devices:
            raise IndexError(
                f"device {device} out of range for {self.num_devices} shards"
            )


class ExplicitShardSpec(ShardSpec):
    """Adapter wrapping precomputed index arrays as a descriptor."""

    def __init__(self, shards: Sequence[Sequence[int]]) -> None:
        _validate_k(len(shards))
        self._shards = [np.asarray(s) for s in shards]
        self.num_devices = len(self._shards)

    def shard(self, device: int) -> np.ndarray:
        self._check_device(device)
        return self._shards[device]

    def shard_sizes(self) -> np.ndarray:
        return np.array([len(s) for s in self._shards], dtype=np.int64)


class IIDShardSpec(ShardSpec):
    """Round-robin deal of one shuffled order: near-equal IID shards.

    Construction draws a single ``rng.permutation`` —
    ``O(num_samples)`` regardless of ``K`` — and each shard is a strided
    slice of it, so descriptors for 10^6 devices cost the same
    milliseconds as for 4.
    """

    def __init__(
        self,
        num_samples: int,
        num_devices: int,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        _validate_k(num_devices)
        rng = rng or np.random.default_rng()
        self.num_samples = int(num_samples)
        self.num_devices = int(num_devices)
        self._order = rng.permutation(num_samples)

    def shard(self, device: int) -> np.ndarray:
        self._check_device(device)
        return np.sort(self._order[device :: self.num_devices])

    def shard_sizes(self) -> np.ndarray:
        dealt = np.arange(self.num_devices, dtype=np.int64)
        return (self.num_samples - dealt + self.num_devices - 1) // self.num_devices


class DirichletShardSpec(ShardSpec):
    """Label-skewed non-IID split: per-class Dirichlet(alpha) allocation.

    Smaller ``alpha`` → more skew (each device dominated by few classes);
    the standard recipe from Hsu et al. (2019).  The draw sequence, per
    class (in ``np.unique`` order): shuffle the class's indices, draw one
    Dirichlet weight vector, floor-allocate counts with the remainder on
    the last device; retry the whole allocation while any device total
    falls below ``min_size``.  The result is kept as a ``(C, K)`` count
    matrix and per-class shuffled index arrays; a shard is the sorted
    concatenation of its per-class slices, assembled only on request.
    """

    def __init__(
        self,
        labels: np.ndarray,
        num_devices: int,
        alpha: float = 0.5,
        rng: Optional[np.random.Generator] = None,
        min_size: int = 1,
        max_retries: int = 100,
    ) -> None:
        _validate_k(num_devices)
        if alpha <= 0:
            raise ValueError(f"alpha must be positive, got {alpha}")
        labels = np.asarray(labels)
        rng = rng or np.random.default_rng()
        self.num_devices = int(num_devices)
        classes = np.unique(labels)
        for _ in range(max_retries):
            # Fresh (sorted) per-class indices each attempt, exactly like
            # the historical eager loop: a retry's shuffle starts from
            # np.flatnonzero order, not from the previous attempt's
            # permutation, so retry trajectories stay bitwise identical.
            class_indices = [np.flatnonzero(labels == cls) for cls in classes]
            counts = np.empty((len(classes), num_devices), dtype=np.int64)
            for row, indices in enumerate(class_indices):
                rng.shuffle(indices)
                weights = rng.dirichlet([alpha] * num_devices)
                row_counts = np.floor(weights * len(indices)).astype(int)
                row_counts[-1] = len(indices) - row_counts[:-1].sum()
                counts[row] = row_counts
            if int(counts.sum(axis=0).min()) >= min_size:
                self._class_indices = [indices.copy() for indices in class_indices]
                self._counts = counts
                # Exclusive per-class prefix sums: shard d's slice of
                # class c is class_indices[c][starts[c, d] : + counts[c, d]].
                starts = np.zeros_like(counts)
                np.cumsum(counts[:, :-1], axis=1, out=starts[:, 1:])
                self._starts = starts
                return
        raise RuntimeError(
            f"could not satisfy min_size={min_size} after {max_retries} retries; "
            "lower min_size or raise alpha"
        )

    def shard(self, device: int) -> np.ndarray:
        self._check_device(device)
        parts = [
            indices[start : start + count]
            for indices, start, count in zip(
                self._class_indices,
                self._starts[:, device],
                self._counts[:, device],
            )
            if count
        ]
        if not parts:
            return np.empty(0, dtype=np.int64)
        return np.sort(np.concatenate(parts).astype(np.int64, copy=False))

    def shard_sizes(self) -> np.ndarray:
        return self._counts.sum(axis=0)


class SampledShardSpec(ShardSpec):
    """Per-device seeded subsampling for virtual populations.

    At 10^6 devices a disjoint K-way split is both impossible (shards
    would be fractions of a sample) and unnecessary — each virtual
    device models an independent client holding its own local data.
    Every shard is an independent without-replacement draw of
    ``shard_size`` samples from the dataset, seeded by
    ``SeedSequence([seed, device, salt])``: ``O(1)`` descriptor state,
    any device's shard reproducible in isolation, never the full K-way
    eager split.  Shards of different devices may overlap by design.
    """

    _SALT = 0x5A4D

    def __init__(
        self,
        num_samples: int,
        num_devices: int,
        shard_size: int,
        seed: int = 0,
    ) -> None:
        _validate_k(num_devices)
        if not 1 <= shard_size <= num_samples:
            raise ValueError(
                f"shard_size must be in [1, {num_samples}], got {shard_size}"
            )
        self.num_samples = int(num_samples)
        self.num_devices = int(num_devices)
        self.shard_size = int(shard_size)
        self.seed = int(seed)

    def shard(self, device: int) -> np.ndarray:
        self._check_device(device)
        rng = np.random.default_rng(
            np.random.SeedSequence([self.seed, int(device), self._SALT])
        )
        picked = rng.choice(self.num_samples, size=self.shard_size, replace=False)
        return np.sort(picked.astype(np.int64, copy=False))

    def shard_sizes(self) -> np.ndarray:
        return np.full(self.num_devices, self.shard_size, dtype=np.int64)
