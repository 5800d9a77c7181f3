"""Dataset abstractions: array-backed datasets and subsets."""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np


class Dataset:
    """Minimal dataset protocol: length + indexed access to (x, y) pairs."""

    def __len__(self) -> int:
        raise NotImplementedError

    def __getitem__(self, index: int) -> Tuple[np.ndarray, int]:
        raise NotImplementedError

    @property
    def features(self) -> np.ndarray:
        raise NotImplementedError

    @property
    def labels(self) -> np.ndarray:
        raise NotImplementedError


class ArrayDataset(Dataset):
    """Dataset over in-memory arrays ``X`` (N, ...) and ``y`` (N,)."""

    def __init__(self, features: np.ndarray, labels: np.ndarray):
        features = np.asarray(features)
        labels = np.asarray(labels)
        if len(features) != len(labels):
            raise ValueError(
                f"features/labels length mismatch: {len(features)} vs {len(labels)}"
            )
        self._features = features
        self._labels = labels

    def __len__(self) -> int:
        return len(self._features)

    def __getitem__(self, index: int) -> Tuple[np.ndarray, int]:
        return self._features[index], self._labels[index]

    @property
    def features(self) -> np.ndarray:
        return self._features

    @property
    def labels(self) -> np.ndarray:
        return self._labels

    def num_classes(self) -> int:
        return int(self._labels.max()) + 1


class Subset(Dataset):
    """A view of another dataset through an index array.

    Used to give each federated device its shard without copying pixels.
    """

    def __init__(self, dataset: Dataset, indices: Sequence[int]):
        self.dataset = dataset
        self.indices = np.asarray(indices, dtype=np.int64)
        if len(self.indices) and self.indices.max() >= len(dataset):
            raise IndexError("subset index out of range")

    def __len__(self) -> int:
        return len(self.indices)

    def __getitem__(self, index: int) -> Tuple[np.ndarray, int]:
        return self.dataset[int(self.indices[index])]

    @property
    def features(self) -> np.ndarray:
        return self.dataset.features[self.indices]

    @property
    def labels(self) -> np.ndarray:
        return self.dataset.labels[self.indices]


def resolve_arrays(
    dataset: Dataset,
) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """Collapse a ``Subset`` chain to ``(base_features, base_labels, rows)``.

    ``dataset.features[i]`` equals ``base_features[rows[i]]`` (``rows`` is
    ``None`` when ``dataset`` is not a subset), so a consumer that picks
    a few samples per call can gather them from the base arrays directly
    instead of materialising the whole view through
    :attr:`Subset.features` each time.
    """
    rows = None
    while isinstance(dataset, Subset):
        rows = dataset.indices if rows is None else dataset.indices[rows]
        dataset = dataset.dataset
    return dataset.features, dataset.labels, rows

