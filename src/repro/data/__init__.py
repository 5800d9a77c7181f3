"""Datasets, federated partitioning, and batch feeding.

The paper evaluates on CIFAR-10; offline we substitute
:class:`SyntheticImageClassification` — a deterministic class-conditional
image generator with tunable difficulty, so nothing is downloaded.  Shard
descriptors (:mod:`repro.data.partition`) split a dataset across
federated devices (IID or non-IID), and :class:`BatchCycler` feeds
mini-batches to device training loops.
"""

from repro.data.dataset import ArrayDataset, Dataset, Subset
from repro.data.synthetic import SyntheticImageClassification, synthetic_cifar10
from repro.data.loader import BatchCycler

__all__ = [
    "Dataset",
    "ArrayDataset",
    "Subset",
    "SyntheticImageClassification",
    "synthetic_cifar10",
    "BatchCycler",
]
