"""Loss functions and classification metrics."""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.autograd import Tensor, no_grad, softmax_cross_entropy
from repro.nn.module import Module


class CrossEntropyLoss(Module):
    """Mean softmax cross-entropy over integer class targets.

    ``forward(logits, targets)`` where ``logits`` is (N, C) and ``targets``
    is an integer array of shape (N,).  Numerically-stable fused
    implementation (see :func:`repro.autograd.softmax_cross_entropy`).
    """

    def forward(self, logits: Tensor, targets: np.ndarray) -> Tensor:
        return softmax_cross_entropy(logits, targets)


def accuracy(logits, targets: np.ndarray) -> float:
    """Top-1 classification accuracy in [0, 1]."""
    data = logits.data if isinstance(logits, Tensor) else np.asarray(logits)
    predictions = data.argmax(axis=1)
    return float((predictions == np.asarray(targets)).mean())


def evaluate(
    model: Module,
    loss_fn: Module,
    features: np.ndarray,
    labels: np.ndarray,
    batch_size: int = 256,
) -> Tuple[float, float]:
    """Sample-weighted mean ``(loss, accuracy)`` of ``model`` on a data set.

    Batched, graph-free, and it leaves the model in eval mode — the
    callers are the clusters' dedicated evaluation replicas.
    """
    model.eval()
    total_loss, correct, count = 0.0, 0.0, 0
    with no_grad():
        for start in range(0, len(features), batch_size):
            fb = features[start : start + batch_size]
            lb = labels[start : start + batch_size]
            logits = model(Tensor(fb))
            total_loss += float(loss_fn(logits, lb).data) * len(lb)
            correct += accuracy(logits, lb) * len(lb)
            count += len(lb)
    return total_loss / count, correct / count
