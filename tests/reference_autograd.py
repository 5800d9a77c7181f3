"""Reference step spine: composed Linear chain, all-nodes backward (test-only).

These are the implementations the serial training step shipped before the
one-node ``linear`` op, the leaf-free ``Tensor.backward`` and the O(batch)
``BatchCycler`` gather: ``x @ W.T + b`` built from three primitive
autograd nodes (transpose, matmul, broadcast add), a topological sort
that pushes every ``requires_grad`` parent including leaves, and a batch
gathered through ``dataset.features`` (which copies a ``Subset``'s whole
shard).  They define the bits — and the interior-node execution order —
the production spine must reproduce, and are compared against it by
``tests/property/test_property_step_spine.py`` and the perf floor in
``tests/test_hotpath_perf.py``.

:func:`softmax_cross_entropy_serial` / :func:`softmax_cross_entropy_stacked`
are the two losses (``softmax_cross_entropy`` /
``fleet_softmax_cross_entropy``) the package carried before the
rank-generic ``softmax_cross_entropy``; compared against it by
``tests/property/test_property_kernels.py``.
"""

from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.autograd import Tensor, as_tensor
from repro.data.loader import BatchCycler
from repro.nn.layers import Linear


def linear_chain(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """The composed affine map, node for node as ``Linear.forward`` wrote it."""
    out = x @ weight.T
    if bias is not None:
        out = out + bias
    return out


class ChainLinear(Linear):
    """A :class:`Linear` whose forward is the composed three-node chain."""

    def forward(self, x: Tensor) -> Tensor:
        return linear_chain(x, self.weight, self.bias)


def backward(
    root: Tensor,
    grad: Optional[np.ndarray] = None,
    on_node: Optional[Callable[[Tensor], None]] = None,
) -> None:
    """The pre-rewrite ``Tensor.backward``: leaves are sorted too.

    ``on_node`` is called with every interior node just before its
    closure runs — the execution order the production traversal must
    keep.
    """
    if grad is None:
        grad = np.ones_like(root.data)
    topo: List[Tensor] = []
    visited = set()
    stack: List[Tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in visited and parent.requires_grad:
                stack.append((parent, False))
    root._accumulate(np.asarray(grad, dtype=root.data.dtype))
    for node in reversed(topo):
        if node._backward is not None and node.grad is not None:
            if on_node is not None:
                on_node(node)
            node._backward(node.grad)


def next_batch(cycler: BatchCycler) -> Tuple[np.ndarray, np.ndarray]:
    """The pre-rewrite ``BatchCycler.next_batch``: gather via the dataset."""
    n = len(cycler.dataset)
    if cycler._cursor + cycler.batch_size > n:
        cycler._order = cycler._rng.permutation(n)
        cycler._cursor = 0
    batch = cycler._order[cycler._cursor : cycler._cursor + cycler.batch_size]
    cycler._cursor += cycler.batch_size
    cycler.samples_consumed += len(batch)
    return cycler.dataset.features[batch], cycler.dataset.labels[batch]


def _log_softmax_data(logits: np.ndarray, axis: int) -> np.ndarray:
    shifted = logits - logits.max(axis=axis, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))


def softmax_cross_entropy_stacked(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Per-replica mean cross-entropy over a leading replica axis.

    ``logits`` is ``(D, N, C)`` — D replicas, each with its own batch of N
    samples — and ``targets`` is integer ``(D, N)``.  Returns a ``(D,)``
    tensor whose d-th entry is exactly what
    :func:`softmax_cross_entropy_serial` computes for replica d alone: the
    log-softmax shift/normalise and the picked-NLL mean all reduce along
    the same trailing axes per slice, so the batched result is bitwise
    identical to the per-replica loop.  ``backward`` expects a ``(D,)``
    output gradient (ones for D independent scalar losses) and applies
    the fused ``(softmax - one_hot) * (g_d / N)`` per replica.
    """
    logits = as_tensor(logits)
    targets = np.asarray(targets)
    if targets.dtype.kind == "f":
        targets = targets.astype(np.int64)
    if logits.ndim != 3:
        raise ValueError(f"expected (D, N, C) logits, got shape {logits.shape}")
    d, n, _ = logits.shape
    if targets.shape != (d, n):
        raise ValueError(
            f"targets shape {targets.shape} does not match logits batch ({d}, {n})"
        )
    log_probs = _log_softmax_data(logits.data, axis=2)
    rows = np.arange(d)[:, None]
    cols = np.arange(n)[None, :]
    nll = -log_probs[rows, cols, targets].mean(axis=1)

    def backward(g: np.ndarray) -> None:
        scale = np.asarray(g, dtype=np.float64).reshape(d)
        # exp is deferred to here so no-grad evaluation never pays it.
        grad = np.exp(log_probs)
        grad[rows, cols, targets] -= 1.0
        grad *= (scale / n)[:, None, None]
        logits._accumulate(grad)

    return Tensor._make(nll, (logits,), backward)


def softmax_cross_entropy_serial(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean cross-entropy between ``logits`` (N, C) and integer ``targets`` (N,).

    Fused implementation: the backward pass is the classic
    ``(softmax - one_hot) / N``, avoiding the catastrophic cancellation a
    composed log→mul→sum graph would suffer for confident predictions.
    """
    logits = as_tensor(logits)
    targets = np.asarray(targets)
    if targets.dtype.kind == "f":
        targets = targets.astype(np.int64)
    n = logits.shape[0]
    log_probs = _log_softmax_data(logits.data, axis=1)
    nll = -log_probs[np.arange(n), targets].mean()

    def backward(g: np.ndarray) -> None:
        scale = float(np.asarray(g))
        # exp is deferred to here so no-grad evaluation never pays it.
        grad = np.exp(log_probs)
        grad[np.arange(n), targets] -= 1.0
        logits._accumulate(grad * (scale / n))

    return Tensor._make(np.asarray(nll), (logits,), backward)
