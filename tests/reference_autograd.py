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
"""

from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.autograd import Tensor
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
