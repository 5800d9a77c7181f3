"""Stack hand-built replicas' arenas onto the rows of one matrix.

An :class:`~repro.sim.cluster.ArenaPool` keeps every block's arena on a
row of its resident slab, and the fleet executor views consecutive rows
as the stacked ``(D, n)`` parameter / ``(D, p)`` gradient matrices.
Kernel-level fleet tests batch replicas they build themselves (distinct
weights, distinct dropout streams), so they lay them out the same way
here: one 1-D-rooted slab pair, each arena rebound onto its row.
"""

import numpy as np


def stack_arenas(arenas):
    """Rebind ``arenas`` onto the rows of fresh ``(D, n)`` / ``(D, p)``
    slabs (values kept) and return ``(stack, grad_stack)``."""
    d, n, p = len(arenas), arenas[0].num_scalars, arenas[0].param_scalars
    stack = np.empty(d * n).reshape(d, n)
    grad_stack = np.zeros(d * p).reshape(d, p)
    for row, arena in enumerate(arenas):
        arena.rebind_storage(stack[row], grad_stack[row])
    return stack, grad_stack
