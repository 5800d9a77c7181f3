"""Stochastic gradient descent with heavy-ball momentum and weight decay."""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.optim.base import Optimizer

if TYPE_CHECKING:
    from repro.comm.params import ParamArena


class SGD(Optimizer):
    """SGD matching ``torch.optim.SGD`` semantics.

    Update with momentum ``m`` and weight decay ``wd``::

        g   <- grad + wd * w
        buf <- m * buf + g
        w   <- w - lr * buf

    Momentum state lives in one flat fp64 vector matching the arena's
    parameter prefix.  The kernel runs the update as in-place ops over
    scratch — never mutating the gradient, the arena's ``grad_flat``,
    which the live ``param.grad`` views alias.
    """

    def __init__(
        self,
        arena: ParamArena,
        lr: float = 0.01,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
    ):
        super().__init__(arena, lr)
        if momentum < 0:
            raise ValueError(f"momentum must be non-negative, got {momentum}")
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._flat_buf: Optional[np.ndarray] = (
            np.zeros(self.num_scalars, dtype=np.float64) if momentum else None
        )

    # ------------------------------------------------------------------ #
    def _kernel(self, w, g, state, scratch) -> None:
        # Operand order of each fp add is free (commutative), so this is
        # bitwise the textbook ``g + wd * w`` / ``g + m * buf`` sequence.
        out = scratch[0]
        if self.weight_decay:
            np.multiply(w, self.weight_decay, out=out)
            out += g  # wd * w + grad
            g = out
        if self.momentum:
            buf = state[0]
            buf *= self.momentum
            buf += g
            g = buf
        np.multiply(g, self.lr, out=out)
        w -= out

    # ------------------------------------------------------------------ #
    def flat_state(self):
        return [] if self._flat_buf is None else [self._flat_buf]
