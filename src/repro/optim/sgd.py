"""Stochastic gradient descent with momentum / Nesterov / weight decay."""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as np

from repro.nn.module import Parameter
from repro.optim.base import Optimizer


class SGD(Optimizer):
    """SGD matching ``torch.optim.SGD`` semantics.

    Update with momentum ``m`` and weight decay ``wd``::

        g   <- grad + wd * w
        buf <- m * buf + g
        w   <- w - lr * buf            (or lr * (g + m * buf) for Nesterov)

    Momentum state lives in one flat fp64 vector matching the parameter
    layout.  The kernel runs the update as in-place ops over scratch —
    never mutating the gradient, which on the grad-arena path aliases
    the live ``param.grad`` views.
    """

    def __init__(
        self,
        params: Iterable[Parameter],
        lr: float = 0.01,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
        nesterov: bool = False,
    ):
        super().__init__(params, lr)
        if momentum < 0:
            raise ValueError(f"momentum must be non-negative, got {momentum}")
        if nesterov and momentum == 0:
            raise ValueError("nesterov momentum requires momentum > 0")
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.nesterov = nesterov
        self._num_scratch = 2 if nesterov else 1
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
            if self.nesterov:
                nes = scratch[1]
                np.multiply(buf, self.momentum, out=nes)
                nes += g  # m * buf + g
                g = nes
            else:
                g = buf
        np.multiply(g, self.lr, out=out)
        w -= out

    # ------------------------------------------------------------------ #
    def flat_state(self):
        return [] if self._flat_buf is None else [self._flat_buf]
