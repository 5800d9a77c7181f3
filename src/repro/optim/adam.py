"""Adam optimizer (Kingma & Ba, 2015)."""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.nn.module import Parameter
from repro.optim.base import Optimizer


class Adam(Optimizer):
    """Adam with bias-corrected first/second moment estimates.

    Moment state is stored as two flat fp64 vectors matching the
    parameter layout; the kernel is a fixed number of in-place ops over
    scratch — the gradient itself is never mutated, since on the
    grad-arena path it aliases the live ``param.grad`` views.
    """

    def __init__(
        self,
        params: Iterable[Parameter],
        lr: float = 1e-3,
        betas: tuple = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ):
        super().__init__(params, lr)
        beta1, beta2 = betas
        if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0):
            raise ValueError(f"betas must be in [0, 1), got {betas}")
        self.beta1, self.beta2 = beta1, beta2
        self.eps = eps
        self.weight_decay = weight_decay
        self._flat_m = np.zeros(self.num_scalars, dtype=np.float64)
        self._flat_v = np.zeros(self.num_scalars, dtype=np.float64)
        # Third scratch only under weight decay (holds g + wd * w).
        self._num_scratch = 3 if weight_decay else 2
        self._t = 0

    def step(self) -> None:
        self._t += 1
        super().step()

    # ------------------------------------------------------------------ #
    def _kernel(self, w, g, state, scratch) -> None:
        m, v = state
        a, b = scratch[0], scratch[1]
        if self.weight_decay:
            c = scratch[2]
            np.multiply(w, self.weight_decay, out=c)
            c += g  # wd * w + grad  (fp add is commutative)
            g = c
        m *= self.beta1
        np.multiply(g, 1 - self.beta1, out=a)
        m += a
        v *= self.beta2
        np.multiply(g, g, out=a)
        a *= 1 - self.beta2
        v += a
        np.divide(m, 1 - self.beta1**self._t, out=a)  # m_hat
        np.divide(v, 1 - self.beta2**self._t, out=b)  # v_hat
        np.sqrt(b, out=b)
        b += self.eps
        np.multiply(a, self.lr, out=a)  # lr * m_hat
        a /= b
        w -= a

    # ------------------------------------------------------------------ #
    def flat_state(self):
        return [self._flat_m, self._flat_v]

    def scalar_state(self) -> dict:
        state = super().scalar_state()
        state["t"] = self._t
        return state

    def load_scalar_state(self, state: dict) -> None:
        super().load_scalar_state(state)
        self._t = int(state["t"])
