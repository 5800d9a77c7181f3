"""Adam optimizer (Kingma & Ba, 2015)."""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.nn.module import Parameter
from repro.optim.base import Optimizer


class Adam(Optimizer):
    """Adam with bias-corrected first/second moment estimates.

    Moment state is stored as two flat fp64 vectors matching the
    parameter layout (``_m``/``_v`` expose per-parameter reshaped views),
    so the fused step is a fixed number of in-place full-vector ops over
    scratch — the gradient itself is never mutated, since on the
    grad-arena path it aliases the live ``param.grad`` views.  The
    per-parameter fallback applies the same elementwise sequence through
    scratch slices, so both paths are bitwise identical.
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
        self._m = [
            self._flat_m[sl].reshape(shape)
            for sl, shape in zip(self._slices, self._shapes)
        ]
        self._v = [
            self._flat_v[sl].reshape(shape)
            for sl, shape in zip(self._slices, self._shapes)
        ]
        self._t = 0

    def step(self) -> None:
        self._t += 1
        super().step()

    # ------------------------------------------------------------------ #
    def _fused_update(self, flat_params: np.ndarray, flat_grad: np.ndarray) -> bool:
        a, b = self._scratch_vector(0), self._scratch_vector(1)
        # Third scratch, only needed under weight decay (holds g + wd*w).
        c = self._scratch_vector(2) if self.weight_decay else None
        self._kernel(flat_params, flat_grad, self._flat_m, self._flat_v, a, b, c)
        return True

    def _update(self, index: int, param: Parameter) -> None:
        sl, shape = self._slices[index], self._shapes[index]
        a, b = self._scratch_vector(0), self._scratch_vector(1)
        c = (
            self._scratch_vector(2)[sl].reshape(shape)
            if self.weight_decay
            else None
        )
        self._kernel(
            param.data,
            # fp64 like the gather on the fused path, so fused-vs-fallback
            # parity holds even for manually assigned narrow-dtype grads.
            np.asarray(param.grad, dtype=np.float64),
            self._m[index],
            self._v[index],
            a[sl].reshape(shape),
            b[sl].reshape(shape),
            c,
        )

    def _kernel(self, w, g, m, v, a, b, c) -> None:
        """The Adam update as in-place ops over matching-shape arrays.

        ``a``/``b`` are scratch (mutated freely) and ``c`` is the
        weight-decay scratch (``None`` without decay); ``g`` is
        **read-only** — it may alias the live gradient; ``w``, ``m`` and
        ``v`` are the live parameter/state arrays.  The elementwise
        sequence matches the reference per-parameter implementation
        exactly (fp multiply/add commutativity), so fused and fallback
        trajectories are bitwise identical.
        """
        if self.weight_decay:
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
        # _m/_v are reshaped views of the flat vectors.
        return [self._flat_m, self._flat_v]

    def scalar_state(self) -> dict:
        state = super().scalar_state()
        state["t"] = self._t
        return state

    def load_scalar_state(self, state: dict) -> None:
        super().load_scalar_state(state)
        self._t = int(state["t"])

    # ------------------------------------------------------------------ #
    def reset_state(self) -> None:
        self._flat_m[:] = 0.0
        self._flat_v[:] = 0.0
        self._t = 0
