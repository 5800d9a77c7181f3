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
    layout; ``_buffers`` exposes per-parameter reshaped views of it.  The
    fused step applies the whole update as in-place full-vector ops over
    scratch — never mutating ``flat_grad``, which on the grad-arena path
    aliases the live ``param.grad`` views; the per-parameter fallback
    computes into reusable scratch slices instead of allocating
    ``grad + wd * w`` / Nesterov temporaries per step.  Both paths are
    elementwise (bitwise) identical.
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
        if momentum:
            self._flat_buf: Optional[np.ndarray] = np.zeros(
                self.num_scalars, dtype=np.float64
            )
            self._buffers = [
                self._flat_buf[sl].reshape(shape)
                for sl, shape in zip(self._slices, self._shapes)
            ]
        else:
            self._flat_buf = None
            self._buffers = [None] * len(self.params)

    # ------------------------------------------------------------------ #
    def _fused_update(self, flat_params: np.ndarray, flat_grad: np.ndarray) -> bool:
        # ``flat_grad`` may alias the live gradients — read-only.  Every
        # reassociation below swaps operands of an fp add, which is
        # commutative, so values stay bitwise identical to the fallback.
        scratch = self._scratch_vector(0)
        grad = flat_grad
        if self.weight_decay:
            np.multiply(flat_params, self.weight_decay, out=scratch)
            scratch += flat_grad  # wd * w + grad
            grad = scratch
        if self.momentum:
            buf = self._flat_buf
            buf *= self.momentum
            buf += grad
            if self.nesterov:
                nes = self._scratch_vector(1)
                np.multiply(buf, self.momentum, out=nes)
                nes += grad  # m * buf + g
                step_vec = nes
            else:
                step_vec = buf
        else:
            step_vec = grad
        np.multiply(step_vec, self.lr, out=scratch)
        flat_params -= scratch
        return True

    def _update(self, index: int, param: Parameter) -> None:
        sl, shape = self._slices[index], self._shapes[index]
        scratch = self._scratch_vector(0)[sl].reshape(shape)
        # fp64 like the gather on the fused path, so fused-vs-fallback
        # parity holds even for manually assigned narrow-dtype grads.
        grad = np.asarray(param.grad, dtype=np.float64)
        if self.weight_decay:
            np.multiply(param.data, self.weight_decay, out=scratch)
            scratch += grad
            grad = scratch
        if self.momentum:
            buf = self._buffers[index]
            buf *= self.momentum
            buf += grad
            if self.nesterov:
                if grad is not scratch:
                    scratch[...] = grad
                scratch += self.momentum * buf
                grad = scratch
            else:
                grad = buf
        if grad is scratch:
            scratch *= self.lr
            param.data -= scratch
        else:
            param.data -= self.lr * grad

    # ------------------------------------------------------------------ #
    def flat_state(self):
        # _buffers are reshaped views of _flat_buf, so the one vector is
        # the single source of truth for both update paths.
        return [] if self._flat_buf is None else [self._flat_buf]

    # ------------------------------------------------------------------ #
    def reset_state(self) -> None:
        """Drop momentum buffers (used after federated model replacement)."""
        if self._flat_buf is not None:
            self._flat_buf[:] = 0.0

    def state_dict(self) -> dict:
        state = super().state_dict()
        state["buffers"] = [None if b is None else b.copy() for b in self._buffers]
        return state

    def load_state_dict(self, state: dict) -> None:
        super().load_state_dict(state)
        for index, saved in enumerate(state["buffers"]):
            buf = self._buffers[index]
            if buf is None:
                continue
            if saved is None:
                buf[...] = 0.0
            else:
                buf[...] = np.asarray(saved).reshape(buf.shape)
