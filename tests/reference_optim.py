"""Reference per-parameter optimizer updates (test-only).

These are the ``SGD._update`` / ``Adam._update`` bodies ``repro.optim``
shipped as its per-parameter fallback before each optimizer stated its
arithmetic once (``_kernel``) and ``Optimizer.step`` became the only
dispatcher: a Python loop over parameters that skips ``grad is None``,
reads any gradient as fp64 and updates ``param.data`` in place through
per-parameter views of the flat state.  They define the bits both call
shapes of the production step must reproduce, and are compared against
it by ``tests/property/test_property_optim.py``, ``tests/test_arena.py``,
``tests/test_optim.py`` and the whole-run regression in
``tests/test_hotpath_perf.py``.

The classes subclass the production optimizers only for their
constructor, state vectors and ``zero_grad`` — so a reference optimizer
can drive a real device — and never call ``_kernel``.
"""

import numpy as np

from repro.nn.module import Parameter
from repro.optim import SGD, Adam


class _PerParameter:
    """Shared scaffolding: the seed's step loop and scratch slices."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._reference_scratch = []

    def _views(self, flat):
        return [
            flat[sl].reshape(shape) for sl, shape in zip(self._slices, self._shapes)
        ]

    def _scratch_vector(self, index: int) -> np.ndarray:
        scratch = self._reference_scratch
        while len(scratch) <= index:
            scratch.append(np.empty(self.num_scalars, dtype=np.float64))
        return scratch[index]

    def step(self) -> None:
        for index, param in enumerate(self.params):
            if param.grad is None:
                continue
            self._update(index, param)

    def _kernel(self, *args, **kwargs):  # pragma: no cover - guard
        raise AssertionError("reference optimizers never reach the production kernel")


class ReferenceSGD(_PerParameter, SGD):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._buffers = (
            self._views(self._flat_buf)
            if self._flat_buf is not None
            else [None] * len(self.params)
        )

    def _update(self, index: int, param: Parameter) -> None:
        sl, shape = self._slices[index], self._shapes[index]
        scratch = self._scratch_vector(0)[sl].reshape(shape)
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


class ReferenceAdam(_PerParameter, Adam):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._m = self._views(self._flat_m)
        self._v = self._views(self._flat_v)

    def step(self) -> None:
        self._t += 1
        _PerParameter.step(self)

    def _update(self, index: int, param: Parameter) -> None:
        sl, shape = self._slices[index], self._shapes[index]
        a, b = self._scratch_vector(0), self._scratch_vector(1)
        c = (
            self._scratch_vector(2)[sl].reshape(shape)
            if self.weight_decay
            else None
        )
        self._reference_kernel(
            param.data,
            np.asarray(param.grad, dtype=np.float64),
            self._m[index],
            self._v[index],
            a[sl].reshape(shape),
            b[sl].reshape(shape),
            c,
        )

    def _reference_kernel(self, w, g, m, v, a, b, c) -> None:
        if self.weight_decay:
            np.multiply(w, self.weight_decay, out=c)
            c += g
            g = c
        m *= self.beta1
        np.multiply(g, 1 - self.beta1, out=a)
        m += a
        v *= self.beta2
        np.multiply(g, g, out=a)
        a *= 1 - self.beta2
        v += a
        np.divide(m, 1 - self.beta1**self._t, out=a)
        np.divide(v, 1 - self.beta2**self._t, out=b)
        np.sqrt(b, out=b)
        b += self.eps
        np.multiply(a, self.lr, out=a)
        a /= b
        w -= a
