"""Reference per-parameter optimizer updates (test-only).

These are the ``SGD._update`` / ``Adam._update`` bodies ``repro.optim``
shipped as its per-parameter path before each optimizer stated its
arithmetic once (``_kernel``) and ``Optimizer.step`` became one kernel
call on the arena's flat vectors: a Python loop over the parameters
that updates each one in place through per-parameter views of the
parameter data, gradient, state and scratch vectors.  The views are cut
from the arena's layout (``ParamArena.layout()``), one per parameter
slot.  They define the bits the production step must reproduce, and are
compared against it by ``tests/property/test_property_optim.py``,
``tests/test_arena.py`` and the whole-run regression in
``tests/test_hotpath_perf.py``.

The classes subclass the production optimizers only for their
constructor, state vectors and ``zero_grad`` — so a reference optimizer
can drive a real device — and never call ``_kernel``.
"""

import numpy as np

from repro.optim import SGD, Adam


class _PerParameter:
    """Shared scaffolding: the seed's step loop and per-slot views."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._reference_scratch = []
        self._param_slots = [slot for slot in self.arena.layout() if slot.is_param]

    def _views(self, flat):
        """Per-parameter views of a ``param_scalars``-long prefix of ``flat``."""
        return [
            flat[slot.offset : slot.offset + slot.size].reshape(slot.shape)
            for slot in self._param_slots
        ]

    def _scratch_views(self, index: int):
        """Per-parameter views of private scratch vector ``index``."""
        scratch = self._reference_scratch
        while len(scratch) <= index:
            scratch.append(self._views(np.empty(self.num_scalars, dtype=np.float64)))
        return scratch[index]

    def step(self) -> None:
        # Views are re-cut every step: an arena pool may have moved the
        # arena onto new storage since the last one.
        weights = self._views(self.arena.flat)
        grads = self._views(self.arena.grad_flat)
        for index, (w, g) in enumerate(zip(weights, grads)):
            self._update(index, w, g)

    def _kernel(self, *args, **kwargs):  # pragma: no cover - guard
        raise AssertionError("reference optimizers never reach the production kernel")


class ReferenceSGD(_PerParameter, SGD):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._buffers = (
            self._views(self._flat_buf)
            if self._flat_buf is not None
            else [None] * len(self._param_slots)
        )

    def _update(self, index: int, w: np.ndarray, grad: np.ndarray) -> None:
        scratch = self._scratch_views(0)[index]
        if self.weight_decay:
            np.multiply(w, self.weight_decay, out=scratch)
            scratch += grad
            grad = scratch
        if self.momentum:
            buf = self._buffers[index]
            buf *= self.momentum
            buf += grad
            grad = buf
        if grad is scratch:
            scratch *= self.lr
            w -= scratch
        else:
            w -= self.lr * grad


class ReferenceAdam(_PerParameter, Adam):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._m = self._views(self._flat_m)
        self._v = self._views(self._flat_v)

    def step(self) -> None:
        self._t += 1
        _PerParameter.step(self)

    def _update(self, index: int, w: np.ndarray, g: np.ndarray) -> None:
        a, b = self._scratch_views(0)[index], self._scratch_views(1)[index]
        c = self._scratch_views(2)[index] if self.weight_decay else None
        if self.weight_decay:
            np.multiply(w, self.weight_decay, out=c)
            c += g
            g = c
        m, v = self._m[index], self._v[index]
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
