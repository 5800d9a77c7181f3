"""Optimizer base class: one update kernel, two call shapes.

Each optimizer states its arithmetic once, as
``_kernel(w, g, state, scratch)`` over matching-shape arrays, and
:meth:`Optimizer.step` is its only caller:

* **Once, on the flat vectors** (the hot path) — when all parameter
  data is one contiguous fp64 vector and every live gradient is a
  back-to-back view into another.  Parameters bound to a
  :class:`~repro.comm.params.ParamArena` are adopted zero-copy, data and
  gradients both; standalone parameters are packed into private flat
  blocks once, on first step.
* **Per parameter, on slices** — otherwise.  A parameter whose ``grad``
  is ``None`` is skipped with its state untouched; a manually assigned
  gradient (foreign storage, narrow dtype) is read as fp64.  The kernel
  is elementwise, so the two shapes are bitwise identical
  (``tests/property/test_property_optim.py`` pins both against the
  retired per-parameter updates in ``tests/reference_optim.py``).

``None``-skip caveat on the grad-arena path: once a bound parameter has
accumulated a gradient, :meth:`Optimizer.zero_grad` resets it to a live
*view of zeros*, not to ``None`` — a parameter that receives no gradient
in a later step contributes a zero gradient (momentum and weight decay
still apply) instead of being skipped.  Every model in this repo feeds
every parameter every step; one that needs exact skip semantics runs
unbound (``ParamArena(..., bind_grads=False)``) or clears
``param.grad = None`` explicitly.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

import numpy as np

from repro.nn.module import Parameter


def _root_base(arr: np.ndarray) -> np.ndarray:
    """Walk ``.base`` to the array that owns the underlying storage."""
    root = arr
    while isinstance(root.base, np.ndarray):
        root = root.base
    return root


def _adopt_contiguous(arrays: List[np.ndarray]) -> Optional[np.ndarray]:
    """Return a flat view over the arrays' shared storage, if they pack.

    Succeeds when every array is a C-contiguous fp64 view into the same
    1-D fp64 base (e.g. a :class:`ParamArena` vector — parameter data or
    the grad arena), laid out back-to-back in order — then the single
    slice ``base[start:end]`` aliases every array at once.
    """
    root = _root_base(arrays[0])
    if (
        root.dtype != np.float64
        or root.ndim != 1
        or not root.flags["C_CONTIGUOUS"]
    ):
        return None
    root_ptr = root.__array_interface__["data"][0]
    itemsize = root.itemsize
    start = cursor = None
    for data in arrays:
        if data.dtype != np.float64 or not data.flags["C_CONTIGUOUS"]:
            return None
        if _root_base(data) is not root:
            return None
        offset_bytes = data.__array_interface__["data"][0] - root_ptr
        if offset_bytes % itemsize:
            return None
        offset = offset_bytes // itemsize
        if cursor is None:
            start = cursor = offset
        elif offset != cursor:
            return None
        cursor += data.size
    return root[start:cursor]


def _pack_private(params: List[Parameter]) -> Optional[np.ndarray]:
    """Pack standalone parameters into a fresh contiguous flat block.

    Rebinds each ``param.data`` to a view of the block and pre-binds a
    matching private flat gradient block (the same moves a
    :class:`ParamArena` makes), so subsequent backwards accumulate into
    contiguous grad storage the flat step adopts zero-copy.  Refuses
    when any parameter is a view of foreign storage — rebinding those
    would silently disconnect them from whatever owns the memory (e.g.
    another module's arena).
    """
    for param in params:
        if param.data.base is not None:
            return None
    flat = np.empty(sum(int(p.data.size) for p in params), dtype=np.float64)
    grad_flat = np.zeros_like(flat)
    cursor = 0
    for param in params:
        size = int(param.data.size)
        view = flat[cursor : cursor + size].reshape(param.data.shape)
        view[...] = param.data
        # repro: allow[arena-rebind] private pack makes the arena's own moves
        param.data = view
        param.bind_grad(grad_flat[cursor : cursor + size].reshape(view.shape))
        cursor += size
    return flat


class Optimizer:
    """Base optimizer over an explicit parameter list.

    Subclasses implement :meth:`_kernel` — the update over one set of
    matching-shape arrays — and report their dense state through
    :meth:`flat_state`; :meth:`step` decides the call shape (see the
    module docstring).  State vectors are flat and positional, so the
    same optimizer instance survives parameter-data replacement during
    federated synchronisation (data is updated in place).
    """

    # Work vectors the kernel indexes (``scratch[0] .. [n-1]``).
    _num_scratch = 1

    def __init__(self, params: Iterable[Parameter], lr: float):
        self.params: List[Parameter] = list(params)
        if not self.params:
            raise ValueError("optimizer received an empty parameter list")
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.lr = float(lr)
        self._shapes = [p.data.shape for p in self.params]
        self._slices: List[slice] = []
        cursor = 0
        for param in self.params:
            size = int(param.data.size)
            self._slices.append(slice(cursor, cursor + size))
            cursor += size
        self.num_scalars = cursor
        self._flat_params: Optional[np.ndarray] = None
        self._param_views: Optional[List[np.ndarray]] = None
        self._grad_views: Optional[List[np.ndarray]] = None
        self._flat_grad_adopted: Optional[np.ndarray] = None
        self._grad_storage_views: Optional[List[np.ndarray]] = None
        self._flat_grad_storage: Optional[np.ndarray] = None
        self._scratch: List[np.ndarray] = []

    # ------------------------------------------------------------------ #
    def _scratch_vectors(self) -> List[np.ndarray]:
        """The kernel's work vectors (fp64, ``num_scalars``), allocated
        on first use.  Scratch carries nothing between calls: every
        kernel overwrites what it reads from it."""
        scratch = self._scratch
        while len(scratch) < self._num_scratch:
            scratch.append(np.empty(self.num_scalars, dtype=np.float64))
        return scratch

    def share_scratch(self, scratch: List[np.ndarray]) -> None:
        """Draw work vectors from ``scratch`` instead of a private list.

        For optimizers that step one after another (the blocks of an
        :class:`~repro.sim.cluster.ArenaPool`): scratch is dead
        between calls, so no value changes, and D optimizers keep one
        warm set of temporaries instead of D cold ones.  The list is
        held by reference — whichever holder allocates a vector first,
        all see it — so every holder must have this optimizer's
        ``num_scalars``.  Not for optimizers that step concurrently.
        """
        if any(vec.shape != (self.num_scalars,) for vec in scratch):
            raise ValueError(
                f"shared scratch does not hold {self.num_scalars}-scalar vectors"
            )
        self._scratch = scratch

    def zero_grad(self) -> None:
        """Reset all gradients.

        When every parameter's gradient storage is pre-bound to one
        contiguous vector (the grad arena, or this optimizer's private
        pack), the reset is a single vectorized ``fill(0.0)`` — no
        per-parameter ``zero_grad`` calls.  Gradients rebound to foreign
        storage by manual assignment are dropped to ``None`` exactly as
        the per-parameter path would, and every bound view is marked
        known-zero (:meth:`~repro.autograd.Tensor.bind_grad`): the next
        backward may *write* weight gradients into it.  Code that fills
        a gradient through the live view in between (``p.grad[...] =
        v``, ``p.grad += v``) must call ``p._mark_grad_written()``
        (``ParamArena.mark_grads_written()`` for a whole arena) first.
        """
        flat = self._bind_grad_storage()
        if flat is None:
            for param in self.params:
                param.zero_grad()
            return
        flat.fill(0.0)
        for param in self.params:
            grad = param.grad
            if grad is not None and grad is not param._grad_view:
                param.grad = None
            param._mark_grad_zeroed()

    def step(self) -> None:
        """Apply one update using the gradients currently stored.

        One kernel call on the flat vectors when parameter data and live
        gradients both pack; otherwise one call per parameter that has a
        gradient, on the matching slices of state and scratch.
        """
        state, scratch = self.flat_state(), self._scratch_vectors()
        flat = self._bind_flat()
        flat_grad = self._bind_flat_grad() if flat is not None else None
        if flat_grad is not None:
            self._kernel(flat, flat_grad, state, scratch)
        else:
            for param, sl, shape in zip(self.params, self._slices, self._shapes):
                if param.grad is None:
                    continue
                self._kernel(
                    param.data,
                    # Manually assigned gradients may be narrow: read as fp64.
                    np.asarray(param.grad, dtype=np.float64),
                    [vec[sl].reshape(shape) for vec in state],
                    [vec[sl].reshape(shape) for vec in scratch],
                )

    def _kernel(
        self,
        w: np.ndarray,
        g: np.ndarray,
        state: Sequence[np.ndarray],
        scratch: Sequence[np.ndarray],
    ) -> None:
        """The update, in place on ``w`` and ``state`` (:meth:`flat_state`
        order), elementwise over arrays of one shape.

        ``g`` is **read-only**: on the grad-arena path it aliases the
        live ``param.grad`` views, so kernels compute into ``scratch``.
        """
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # Flat-vector binders
    # ------------------------------------------------------------------ #
    def _bind_flat(self) -> Optional[np.ndarray]:
        """(Re)derive the contiguous flat view over all parameter data.

        Cheap identity check per step; re-binding only happens when some
        external code rebound a ``param.data`` (e.g. an arena was built
        around the model after this optimizer was constructed).  State
        buffers are positional, so they stay valid across re-binds.
        """
        views = self._param_views
        if views is not None:
            for param, view in zip(self.params, views):
                if param.data is not view:
                    break
            else:
                return self._flat_params
        flat = self._adopt_and_cache(
            "_param_views", "_flat_params", [p.data for p in self.params]
        )
        if flat is None:
            flat = _pack_private(self.params)
            if flat is not None:
                self._flat_params = flat
                self._param_views = [p.data for p in self.params]
        return flat

    def _adopt_and_cache(
        self,
        views_attr: str,
        flat_attr: str,
        arrays: Optional[List[np.ndarray]],
    ) -> Optional[np.ndarray]:
        """Shared slow path of the three binders: adopt ``arrays`` as one
        contiguous flat view and (in)validate the per-binder cache;
        ``arrays=None`` means some slot was missing — cache the failure.
        The callers keep their identity-check loops inline: those run
        every step, and a shared accessor callback would put a Python
        call per parameter on the hot path.
        """
        flat = _adopt_contiguous(arrays) if arrays is not None else None
        setattr(self, views_attr, arrays if flat is not None else None)
        setattr(self, flat_attr, flat)
        return flat

    def _bind_grad_storage(self) -> Optional[np.ndarray]:
        """Flat vector over the params' *bound* grad views (grad arena).

        Valid whether or not gradients currently exist — this is the
        storage backing them, the target of the vectorized ``zero_grad``
        fill.  ``None`` when any parameter lacks bound storage or the
        views don't pack contiguously.
        """
        views = self._grad_storage_views
        if views is not None:
            for param, view in zip(self.params, views):
                if param._grad_view is not view:
                    break
            else:
                return self._flat_grad_storage
        gviews = []
        for param in self.params:
            view = param._grad_view
            if view is None:
                gviews = None
                break
            gviews.append(view)
        return self._adopt_and_cache(
            "_grad_storage_views", "_flat_grad_storage", gviews
        )

    def _bind_flat_grad(self) -> Optional[np.ndarray]:
        """Zero-copy flat view over the *live* gradients, if they pack.

        Succeeds on the grad-arena path, where every ``param.grad`` is a
        back-to-back view into one contiguous vector — the flat step
        then reads the whole gradient without any per-parameter gather.
        ``None`` when a gradient is missing or lives on foreign storage.
        """
        views = self._grad_views
        if views is not None:
            for param, view in zip(self.params, views):
                if param.grad is not view:
                    break
            else:
                return self._flat_grad_adopted
        grads = []
        for param in self.params:
            grad = param.grad
            if grad is None:
                grads = None
                break
            grads.append(grad)
        return self._adopt_and_cache("_grad_views", "_flat_grad_adopted", grads)

    # ------------------------------------------------------------------ #
    # Executor state round-trip (see repro.sim.executor)
    # ------------------------------------------------------------------ #
    def flat_state(self) -> List[np.ndarray]:
        """Live references to the dense fp64 state vectors of this optimizer.

        Parallel execution backends copy these across process boundaries
        (shared memory) and write results back *in place* — subclasses
        with large state (momentum, Adam moments) must expose every such
        vector here or the state silently diverges off the serial path.
        """
        return []

    def scalar_state(self) -> dict:
        """Small mutable state that must round-trip across executors."""
        return {"lr": self.lr}

    def load_scalar_state(self, state: dict) -> None:
        self.lr = float(state["lr"])
