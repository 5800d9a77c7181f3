"""The flat parameter arena: model state as one contiguous vector.

Federated aggregation operates on flat float vectors: every scheme
(FedAvg Eq. 4, HADFL Eq. 5, ring all-reduce) averages the *entire* model
state, buffers (BatchNorm running stats) included — the standard choice
in FedAvg implementations.

:class:`ParamArena` holds one contiguous fp64 vector per model replica.
Every ``Parameter.data`` and registered buffer is rebound to a reshaped
*view* into the arena, so reading the whole model state is a read of
one array, writing it is a single vectorized ``flat[:] = incoming``,
and blending is a fused ``flat *= w; flat += (1-w) * incoming``.  The
simulator's sync path (``Device.get_params``/``set_params``/
``mix_params``) runs entirely on the arena.  An arena may live on
caller-owned storage (:meth:`ParamArena.rebind_storage`): every replica
block of a :class:`~repro.sim.cluster.ArenaPool` sits on one row of the
pool's resident ``(capacity, n)`` slab, so the batched fleet executor
views consecutive rows as one matrix.

The wire size of a model (the M of the paper's ``2·K·M`` volume
arithmetic) is not an arena property: the selected
:class:`~repro.comm.wire.WireFormat` prices the flat vector
(``payload_nbytes``), the same codec that casts every simulated payload.
"""

from __future__ import annotations

import weakref
from typing import List, NamedTuple, Optional, Tuple

import numpy as np

from repro.nn.module import Module, Parameter


class ArenaSlot(NamedTuple):
    """One named slot of an arena's flat layout.

    ``offset`` indexes into :attr:`ParamArena.flat`; parameter slots
    additionally occupy ``[offset, offset + size)`` of ``grad_flat``
    (parameters form the arena prefix, so offsets coincide).
    """

    name: str
    offset: int
    size: int
    shape: Tuple[int, ...]
    is_param: bool


class ParamArena:
    """Contiguous fp64 storage backing every parameter (and buffer) of a module.

    Construction copies the module's current state into one flat vector
    and rebinds each ``Parameter.data`` (and each registered buffer) to a
    reshaped view of it.  From then on the arena and the module alias the
    same memory: in-place parameter updates (the optimizers), in-place
    buffer updates (:meth:`Module.set_buffer`) and in-place state loads
    (:meth:`Module.load_state_dict`) are all immediately visible through
    ``flat`` — and a vectorized write to ``flat`` is immediately visible
    through every parameter.

    One arena per module: constructing a second arena rebinds the module
    away from the first.  Parameters occupy the arena prefix in
    ``named_parameters`` order, buffers follow in ``named_buffers`` order.

    **Ownership** is one-way: the module owns its arena
    (:attr:`Module.arena`), the arena holds the parameters it rebinds
    and only *weak* references to buffer-owning modules.  There is no
    module <-> arena reference cycle, so dropping the last reference to
    a model (a finished cluster's devices, a drained pool) frees its
    parameter and gradient storage (a pool's slab, with the pool)
    immediately, by reference count, instead of whenever the cycle
    collector next runs.

    **Grad arena** (``bind_grads=True``, the default): the arena also
    owns one contiguous fp64 gradient vector ``grad_flat`` with the same
    layout as the parameter prefix (``named_parameters`` order), and each
    parameter's gradient storage is pre-bound to a reshaped view of it
    (:meth:`~repro.autograd.Tensor.bind_grad`).  Backward accumulation
    then writes straight into ``grad_flat``, ``Module.zero_grad`` /
    ``Optimizer.zero_grad`` collapse to one :meth:`zero_grads` fill, and
    an optimizer built on the arena steps ``flat`` and ``grad_flat``
    with one kernel call — no per-step gather.  ``bind_grads=False``
    reproduces the pre-grad-arena behaviour (gradients allocated per
    tensor on first accumulation), used by the forward-only evaluation
    replicas and the seed-emulation benchmarks; no optimizer can be
    built on such an arena.
    """

    def __init__(self, module: Module, bind_grads: bool = True) -> None:
        params = list(module.named_parameters())
        buffers = list(module.named_buffers())
        owners = module._buffer_owners()
        self.param_scalars = sum(int(p.data.size) for _, p in params)
        self.num_scalars = self.param_scalars + sum(int(b.size) for _, b in buffers)
        # Entries hold the current arrays until _install_views swaps in
        # views of the flat vector.
        self._param_entries: List[Tuple[Parameter, np.ndarray]] = [
            (param, param.data) for _, param in params
        ]
        self._buffer_entries: List[
            Tuple["weakref.ref[Module]", str, np.ndarray]
        ] = [
            (weakref.ref(owners[name][0]), owners[name][1], buf)
            for name, buf in buffers
        ]
        flat = np.empty(self.num_scalars, dtype=np.float64)
        slots: List[ArenaSlot] = []
        cursor = 0
        for name, array, is_param in [(n, p.data, True) for n, p in params] + [
            (n, b, False) for n, b in buffers
        ]:
            size = int(array.size)
            flat[cursor : cursor + size] = array.reshape(-1)
            slots.append(ArenaSlot(name, cursor, size, array.shape, is_param))
            cursor += size
        self._layout: Tuple[ArenaSlot, ...] = tuple(slots)
        self._install_views(flat)

        self._grad_entries: List[Tuple[Parameter, np.ndarray]] = []
        self.grad_flat: Optional[np.ndarray] = None
        if bind_grads:
            self._install_grad_views(np.zeros(self.param_scalars, dtype=np.float64))
        module._bind_arena(self)

    def _install_views(self, flat: np.ndarray) -> None:
        """Point every parameter and buffer at its slice of ``flat``,
        which already holds their values in layout order."""
        self.flat = flat
        cursor = 0
        param_entries: List[Tuple[Parameter, np.ndarray]] = []
        for param, old in self._param_entries:
            size = int(old.size)
            view = flat[cursor : cursor + size].reshape(old.shape)
            param.data = view
            param_entries.append((param, view))
            cursor += size
        self._param_entries = param_entries
        buffer_entries = []
        for owner_ref, local, old in self._buffer_entries:
            size = int(old.size)
            view = flat[cursor : cursor + size].reshape(old.shape)
            owner = owner_ref()
            if owner is not None:
                _install_buffer(owner, local, view)
            buffer_entries.append((owner_ref, local, view))
            cursor += size
        self._buffer_entries = buffer_entries

    def _install_grad_views(self, grad_flat: np.ndarray) -> None:
        """Bind every parameter's gradient storage to its slice of
        ``grad_flat`` (:meth:`~repro.autograd.Tensor.bind_grad`: a live
        gradient moves over with its values)."""
        self.grad_flat = grad_flat
        cursor = 0
        grad_entries: List[Tuple[Parameter, np.ndarray]] = []
        for param, view in self._param_entries:
            size = int(view.size)
            gview = grad_flat[cursor : cursor + size].reshape(view.shape)
            param.bind_grad(gview)
            grad_entries.append((param, gview))
            cursor += size
        self._grad_entries = grad_entries

    # ------------------------------------------------------------------ #
    def ensure_bound(self) -> None:
        """Re-establish view aliasing if external code rebound a slot.

        All in-repo mutation paths write in place, so this is normally a
        pure identity check over the entries; if something assigned a
        fresh array to ``param.data`` (or replaced a buffer), its values
        are copied into the arena and the view is reinstalled.
        """
        for param, view in self._param_entries:
            if param.data is not view:
                view[...] = param.data
                param.data = view
        for owner_ref, local, view in self._buffer_entries:
            owner = owner_ref()
            if owner is not None and owner._buffers[local] is not view:
                view[...] = owner._buffers[local]
                _install_buffer(owner, local, view)

    def zero_grads(self) -> bool:
        """Zero every parameter gradient with one vectorized fill.

        Returns ``False`` when this arena does not own gradient storage
        (``bind_grads=False``), in which case the caller must fall back
        to the per-parameter loop (:meth:`Module.zero_grad`).  Parameters
        whose ``grad`` was rebound to foreign storage (e.g. a manual
        ``param.grad = array`` assignment) are repaired: the foreign
        gradient is dropped (``grad = None``) and the arena view is
        re-bound so the next backward accumulates into ``grad_flat``
        again.  Gradients already living in the arena stay bound as
        views of zeros — the bound gradient an optimizer step requires
        (:meth:`check_grads_bound`).  Every parameter's view is marked
        known-zero, so the next backward may write weight gradients
        straight into it — whoever fills gradient storage by hand before
        that backward calls :meth:`mark_grads_written`.
        """
        if self.grad_flat is None:
            return False
        self.grad_flat.fill(0.0)
        for param, gview in self._grad_entries:
            grad = param.grad
            if grad is not None and grad is not gview:
                param.grad = None
            if param._grad_view is not gview:
                param._grad_view = gview
            param._mark_grad_zeroed()
        return True

    def check_grads_bound(self) -> None:
        """Raise ``ValueError`` unless every parameter's ``grad`` is its
        bound view into ``grad_flat`` — the optimizers' gradient
        contract (:mod:`repro.optim.base`): a ``None`` gradient or a
        hand-assigned array is not in the vector the step reads."""
        for index, (param, gview) in enumerate(self._grad_entries):
            if param.grad is not gview:
                kind = "None" if param.grad is None else "not its bound grad view"
                raise ValueError(
                    f"gradient of {self._layout[index].name!r} is {kind}: "
                    "an optimizer steps only gradients in the arena's grad_flat"
                )

    def mark_grads_written(self) -> None:
        """Declare that ``grad_flat`` was written behind the parameters'
        backs (a raw ``grad_flat[:] = ...``, an in-place
        ``param.grad += v``):
        the views no longer hold the zeros :meth:`zero_grads` left, so
        the next backward must add to them, not overwrite
        (:meth:`~repro.autograd.Tensor.bind_grad`, "Known-zero state")."""
        for param, _ in self._grad_entries:
            param._mark_grad_written()

    def layout(self) -> Tuple[ArenaSlot, ...]:
        """Named slots in arena order (parameters first, then buffers).

        The module tree is fixed after construction, so the tuple is
        built once with the views — callers on hot paths (fleet grouping
        signatures) may request it per round.
        """
        return self._layout

    def rebind_storage(
        self, flat: np.ndarray, grad_flat: Optional[np.ndarray] = None
    ) -> None:
        """Migrate the arena onto caller-owned storage, preserving values.

        ``flat`` must be an fp64 vector of ``num_scalars`` (a row of an
        :class:`~repro.sim.cluster.ArenaPool` slab).  Current
        parameter/buffer values are copied in, then every view is
        reinstalled against the new storage, so the module keeps its
        exact state while the arena changes address.  When the arena
        binds gradients, ``grad_flat`` (fp64, ``param_scalars``) is
        required; gradient *liveness* is preserved — a parameter whose
        ``grad`` was ``None`` stays ``None``, a live gradient moves onto
        the new storage with identical values
        (:meth:`~repro.autograd.Tensor.bind_grad`).
        """
        flat = np.asarray(flat)
        if flat.shape != (self.num_scalars,) or flat.dtype != np.float64:
            raise ValueError(
                f"storage must be fp64 ({self.num_scalars},), "
                f"got {flat.dtype} {flat.shape}"
            )
        if self.grad_flat is not None:
            if grad_flat is None:
                raise ValueError("arena binds gradients; grad_flat storage required")
            grad_flat = np.asarray(grad_flat)
            if (
                grad_flat.shape != (self.param_scalars,)
                or grad_flat.dtype != np.float64
            ):
                raise ValueError(
                    f"grad storage must be fp64 ({self.param_scalars},), "
                    f"got {grad_flat.dtype} {grad_flat.shape}"
                )
        self.ensure_bound()
        flat[...] = self.flat
        self._install_views(flat)
        if self.grad_flat is not None:
            grad_flat[...] = self.grad_flat
            self._install_grad_views(grad_flat)

    # ------------------------------------------------------------------ #
    def read(self) -> np.ndarray:
        """Zero-copy read: the live arena itself.

        Callers must consume (or copy) the result before the next write
        to this device's model — every consumer on the sync path copies
        on ingest (ring buffers, ``np.stack``), so no copy is made here.
        """
        self.ensure_bound()
        return self.flat

    def snapshot(self) -> np.ndarray:
        """One vectorized copy of the full model state."""
        self.ensure_bound()
        return self.flat.copy()

    def write(self, flat: np.ndarray) -> None:
        """Vectorized full-state write: ``flat[:] = incoming``."""
        flat = np.asarray(flat)
        if flat.size != self.num_scalars:
            raise ValueError(
                f"flat vector has {flat.size} scalars, expected {self.num_scalars}"
            )
        self.ensure_bound()
        self.flat[:] = flat.reshape(-1)

    def mix(self, incoming: np.ndarray, own_weight: float) -> None:
        """Fused blend: ``flat *= w; flat += (1-w) * incoming``.

        Elementwise identical to ``w * flat + (1-w) * incoming`` (fp
        multiply/add are commutative), with no full-state round trip.
        """
        incoming = np.asarray(incoming)
        if incoming.size != self.num_scalars:
            raise ValueError(
                f"incoming vector has {incoming.size} scalars, "
                f"expected {self.num_scalars}"
            )
        self.ensure_bound()
        if np.may_share_memory(incoming, self.flat):
            # `flat *= w` would clobber an aliased incoming before it is
            # read; a self-mix must behave like the copy-based blend.
            incoming = incoming.copy()
        self.flat *= own_weight
        self.flat += (1.0 - own_weight) * incoming.reshape(-1)


def _install_buffer(owner: Module, local: str, view: np.ndarray) -> None:
    """Point a module's registered buffer (and its attribute mirror) at ``view``."""
    owner._buffers[local] = view
    object.__setattr__(owner, local, view)


__all__ = ["ArenaSlot", "ParamArena"]
