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
``mix_params``) runs entirely on the arena.  :class:`FleetArena` stacks
D arenas into one ``(D, n)`` matrix for the batched fleet executor.

The wire size of a model (the M of the paper's ``2·K·M`` volume
arithmetic) is not an arena property: the selected
:class:`~repro.comm.wire.WireFormat` prices the flat vector
(``payload_nbytes``), the same codec that casts every simulated payload.
"""

from __future__ import annotations

import weakref
from typing import List, NamedTuple, Optional, Sequence, Tuple

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
    parameter, gradient and fleet storage immediately, by reference
    count, instead of whenever the cycle collector next runs.

    **Grad arena** (``bind_grads=True``, the default): the arena also
    owns one contiguous fp64 gradient vector ``grad_flat`` with the same
    layout as the parameter prefix (``named_parameters`` order), and each
    parameter's gradient storage is pre-bound to a reshaped view of it
    (:meth:`~repro.autograd.Tensor.bind_grad`).  Backward accumulation
    then writes straight into ``grad_flat``, ``Module.zero_grad`` /
    ``Optimizer.zero_grad`` collapse to one :meth:`zero_grads` fill, and
    the optimizers adopt the whole gradient as a single zero-copy
    vector — no per-step gather.  ``bind_grads=False`` reproduces the
    pre-grad-arena behaviour (gradients allocated per tensor on first
    accumulation), used by the forward-only evaluation replicas and the
    seed-emulation benchmarks.
    """

    def __init__(self, module: Module, bind_grads: bool = True) -> None:
        params = list(module.named_parameters())
        buffers = list(module.named_buffers())
        owners = module._buffer_owners()
        self.param_scalars = sum(int(p.data.size) for _, p in params)
        self.num_scalars = self.param_scalars + sum(int(b.size) for _, b in buffers)
        self.flat = np.empty(self.num_scalars, dtype=np.float64)

        cursor = 0
        slots: List[ArenaSlot] = []
        self._param_entries: List[Tuple[Parameter, np.ndarray]] = []
        for name, param in params:
            size = int(param.data.size)
            view = self.flat[cursor : cursor + size].reshape(param.data.shape)
            view[...] = param.data
            # repro: allow[arena-rebind] arena construction installs the views
            param.data = view
            self._param_entries.append((param, view))
            slots.append(ArenaSlot(name, cursor, size, view.shape, True))
            cursor += size
        self._buffer_entries: List[
            Tuple["weakref.ref[Module]", str, np.ndarray]
        ] = []
        for name, buf in buffers:
            owner, local = owners[name]
            size = int(buf.size)
            view = self.flat[cursor : cursor + size].reshape(buf.shape)
            view[...] = buf
            _install_buffer(owner, local, view)
            self._buffer_entries.append((weakref.ref(owner), local, view))
            slots.append(ArenaSlot(name, cursor, size, view.shape, False))
            cursor += size
        self._layout: Tuple[ArenaSlot, ...] = tuple(slots)

        self._grad_entries: List[Tuple[Parameter, np.ndarray]] = []
        if bind_grads:
            self.grad_flat: Optional[np.ndarray] = np.zeros(
                self.param_scalars, dtype=np.float64
            )
            cursor = 0
            for param, _ in self._param_entries:
                size = int(param.data.size)
                gview = self.grad_flat[cursor : cursor + size].reshape(
                    param.data.shape
                )
                param.bind_grad(gview)
                self._grad_entries.append((param, gview))
                cursor += size
        else:
            self.grad_flat = None
        module._bind_arena(self)

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
                # repro: allow[arena-rebind] repair path re-installs the view
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
        to the per-parameter loop.  Parameters whose ``grad`` was rebound
        to foreign storage (e.g. a manual ``param.grad = array``
        assignment) are repaired: the foreign gradient is dropped
        (``grad = None``, exactly what the per-parameter path would
        leave) and the arena view is re-bound so the next backward
        accumulates into ``grad_flat`` again.  Gradients already living
        in the arena stay bound as views of zeros — for a model whose
        parameters all receive gradients each step (every model in this
        repo) that is trajectory-identical to resetting them to ``None``.
        Every parameter's view is marked known-zero, so the next
        backward may write weight gradients straight into it — whoever
        fills gradient storage by hand before that backward calls
        :meth:`mark_grads_written`.
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

    def mark_grads_written(self) -> None:
        """Declare that ``grad_flat`` was written behind the parameters'
        backs (a shared-memory write-back, a raw ``grad_flat[:] = ...``,
        an in-place ``param.grad += v``):
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

        ``flat`` must be an fp64 vector of ``num_scalars`` (typically a
        row of a :class:`FleetArena` stack).  Current parameter/buffer
        values are copied in, then every view is reinstalled against the
        new storage, so the module keeps its exact state while the arena
        changes address.  When the arena binds gradients, ``grad_flat``
        (fp64, ``param_scalars``) is required; gradient *liveness* is
        preserved — a parameter whose ``grad`` was ``None`` stays
        ``None``, a live gradient moves onto the new storage with
        identical values (:meth:`~repro.autograd.Tensor.bind_grad`).
        """
        flat = np.asarray(flat)
        if flat.shape != (self.num_scalars,) or flat.dtype != np.float64:
            raise ValueError(
                f"storage must be fp64 ({self.num_scalars},), "
                f"got {flat.dtype} {flat.shape}"
            )
        self.ensure_bound()
        flat[...] = self.flat
        self.flat = flat
        cursor = 0
        param_entries: List[Tuple[Parameter, np.ndarray]] = []
        for param, _ in self._param_entries:
            size = int(param.data.size)
            view = flat[cursor : cursor + size].reshape(param.data.shape)
            # repro: allow[arena-rebind] storage migration re-installs the views
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

        if self.grad_flat is None:
            return
        if grad_flat is None:
            raise ValueError("arena binds gradients; grad_flat storage required")
        grad_flat = np.asarray(grad_flat)
        if grad_flat.shape != (self.param_scalars,) or grad_flat.dtype != np.float64:
            raise ValueError(
                f"grad storage must be fp64 ({self.param_scalars},), "
                f"got {grad_flat.dtype} {grad_flat.shape}"
            )
        grad_flat[...] = self.grad_flat
        self.grad_flat = grad_flat
        cursor = 0
        grad_entries: List[Tuple[Parameter, np.ndarray]] = []
        for param, _ in self._param_entries:
            size = int(param.data.size)
            gview = grad_flat[cursor : cursor + size].reshape(param.data.shape)
            param.bind_grad(gview)
            grad_entries.append((param, gview))
            cursor += size
        self._grad_entries = grad_entries

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

    def export_into(self, out: np.ndarray) -> None:
        """Vectorized full-state copy into caller-owned storage.

        The parallel-execution backends point ``out`` at a slice of a
        shared-memory block, so a replica in another process can
        :meth:`write` (attach) the exact bytes without any serialisation.
        """
        out = np.asarray(out)
        if out.size != self.num_scalars:
            raise ValueError(
                f"output has {out.size} scalars, expected {self.num_scalars}"
            )
        self.ensure_bound()
        out.reshape(-1)[:] = self.flat

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


class FleetArena:
    """D member :class:`ParamArena` vectors viewed as one ``(D, n)`` matrix.

    Construction migrates every member arena onto a row of a single
    contiguous block (:meth:`ParamArena.rebind_storage`), so the whole
    fleet's state is ``stack`` and the whole fleet's gradients are
    ``grad_stack`` — one matrix each — while each device's aliasing
    contract is untouched: ``arenas[d].flat`` *is* ``stack[d]``, every
    ``Parameter.data`` still aliases its device's row, the
    optimizers still adopt contiguous storage (each row roots in one 1-D
    base), and per-device reads/writes/mixes work unchanged.

    Batched (fleet) code slices column ranges of the first ``k`` rows to
    get stacked per-parameter views — ``stack[:k, off : off + size]``
    reshaped to ``(k, *shape)`` — which alias the same memory the
    per-device loop would touch, so batched and serial execution write
    the very same bytes.

    :meth:`release` migrates every member back onto private storage,
    restoring the pre-fleet layout (values preserved).
    """

    def __init__(self, arenas: Sequence[ParamArena]) -> None:
        if not arenas:
            raise ValueError("FleetArena requires at least one member arena")
        first = arenas[0]
        for arena in arenas[1:]:
            if (
                arena.num_scalars != first.num_scalars
                or arena.param_scalars != first.param_scalars
            ):
                raise ValueError(
                    "member arenas have different layouts: "
                    f"{arena.num_scalars}/{arena.param_scalars} scalars vs "
                    f"{first.num_scalars}/{first.param_scalars}"
                )
            if (arena.grad_flat is None) != (first.grad_flat is None):
                raise ValueError("member arenas disagree on gradient binding")
        self.arenas: List[ParamArena] = list(arenas)
        self.num_scalars = first.num_scalars
        self.param_scalars = first.param_scalars
        d = len(self.arenas)
        # 1-D roots so the optimizers' contiguity adoption
        # (``_root_base``) keeps seeing a flat fp64 base under every row.
        base = np.empty(d * self.num_scalars, dtype=np.float64)
        self.stack: np.ndarray = base.reshape(d, self.num_scalars)
        if first.grad_flat is not None:
            gbase = np.zeros(d * self.param_scalars, dtype=np.float64)
            self.grad_stack: Optional[np.ndarray] = gbase.reshape(
                d, self.param_scalars
            )
        else:
            self.grad_stack = None
        for k, arena in enumerate(self.arenas):
            arena.rebind_storage(
                self.stack[k],
                None if self.grad_stack is None else self.grad_stack[k],
            )

    def release(self) -> None:
        """Migrate every member back onto private per-device storage."""
        for arena in self.arenas:
            flat = np.empty(arena.num_scalars, dtype=np.float64)
            grad = (
                None
                if arena.grad_flat is None
                else np.zeros(arena.param_scalars, dtype=np.float64)
            )
            arena.rebind_storage(flat, grad)


__all__ = ["ArenaSlot", "ParamArena", "FleetArena"]
