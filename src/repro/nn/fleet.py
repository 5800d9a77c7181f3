"""Replica-batched ("fleet") forward over stacks of identical modules.

A fleet runs D architecture-identical model replicas through ONE batched
forward/backward: every parameter becomes a stacked ``(D, *shape)`` view
into a ``(D, n)`` matrix whose rows are the replicas'
:class:`~repro.comm.params.ParamArena` vectors (D consecutive rows of an
:class:`~repro.sim.cluster.ArenaPool` slab in the simulator), and every
layer maps to a batched handler whose NumPy kernels compute *per slice*
— so the batched result is bitwise identical to looping the replicas
serially on the same seeds.  That contract is what lets the in-process
executor batch every dense MLP cluster by default without changing a
single trajectory (see ``tests/test_fleet.py``).

Input is always **stacked**: ``x`` is ``(D, N, ...)``, one private batch
per replica, and every activation keeps the leading replica axis.

The handler table covers what MLP traffic reaches — ``Linear``,
``ReLU``, ``Dropout``, ``Flatten``, ``Sequential`` and ``MLP`` — where
batching pays (an 8-device HADFL run on ``mlp`` reads 1.48× serial).
Conv, norm and pool trees are not covered: on ``simple_cnn`` the same
run read 0.999× serial, so a CNN trains per device, bitwise identical
by the same contract.

Handlers are keyed by *exact* type: a subclass with an overridden
``forward`` must not silently inherit its parent's batched kernel.
:func:`fleet_capable` reports whether a module tree is fully covered;
callers fall back to the serial path when it is not.
"""

from __future__ import annotations

import types
from typing import TYPE_CHECKING, Callable, Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.autograd import Tensor, as_tensor, linear
from repro.nn.layers import Dropout, Flatten, Linear, ReLU, Sequential
from repro.nn.models.mlp import MLP
from repro.nn.module import Module, Parameter

if TYPE_CHECKING:
    # Annotation-only: repro.comm's package import reaches repro.sim,
    # whose device and executor modules import this one.
    from repro.comm.params import ArenaSlot


class _Slice:
    """Stacked views over the first ``count`` fleet rows, built once, and
    the handler dispatch that reads them (a forward has no other state)."""

    __slots__ = ("params",)

    def __init__(self) -> None:
        self.params: Dict[str, Tensor] = {}

    def run(self, prefix: str, members: Sequence[Module], x: Tensor) -> Tensor:
        handler = _HANDLERS.get(type(members[0]))
        if handler is None:
            raise TypeError(
                f"no fleet handler for {type(members[0]).__name__} "
                f"(at {prefix or '<root>'})"
            )
        return handler(self, prefix, members, x)


class FleetModule:
    """Batched executor for D architecture-identical module replicas.

    ``stack`` is a ``(D, n)`` fp64 matrix whose row d holds replica d's
    full flat state in ``layout`` order — in the simulator, D
    consecutive rows of an :class:`~repro.sim.cluster.ArenaPool` slab,
    so row d *is* replica d's arena vector and batched writes land
    where the serial loop would write.
    ``grad_stack`` is the matching ``(D, param_scalars)`` gradient
    matrix; stacked parameter leaves are pre-bound to views of it, so a
    batched backward writes each replica's gradients into its own row.

    ``forward(x, count=k)`` runs only the first ``k`` replicas (and the
    first ``k`` rows): bursts shrink their active prefix as short-step
    devices finish.  Stacked views per ``count`` are built once and
    cached, and the simulator keeps the module across bursts and pool
    releases — its rows' blocks keep their models — until a slab
    regrowth (:meth:`~repro.sim.cluster.DeviceSubstrate.fleet`).
    """

    def __init__(
        self,
        modules: Sequence[Module],
        stack: np.ndarray,
        layout: Sequence[ArenaSlot],
        grad_stack: np.ndarray,
    ) -> None:
        if not modules:
            raise ValueError("FleetModule requires at least one replica")
        if not fleet_capable(modules[0]):
            raise TypeError(
                f"{type(modules[0]).__name__} is not fleet-capable; "
                "check fleet_capable() before constructing a FleetModule"
            )
        root = type(modules[0])
        for module in modules:
            if type(module) is not root:
                raise TypeError(
                    f"replica type mismatch: {type(module).__name__} vs {root.__name__}"
                )
        stack = np.asarray(stack)
        if stack.ndim != 2 or stack.shape[0] != len(modules):
            raise ValueError(
                f"stack shape {stack.shape} does not match {len(modules)} replicas"
            )
        self.modules: List[Module] = list(modules)
        self._stack = stack
        self._grad_stack = grad_stack
        self._layout = list(layout)
        self._slices: Dict[int, _Slice] = {}
        self._member_params: Dict[str, List[Parameter]] = {}
        for module in self.modules:
            for name, param in module.named_parameters():
                self._member_params.setdefault(name, []).append(param)

    # ------------------------------------------------------------------ #
    def _slice(self, count: int) -> _Slice:
        cached = self._slices.get(count)
        if cached is not None:
            return cached
        built = _Slice()
        # The covered layers carry no buffers: parameter slots only.
        for slot in self._layout:
            if not slot.is_param:
                continue
            window = (slice(None, count), slice(slot.offset, slot.offset + slot.size))
            tensor = Tensor(
                self._stack[window].reshape((count,) + slot.shape), requires_grad=True
            )
            tensor.bind_grad(self._grad_stack[window].reshape((count,) + slot.shape))
            built.params[slot.name] = tensor
        self._slices[count] = built
        return built

    # ------------------------------------------------------------------ #
    def forward(self, x: Tensor, count: Optional[int] = None) -> Tensor:
        """One batched forward over the first ``count`` replicas.

        ``x`` is ``(count, N, ...)`` with one batch per replica; the
        output is stacked the same way.  A shared ``(N, ...)`` batch is
        rejected — tile it per replica first.
        """
        count = len(self.modules) if count is None else count
        x = as_tensor(x)
        if x.ndim < 3 or x.shape[0] != count:
            raise ValueError(
                f"expected a stacked ({count}, N, ...) batch of rank >= 3 "
                f"(one batch per replica), got shape {x.shape}"
            )
        return self._slice(count).run("", self.modules[:count], x)

    def sync_grad_liveness(self, count: int) -> None:
        """Mirror member gradient liveness onto the stacked leaves.

        Serial semantics: a parameter whose ``grad`` is ``None`` gets
        its bound view *overwritten* by the first accumulation, a live
        one is *added to*.  Replicas move in lockstep, so liveness is
        uniform across members; copying member 0's state onto each
        stacked leaf makes the batched backward take the same
        overwrite-vs-add branch the serial loop would.  The known-zero
        state of the members' views (every member just ran
        ``zero_grad``) is mirrored the same way, so the stacked weight
        GEMMs write their rows in place as the serial ones do.
        """
        built = self._slice(count)
        for name, tensor in built.params.items():
            member = self._member_params[name][0]
            # repro: allow[arena-rebind] mirror member liveness onto stacked leaf
            tensor.grad = tensor._grad_view if member.grad is not None else None
            if member._grad_zeroed:
                tensor._mark_grad_zeroed()
            else:
                tensor._mark_grad_written()

    def adopt_member_grads(self, count: int) -> None:
        """Re-bind member ``grad`` slots after a batched backward.

        The batched backward writes through stacked views of the fleet
        gradient matrix without touching per-member ``grad`` attributes;
        each member whose stacked leaf received a gradient is pointed at
        its own arena gradient view — exactly what a serial backward
        would have left behind (a written view, no longer known-zero),
        and the bound gradient ``Optimizer.step`` requires
        (:meth:`~repro.comm.params.ParamArena.check_grads_bound`).
        """
        built = self._slice(count)
        for name, tensor in built.params.items():
            if tensor.grad is None:
                continue
            for member in self._member_params[name][:count]:
                member._mark_grad_written()
                if member.grad is not member._grad_view:
                    # repro: allow[arena-rebind] adopt fleet-written gradient view
                    member.grad = member._grad_view


# --------------------------------------------------------------------- #
# Per-layer batched handlers.  Each one reproduces the serial forward's
# exact arithmetic per replica slice; comments note the axis mapping.
# --------------------------------------------------------------------- #
_Handler = Callable[[_Slice, str, Sequence[Module], Tensor], Tensor]


def _h_linear(fleet: _Slice, prefix: str, members: Sequence[Module], x: Tensor) -> Tensor:
    weight = fleet.params[prefix + "weight"]  # (k, out, in)
    bias = fleet.params[prefix + "bias"] if members[0].bias is not None else None
    return linear(x, weight, bias)


def _h_relu(fleet: _Slice, prefix: str, members: Sequence[Module], x: Tensor) -> Tensor:
    return x.relu()


def _h_dropout(fleet: _Slice, prefix: str, members: Sequence[Module], x: Tensor) -> Tensor:
    first = members[0]
    if not first.training or first.p == 0.0:
        return x
    keep = 1.0 - first.p
    # One mask per replica from that replica's own stream, drawn in
    # replica order — each stream sees the same draw sequence as the
    # serial loop, because draws within one replica keep forward order.
    mask = np.stack(
        [(m._rng.random(x.shape[1:]) < keep) / keep for m in members]
    )
    return x * Tensor(mask)


def _h_flatten(fleet: _Slice, prefix: str, members: Sequence[Module], x: Tensor) -> Tensor:
    return x.reshape(x.shape[0], x.shape[1], -1)


def _h_sequential(
    fleet: _Slice, prefix: str, members: Sequence[Module], x: Tensor
) -> Tensor:
    for name in members[0]._order:
        x = fleet.run(f"{prefix}{name}.", [getattr(m, name) for m in members], x)
    return x


def _h_mlp(fleet: _Slice, prefix: str, members: Sequence[Module], x: Tensor) -> Tensor:
    if x.ndim > 3:
        x = x.reshape(x.shape[0], x.shape[1], -1)
    return fleet.run(f"{prefix}net.", [m.net for m in members], x)


# Exact-type dispatch: a subclass overriding forward() must not inherit a
# batched kernel written for its parent.  MappingProxyType keeps the
# registry immutable at module level (fork-safety contract).
_HANDLERS: Mapping[type, _Handler] = types.MappingProxyType(
    {
        Linear: _h_linear,
        ReLU: _h_relu,
        Dropout: _h_dropout,
        Flatten: _h_flatten,
        Sequential: _h_sequential,
        MLP: _h_mlp,
    }
)


def fleet_capable(module: Module) -> bool:
    """Whether this module tree is fully covered by batched handlers.

    Exact-type check at every node: unknown layers — or subclasses of
    known ones, which may override ``forward`` — make the tree
    ineligible, and callers fall back to the serial per-replica path.
    """
    if type(module) not in _HANDLERS:
        return False
    return all(fleet_capable(child) for child in module.children())


__all__ = ["FleetModule", "fleet_capable"]
