"""Replica-batched ("fleet") forward over stacks of identical modules.

A fleet runs D architecture-identical model replicas through ONE batched
forward/backward: every parameter becomes a stacked ``(D, *shape)`` view
into a :class:`~repro.comm.params.FleetArena` matrix (or any ``(D, n)``
stack laid out like a :class:`~repro.comm.params.ParamArena`), and every
layer maps to a batched handler whose NumPy kernels compute *per slice*
— so the batched result is bitwise identical to looping the replicas
serially on the same seeds.  That contract is what lets the simulator
swap ``executor="fleet"`` for ``executor="serial"`` without changing a
single trajectory (see ``tests/test_fleet.py``).

Input is always **stacked**: ``x`` is ``(D, N, ...)``, one private batch
per replica, and every activation keeps the leading replica axis.

Handlers are keyed by *exact* type: a subclass with an overridden
``forward`` must not silently inherit its parent's batched kernel.
:func:`fleet_capable` reports whether a module tree is fully covered;
callers fall back to the serial path when it is not.
"""

from __future__ import annotations

import types
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.autograd import Tensor, as_tensor, conv2d, linear, standardize
from repro.autograd.ops import avg_pool2d, global_avg_pool2d, max_pool2d
from repro.comm.params import ArenaSlot
from repro.nn.conv import Conv2d
from repro.nn.layers import (
    Dropout,
    Flatten,
    Identity,
    LeakyReLU,
    Linear,
    ReLU,
    Sequential,
    Tanh,
)
from repro.nn.models.mlp import MLP
from repro.nn.models.simple_cnn import SimpleCNN
from repro.nn.module import Module, Parameter
from repro.nn.norm import BatchNorm2d, GroupNorm
from repro.nn.pooling import AvgPool2d, GlobalAvgPool2d, MaxPool2d


class _Slice:
    """Stacked views over the first ``count`` fleet rows, built once, and
    the handler dispatch that reads them (a forward has no other state)."""

    __slots__ = ("count", "params", "buffers")

    def __init__(self, count: int) -> None:
        self.count = count
        self.params: Dict[str, Tensor] = {}
        self.buffers: Dict[str, np.ndarray] = {}

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
    full flat state in ``layout`` order (exactly a
    :class:`~repro.comm.params.FleetArena` stack, or any matrix built
    from per-device :meth:`~repro.comm.params.ParamArena.read` rows).
    ``grad_stack`` is the matching ``(D, param_scalars)`` gradient
    matrix; stacked parameter leaves are pre-bound to views of it, so a
    batched backward writes each replica's gradients into its own row.

    ``forward(x, count=k)`` runs only the first ``k`` replicas (and the
    first ``k`` rows): bursts shrink their active prefix as short-step
    devices finish.  Stacked views per ``count`` are built once and
    cached.
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
        built = _Slice(count)
        for slot in self._layout:
            view = self._stack[:count, slot.offset : slot.offset + slot.size]
            view = view.reshape((count,) + slot.shape)
            if slot.is_param:
                tensor = Tensor(view, requires_grad=True)
                gview = self._grad_stack[
                    :count, slot.offset : slot.offset + slot.size
                ].reshape((count,) + slot.shape)
                tensor.bind_grad(gview)
                built.params[slot.name] = tensor
            else:
                built.buffers[slot.name] = view
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
        its own arena gradient view so ``Optimizer.step`` (and its
        zero-copy adoption) sees exactly what a serial backward would
        have left behind — a written view, no longer known-zero.
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


def _h_conv2d(fleet: _Slice, prefix: str, members: Sequence[Module], x: Tensor) -> Tensor:
    first = members[0]
    weight = fleet.params[prefix + "weight"]  # (k, c_out, c_in, kh, kw)
    bias = fleet.params[prefix + "bias"] if first.bias is not None else None
    return conv2d(x, weight, bias, stride=first.stride, padding=first.padding)


def _h_relu(fleet: _Slice, prefix: str, members: Sequence[Module], x: Tensor) -> Tensor:
    return x.relu()


def _h_leaky_relu(
    fleet: _Slice, prefix: str, members: Sequence[Module], x: Tensor
) -> Tensor:
    return x.leaky_relu(members[0].negative_slope)


def _h_tanh(fleet: _Slice, prefix: str, members: Sequence[Module], x: Tensor) -> Tensor:
    return x.tanh()


def _h_identity(fleet: _Slice, prefix: str, members: Sequence[Module], x: Tensor) -> Tensor:
    return x


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


def _per_sample(op: Callable[..., Tensor], x: Tensor, *args: int) -> Tensor:
    # Collapse (k, N) -> k*N around a 4-D op: it treats rows
    # independently, so per-slice results are untouched.
    k, n = x.shape[0], x.shape[1]
    out = op(x.reshape((k * n,) + x.shape[2:]), *args)
    return out.reshape((k, n) + out.shape[1:])


def _h_max_pool(fleet: _Slice, prefix: str, members: Sequence[Module], x: Tensor) -> Tensor:
    return _per_sample(max_pool2d, x, members[0].kernel_size)


def _h_avg_pool(fleet: _Slice, prefix: str, members: Sequence[Module], x: Tensor) -> Tensor:
    return _per_sample(avg_pool2d, x, members[0].kernel_size)


def _h_global_avg_pool(
    fleet: _Slice, prefix: str, members: Sequence[Module], x: Tensor
) -> Tensor:
    return _per_sample(global_avg_pool2d, x)


def _h_batch_norm(
    fleet: _Slice, prefix: str, members: Sequence[Module], x: Tensor
) -> Tensor:
    first = members[0]
    c = first.num_features
    k = fleet.count
    gamma = fleet.params[prefix + "weight"].reshape(k, 1, c, 1, 1)
    beta = fleet.params[prefix + "bias"].reshape(k, 1, c, 1, 1)
    running_mean = fleet.buffers[prefix + "running_mean"]  # (k, c) views
    running_var = fleet.buffers[prefix + "running_var"]
    if first.training:
        # Serial reduces (0, 2, 3) of (N, C, H, W); with the replica
        # axis in front the same reduction is (1, 3, 4) per slice.
        x_hat, mu, var = standardize(x, (1, 3, 4), first.eps)
        m = first.momentum
        shape = x.data.shape
        count = shape[1] * shape[3] * shape[4]
        correction = count / max(count - 1, 1)
        # In-place writes through the stacked buffer views land in each
        # replica's arena row, exactly like serial set_buffer calls.
        running_mean[...] = (1 - m) * running_mean + m * mu.reshape(k, c)
        running_var[...] = (1 - m) * running_var + m * var.reshape(k, c) * correction
    else:
        mean = Tensor(running_mean.reshape(k, 1, c, 1, 1))
        var_b = running_var.reshape(k, 1, c, 1, 1)
        x_hat = (x - mean) * Tensor(1.0 / np.sqrt(var_b + first.eps))
    return gamma * x_hat + beta


def _h_group_norm(
    fleet: _Slice, prefix: str, members: Sequence[Module], x: Tensor
) -> Tensor:
    first = members[0]
    k = fleet.count
    c = first.num_channels
    # Serial groups (N, G, -1) and reduces the last axis; a leading
    # replica axis rides along untouched.
    lead, spatial = x.shape[:-3], x.shape[-2:]
    grouped = x.reshape(lead + (first.num_groups, -1))
    x_hat = standardize(grouped, (-1,), first.eps)[0].reshape(lead + (c,) + spatial)
    gamma = fleet.params[prefix + "weight"].reshape(k, 1, c, 1, 1)
    beta = fleet.params[prefix + "bias"].reshape(k, 1, c, 1, 1)
    return gamma * x_hat + beta


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


def _h_simple_cnn(
    fleet: _Slice, prefix: str, members: Sequence[Module], x: Tensor
) -> Tensor:
    x = fleet.run(f"{prefix}features.", [m.features for m in members], x)
    return fleet.run(f"{prefix}classifier.", [m.classifier for m in members], x)


# Exact-type dispatch: a subclass overriding forward() must not inherit a
# batched kernel written for its parent.  MappingProxyType keeps the
# registry immutable at module level (fork-safety contract).
_HANDLERS: Mapping[type, _Handler] = types.MappingProxyType(
    {
        Linear: _h_linear,
        Conv2d: _h_conv2d,
        ReLU: _h_relu,
        LeakyReLU: _h_leaky_relu,
        Tanh: _h_tanh,
        Identity: _h_identity,
        Dropout: _h_dropout,
        Flatten: _h_flatten,
        MaxPool2d: _h_max_pool,
        AvgPool2d: _h_avg_pool,
        GlobalAvgPool2d: _h_global_avg_pool,
        BatchNorm2d: _h_batch_norm,
        GroupNorm: _h_group_norm,
        Sequential: _h_sequential,
        MLP: _h_mlp,
        SimpleCNN: _h_simple_cnn,
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
