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

Two input modes flow through the same handlers:

* **stacked** — ``x`` is ``(D, N, ...)``, one private batch per replica
  (local-training bursts);
* **shared** — ``x`` is ``(N, ...)``, one batch broadcast to every
  replica (stacked evaluation).  The replica axis appears at the first
  parameterised layer via NumPy's batched-matmul broadcasting.

Handlers are keyed by *exact* type: a subclass with an overridden
``forward`` must not silently inherit its parent's batched kernel.
:func:`fleet_capable` reports whether a module tree is fully covered;
callers fall back to the serial path when it is not.
"""

from __future__ import annotations

import types
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.autograd import (
    Tensor,
    as_tensor,
    fleet_conv2d,
    linear,
    standardize,
)
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
    """Stacked views over the first ``count`` fleet rows, built once."""

    __slots__ = ("params", "buffers")

    def __init__(self) -> None:
        self.params: Dict[str, Tensor] = {}
        self.buffers: Dict[str, np.ndarray] = {}


class _Call:
    """State threaded through one batched forward.

    ``stacked`` tracks whether the activation currently carries the
    leading replica axis: shared-input evaluation starts ``False`` and
    flips ``True`` at the first layer with per-replica parameters.
    """

    __slots__ = ("owner", "count", "stacked")

    def __init__(self, owner: "FleetModule", count: int, stacked: bool) -> None:
        self.owner = owner
        self.count = count
        self.stacked = stacked

    def run(self, prefix: str, members: Sequence[Module], x: Tensor) -> Tensor:
        handler = _HANDLERS.get(type(members[0]))
        if handler is None:
            raise TypeError(
                f"no fleet handler for {type(members[0]).__name__} "
                f"(at {prefix or '<root>'})"
            )
        return handler(self, prefix, members, x)

    def param(self, prefix: str, local: str) -> Tensor:
        return self.owner._slice(self.count).params[prefix + local]

    def buffer(self, prefix: str, local: str) -> np.ndarray:
        return self.owner._slice(self.count).buffers[prefix + local]


class FleetModule:
    """Batched executor for D architecture-identical module replicas.

    ``stack`` is a ``(D, n)`` fp64 matrix whose row d holds replica d's
    full flat state in ``layout`` order (exactly a
    :class:`~repro.comm.params.FleetArena` stack, or any matrix built
    from per-device :meth:`~repro.comm.params.ParamArena.read` rows).
    ``grad_stack`` — required for training — is the matching
    ``(D, param_scalars)`` gradient matrix; stacked parameter leaves are
    pre-bound to views of it, so a batched backward writes each
    replica's gradients into its own row.

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
        grad_stack: Optional[np.ndarray] = None,
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
        for slot in self._layout:
            view = self._stack[:count, slot.offset : slot.offset + slot.size]
            view = view.reshape((count,) + slot.shape)
            if slot.is_param:
                tensor = Tensor(view, requires_grad=True)
                if self._grad_stack is not None:
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
    def forward(self, x: Tensor, count: Optional[int] = None, stacked: bool = True) -> Tensor:
        """One batched forward over the first ``count`` replicas.

        ``stacked=True``: ``x`` is ``(count, N, ...)`` with one batch
        per replica.  ``stacked=False``: ``x`` is a shared ``(N, ...)``
        batch evaluated under every replica's parameters.  Returns
        stacked output ``(count, N, ...)`` either way (assuming at least
        one parameterised layer).
        """
        count = len(self.modules) if count is None else count
        call = _Call(self, count, stacked)
        return call.run("", self.modules[:count], as_tensor(x))

    __call__ = forward

    def sync_grad_liveness(self, count: int) -> None:
        """Mirror member gradient liveness onto the stacked leaves.

        Serial semantics: a parameter whose ``grad`` is ``None`` gets
        its bound view *overwritten* by the first accumulation, a live
        one is *added to*.  Replicas move in lockstep, so liveness is
        uniform across members; copying member 0's state onto each
        stacked leaf makes the batched backward take the same
        overwrite-vs-add branch the serial loop would.
        """
        built = self._slice(count)
        for name, tensor in built.params.items():
            live = self._member_params[name][0].grad is not None
            # repro: allow[arena-rebind] mirror member liveness onto stacked leaf
            tensor.grad = tensor._grad_view if live else None

    def adopt_member_grads(self, count: int) -> None:
        """Re-bind member ``grad`` slots after a batched backward.

        The batched backward writes through stacked views of the fleet
        gradient matrix without touching per-member ``grad`` attributes;
        each member whose stacked leaf received a gradient is pointed at
        its own arena gradient view so ``Optimizer.step`` (and its fused
        zero-copy adoption) sees exactly what a serial backward would
        have left behind.
        """
        built = self._slice(count)
        for name, tensor in built.params.items():
            if tensor.grad is None:
                continue
            for member in self._member_params[name][:count]:
                if member.grad is not member._grad_view:
                    # repro: allow[arena-rebind] adopt fleet-written gradient view
                    member.grad = member._grad_view


# --------------------------------------------------------------------- #
# Per-layer batched handlers.  Each one reproduces the serial forward's
# exact arithmetic per replica slice; comments note the axis mapping.
# --------------------------------------------------------------------- #
_Handler = Callable[[_Call, str, Sequence[Module], Tensor], Tensor]


def _h_linear(call: _Call, prefix: str, members: Sequence[Module], x: Tensor) -> Tensor:
    weight = call.param(prefix, "weight")  # (k, out, in)
    bias = call.param(prefix, "bias") if members[0].bias is not None else None
    out = linear(x, weight, bias)
    call.stacked = True
    return out


def _h_conv2d(call: _Call, prefix: str, members: Sequence[Module], x: Tensor) -> Tensor:
    first = members[0]
    weight = call.param(prefix, "weight")  # (k, c_out, c_in, kh, kw)
    bias = call.param(prefix, "bias") if first.bias is not None else None
    out = fleet_conv2d(x, weight, bias, stride=first.stride, padding=first.padding)
    call.stacked = True
    return out


def _h_relu(call: _Call, prefix: str, members: Sequence[Module], x: Tensor) -> Tensor:
    return x.relu()


def _h_leaky_relu(
    call: _Call, prefix: str, members: Sequence[Module], x: Tensor
) -> Tensor:
    return x.leaky_relu(members[0].negative_slope)


def _h_tanh(call: _Call, prefix: str, members: Sequence[Module], x: Tensor) -> Tensor:
    return x.tanh()


def _h_identity(call: _Call, prefix: str, members: Sequence[Module], x: Tensor) -> Tensor:
    return x


def _h_dropout(call: _Call, prefix: str, members: Sequence[Module], x: Tensor) -> Tensor:
    first = members[0]
    if not first.training or first.p == 0.0:
        return x
    keep = 1.0 - first.p
    # One mask per replica from that replica's own stream, drawn in
    # replica order — each stream sees the same draw sequence as the
    # serial loop, because draws within one replica keep forward order.
    per_shape = x.shape[1:] if call.stacked else x.shape
    mask = np.stack(
        [(m._rng.random(per_shape) < keep) / keep for m in members]
    )
    call.stacked = True
    return x * Tensor(mask)


def _h_flatten(call: _Call, prefix: str, members: Sequence[Module], x: Tensor) -> Tensor:
    if call.stacked:
        return x.reshape(x.shape[0], x.shape[1], -1)
    return x.flatten_batch()


def _h_max_pool(call: _Call, prefix: str, members: Sequence[Module], x: Tensor) -> Tensor:
    if not call.stacked:
        return max_pool2d(x, members[0].kernel_size)
    k, n = x.shape[0], x.shape[1]
    # Collapse (k, N) -> k*N: the pooling kernel treats rows
    # independently, so per-slice results are untouched.
    out = max_pool2d(x.reshape((k * n,) + x.shape[2:]), members[0].kernel_size)
    return out.reshape((k, n) + out.shape[1:])


def _h_avg_pool(call: _Call, prefix: str, members: Sequence[Module], x: Tensor) -> Tensor:
    if not call.stacked:
        return avg_pool2d(x, members[0].kernel_size)
    k, n = x.shape[0], x.shape[1]
    out = avg_pool2d(x.reshape((k * n,) + x.shape[2:]), members[0].kernel_size)
    return out.reshape((k, n) + out.shape[1:])


def _h_global_avg_pool(
    call: _Call, prefix: str, members: Sequence[Module], x: Tensor
) -> Tensor:
    if not call.stacked:
        return global_avg_pool2d(x)
    k, n = x.shape[0], x.shape[1]
    out = global_avg_pool2d(x.reshape((k * n,) + x.shape[2:]))
    return out.reshape((k, n) + out.shape[1:])


def _h_batch_norm(
    call: _Call, prefix: str, members: Sequence[Module], x: Tensor
) -> Tensor:
    first = members[0]
    c = first.num_features
    k = call.count
    gamma = call.param(prefix, "weight").reshape(k, 1, c, 1, 1)
    beta = call.param(prefix, "bias").reshape(k, 1, c, 1, 1)
    running_mean = call.buffer(prefix, "running_mean")  # (k, c) views
    running_var = call.buffer(prefix, "running_var")
    if first.training:
        # Serial reduces (0, 2, 3) of (N, C, H, W); with the replica
        # axis in front the same reduction is (1, 3, 4) per slice.
        axes = (1, 3, 4) if call.stacked else (0, 2, 3)
        x_hat, mu, var = standardize(x, axes, first.eps)
        m = first.momentum
        mu_rows = mu.reshape(k, c) if call.stacked else mu.reshape(c)
        var_rows = var.reshape(k, c) if call.stacked else var.reshape(c)
        shape = x.data.shape
        count = (
            shape[1] * shape[3] * shape[4] if call.stacked else shape[0] * shape[2] * shape[3]
        )
        correction = count / max(count - 1, 1)
        # In-place writes through the stacked buffer views land in each
        # replica's arena row, exactly like serial set_buffer calls.
        running_mean[...] = (1 - m) * running_mean + m * mu_rows
        running_var[...] = (1 - m) * running_var + m * var_rows * correction
    else:
        mean = Tensor(running_mean.reshape(k, 1, c, 1, 1))
        var_b = running_var.reshape(k, 1, c, 1, 1)
        x_hat = (x - mean) * Tensor(1.0 / np.sqrt(var_b + first.eps))
    call.stacked = True
    return gamma * x_hat + beta


def _h_group_norm(
    call: _Call, prefix: str, members: Sequence[Module], x: Tensor
) -> Tensor:
    first = members[0]
    k = call.count
    c = first.num_channels
    # Serial groups (N, G, -1) and reduces the last axis; a leading
    # replica axis rides along untouched.
    lead, spatial = x.shape[:-3], x.shape[-2:]
    grouped = x.reshape(lead + (first.num_groups, -1))
    x_hat = standardize(grouped, (-1,), first.eps)[0].reshape(lead + (c,) + spatial)
    gamma = call.param(prefix, "weight").reshape(k, 1, c, 1, 1)
    beta = call.param(prefix, "bias").reshape(k, 1, c, 1, 1)
    call.stacked = True
    return gamma * x_hat + beta


def _h_sequential(
    call: _Call, prefix: str, members: Sequence[Module], x: Tensor
) -> Tensor:
    for name in members[0]._order:
        x = call.run(f"{prefix}{name}.", [getattr(m, name) for m in members], x)
    return x


def _h_mlp(call: _Call, prefix: str, members: Sequence[Module], x: Tensor) -> Tensor:
    if call.stacked:
        if x.ndim > 3:
            x = x.reshape(x.shape[0], x.shape[1], -1)
    elif x.ndim > 2:
        x = x.flatten_batch()
    return call.run(f"{prefix}net.", [m.net for m in members], x)


def _h_simple_cnn(
    call: _Call, prefix: str, members: Sequence[Module], x: Tensor
) -> Tensor:
    x = call.run(f"{prefix}features.", [m.features for m in members], x)
    return call.run(f"{prefix}classifier.", [m.classifier for m in members], x)


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
