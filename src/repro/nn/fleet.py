"""Replica-batched ("fleet") forward over stacks of identical modules.

A fleet runs D architecture-identical model replicas through ONE batched
forward/backward: every parameter becomes a stacked ``(D, *shape)`` view
into a ``(D, n)`` matrix whose rows are the replicas'
:class:`~repro.comm.params.ParamArena` vectors (D consecutive rows of an
:class:`~repro.sim.cluster.ArenaPool` slab in the simulator), and every
NumPy call computes *per slice* — so the batched result is bitwise
identical to looping the replicas serially on the same seeds.  That
contract is what lets the in-process executor batch every dense MLP
cluster by default without changing a single trajectory (see
``tests/test_fleet.py``).

Input is always **stacked**: ``x`` is ``(D, N, ...)``, one private batch
per replica, and every activation keeps the leading replica axis.

**Layer plan.**  A :class:`FleetModule` walks one replica's module tree
once and compiles it into a flat plan of ``linear`` / ``relu`` /
``dropout`` / ``flatten`` steps (``Sequential`` and ``MLP`` only nest
them; ``MLP`` contributes its input flatten).  A batched forward runs
the whole plan as ONE autograd node: its forward issues exactly the
NumPy calls of the per-layer ``linear`` / ``relu`` / dropout chain the
serial layers build, in the same order, and its backward replays their
backward calls in reverse (see :func:`_run_plan`).  The plan covers
what MLP traffic reaches, where batching pays (an 8-device HADFL run on
``mlp`` reads 1.48× serial).  Conv, norm and pool trees are not
covered: on ``simple_cnn`` the same run read 0.999× serial, so a CNN
trains per device, bitwise identical by the same contract.

Layers are matched by *exact* type: a subclass with an overridden
``forward`` must not silently inherit its parent's batched arithmetic.
:func:`fleet_capable` reports whether a module tree is fully covered;
callers fall back to the serial path when it is not.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.autograd import Tensor, as_tensor
from repro.autograd.ops import write_bias_grad, write_weight_grad
from repro.nn.layers import Dropout, Flatten, Linear, ReLU, Sequential
from repro.nn.models.mlp import MLP
from repro.nn.module import Module, Parameter

if TYPE_CHECKING:
    # Annotation-only: repro.comm's package import reaches repro.sim,
    # whose device and executor modules import this one.
    from repro.comm.params import ArenaSlot


# Exact types the layer plan covers.
_COVERED = frozenset({Linear, ReLU, Dropout, Flatten, Sequential, MLP})

# One plan step: (kind, argument).  Compiled: ``linear`` carries its
# (weight, bias) slot names (bias ``None`` when absent), ``dropout`` the
# replicas' layers, ``relu`` / ``flatten`` nothing.  Bound to a row
# count: the names become stacked leaves and the layers a prefix.
_Step = Tuple[str, Any]


def _compile(members: Sequence[Module], prefix: str = "") -> List[_Step]:
    """The layer plan of ``members[0]``'s tree, parameters named as
    ``named_parameters`` names them."""
    module = members[0]
    kind = type(module)
    if kind is MLP:
        # MLP.forward flattens inputs of rank > 2; reshaping a stacked
        # (D, N, F) input to (D, N, -1) changes no value.
        return [("flatten", None)] + _compile([m.net for m in members], prefix + "net.")
    if kind is Sequential:
        plan: List[_Step] = []
        for name in module._order:
            plan += _compile([getattr(m, name) for m in members], f"{prefix}{name}.")
        return plan
    if kind is Linear:
        bias = prefix + "bias" if module.bias is not None else None
        return [("linear", (prefix + "weight", bias))]
    if kind is ReLU:
        return [("relu", None)]
    if kind is Dropout:
        return [("dropout", tuple(members))]
    if kind is Flatten:
        return [("flatten", None)]
    raise TypeError(f"no fleet layer for {kind.__name__} (at {prefix or '<root>'})")


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
    devices finish.  The layer plan is compiled once; its stacked views
    per ``count`` are bound once and cached, and the simulator keeps the
    module across bursts and pool releases — its rows' blocks keep their
    models — until a slab regrowth
    (:meth:`~repro.sim.cluster.DeviceSubstrate.fleet`).
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
        self._plan = _compile(self.modules)
        # Where the backward stops when the batch carries no gradient:
        # the first linear step's input needs none, nor does any before.
        self._first_linear = next(
            (i for i, (kind, _) in enumerate(self._plan) if kind == "linear"),
            len(self._plan),
        )
        self._bound: Dict[int, Tuple[Dict[str, Tensor], Tuple[_Step, ...]]] = {}
        self._member_params: Dict[str, List[Parameter]] = {}
        for module in self.modules:
            for name, param in module.named_parameters():
                self._member_params.setdefault(name, []).append(param)

    # ------------------------------------------------------------------ #
    def _bind(self, count: int) -> Tuple[Dict[str, Tensor], Tuple[_Step, ...]]:
        """Stacked parameter leaves over the first ``count`` rows, and
        the plan bound to them (built once per ``count``)."""
        cached = self._bound.get(count)
        if cached is not None:
            return cached
        leaves: Dict[str, Tensor] = {}
        # The covered layers carry no buffers: parameter slots only.
        for slot in self._layout:
            if not slot.is_param:
                continue
            window = (slice(None, count), slice(slot.offset, slot.offset + slot.size))
            tensor = Tensor(
                self._stack[window].reshape((count,) + slot.shape), requires_grad=True
            )
            tensor.bind_grad(self._grad_stack[window].reshape((count,) + slot.shape))
            leaves[slot.name] = tensor
        steps: List[_Step] = []
        for kind, arg in self._plan:
            if kind == "linear":
                weight, bias = arg
                arg = (leaves[weight], None if bias is None else leaves[bias])
            elif kind == "dropout":
                arg = arg[:count]
            steps.append((kind, arg))
        self._bound[count] = bound = (leaves, tuple(steps))
        return bound

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
        leaves, steps = self._bind(count)
        return _run_plan(x, steps, tuple(leaves.values()), self._first_linear)

    def adopt_member_grads(self, count: int) -> None:
        """Re-bind member ``grad`` slots after a batched backward.

        The batched backward writes through stacked views of the fleet
        gradient matrix without touching per-member ``grad`` attributes;
        each member whose stacked leaf received a gradient is pointed at
        its own arena gradient view — exactly what a serial backward
        would have left behind (a written view, no longer known-zero),
        and the bound gradient ``Optimizer.step`` requires
        (:meth:`~repro.comm.params.ParamArena.check_grads_bound`).

        Each stacked leaf is then cleared (``grad = None``; a leaf new
        from :meth:`_bind` starts so), so the next batched backward
        *overwrites* its rows.  The leaves are private to this module,
        and that backward writes every element of their rows without
        reading one — the bytes the serial step's overwrite of, or add
        to, the zeros its ``zero_grad`` left, whatever each member's
        liveness (a bias row gets ``sum + 0.0`` either way,
        :func:`~repro.autograd.ops.write_bias_grad`; see
        :func:`_run_plan`).  So no member needs a ``zero_grad`` before a
        batched step, and member parameters are never marked known-zero
        here.
        """
        for name, tensor in self._bind(count)[0].items():
            if tensor.grad is None:
                continue
            tensor.grad = None
            for member in self._member_params[name][:count]:
                member._mark_grad_written()
                if member.grad is not member._grad_view:
                    member.grad = member._grad_view


def _run_plan(
    x: Tensor,
    steps: Sequence[_Step],
    leaves: Tuple[Tensor, ...],
    first_linear: int,
) -> Tensor:
    """The bound plan over stacked ``x`` as ONE autograd node.

    Forward: per step, the NumPy calls of the serial layer —
    ``linear``'s ``x @ W.mT`` and in-place bias add, ReLU's ``x * (x >
    0)``, Dropout's ``x * mask`` with one mask per replica drawn from
    that replica's own stream in replica order (each stream sees the
    serial draw sequence), Flatten's reshape.  Backward: their backward
    calls in reverse — ``g * mask``, the reshape back, and per linear
    layer the input gradient ``g @ W`` (only where the step's input
    carries a gradient: never for the data batch entering the first
    layer) and the two parameter gradients written by
    :func:`~repro.autograd.ops.write_weight_grad` /
    :func:`~repro.autograd.ops.write_bias_grad`, the writers
    :func:`~repro.autograd.ops.linear` itself uses.  The per-layer
    nodes' gradient copies carry no value change, so skipping them
    leaves every gradient bitwise the serial chain's.  An input that
    requires grad receives its gradient from this node too.
    """
    data = x.data
    saved: List[Any] = []  # per step: what its backward reads
    for kind, arg in steps:
        if kind == "linear":
            weight, bias = arg
            saved.append(data)
            data = data @ weight.data.swapaxes(-1, -2)
            if bias is not None:
                data += bias.data[..., None, :]
        elif kind == "relu":
            mask = data > 0
            saved.append(mask)
            data = data * mask
        elif kind == "dropout":
            first = arg[0]
            if not first.training or first.p == 0.0:
                saved.append(None)
                continue
            keep = 1.0 - first.p
            mask = np.stack(
                [(layer._rng.random(data.shape[1:]) < keep) / keep for layer in arg]
            )
            saved.append(mask)
            data = data * mask
        else:  # flatten
            saved.append(data.shape)
            data = data.reshape(data.shape[0], data.shape[1], -1)
    input_grad = x.requires_grad
    stop = 0 if input_grad else first_linear

    def run_plan(g: np.ndarray) -> None:
        for i in range(len(steps) - 1, stop - 1, -1):
            kind, arg = steps[i]
            kept = saved[i]
            if kind == "linear":
                weight, bias = arg
                g_in = g @ weight.data if input_grad or i > stop else None
                write_weight_grad(weight, kept, g)
                if bias is not None:
                    write_bias_grad(bias, g.sum(axis=-2))
                g = g_in
            elif kind == "flatten":
                g = g.reshape(kept)
            elif kept is not None:  # relu, or an active dropout
                g = g * kept
        if input_grad:
            x._accumulate(g)

    return Tensor._make(data, (x,) + leaves, run_plan)


def fleet_capable(module: Module) -> bool:
    """Whether this module tree is fully covered by the layer plan.

    Exact-type check at every node: unknown layers — or subclasses of
    known ones, which may override ``forward`` — make the tree
    ineligible, and callers fall back to the serial per-replica path.
    """
    if type(module) not in _COVERED:
        return False
    return all(fleet_capable(child) for child in module.children())


__all__ = ["FleetModule", "fleet_capable"]
