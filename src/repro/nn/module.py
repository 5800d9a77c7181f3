"""Module base class: parameter registration, modes, state dicts."""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.autograd import Tensor


class Parameter(Tensor):
    """A :class:`Tensor` that is registered as a trainable parameter."""

    def __init__(self, data, name: Optional[str] = None):
        super().__init__(data, requires_grad=True, name=name)


class Module:
    """Base class for all layers and models.

    Subclasses assign :class:`Parameter`, buffer (via
    :meth:`register_buffer`) and child :class:`Module` attributes in
    ``__init__`` and implement :meth:`forward`.  Registration happens
    automatically through ``__setattr__``, as in PyTorch.
    """

    def __init__(self):
        object.__setattr__(self, "_parameters", OrderedDict())
        object.__setattr__(self, "_buffers", OrderedDict())
        object.__setattr__(self, "_modules", OrderedDict())
        object.__setattr__(self, "training", True)

    # ------------------------------------------------------------------ #
    # Registration
    # ------------------------------------------------------------------ #
    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self._parameters[name] = value
        elif isinstance(value, Module):
            self._modules[name] = value
        object.__setattr__(self, name, value)

    def register_buffer(self, name: str, value: np.ndarray) -> None:
        """Register non-trainable state (e.g. BatchNorm running stats).

        Buffers are included in :meth:`state_dict` and participate in
        federated model aggregation (FedAvg averages them too).
        """
        self._buffers[name] = np.asarray(value, dtype=np.float64)
        object.__setattr__(self, name, self._buffers[name])

    def set_buffer(self, name: str, value: np.ndarray) -> None:
        """Overwrite a buffer's contents *in place* (same-shape writes).

        Keeping the storage identity is what lets a :class:`ParamArena`
        view stay aliased across BatchNorm running-stat updates and
        federated state loads.  A shape-changing write falls back to
        rebinding, the pre-arena behaviour.
        """
        if name not in self._buffers:
            raise KeyError(f"unknown buffer {name!r}")
        buf = self._buffers[name]
        value = np.asarray(value, dtype=np.float64)
        if value.shape == buf.shape:
            buf[...] = value
        else:
            self._buffers[name] = value
            object.__setattr__(self, name, self._buffers[name])

    # ------------------------------------------------------------------ #
    # Traversal
    # ------------------------------------------------------------------ #
    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        for name, param in self._parameters.items():
            yield (f"{prefix}{name}", param)
        for child_name, child in self._modules.items():
            yield from child.named_parameters(prefix=f"{prefix}{child_name}.")

    def parameters(self) -> List[Parameter]:
        return [p for _, p in self.named_parameters()]

    def named_buffers(self, prefix: str = "") -> Iterator[Tuple[str, np.ndarray]]:
        for name in self._buffers:
            yield (f"{prefix}{name}", self._buffers[name])
        for child_name, child in self._modules.items():
            yield from child.named_buffers(prefix=f"{prefix}{child_name}.")

    def modules(self) -> Iterator["Module"]:
        yield self
        for child in self._modules.values():
            yield from child.modules()

    def children(self) -> Iterator["Module"]:
        yield from self._modules.values()

    # ------------------------------------------------------------------ #
    # Modes
    # ------------------------------------------------------------------ #
    def train(self, mode: bool = True) -> "Module":
        object.__setattr__(self, "training", mode)
        for child in self._modules.values():
            child.train(mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    def zero_grad(self) -> None:
        """Reset all parameter gradients.

        Arena-backed modules (see :class:`repro.comm.params.ParamArena`)
        zero the whole flat gradient vector with a single fill — the
        same call as ``Optimizer.zero_grad`` — leaving every gradient a
        bound view of zeros; modules without bound grad storage keep the
        per-parameter ``grad = None`` reset.
        """
        arena = self.arena
        if arena is not None and arena.zero_grads():
            return
        for param in self.parameters():
            param.zero_grad()

    # ------------------------------------------------------------------ #
    # Serialization
    # ------------------------------------------------------------------ #
    def state_dict(self) -> Dict[str, np.ndarray]:
        """Copy of all parameters and buffers keyed by dotted path."""
        state: Dict[str, np.ndarray] = OrderedDict()
        for name, param in self.named_parameters():
            state[name] = param.data.copy()
        for name, buf in self.named_buffers():
            state[f"buffer:{name}"] = buf.copy()
        return state

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        params = dict(self.named_parameters())
        buffer_owners = self._buffer_owners()
        for key, value in state.items():
            if key.startswith("buffer:"):
                name = key[len("buffer:"):]
                owner, local = buffer_owners[name]
                owner.set_buffer(local, value)
            else:
                param = params[key]
                if param.shape != np.shape(value):
                    raise ValueError(
                        f"shape mismatch for {key}: {param.shape} vs {np.shape(value)}"
                    )
                # In-place write: parameter storage keeps its identity, so
                # arena views (and optimizer flat bindings) stay aliased.
                param.data[...] = value
        self._refresh_buffer_attrs()

    def _buffer_owners(self, prefix: str = "") -> Dict[str, Tuple["Module", str]]:
        owners = {f"{prefix}{name}": (self, name) for name in self._buffers}
        for child_name, child in self._modules.items():
            owners.update(child._buffer_owners(f"{prefix}{child_name}."))
        return owners

    def _refresh_buffer_attrs(self) -> None:
        for module in self.modules():
            for name, value in module._buffers.items():
                object.__setattr__(module, name, value)

    # ------------------------------------------------------------------ #
    # Flat parameter arena binding
    # ------------------------------------------------------------------ #
    def _bind_arena(self, arena) -> None:
        """Called by :class:`repro.comm.params.ParamArena` on construction."""
        object.__setattr__(self, "_arena", arena)

    @property
    def arena(self):
        """The :class:`ParamArena` backing this module, if one was built."""
        return getattr(self, "_arena", None)

    # ------------------------------------------------------------------ #
    # Call protocol
    # ------------------------------------------------------------------ #
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def __repr__(self) -> str:
        child_reprs = ", ".join(
            f"{name}={child.__class__.__name__}" for name, child in self._modules.items()
        )
        return f"{self.__class__.__name__}({child_reprs})"
