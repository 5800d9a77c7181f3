"""Optimizer base class: one update kernel, one call shape.

Every optimizer is built on a :class:`~repro.comm.params.ParamArena`
that binds gradient storage, and states its arithmetic once, as
``_kernel(w, g, state, scratch)`` over flat fp64 vectors.
:meth:`Optimizer.step` is the kernel's only caller and makes exactly
one call per step: on the arena's parameter prefix
``arena.flat[:param_scalars]``, its gradient vector ``arena.grad_flat``,
the optimizer's flat state and its scratch vectors.  The kernel is
elementwise, so the flat step is bitwise the retired per-parameter
updates (``tests/property/test_property_optim.py`` pins it against
``tests/reference_optim.py``).

**Gradient contract.**  Every parameter's ``grad`` must be its bound
view into ``grad_flat`` — what a backward,
``FleetModule.adopt_member_grads`` and ``ParamArena.zero_grads`` leave
behind.  A ``None`` gradient or a hand-assigned array is a
``ValueError``, raised before anything is written.  Once a parameter has
accumulated a gradient, :meth:`Optimizer.zero_grad` leaves it a live
*view of zeros*, not ``None``: a parameter that receives no gradient in
a later step contributes a zero gradient (momentum and weight decay
still apply).  Every model in this repo feeds every parameter every
step.  That is what lets the batched lockstep loop
(:mod:`repro.sim.fleet`) step without a ``zero_grad``: its backward
writes every element of each device's ``grad_flat``, bitwise what the
per-device ``zero_grad`` + backward leaves, so :meth:`step` reads the
same vector either way.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Sequence

import numpy as np

if TYPE_CHECKING:
    from repro.comm.params import ParamArena


class Optimizer:
    """Base optimizer over the parameters of one arena.

    Subclasses implement :meth:`_kernel` — the update over one set of
    matching-shape flat vectors — and report their dense state through
    :meth:`flat_state`.  State vectors are flat and positional, and the
    step reads ``arena.flat`` on every call, so the same optimizer
    survives in-place parameter writes during federated synchronisation
    and an :class:`~repro.sim.cluster.ArenaPool` moving the arena onto
    new slab rows (:meth:`ParamArena.rebind_storage`).
    """

    # Work vectors the kernel indexes (``scratch[0] .. [n-1]``).
    _num_scratch = 1

    def __init__(self, arena: ParamArena, lr: float):
        if arena.grad_flat is None:
            raise ValueError(
                "optimizer needs an arena with gradient storage (bind_grads=True)"
            )
        if not arena.param_scalars:
            raise ValueError("optimizer received an arena without parameters")
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.arena = arena
        self.lr = float(lr)
        self.num_scalars = arena.param_scalars
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
        """Reset every gradient with one :meth:`ParamArena.zero_grads`
        fill (which also marks every bound view known-zero)."""
        self.arena.zero_grads()

    def step(self) -> None:
        """Apply one update: one kernel call on the flat vectors, after
        checking the gradient contract (see the module docstring)."""
        arena = self.arena
        arena.check_grads_bound()
        self._kernel(
            arena.flat[: arena.param_scalars],
            arena.grad_flat,
            self.flat_state(),
            self._scratch_vectors(),
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

        ``g`` is **read-only**: it is the arena's gradient vector, which
        the live ``param.grad`` views alias, so kernels compute into
        ``scratch``.
        """
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # State round-trip (the skip_round rollback, ArenaPool.release)
    # ------------------------------------------------------------------ #
    def flat_state(self) -> List[np.ndarray]:
        """Live references to the dense fp64 state vectors of this optimizer.

        The kernel steps them, the ``skip_round`` rollback copies them
        and writes them back *in place*, and ``ArenaPool.release`` zeroes
        them — subclasses with large state (momentum, Adam moments) must
        expose every such vector here or a restored replica silently
        keeps stale state.
        """
        return []

    def scalar_state(self) -> dict:
        """Small mutable state that must round-trip with a device's
        train state (:meth:`~repro.sim.device.Device.export_train_state`)."""
        return {"lr": self.lr}

    def load_scalar_state(self, state: dict) -> None:
        self.lr = float(state["lr"])
