"""A minimal but complete reverse-mode autodiff tensor.

The design follows the classic tape-free approach (micrograd-style): every
operation returns a new :class:`Tensor` holding references to its parents
and a closure that, given the output gradient, accumulates gradients into
the parents.  ``Tensor.backward()`` runs a topological sort and applies the
closures in reverse order.

Only float64/float32 ndarrays are supported as payloads; gradients always
match the dtype and shape of their tensor.  Broadcasting in arithmetic ops
is handled by summing gradients back to the parent shape
(:func:`unbroadcast`).
"""

from __future__ import annotations

import contextlib
import threading
from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np

Number = Union[int, float]
ArrayLike = Union["Tensor", np.ndarray, Number, Sequence]

_grad_state = threading.local()


def is_grad_enabled() -> bool:
    """Return ``True`` when operations should record the autograd graph."""
    return getattr(_grad_state, "enabled", True)


def set_grad_enabled(enabled: bool) -> None:
    """Globally enable/disable graph recording (thread-local)."""
    _grad_state.enabled = bool(enabled)


@contextlib.contextmanager
def no_grad():
    """Context manager that disables graph recording.

    Used by optimizers for in-place parameter updates and by evaluation
    loops, mirroring ``torch.no_grad()``.
    """
    previous = is_grad_enabled()
    set_grad_enabled(False)
    try:
        yield
    finally:
        set_grad_enabled(previous)


def unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` so its shape matches the pre-broadcast ``shape``.

    NumPy broadcasting replicates values along size-1 or missing leading
    dimensions; the adjoint of replication is summation, so the gradient of
    a broadcast operand is the output gradient summed over the broadcast
    axes.
    """
    if grad.shape == shape:
        return grad
    # Sum out the extra leading dimensions added by broadcasting.
    extra_dims = grad.ndim - len(shape)
    if extra_dims > 0:
        grad = grad.sum(axis=tuple(range(extra_dims)))
    # Sum over axes that were 1 in the original shape but expanded.
    squash_axes = tuple(
        axis for axis, dim in enumerate(shape) if dim == 1 and grad.shape[axis] != 1
    )
    if squash_axes:
        grad = grad.sum(axis=squash_axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """An ndarray with an autograd tape.

    Parameters
    ----------
    data:
        Anything convertible to ``np.ndarray``.  Integer inputs are
        promoted to ``float64`` so gradients are well defined.
    requires_grad:
        Whether gradients should be accumulated into ``self.grad`` during
        :meth:`backward`.
    """

    __slots__ = (
        "data",
        "grad",
        "requires_grad",
        "_backward",
        "_parents",
        "name",
        "_grad_view",
        "_grad_zeroed",
    )

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        _parents: Tuple["Tensor", ...] = (),
        _backward: Optional[Callable[[np.ndarray], None]] = None,
        name: Optional[str] = None,
    ):
        # Ops hand over the float ndarray they just produced; everything
        # else (lists, scalars, Tensors, integer arrays) is coerced.
        if type(data) is not np.ndarray:
            data = np.asarray(data.data if isinstance(data, Tensor) else data)
        if data.dtype.kind in "iub":
            data = data.astype(np.float64)
        self.data: np.ndarray = data
        self.grad: Optional[np.ndarray] = None
        self._grad_view: Optional[np.ndarray] = None
        self._grad_zeroed = False
        self.requires_grad: bool = bool(requires_grad)
        # Grad mode is decided by the caller (``_make``), once per node.
        self._parents: Tuple[Tensor, ...] = _parents
        self._backward = _backward
        self.name = name

    # ------------------------------------------------------------------ #
    # Basic introspection
    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        tag = f", name={self.name!r}" if self.name else ""
        grad = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad}{tag})"

    def copy(self) -> "Tensor":
        return Tensor(self.data.copy(), requires_grad=self.requires_grad)

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------ #
    # Gradient storage binding (the grad arena hook)
    # ------------------------------------------------------------------ #
    def bind_grad(self, view: np.ndarray) -> None:
        """Pre-bind caller-owned storage for this tensor's gradient.

        After binding, backward accumulation writes *in place* into
        ``view``: the first accumulation overwrites it (``view[...] =
        g``), later ones add (``view += g``), and ``self.grad`` is the
        view itself whenever a gradient exists.  ``self.grad`` stays
        ``None`` until the first accumulation adopts the view.  An
        optimizer steps only bound views
        (``ParamArena.check_grads_bound``): a bound parameter that never
        received a gradient, or whose ``grad`` was assigned by hand, is
        an error there, not a skip.  Unbound tensors keep the original
        allocate-on-first-accumulate behaviour.

        **Known-zero state.**  The tensor records when its live bound
        view holds nothing but the ``+0.0`` its owner just filled it
        with.  Only code that zero-fills the storage declares that
        (:meth:`_mark_grad_zeroed`: ``ParamArena.zero_grads``, which
        ``Optimizer.zero_grad`` is).  Every write revokes it
        (:meth:`_mark_grad_written`: :meth:`_accumulate`,
        :meth:`_grad_write_target`, this binder, the fleet's
        ``adopt_member_grads``).  While it holds, *adding* a gradient
        and *overwriting with* it leave the same bytes, which is what
        lets a kernel write its result in place
        (:meth:`_grad_write_target`).  The tensor cannot see a write
        made *through* the view, so code that fills gradient storage
        itself after a ``zero_grad`` — ``p.grad[...] = v``,
        ``p.grad += v``, a raw ``grad_flat[:] = ...`` — must say so
        before the next backward (``ParamArena.mark_grads_written()``,
        or :meth:`_mark_grad_written` per tensor), or that backward
        overwrites what it should add to.  Assigning ``p.grad = array``
        needs nothing: a foreign array is never a write target.
        """
        view = np.asarray(view)
        if view.shape != self.data.shape:
            raise ValueError(
                f"grad view shape {view.shape} does not match data shape "
                f"{self.data.shape}"
            )
        if view.dtype != self.data.dtype:
            raise ValueError(
                f"grad view dtype {view.dtype} does not match data dtype "
                f"{self.data.dtype}"
            )
        if self.grad is not None:
            view[...] = self.grad
            self.grad = view
        self._grad_view = view
        self._grad_zeroed = False

    def _mark_grad_zeroed(self) -> None:
        """The caller just zero-filled the bound view (see
        :meth:`bind_grad`, "Known-zero state")."""
        self._grad_zeroed = True

    def _mark_grad_written(self) -> None:
        """The bound view (now) holds something other than the zeros of
        the last fill: the next gradient must be added, not written."""
        self._grad_zeroed = False

    def _grad_write_target(self) -> Optional[np.ndarray]:
        """Bound storage a kernel may *overwrite* with this tensor's
        complete gradient, or ``None`` when it has to accumulate.

        Granted when grad storage is bound and nothing would be added
        to: no gradient exists yet (the first fill overwrites anyway) or
        the live view is known to hold zeros (see :meth:`bind_grad`;
        ``0.0 + g`` and ``g`` differ only for ``g == -0.0``, so the
        caller's result must carry no negative zero — GEMM output does
        not).  The gradient is marked live here: the caller must fill
        every element of the returned view.
        """
        view = self._grad_view
        if view is None or not self.requires_grad:
            return None
        grad = self.grad
        if grad is None or (grad is view and self._grad_zeroed):
            self._grad_zeroed = False
            self.grad = view
            return view
        return None

    # ------------------------------------------------------------------ #
    # Graph construction helper
    # ------------------------------------------------------------------ #
    @staticmethod
    def _make(
        data: np.ndarray,
        parents: Tuple["Tensor", ...],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        if is_grad_enabled():
            for parent in parents:
                if parent.requires_grad:
                    return Tensor(data, True, parents, backward)
        return Tensor(data)

    def _accumulate(self, grad: np.ndarray) -> None:
        """Add ``grad`` into ``self.grad``, creating it if needed.

        When grad storage is pre-bound (:meth:`bind_grad`) the first
        accumulation writes into the bound view instead of allocating;
        both variants produce the same values, so bound and unbound
        tensors follow identical trajectories.
        """
        if not self.requires_grad:
            return
        if self.grad is None:
            if self._grad_view is not None:
                self._grad_write_target()[...] = grad
            else:
                self.grad = np.asarray(grad).astype(self.data.dtype, copy=True)
        else:
            self.grad += grad
            self._grad_zeroed = False

    # ------------------------------------------------------------------ #
    # Backward pass
    # ------------------------------------------------------------------ #
    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Run reverse-mode autodiff from this tensor.

        Parameters
        ----------
        grad:
            Gradient of the final objective w.r.t. this tensor.  Defaults
            to ones (only sensible for scalar outputs, where it is exactly
            ``dL/dL = 1``).
        """
        if grad is None:
            if self.data.size != 1:
                raise ValueError(
                    "backward() without an explicit gradient requires a scalar "
                    f"output, got shape {self.shape}"
                )
            grad = np.ones_like(self.data)
        # Post-order DFS over *interior* nodes only: leaves (parameters,
        # inputs) have no closure to run, and dropping them from the walk
        # leaves the interior nodes' relative order — hence every
        # accumulation order, hence every bit — unchanged.
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[Tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent._backward is not None and id(parent) not in visited:
                    stack.append((parent, False))
        self._accumulate(np.asarray(grad, dtype=self.data.dtype))
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # ------------------------------------------------------------------ #
    # Arithmetic
    # ------------------------------------------------------------------ #
    def __add__(self, other: ArrayLike) -> "Tensor":
        other = as_tensor(other)
        out_data = self.data + other.data

        # A constant operand (``requires_grad=False``: a scalar, a mask)
        # has no gradient to compute — here and in the ops below.
        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(unbroadcast(g, self.shape))
            if other.requires_grad:
                other._accumulate(unbroadcast(g, other.shape))

        return Tensor._make(out_data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(g: np.ndarray) -> None:
            self._accumulate(-g)

        return Tensor._make(-self.data, (self,), backward)

    def __sub__(self, other: ArrayLike) -> "Tensor":
        other = as_tensor(other)
        out_data = self.data - other.data

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(unbroadcast(g, self.shape))
            if other.requires_grad:
                other._accumulate(unbroadcast(-g, other.shape))

        return Tensor._make(out_data, (self, other), backward)

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return as_tensor(other).__sub__(self)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other = as_tensor(other)
        out_data = self.data * other.data

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(unbroadcast(g * other.data, self.shape))
            if other.requires_grad:
                other._accumulate(unbroadcast(g * self.data, other.shape))

        return Tensor._make(out_data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other = as_tensor(other)
        out_data = self.data / other.data

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(unbroadcast(g / other.data, self.shape))
            if other.requires_grad:
                other._accumulate(
                    unbroadcast(-g * self.data / (other.data**2), other.shape)
                )

        return Tensor._make(out_data, (self, other), backward)

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return as_tensor(other).__truediv__(self)

    def __pow__(self, exponent: Number) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        out_data = self.data**exponent

        def backward(g: np.ndarray) -> None:
            self._accumulate(g * exponent * self.data ** (exponent - 1))

        return Tensor._make(out_data, (self,), backward)

    def __matmul__(self, other: ArrayLike) -> "Tensor":
        other = as_tensor(other)
        out_data = self.data @ other.data

        def backward(g: np.ndarray) -> None:
            if self.ndim == 1 and other.ndim == 1:  # inner product
                self._accumulate(g * other.data)
                other._accumulate(g * self.data)
            elif self.ndim >= 2 and other.ndim >= 2:
                ga = g @ np.swapaxes(other.data, -1, -2)
                gb = np.swapaxes(self.data, -1, -2) @ g
                self._accumulate(unbroadcast(ga, self.shape))
                other._accumulate(unbroadcast(gb, other.shape))
            elif self.ndim == 1:  # (k,) @ (k, n) -> (n,)
                self._accumulate(g @ other.data.T)
                other._accumulate(np.outer(self.data, g))
            else:  # (m, k) @ (k,) -> (m,)
                self._accumulate(np.outer(g, other.data))
                other._accumulate(self.data.T @ g)

        return Tensor._make(out_data, (self, other), backward)

    # ------------------------------------------------------------------ #
    # Elementwise non-linearities
    # ------------------------------------------------------------------ #
    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def backward(g: np.ndarray) -> None:
            self._accumulate(g * out_data)

        return Tensor._make(out_data, (self,), backward)

    def log(self) -> "Tensor":
        def backward(g: np.ndarray) -> None:
            self._accumulate(g / self.data)

        return Tensor._make(np.log(self.data), (self,), backward)

    def sqrt(self) -> "Tensor":
        out_data = np.sqrt(self.data)

        def backward(g: np.ndarray) -> None:
            self._accumulate(g * 0.5 / out_data)

        return Tensor._make(out_data, (self,), backward)

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)

        def backward(g: np.ndarray) -> None:
            self._accumulate(g * (1.0 - out_data**2))

        return Tensor._make(out_data, (self,), backward)

    def relu(self) -> "Tensor":
        mask = self.data > 0

        def backward(g: np.ndarray) -> None:
            self._accumulate(g * mask)

        return Tensor._make(self.data * mask, (self,), backward)

    def abs(self) -> "Tensor":
        sign = np.sign(self.data)

        def backward(g: np.ndarray) -> None:
            self._accumulate(g * sign)

        return Tensor._make(np.abs(self.data), (self,), backward)

    def clip(self, low: float, high: float) -> "Tensor":
        mask = (self.data >= low) & (self.data <= high)

        def backward(g: np.ndarray) -> None:
            self._accumulate(g * mask)

        return Tensor._make(np.clip(self.data, low, high), (self,), backward)

    # ------------------------------------------------------------------ #
    # Reductions
    # ------------------------------------------------------------------ #
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(g: np.ndarray) -> None:
            grad = np.asarray(g)
            if axis is not None and not keepdims:
                axes = (axis,) if isinstance(axis, int) else tuple(axis)
                axes = tuple(a % self.ndim for a in axes)
                for a in sorted(axes):
                    grad = np.expand_dims(grad, a)
            self._accumulate(np.broadcast_to(grad, self.shape))

        return Tensor._make(out_data, (self,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = (axis,) if isinstance(axis, int) else tuple(axis)
            count = int(np.prod([self.shape[a % self.ndim] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(g: np.ndarray) -> None:
            grad = np.asarray(g)
            expanded = out_data
            if axis is not None and not keepdims:
                axes = (axis,) if isinstance(axis, int) else tuple(axis)
                axes = tuple(a % self.ndim for a in axes)
                for a in sorted(axes):
                    grad = np.expand_dims(grad, a)
                    expanded = np.expand_dims(expanded, a)
            mask = self.data == expanded
            # Split gradient equally among ties, as PyTorch does for
            # reductions with repeated maxima.
            counts = mask.sum(axis=axis, keepdims=True) if axis is not None else mask.sum()
            self._accumulate(mask * grad / counts)

        return Tensor._make(out_data, (self,), backward)

    # ------------------------------------------------------------------ #
    # Shape manipulation
    # ------------------------------------------------------------------ #
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out_data = self.data.reshape(shape)

        def backward(g: np.ndarray) -> None:
            self._accumulate(np.asarray(g).reshape(self.shape))

        return Tensor._make(out_data, (self,), backward)

    def flatten_batch(self) -> "Tensor":
        """Collapse all but the first (batch) dimension."""
        return self.reshape(self.shape[0], -1)

    def transpose(self, *axes) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        inverse = tuple(np.argsort(axes))
        out_data = self.data.transpose(axes)

        def backward(g: np.ndarray) -> None:
            self._accumulate(np.asarray(g).transpose(inverse))

        return Tensor._make(out_data, (self,), backward)

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __getitem__(self, index) -> "Tensor":
        out_data = self.data[index]

        def backward(g: np.ndarray) -> None:
            # Scatter-add via the flat offsets ``index`` selects: bincount
            # sums repeated (fancy) positions in index order.
            offsets = np.arange(self.data.size).reshape(self.shape)[index]
            grad = np.bincount(
                offsets.ravel(),
                weights=np.broadcast_to(g, offsets.shape).ravel(),
                minlength=self.data.size,
            )
            self._accumulate(grad.reshape(self.shape))

        return Tensor._make(out_data, (self,), backward)

    # Comparisons return plain boolean ndarrays (no gradient flows).
    def __gt__(self, other):
        return self.data > _raw(other)

    def __lt__(self, other):
        return self.data < _raw(other)

    def __ge__(self, other):
        return self.data >= _raw(other)

    def __le__(self, other):
        return self.data <= _raw(other)


def _raw(value: ArrayLike) -> np.ndarray:
    return value.data if isinstance(value, Tensor) else np.asarray(value)


def as_tensor(value: ArrayLike) -> Tensor:
    """Coerce ``value`` to a :class:`Tensor` (no copy when already one)."""
    return value if isinstance(value, Tensor) else Tensor(value)

