"""``Optimizer.step`` — one kernel call on the arena's flat vectors — vs
the retired per-parameter updates.

``tests/reference_optim.py`` keeps the ``SGD._update`` / ``Adam._update``
loops the package shipped as its per-parameter path.  The flat step must
leave parameters and optimizer state bit-equal to that loop, over random
shapes, hyper-parameters and step counts, with every parameter's
gradient in its bound view of the arena's ``grad_flat`` — what a
backward leaves behind.  A gradient outside that contract (``None``, or
an array assigned by hand) is refused before anything is written, and no
optimizer can be built on an arena without gradient storage.
"""

import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from reference_optim import ReferenceAdam, ReferenceSGD  # noqa: E402
from repro.comm.params import ParamArena  # noqa: E402
from repro.nn.module import Module, Parameter  # noqa: E402
from repro.optim import SGD, Adam  # noqa: E402

shapes = st.lists(
    st.lists(st.integers(1, 4), min_size=1, max_size=3).map(tuple),
    min_size=1,
    max_size=4,
)


@st.composite
def optimizer_config(draw):
    decay = draw(st.sampled_from([0.0, 1e-3, 0.1]))
    if draw(st.booleans()):
        kwargs = dict(
            lr=draw(st.sampled_from([0.01, 0.3])),
            momentum=draw(st.sampled_from([0.0, 0.5, 0.9])),
            weight_decay=decay,
        )
        return SGD, ReferenceSGD, kwargs
    kwargs = dict(
        lr=draw(st.sampled_from([1e-3, 0.05])),
        betas=draw(st.sampled_from([(0.9, 0.999), (0.5, 0.9), (0.0, 0.0)])),
        weight_decay=decay,
    )
    return Adam, ReferenceAdam, kwargs


class _Bag(Module):
    """A module that is nothing but its parameters."""

    def __init__(self, arrays):
        super().__init__()
        for index, array in enumerate(arrays):
            setattr(self, f"p{index}", Parameter(array))


def _bag_arena(values):
    bag = _Bag([v.copy() for v in values])
    return bag, ParamArena(bag)


def _write_grads(bag, grads):
    """Leave ``grads`` in the bound views, as a backward would."""
    for param, grad in zip(bag.parameters(), grads):
        param._grad_view[...] = grad
        param.grad = param._grad_view


@settings(max_examples=150, deadline=None)
@given(
    shapes=shapes,
    config=optimizer_config(),
    steps=st.integers(1, 4),
    seed=st.integers(0, 2**31 - 1),
)
def test_step_matches_reference_per_parameter_update(shapes, config, steps, seed):
    production, reference, kwargs = config
    rng = np.random.default_rng(seed)
    values = [rng.normal(size=shape) for shape in shapes]
    bag, arena = _bag_arena(values)
    ref_bag, ref_arena = _bag_arena(values)
    opt, ref_opt = production(arena, **kwargs), reference(ref_arena, **kwargs)

    for _ in range(steps):
        grads = [rng.normal(size=shape) for shape in shapes]
        _write_grads(bag, grads)
        _write_grads(ref_bag, grads)
        opt.step()
        ref_opt.step()
        for param, ref_param in zip(bag.parameters(), ref_bag.parameters()):
            assert param.data.tobytes() == ref_param.data.tobytes()
        for vec, ref_vec in zip(opt.flat_state(), ref_opt.flat_state()):
            assert vec.tobytes() == ref_vec.tobytes()
        assert opt.scalar_state() == ref_opt.scalar_state()


def _unassigned(param):
    param.grad = None


def _hand_assigned(param):
    param.grad = np.ones(param.data.shape)


@pytest.mark.parametrize("make", [
    lambda arena: SGD(arena, lr=0.1, momentum=0.9, weight_decay=1e-3),
    lambda arena: Adam(arena, lr=0.01, weight_decay=1e-3),
], ids=["sgd", "adam"])
@pytest.mark.parametrize("unbind", [_unassigned, _hand_assigned], ids=["none", "assigned"])
def test_unbound_gradient_raises_before_any_write(make, unbind):
    """A ``None`` or hand-assigned gradient is refused: parameters,
    gradient vector and optimizer state stay byte-identical."""
    values = [np.ones((2, 3)), np.ones(4)]
    bag, arena = _bag_arena(values)
    opt = make(arena)
    _write_grads(bag, [np.full(v.shape, 0.5) for v in values])
    opt.step()  # non-trivial state to preserve
    unbind(bag.parameters()[1])

    def snapshot():
        vectors = [arena.flat, arena.grad_flat, *opt.flat_state()]
        return [vec.tobytes() for vec in vectors], dict(opt.scalar_state())

    before = snapshot()
    with pytest.raises(ValueError, match="'p1'"):
        opt.step()
    assert snapshot() == before


@pytest.mark.parametrize("optimizer", [SGD, Adam])
def test_arena_without_grad_storage_is_refused(optimizer):
    bag = _Bag([np.ones(3)])
    with pytest.raises(ValueError, match="gradient storage"):
        optimizer(ParamArena(bag, bind_grads=False), lr=0.1)
