"""Hypothesis property tests for the grad arena.

Contract (see ``repro/comm/params.py``): after ``loss.backward()`` on an
arena-backed model, every ``param.grad`` is a view into the arena's flat
gradient vector — shared base, offsets matching the parameter's position
in the ``named_parameters()`` prefix — for arbitrary architectures,
including ops that route gradients through the broadcast/unbroadcast
path (bias adds) and through bound-view accumulation on a second
backward.  Bound and unbound accumulation must produce equal gradients.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro import nn
from repro.autograd import Tensor
from repro.comm.params import ParamArena
from repro.nn.losses import CrossEntropyLoss


def _mse(prediction: Tensor, target: np.ndarray) -> Tensor:
    """Mean squared error over all elements."""
    diff = prediction - Tensor(target)
    return (diff * diff).mean()


def _scalar_offset(view: np.ndarray, base: np.ndarray) -> int:
    delta = (
        view.__array_interface__["data"][0]
        - base.__array_interface__["data"][0]
    )
    assert delta % base.itemsize == 0
    return delta // base.itemsize


def _mlp(widths, seed):
    rng = np.random.default_rng(seed)
    layers = []
    for fan_in, fan_out in zip(widths[:-1], widths[1:]):
        layers.append(nn.Linear(fan_in, fan_out, rng=rng))
        layers.append(nn.ReLU())
    return nn.Sequential(*layers[:-1])  # drop trailing activation


mlp_shapes = st.lists(st.integers(min_value=1, max_value=6), min_size=2, max_size=4)


class TestGradArenaAliasing:
    @given(widths=mlp_shapes, seed=st.integers(0, 2**16), batch=st.integers(1, 5))
    @settings(max_examples=40, deadline=None)
    def test_backward_lands_in_grad_flat(self, widths, seed, batch):
        model = _mlp(widths, seed)
        arena = ParamArena(model)
        rng = np.random.default_rng(seed + 1)
        x = rng.normal(size=(batch, widths[0]))
        y = rng.normal(size=(batch, widths[-1]))
        _mse(model(Tensor(x)), y).backward()
        cursor = 0
        for name, param in model.named_parameters():
            grad = param.grad
            assert grad is not None, name
            assert grad.shape == param.data.shape, name
            assert np.shares_memory(grad, arena.grad_flat), name
            assert _scalar_offset(grad, arena.grad_flat) == cursor, name
            cursor += param.data.size
        assert cursor == arena.param_scalars == arena.grad_flat.size

    @given(widths=mlp_shapes, seed=st.integers(0, 2**16))
    @settings(max_examples=25, deadline=None)
    def test_second_backward_accumulates_not_overwrites(self, widths, seed):
        model = _mlp(widths, seed)
        arena = ParamArena(model)
        rng = np.random.default_rng(seed + 2)
        x = rng.normal(size=(3, widths[0]))
        y = rng.normal(size=(3, widths[-1]))

        def backward():
            _mse(model(Tensor(x)), y).backward()

        backward()
        views = [p.grad for p in model.parameters()]
        single = arena.grad_flat.copy()
        backward()
        for param, view in zip(model.parameters(), views):
            assert param.grad is view
        np.testing.assert_array_equal(arena.grad_flat, 2.0 * single)
        model.zero_grad()
        assert not arena.grad_flat.any()
        backward()
        np.testing.assert_array_equal(arena.grad_flat, single)

    @given(
        widths=mlp_shapes,
        seed=st.integers(0, 2**16),
        num_classes=st.integers(2, 5),
    )
    @settings(max_examples=25, deadline=None)
    def test_bound_accumulation_equals_unbound(self, widths, seed, num_classes):
        """The grad arena never changes gradient *values* — broadcast
        bias gradients included — only where they live."""
        rng = np.random.default_rng(seed + 3)
        x = rng.normal(size=(4, widths[0]))
        y = rng.integers(0, num_classes, size=4)

        def grads(bind):
            model = _mlp(widths + [num_classes], seed)
            ParamArena(model, bind_grads=bind)
            CrossEntropyLoss()(model(Tensor(x)), y).backward()
            return [p.grad.copy() for p in model.parameters()]

        for bound, unbound in zip(grads(True), grads(False)):
            np.testing.assert_array_equal(bound, unbound)
