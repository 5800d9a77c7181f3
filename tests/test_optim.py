"""Unit tests for optimizers and LR schedules."""

import numpy as np
import pytest

from repro.autograd import Tensor
from repro import nn
from repro.comm.params import ParamArena
from repro.nn.module import Parameter
from repro.optim import SGD, Adam, ConstantSchedule, WarmupSchedule

RNG = np.random.default_rng(11)


class _Bag(nn.Module):
    """A module that is nothing but its parameters."""

    def __init__(self, *values):
        super().__init__()
        for index, value in enumerate(values):
            setattr(self, f"p{index}", Parameter(np.array(value, dtype=float)))


def _bag(*values):
    """An arena-backed module holding one parameter per value."""
    bag = _Bag(*values)
    ParamArena(bag)
    return bag


def _set_grad(bag, *grads):
    """Write ``grads`` through the bound views, as a backward would."""
    for param, grad in zip(bag.parameters(), grads):
        param._grad_view[...] = grad
        param.grad = param._grad_view


def _param_with_grad(value, grad):
    bag = _bag(value)
    _set_grad(bag, grad)
    return bag


class TestSGD:
    def test_vanilla_update(self):
        bag = _param_with_grad([1.0, 2.0], [0.5, 0.5])
        SGD(bag.arena, lr=0.1).step()
        np.testing.assert_allclose(bag.p0.data, [0.95, 1.95])

    def test_momentum_accumulates(self):
        bag = _param_with_grad([0.0], [1.0])
        opt = SGD(bag.arena, lr=1.0, momentum=0.9)
        opt.step()  # buf=1, p=-1
        _set_grad(bag, [1.0])
        opt.step()  # buf=1.9, p=-2.9
        np.testing.assert_allclose(bag.p0.data, [-2.9])

    def test_weight_decay(self):
        bag = _param_with_grad([2.0], [0.0])
        SGD(bag.arena, lr=0.1, weight_decay=0.5).step()
        np.testing.assert_allclose(bag.p0.data, [2.0 - 0.1 * 0.5 * 2.0])

    def test_missing_grad_raises(self):
        bag = _bag([1.0, 1.0])
        with pytest.raises(ValueError, match="is None"):
            SGD(bag.arena, lr=0.1).step()
        np.testing.assert_allclose(bag.p0.data, [1.0, 1.0])

    def test_zero_grad(self):
        bag = _param_with_grad([0.0], [1.0])
        opt = SGD(bag.arena, lr=0.1)
        opt.zero_grad()
        assert bag.p0.grad is bag.p0._grad_view  # a bound view of zeros
        np.testing.assert_array_equal(bag.p0.grad, [0.0])

    def test_empty_params_raises(self):
        with pytest.raises(ValueError):
            SGD(ParamArena(_Bag()), lr=0.1)

    def test_invalid_lr_raises(self):
        with pytest.raises(ValueError):
            SGD(_bag([0.0]).arena, lr=0.0)


class TestAdam:
    def test_first_step_magnitude(self):
        # Bias correction makes the very first Adam step ≈ lr * sign(grad).
        bag = _param_with_grad([0.0], [3.0])
        Adam(bag.arena, lr=0.01).step()
        np.testing.assert_allclose(bag.p0.data, [-0.01], atol=1e-6)

    def test_decreases_quadratic(self):
        bag = _bag([5.0])
        opt = Adam(bag.arena, lr=0.2)
        for _ in range(200):
            _set_grad(bag, 2 * bag.p0.data)  # d(x^2)/dx
            opt.step()
        assert abs(bag.p0.data[0]) < 0.1

    def test_invalid_betas(self):
        with pytest.raises(ValueError):
            Adam(_bag([0.0]).arena, betas=(1.0, 0.9))


class TestSharedScratch:
    """``share_scratch``: optimizers that step one after another keep one
    set of work vectors — and not one bit of any trajectory moves."""

    @pytest.mark.parametrize(
        "make",
        [
            lambda arena: SGD(arena, lr=0.1),
            lambda arena: SGD(arena, lr=0.1, momentum=0.9, weight_decay=1e-3),
            lambda arena: Adam(arena, lr=0.01, weight_decay=1e-3),
        ],
    )
    @pytest.mark.parametrize("on_slab", [True, False])
    def test_interleaved_steps_match_private_scratch(self, make, on_slab):
        """``on_slab`` first moves the arenas onto consecutive rows of
        one slab, as an ``ArenaPool`` does with the blocks it shares
        scratch across; otherwise each arena keeps private storage."""
        rng = np.random.default_rng(5)
        values = [rng.normal(size=(3, 4)) for _ in range(3)]
        grads = [[rng.normal(size=(3, 4)) for _ in range(3)] for _ in range(4)]

        def run(share):
            bags = [_bag(v) for v in values]
            if on_slab:
                params, grad_rows = np.empty((3, 12)), np.zeros((3, 12))
                for row, bag in enumerate(bags):
                    bag.arena.rebind_storage(params[row], grad_rows[row])
            optimizers = [make(bag.arena) for bag in bags]
            pooled = []
            if share:
                for optimizer in optimizers:
                    optimizer.share_scratch(pooled)
            for step_grads in grads:
                for bag, optimizer, grad in zip(bags, optimizers, step_grads):
                    _set_grad(bag, grad)
                    optimizer.step()
            if share:
                assert pooled and all(o._scratch is pooled for o in optimizers)
            return [bag.arena.flat.tobytes() for bag in bags]

        assert run(share=True) == run(share=False)

    def test_scratch_is_lazy_and_per_instance(self):
        bags = [_bag(np.zeros(4)) for _ in range(2)]
        a, b = (SGD(bag.arena, lr=0.1) for bag in bags)
        assert a._scratch == [] and a._scratch is not b._scratch
        b.share_scratch(a._scratch)  # shared before either allocates
        _set_grad(bags[1], np.ones(4))
        b.step()
        assert len(a._scratch) == 1 and a._scratch is b._scratch

    def test_size_mismatch_raises(self):
        bag = _bag(np.zeros(4))
        a = SGD(bag.arena, lr=0.1)
        b = SGD(_bag(np.zeros(5)).arena, lr=0.1)
        _set_grad(bag, np.ones(4))
        a.step()
        with pytest.raises(ValueError):
            b.share_scratch(a._scratch)


class TestEndToEndTraining:
    def test_sgd_trains_linear_regression(self):
        rng = np.random.default_rng(0)
        true_w = np.array([[2.0], [-3.0]])
        X = rng.normal(size=(128, 2))
        y = X @ true_w
        model = nn.Linear(2, 1, rng=rng)
        opt = SGD(ParamArena(model), lr=0.1)
        for _ in range(200):
            opt.zero_grad()
            diff = model(Tensor(X)) - Tensor(y)
            loss = (diff * diff).mean()
            loss.backward()
            opt.step()
        np.testing.assert_allclose(model.weight.data, true_w.T, atol=1e-2)


class TestSchedules:
    def test_constant(self):
        sched = ConstantSchedule(0.01)
        assert sched(0) == sched(1000) == 0.01

    def test_warmup_ramp(self):
        sched = WarmupSchedule(ConstantSchedule(0.01), warmup_steps=10, warmup_lr=0.001)
        assert sched(0) == pytest.approx(0.001)
        assert sched(10) == pytest.approx(0.01)
        assert sched(5) == pytest.approx(0.001 + 0.5 * 0.009)
        assert sched(100) == 0.01

    def test_warmup_zero_steps_passthrough(self):
        sched = WarmupSchedule(ConstantSchedule(0.05), warmup_steps=0)
        assert sched(0) == 0.05

    def test_negative_warmup_raises(self):
        with pytest.raises(ValueError):
            WarmupSchedule(ConstantSchedule(0.01), warmup_steps=-1)

    def test_invalid_schedule_params(self):
        with pytest.raises(ValueError):
            ConstantSchedule(-1.0)
