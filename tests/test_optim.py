"""Unit tests for optimizers and LR schedules."""

import numpy as np
import pytest

from repro.autograd import Tensor
from repro import nn
from repro.nn.module import Parameter
from repro.optim import SGD, Adam, ConstantSchedule, WarmupSchedule

RNG = np.random.default_rng(11)


def _param_with_grad(value, grad):
    p = Parameter(np.array(value, dtype=float))
    p.grad = np.array(grad, dtype=float)
    return p


class TestSGD:
    def test_vanilla_update(self):
        p = _param_with_grad([1.0, 2.0], [0.5, 0.5])
        SGD([p], lr=0.1).step()
        np.testing.assert_allclose(p.data, [0.95, 1.95])

    def test_momentum_accumulates(self):
        p = _param_with_grad([0.0], [1.0])
        opt = SGD([p], lr=1.0, momentum=0.9)
        opt.step()  # buf=1, p=-1
        p.grad = np.array([1.0])
        opt.step()  # buf=1.9, p=-2.9
        np.testing.assert_allclose(p.data, [-2.9])

    def test_weight_decay(self):
        p = _param_with_grad([2.0], [0.0])
        SGD([p], lr=0.1, weight_decay=0.5).step()
        np.testing.assert_allclose(p.data, [2.0 - 0.1 * 0.5 * 2.0])

    def test_nesterov_differs_from_heavy_ball(self):
        p1 = _param_with_grad([0.0], [1.0])
        p2 = _param_with_grad([0.0], [1.0])
        o1 = SGD([p1], lr=1.0, momentum=0.9)
        o2 = SGD([p2], lr=1.0, momentum=0.9, nesterov=True)
        o1.step()
        o2.step()
        assert p1.data[0] != p2.data[0]

    def test_nesterov_requires_momentum(self):
        with pytest.raises(ValueError):
            SGD([Parameter(np.zeros(1))], lr=0.1, nesterov=True)

    def test_skips_params_without_grad(self):
        p = Parameter(np.ones(2))
        SGD([p], lr=0.1).step()
        np.testing.assert_allclose(p.data, [1.0, 1.0])

    def test_zero_grad(self):
        p = _param_with_grad([0.0], [1.0])
        opt = SGD([p], lr=0.1)
        opt.zero_grad()
        assert p.grad is None

    def test_empty_params_raises(self):
        with pytest.raises(ValueError):
            SGD([], lr=0.1)

    def test_invalid_lr_raises(self):
        with pytest.raises(ValueError):
            SGD([Parameter(np.zeros(1))], lr=0.0)


class TestAdam:
    def test_first_step_magnitude(self):
        # Bias correction makes the very first Adam step ≈ lr * sign(grad).
        p = _param_with_grad([0.0], [3.0])
        Adam([p], lr=0.01).step()
        np.testing.assert_allclose(p.data, [-0.01], atol=1e-6)

    def test_decreases_quadratic(self):
        p = Parameter(np.array([5.0]))
        opt = Adam([p], lr=0.2)
        for _ in range(200):
            p.grad = 2 * p.data  # d(x^2)/dx
            opt.step()
        assert abs(p.data[0]) < 0.1

    def test_invalid_betas(self):
        with pytest.raises(ValueError):
            Adam([Parameter(np.zeros(1))], betas=(1.0, 0.9))


class TestSharedScratch:
    """``share_scratch``: optimizers that step one after another keep one
    set of work vectors — and not one bit of any trajectory moves."""

    @pytest.mark.parametrize(
        "make",
        [
            lambda ps: SGD(ps, lr=0.1),
            lambda ps: SGD(ps, lr=0.1, momentum=0.9, nesterov=True, weight_decay=1e-3),
            lambda ps: Adam(ps, lr=0.01, weight_decay=1e-3),
        ],
    )
    @pytest.mark.parametrize("flat", [True, False])
    def test_interleaved_steps_match_private_scratch(self, make, flat):
        """Both call shapes: ``flat`` writes each gradient through the
        packed grad view (one kernel call on the flat vectors), otherwise
        it is assigned as a foreign array (one call per parameter)."""
        rng = np.random.default_rng(5)
        values = [rng.normal(size=(3, 4)) for _ in range(3)]
        grads = [[rng.normal(size=(3, 4)) for _ in range(3)] for _ in range(4)]

        def run(share):
            params = [Parameter(v.copy()) for v in values]
            optimizers = [make([p]) for p in params]
            pooled = []
            for optimizer in optimizers:
                if flat:
                    assert optimizer._bind_flat() is not None  # pack now
                if share:
                    optimizer.share_scratch(pooled)
            for step, step_grads in enumerate(grads):
                for param, optimizer, grad in zip(params, optimizers, step_grads):
                    if flat:
                        param._grad_view[...] = grad
                        param.grad = param._grad_view
                    else:
                        param.grad = grad.copy()
                    optimizer.step()
                    # (the first step packs, migrating the assigned gradient)
                    assert step == 0 or (optimizer._bind_flat_grad() is not None) == flat
            if share:
                assert pooled and all(o._scratch is pooled for o in optimizers)
            return [p.data.tobytes() for p in params]

        assert run(share=True) == run(share=False)

    def test_scratch_is_lazy_and_per_instance(self):
        a, b = (SGD([Parameter(np.zeros(4))], lr=0.1) for _ in range(2))
        assert a._scratch == [] and a._scratch is not b._scratch
        b.share_scratch(a._scratch)  # shared before either allocates
        b.params[0].grad = np.ones(4)
        b.step()
        assert len(a._scratch) == 1 and a._scratch is b._scratch

    def test_size_mismatch_raises(self):
        a = SGD([Parameter(np.zeros(4))], lr=0.1)
        b = SGD([Parameter(np.zeros(5))], lr=0.1)
        a.params[0].grad = np.ones(4)
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
        opt = SGD(model.parameters(), lr=0.1)
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
