"""Unit tests for nn layers: Linear, BatchNorm, Dropout, containers."""

import numpy as np
import pytest

from repro.autograd import Tensor, gradcheck
from repro import nn
from repro.nn.module import Module, Parameter

RNG = np.random.default_rng(42)


class TestLinear:
    def test_output_shape(self):
        layer = nn.Linear(8, 3, rng=RNG)
        assert layer(Tensor(RNG.normal(size=(5, 8)))).shape == (5, 3)

    def test_matches_manual_affine(self):
        layer = nn.Linear(4, 2, rng=RNG)
        x = RNG.normal(size=(3, 4))
        expected = x @ layer.weight.data.T + layer.bias.data
        np.testing.assert_allclose(layer(Tensor(x)).data, expected)

    def test_no_bias(self):
        layer = nn.Linear(4, 2, bias=False, rng=RNG)
        assert layer.bias is None
        assert len(layer.parameters()) == 1

    def test_gradcheck_through_layer(self):
        layer = nn.Linear(3, 2, rng=RNG)
        x = Tensor(RNG.normal(size=(2, 3)), requires_grad=True)
        assert gradcheck(lambda t: layer(t), [x], atol=1e-5)
        assert layer.weight.grad is not None
        assert layer.bias.grad is not None


class TestBatchNorm:
    def test_normalizes_batch_in_train_mode(self):
        bn = nn.BatchNorm2d(3)
        x = Tensor(RNG.normal(loc=5.0, scale=3.0, size=(8, 3, 4, 4)))
        out = bn(x).data
        np.testing.assert_allclose(out.mean(axis=(0, 2, 3)), 0.0, atol=1e-7)
        np.testing.assert_allclose(out.std(axis=(0, 2, 3)), 1.0, atol=1e-3)

    def test_running_stats_update(self):
        bn = nn.BatchNorm2d(2, momentum=0.5)
        x = Tensor(np.full((4, 2, 2, 2), 10.0) + RNG.normal(size=(4, 2, 2, 2)))
        bn(x)
        assert (bn._buffers["running_mean"] > 4.0).all()

    def test_eval_uses_running_stats(self):
        bn = nn.BatchNorm2d(1, momentum=1.0)
        train_batch = Tensor(RNG.normal(loc=2.0, size=(16, 1, 2, 2)))
        bn(train_batch)
        bn.eval()
        x = Tensor(np.zeros((2, 1, 2, 2)))
        out = bn(x).data
        # With zero input and running_mean≈2, output ≈ -2/std.
        assert (out < 0).all()

    def test_gradients_flow_to_gamma_beta(self):
        bn = nn.BatchNorm2d(2)
        x = Tensor(RNG.normal(size=(4, 2, 3, 3)), requires_grad=True)
        bn(x).sum().backward()
        assert bn.weight.grad is not None
        assert bn.bias.grad is not None
        assert x.grad is not None

    def test_gradcheck_batchnorm(self):
        bn = nn.BatchNorm2d(2)
        x = Tensor(RNG.normal(size=(3, 2, 2, 2)), requires_grad=True)
        assert gradcheck(lambda t: bn(t), [x], atol=1e-4, rtol=1e-3)

    def test_rejects_non_nchw(self):
        bn = nn.BatchNorm2d(2)
        with pytest.raises(ValueError, match="NCHW"):
            bn(Tensor(np.zeros((2, 2))))

    def test_running_var_unbiased(self):
        bn = nn.BatchNorm2d(1, momentum=1.0)
        data = RNG.normal(size=(10, 1, 4, 4))
        bn(Tensor(data))
        np.testing.assert_allclose(
            bn._buffers["running_var"][0], data.var(ddof=1), rtol=1e-6
        )


class TestDropout:
    def test_eval_mode_is_identity(self):
        drop = nn.Dropout(0.5, rng=np.random.default_rng(0))
        drop.eval()
        x = Tensor(RNG.normal(size=(10, 10)))
        assert drop(x) is x

    def test_train_mode_zeroes_and_scales(self):
        drop = nn.Dropout(0.5, rng=np.random.default_rng(0))
        x = Tensor(np.ones((100, 100)))
        out = drop(x).data
        zero_fraction = (out == 0).mean()
        assert 0.4 < zero_fraction < 0.6
        kept = out[out != 0]
        np.testing.assert_allclose(kept, 2.0)  # inverted scaling by 1/keep

    def test_p_zero_identity(self):
        drop = nn.Dropout(0.0)
        x = Tensor(np.ones((3, 3)))
        assert drop(x) is x

    def test_invalid_p_raises(self):
        with pytest.raises(ValueError):
            nn.Dropout(1.0)


class TestSequentialAndModule:
    def test_sequential_applies_in_order(self):
        net = nn.Sequential(nn.Linear(4, 8, rng=RNG), nn.ReLU(), nn.Linear(8, 2, rng=RNG))
        assert net(Tensor(RNG.normal(size=(3, 4)))).shape == (3, 2)
        assert len(net) == 3

    def test_sequential_indexing_iteration(self):
        a, b = nn.ReLU(), nn.Identity()
        net = nn.Sequential(a, b)
        assert net[0] is a
        assert list(net) == [a, b]

    def test_append(self):
        net = nn.Sequential(nn.ReLU())
        net.append(nn.Identity())
        assert len(net) == 2

    def test_named_parameters_paths(self):
        net = nn.Sequential(nn.Linear(2, 2, rng=RNG))
        names = [name for name, _ in net.named_parameters()]
        assert names == ["m0.weight", "m0.bias"]

    def test_train_eval_propagates(self):
        net = nn.Sequential(nn.Dropout(0.5), nn.Sequential(nn.Dropout(0.5)))
        net.eval()
        assert all(not m.training for m in net.modules())
        net.train()
        assert all(m.training for m in net.modules())

    def test_zero_grad_clears_all(self):
        net = nn.Linear(3, 3, rng=RNG)
        net(Tensor(RNG.normal(size=(2, 3)))).sum().backward()
        assert net.weight.grad is not None
        net.zero_grad()
        assert net.weight.grad is None

    def test_num_parameters(self):
        """Weight and bias are the layer's registered parameters."""
        layer = nn.Linear(10, 5, rng=RNG)
        assert sum(p.size for p in layer.parameters()) == 10 * 5 + 5

    def test_state_dict_roundtrip_with_buffers(self):
        net = nn.Sequential(nn.Conv2d(1, 2, 3, rng=RNG, bias=False), nn.BatchNorm2d(2))
        net(Tensor(RNG.normal(size=(2, 1, 5, 5))))  # mutate running stats
        state = net.state_dict()
        other = nn.Sequential(nn.Conv2d(1, 2, 3, rng=RNG, bias=False), nn.BatchNorm2d(2))
        other.load_state_dict(state)
        for key, value in other.state_dict().items():
            np.testing.assert_allclose(value, state[key])

    def test_load_state_dict_shape_mismatch_raises(self):
        layer = nn.Linear(2, 2, rng=RNG)
        bad = {name: np.zeros((9, 9)) for name, _ in layer.named_parameters()}
        with pytest.raises(ValueError, match="shape mismatch"):
            layer.load_state_dict(bad)

    def test_custom_module_registration(self):
        class Custom(Module):
            def __init__(self):
                super().__init__()
                self.p = Parameter(np.zeros(3))
                self.child = nn.ReLU()

        m = Custom()
        assert "p" in dict(m.named_parameters())
        assert m.child in list(m.children())


class TestLosses:
    def test_cross_entropy_uniform_logits(self):
        loss_fn = nn.CrossEntropyLoss()
        logits = Tensor(np.zeros((4, 10)))
        loss = loss_fn(logits, np.zeros(4, dtype=int))
        np.testing.assert_allclose(float(loss.data), np.log(10), rtol=1e-10)

    def test_accuracy(self):
        logits = np.array([[0.9, 0.1], [0.2, 0.8], [0.6, 0.4], [0.3, 0.7]])
        assert nn.accuracy(logits, np.array([0, 1, 1, 1])) == 0.75
