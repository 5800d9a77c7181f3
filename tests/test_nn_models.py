"""Unit tests for the model zoo: shapes, determinism, registry."""

import numpy as np
import pytest

from repro.autograd import Tensor
from repro import nn
from repro.nn import models

RNG = np.random.default_rng(3)


class TestMLP:
    def test_forward_shape(self):
        m = models.MLP(12, (8,), 5, rng=RNG)
        assert m(Tensor(RNG.normal(size=(4, 12)))).shape == (4, 5)

    def test_flattens_image_input(self):
        m = models.MLP(3 * 4 * 4, (8,), 2, rng=RNG)
        assert m(Tensor(RNG.normal(size=(2, 3, 4, 4)))).shape == (2, 2)

    def test_empty_hidden_is_linear(self):
        m = models.MLP(6, (), 3, rng=RNG)
        assert len(m.parameters()) == 2


class TestSimpleCNN:
    def test_forward_shape(self):
        m = models.SimpleCNN(image_size=16, rng=RNG)
        assert m(Tensor(RNG.normal(size=(2, 3, 16, 16)))).shape == (2, 10)

    def test_invalid_image_size(self):
        with pytest.raises(ValueError):
            models.SimpleCNN(image_size=15, rng=RNG)


class TestResNet:
    def test_resnet_mini_shape(self):
        m = models.resnet_mini(num_classes=7, rng=RNG)
        assert m(Tensor(RNG.normal(size=(2, 3, 8, 8)))).shape == (2, 7)

    def test_resnet18_structure(self):
        m = models.resnet18(rng=np.random.default_rng(0))
        # 8 BasicBlocks in the (2,2,2,2) plan.
        blocks = [b for b in m.modules() if isinstance(b, models.BasicBlock)]
        assert len(blocks) == 8
        # Paper-scale parameter count: ~11.2M for the CIFAR variant.
        assert 10_000_000 < sum(p.size for p in m.parameters()) < 12_000_000

    def test_projection_shortcut_on_stride2(self):
        block = models.BasicBlock(4, 8, stride=2, rng=RNG)
        assert not isinstance(block.shortcut, nn.Identity)
        out = block(Tensor(RNG.normal(size=(1, 4, 8, 8))))
        assert out.shape == (1, 8, 4, 4)

    def test_identity_shortcut_same_channels(self):
        block = models.BasicBlock(4, 4, stride=1, rng=RNG)
        assert isinstance(block.shortcut, nn.Identity)

    def test_backward_pass_reaches_stem(self):
        m = models.resnet_mini(rng=RNG)
        loss = nn.CrossEntropyLoss()(
            m(Tensor(RNG.normal(size=(2, 3, 8, 8)))), np.array([0, 1])
        )
        loss.backward()
        stem_conv = m.stem[0]
        assert stem_conv.weight.grad is not None
        assert np.abs(stem_conv.weight.grad).sum() > 0


class TestVGG:
    def test_vgg_mini_shape(self):
        m = models.vgg_mini(rng=RNG)
        assert m(Tensor(RNG.normal(size=(2, 3, 16, 16)))).shape == (2, 10)

    def test_vgg16_conv_count(self):
        m = models.VGG(models.vgg.CFG_VGG16, image_size=32, rng=np.random.default_rng(0)) \
            if hasattr(models, "vgg") else None
        if m is None:
            pytest.skip("vgg cfg not exposed")
        convs = [c for c in m.modules() if isinstance(c, nn.Conv2d)]
        assert len(convs) == 13

    def test_vgg16_runs_on_32px(self):
        m = models.vgg16(rng=np.random.default_rng(0))
        out = m(Tensor(RNG.normal(size=(1, 3, 32, 32))))
        assert out.shape == (1, 10)

    def test_indivisible_image_size_raises(self):
        with pytest.raises(ValueError, match="divisible"):
            models.vgg_mini(image_size=12, rng=RNG)

    def test_dropout_in_classifier(self):
        from repro.nn.models.vgg import VGG, CFG_MINI

        m = VGG(CFG_MINI, image_size=16, dropout=0.5, rng=RNG)
        drops = [d for d in m.modules() if isinstance(d, nn.Dropout)]
        assert len(drops) == 1


class TestDeterminism:
    @pytest.mark.parametrize("builder", [models.resnet_mini, models.vgg_mini])
    def test_same_seed_same_weights(self, builder):
        a = builder(rng=np.random.default_rng(99))
        b = builder(rng=np.random.default_rng(99))
        for (_, pa), (_, pb) in zip(a.named_parameters(), b.named_parameters()):
            np.testing.assert_array_equal(pa.data, pb.data)

    def test_different_seed_different_weights(self):
        a = models.resnet_mini(rng=np.random.default_rng(1))
        b = models.resnet_mini(rng=np.random.default_rng(2))
        diffs = [
            np.abs(pa.data - pb.data).sum()
            for (_, pa), (_, pb) in zip(a.named_parameters(), b.named_parameters())
            if pa.size > 1
        ]
        assert max(diffs) > 0


class TestRegistry:
    def test_build_known_models(self):
        for name in ("mlp", "simple_cnn", "resnet_mini", "vgg_mini"):
            model = models.build_model(name, rng=np.random.default_rng(0))
            assert sum(p.size for p in model.parameters()) > 0

    def test_unknown_model_raises(self):
        with pytest.raises(KeyError, match="unknown model"):
            models.build_model("alexnet")
