"""Unit tests for datasets, shard descriptors, and the batch cycler."""

import numpy as np
import pytest

from repro.data import (
    ArrayDataset,
    BatchCycler,
    Subset,
    SyntheticImageClassification,
    synthetic_cifar10,
)
from repro.data.partition import DirichletShardSpec, IIDShardSpec

RNG = np.random.default_rng(5)


def _dirichlet(labels, num_devices, **kwargs):
    return DirichletShardSpec(labels, num_devices, **kwargs).materialise()


class TestArrayDataset:
    def test_len_and_getitem(self):
        ds = ArrayDataset(np.arange(10).reshape(5, 2), np.arange(5))
        assert len(ds) == 5
        x, y = ds[2]
        np.testing.assert_array_equal(x, [4, 5])
        assert y == 2

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError, match="mismatch"):
            ArrayDataset(np.zeros((3, 2)), np.zeros(4))

    def test_num_classes(self):
        ds = ArrayDataset(np.zeros((4, 1)), np.array([0, 2, 1, 2]))
        assert ds.num_classes() == 3


class TestSubset:
    def test_view_semantics(self):
        base = ArrayDataset(np.arange(20).reshape(10, 2), np.arange(10))
        sub = Subset(base, [1, 3, 5])
        assert len(sub) == 3
        np.testing.assert_array_equal(sub.labels, [1, 3, 5])
        np.testing.assert_array_equal(sub.features[1], base.features[3])

    def test_out_of_range_raises(self):
        base = ArrayDataset(np.zeros((3, 1)), np.zeros(3))
        with pytest.raises(IndexError):
            Subset(base, [5])


class TestSyntheticImages:
    def test_shapes(self):
        gen = SyntheticImageClassification(
            num_classes=4, num_train=40, num_test=12, image_size=8, seed=1
        )
        assert gen.train.features.shape == (40, 3, 8, 8)
        assert gen.test.features.shape == (12, 3, 8, 8)
        assert gen.templates.shape == (4, 3, 8, 8)

    def test_deterministic_given_seed(self):
        a = SyntheticImageClassification(num_train=30, num_test=10, image_size=8, seed=7)
        b = SyntheticImageClassification(num_train=30, num_test=10, image_size=8, seed=7)
        np.testing.assert_array_equal(a.train.features, b.train.features)
        np.testing.assert_array_equal(a.train.labels, b.train.labels)

    def test_different_seed_differs(self):
        a = SyntheticImageClassification(num_train=30, num_test=10, image_size=8, seed=1)
        b = SyntheticImageClassification(num_train=30, num_test=10, image_size=8, seed=2)
        assert np.abs(a.train.features - b.train.features).max() > 0

    def test_all_classes_represented_in_templates(self):
        gen = SyntheticImageClassification(
            num_classes=3, num_train=60, num_test=30, image_size=8, seed=0
        )
        assert set(np.unique(gen.train.labels)) <= set(range(3))

    def test_noise_controls_difficulty(self):
        """Nearest-template classification must degrade with noise."""

        def nearest_template_accuracy(noise):
            gen = SyntheticImageClassification(
                num_classes=5, num_train=10, num_test=200, image_size=8,
                noise=noise, max_shift=0, seed=3,
            )
            X = gen.test.features.reshape(len(gen.test), -1)
            T = gen.templates.reshape(5, -1)
            pred = np.argmin(
                ((X[:, None, :] - T[None, :, :]) ** 2).sum(-1), axis=1
            )
            return (pred == gen.test.labels).mean()

        assert nearest_template_accuracy(0.1) > nearest_template_accuracy(3.0)

    def test_invalid_configs(self):
        with pytest.raises(ValueError):
            SyntheticImageClassification(num_classes=1)
        with pytest.raises(ValueError):
            SyntheticImageClassification(num_classes=10, num_train=5)
        with pytest.raises(ValueError):
            SyntheticImageClassification(template_smoothness=0.0)

    def test_synthetic_cifar10_convenience(self):
        train, test = synthetic_cifar10(num_train=50, num_test=20, image_size=8)
        assert len(train) == 50 and len(test) == 20
        assert train.num_classes() <= 10


class TestPartitioners:
    def _assert_disjoint_cover(self, parts, n):
        combined = np.concatenate(parts)
        assert len(combined) == n
        assert len(np.unique(combined)) == n

    def test_iid_cover_and_balance(self):
        parts = IIDShardSpec(103, 4, rng=np.random.default_rng(0)).materialise()
        self._assert_disjoint_cover(parts, 103)
        sizes = [len(p) for p in parts]
        assert max(sizes) - min(sizes) <= 1

    def test_dirichlet_cover(self):
        labels = np.repeat(np.arange(5), 40)
        parts = _dirichlet(labels, 4, alpha=0.5, rng=np.random.default_rng(0))
        self._assert_disjoint_cover(parts, 200)

    def test_dirichlet_skew_increases_with_small_alpha(self):
        labels = np.repeat(np.arange(10), 100)

        def label_entropy(parts):
            entropies = []
            for part in parts:
                counts = np.bincount(labels[part], minlength=10) + 1e-12
                p = counts / counts.sum()
                entropies.append(-(p * np.log(p)).sum())
            return np.mean(entropies)

        skewed = _dirichlet(labels, 5, alpha=0.05, rng=np.random.default_rng(1))
        uniform = _dirichlet(labels, 5, alpha=100.0, rng=np.random.default_rng(1))
        assert label_entropy(skewed) < label_entropy(uniform)

    def test_dirichlet_min_size_enforced(self):
        labels = np.repeat(np.arange(2), 50)
        parts = _dirichlet(
            labels, 4, alpha=0.3, rng=np.random.default_rng(0), min_size=5
        )
        assert min(len(p) for p in parts) >= 5

    def test_dirichlet_invalid_alpha(self):
        with pytest.raises(ValueError):
            _dirichlet(np.zeros(10, dtype=int), 2, alpha=0.0)


class TestBatchCycler:
    def test_endless_batches(self):
        ds = ArrayDataset(np.arange(12).reshape(6, 2), np.arange(6))
        cycler = BatchCycler(ds, batch_size=4, rng=np.random.default_rng(0))
        for _ in range(10):
            X, y = cycler.next_batch()
            assert len(y) == 4

    def test_epoch_accounting(self):
        ds = ArrayDataset(np.zeros((8, 1)), np.zeros(8))
        cycler = BatchCycler(ds, batch_size=4, rng=np.random.default_rng(0))
        cycler.next_batch()
        cycler.next_batch()
        assert cycler.samples_consumed == 8

    def test_batch_larger_than_dataset_clamped(self):
        ds = ArrayDataset(np.zeros((3, 1)), np.zeros(3))
        cycler = BatchCycler(ds, batch_size=10)
        X, y = cycler.next_batch()
        assert len(y) == 3

    def test_each_epoch_covers_shard(self):
        ds = ArrayDataset(np.arange(8).reshape(8, 1), np.arange(8))
        cycler = BatchCycler(ds, batch_size=4, rng=np.random.default_rng(0))
        seen = np.concatenate([cycler.next_batch()[1] for _ in range(2)])
        assert sorted(seen.tolist()) == list(range(8))

    def test_batches_per_epoch(self):
        ds = ArrayDataset(np.zeros((10, 1)), np.zeros(10))
        assert BatchCycler(ds, batch_size=3).batches_per_epoch == 3
