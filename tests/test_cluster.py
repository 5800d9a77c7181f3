"""Unit tests for SimulatedCluster: construction, shards, evaluation."""

import numpy as np
import pytest

from repro.data import synthetic_cifar10
from repro.nn import models
from repro.optim import SGD
from repro.sim import DeviceSpec, SimulatedCluster


def _cluster(seed=0, partition="iid", specs=None, **kwargs):
    train, test = synthetic_cifar10(num_train=200, num_test=80, image_size=8, seed=0)
    if specs is None:
        specs = [DeviceSpec(i, power=p) for i, p in enumerate([3, 3, 1, 1])]
    return SimulatedCluster(
        model_factory=lambda rng: models.MLP(3 * 64, (16,), 10, rng=rng),
        train_set=train,
        test_set=test,
        specs=specs,
        batch_size=8,
        partition=partition,
        seed=seed,
        **kwargs,
    )


class TestConstruction:
    def test_devices_match_specs(self):
        cluster = _cluster()
        assert cluster.device_ids == [0, 1, 2, 3]
        assert [d.spec.power for d in cluster.devices] == [3, 3, 1, 1]

    def test_all_devices_start_from_initial_params(self):
        cluster = _cluster()
        for device in cluster.devices:
            np.testing.assert_array_equal(device.get_params(), cluster.initial_params)

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            _cluster(specs=[DeviceSpec(0), DeviceSpec(0)])

    def test_empty_specs_rejected(self):
        with pytest.raises(ValueError):
            _cluster(specs=[])

    def test_shards_disjoint_cover(self):
        cluster = _cluster()
        indices = np.concatenate(
            [d.cycler.dataset.indices for d in cluster.devices]
        )
        assert len(indices) == 200
        assert len(np.unique(indices)) == 200

    def test_dirichlet_partition(self):
        cluster = _cluster(partition="dirichlet")
        sizes = [len(d.cycler.dataset) for d in cluster.devices]
        assert sum(sizes) == 200

    def test_explicit_partition(self):
        shards = [np.arange(0, 50), np.arange(50, 100), np.arange(100, 150),
                  np.arange(150, 200)]
        cluster = _cluster(partition=shards)
        assert len(cluster.devices[0].cycler.dataset) == 50

    def test_wrong_partition_count_rejected(self):
        with pytest.raises(ValueError):
            _cluster(partition=[np.arange(200)])

    def test_unknown_partition_name(self):
        with pytest.raises(ValueError, match="unknown partition"):
            _cluster(partition="sorted")


class TestDeterminism:
    def test_same_seed_identical_clusters(self):
        a, b = _cluster(seed=5), _cluster(seed=5)
        np.testing.assert_array_equal(a.initial_params, b.initial_params)
        for da, db in zip(a.devices, b.devices):
            np.testing.assert_array_equal(
                da.cycler.dataset.indices, db.cycler.dataset.indices
            )

    def test_training_is_reproducible(self):
        """Same seed → byte-identical training trajectory."""
        losses = []
        for _ in range(2):
            cluster = _cluster(seed=5)
            device = cluster.devices[0]
            result = device.train_steps(5)
            losses.append(result.losses)
        np.testing.assert_array_equal(losses[0], losses[1])


class TestAccessors:
    def test_device_by_id(self):
        cluster = _cluster()
        assert cluster.device_by_id(2).device_id == 2
        with pytest.raises(KeyError):
            cluster.device_by_id(99)

    def test_global_epoch_counts_consumption(self):
        cluster = _cluster()
        assert cluster.global_epoch() == 0.0
        for device in cluster.devices:
            device.train_steps(5)  # 5 * 8 = 40 samples each
        assert cluster.global_epoch() == pytest.approx(160 / 200)


class TestEvaluation:
    def test_evaluate_params_range(self):
        cluster = _cluster()
        loss, acc = cluster.evaluate_params(cluster.initial_params)
        assert loss > 0
        assert 0.0 <= acc <= 1.0

    def test_evaluate_is_pure(self):
        """Evaluation must not change device or initial state."""
        cluster = _cluster()
        before = cluster.devices[0].get_params().copy()
        cluster.evaluate_params(np.zeros_like(cluster.initial_params))
        np.testing.assert_array_equal(cluster.devices[0].get_params(), before)
