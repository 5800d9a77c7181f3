"""Unit tests for the simulated Device: timing, training, params."""

import numpy as np
import pytest

from repro.data import ArrayDataset, BatchCycler
from repro.nn import models
from repro.nn.losses import evaluate
from repro.optim import SGD, ConstantSchedule, WarmupSchedule
from repro.sim import Device, DeviceSpec


def make_gaussian_vectors(
    num_classes: int, num_samples: int, dim: int, separation: float, seed: int
) -> ArrayDataset:
    """Gaussian blobs with class means on a random sphere (MLP-scale task)."""
    rng = np.random.default_rng(seed)
    means = rng.normal(size=(num_classes, dim))
    means *= separation / np.linalg.norm(means, axis=1, keepdims=True)
    labels = rng.integers(0, num_classes, size=num_samples)
    features = means[labels] + rng.normal(size=(num_samples, dim))
    return ArrayDataset(features, labels.astype(np.int64))


def _make_device(
    device_id=0, power=1.0, jitter=0.0, base_step_time=0.1, power_drift=None,
    num_samples=64, batch_size=16,
):
    rng = np.random.default_rng(device_id)
    dataset = make_gaussian_vectors(
        num_classes=3, num_samples=num_samples, dim=8, separation=3.0, seed=device_id
    )
    model = models.MLP(8, (16,), 3, rng=rng)
    return Device(
        spec=DeviceSpec(
            device_id=device_id,
            power=power,
            base_step_time=base_step_time,
            jitter=jitter,
            power_drift=power_drift,
        ),
        model=model,
        optimizer=SGD(model.parameters(), lr=0.05),
        cycler=BatchCycler(dataset, batch_size, rng=rng),
        lr_schedule=ConstantSchedule(0.05),
    )


class TestDeviceSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            DeviceSpec(0, power=0.0)
        with pytest.raises(ValueError):
            DeviceSpec(0, base_step_time=0.0)
        with pytest.raises(ValueError):
            DeviceSpec(0, jitter=-0.5)


class TestTiming:
    def test_step_time_inverse_to_power(self):
        slow = _make_device(0, power=1.0)
        fast = _make_device(1, power=4.0)
        assert slow.step_time() == pytest.approx(4 * fast.step_time())

    def test_jitter_varies_step_time(self):
        device = _make_device(0, jitter=0.3)
        times = {device.step_time() for _ in range(10)}
        assert len(times) > 1

    def test_power_drift_applies(self):
        device = _make_device(0, power_drift=lambda t: 2.0 if t > 10 else 1.0)
        assert device.step_time(0.0) == pytest.approx(0.1)
        assert device.step_time(20.0) == pytest.approx(0.05)

    def test_negative_drift_rejected(self):
        device = _make_device(0, power_drift=lambda t: -1.0)
        with pytest.raises(ValueError):
            device.step_time(0.0)

    def test_epoch_time(self):
        device = _make_device(0, num_samples=64, batch_size=16)
        assert device.epoch_time() == pytest.approx(4 * 0.1)


class TestTraining:
    def test_train_steps_updates_version_and_time(self):
        device = _make_device(0)
        result = device.train_steps(5)
        assert result.steps == 5
        assert device.version == 5
        assert result.elapsed == pytest.approx(0.5)
        assert device.busy_until == pytest.approx(0.5)
        assert len(result.losses) == 5

    def test_training_reduces_loss(self):
        device = _make_device(0)
        first = device.train_steps(2).mean_loss
        device.train_steps(80)
        last = device.train_steps(2).mean_loss
        assert last < first

    def test_zero_steps(self):
        device = _make_device(0)
        result = device.train_steps(0)
        assert result.steps == 0
        assert np.isnan(result.mean_loss)

    def test_negative_steps_raises(self):
        with pytest.raises(ValueError):
            _make_device(0).train_steps(-1)

    def test_lr_schedule_consulted(self):
        device = _make_device(0)
        device.lr_schedule = WarmupSchedule(
            ConstantSchedule(0.05), warmup_steps=100, warmup_lr=0.001
        )
        device.train_steps(1)
        assert device.optimizer.lr < 0.05


class TestParams:
    def test_roundtrip(self):
        device = _make_device(0)
        flat = device.get_params()
        device.train_steps(3)
        changed = device.get_params()
        assert np.abs(flat - changed).max() > 0
        device.set_params(flat)
        np.testing.assert_allclose(device.get_params(), flat)

    def test_mix_params(self):
        device = _make_device(0)
        own = device.get_params()
        incoming = np.zeros_like(own)
        device.mix_params(incoming, own_weight=0.25)
        np.testing.assert_allclose(device.get_params(), 0.25 * own)

    def test_mix_params_validation(self):
        device = _make_device(0)
        with pytest.raises(ValueError):
            device.mix_params(device.get_params(), own_weight=1.5)


class TestEvaluate:
    def test_accuracy_improves_with_training(self):
        device = _make_device(0, num_samples=128)
        features = device.cycler.dataset.features
        labels = device.cycler.dataset.labels
        _, acc_before = evaluate(device.model, device.loss_fn, features, labels)
        device.train_steps(150)
        _, acc_after = evaluate(device.model, device.loss_fn, features, labels)
        assert acc_after > acc_before

    def test_burst_after_evaluate_runs_in_training_mode(self):
        """``evaluate`` leaves its model in eval mode; the burst loop puts
        the replica back into training mode before its first step."""
        device = _make_device(0)
        evaluate(
            device.model,
            device.loss_fn,
            device.cycler.dataset.features,
            device.cycler.dataset.labels,
        )
        assert not device.model.training
        device.train_steps(1)
        assert device.model.training
