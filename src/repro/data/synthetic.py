"""Deterministic synthetic datasets standing in for CIFAR-10.

The paper's evaluation needs a classification task where (a) SGD takes a
visible number of epochs to converge, (b) staleness/partial aggregation
measurably perturbs the loss curve, and (c) the data can be sharded across
devices IID or non-IID.  :class:`SyntheticImageClassification` satisfies
all three: each class has a smooth random template image, and samples are
jittered, shifted, noisy renderings of their class template.  Difficulty
is controlled by the noise level and the template correlation.

Everything is generated from an explicit seed — two processes with the
same config produce byte-identical datasets, which the federated
experiments rely on.  The template blur is plain NumPy
(:func:`_gaussian_blur`); ``tests/golden/data_parity.json`` pins the
datasets it produces, bit for bit.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.data.dataset import ArrayDataset

#: Images per render block: bounds the draw buffer beside the images.
_RENDER_BLOCK = 256


def _gaussian_blur(planes: np.ndarray, sigma: float) -> np.ndarray:
    """Blur each ``(H, W)`` plane of a ``(C, H, W)`` stack with a Gaussian.

    A separable filter truncated at four sigmas, applied along the rows
    (axis 1) and then the columns (axis 2), with the boundary extended
    by half-sample symmetric reflection (``d c b a | a b c d | d c b a``,
    repeated when the kernel is wider than the plane).  Each output is
    summed in one fixed order — the centre tap first, then the symmetric
    pairs from the farthest inward — which is the order of the library
    filter this replaced: any other order flips low bits, and the
    datasets pinned in ``tests/golden/data_parity.json`` would change.
    """
    radius = int(4.0 * sigma + 0.5)
    x = np.arange(-radius, radius + 1)
    weights = np.exp(-0.5 / (sigma * sigma) * x**2)
    weights = weights / weights.sum()
    for axis in (1, 2):
        n = planes.shape[axis]
        pad = [(0, 0)] * planes.ndim
        pad[axis] = (radius, radius)
        padded = np.pad(planes, pad, mode="symmetric")

        def tap(offset: int) -> np.ndarray:
            start = radius + offset
            return padded.take(np.arange(start, start + n), axis=axis)

        out = tap(0) * weights[radius]
        for j in range(radius, 0, -1):
            out += (tap(-j) + tap(j)) * weights[radius - j]
        planes = out
    return planes


def _smooth_template(
    rng: np.random.Generator, channels: int, size: int, smoothness: float
) -> np.ndarray:
    """A random low-frequency image: white noise blurred per channel."""
    raw = rng.normal(size=(channels, size, size))
    smoothed = _gaussian_blur(raw, smoothness)
    # Re-normalise so templates keep unit energy after blurring.
    smoothed -= smoothed.mean()
    std = smoothed.std()
    return smoothed / (std + 1e-12)


class SyntheticImageClassification:
    """Class-conditional image generator (the CIFAR-10 stand-in).

    Parameters
    ----------
    num_classes:
        Number of classes (10 for the CIFAR-10 substitution).
    num_train, num_test:
        Sample counts.  CIFAR-10 is 50k/10k; defaults are scaled down for
        the NumPy substrate and can be raised via experiment configs.
    image_size, channels:
        Spatial side length and channel count (CIFAR: 32, 3).
    noise:
        Std of per-sample additive Gaussian noise; the main difficulty
        knob.  At 0.9 (default) a small CNN needs tens of epochs to
        converge, mimicking CIFAR-scale learning dynamics.
    template_smoothness:
        Gaussian-blur sigma of class templates; higher values make classes
        harder to separate (lower-frequency, more overlapping templates).
    max_shift:
        Samples are randomly rolled by up to this many pixels in each
        spatial direction (a cheap stand-in for augmentation-style
        translation variance).
    seed:
        Generator seed; the dataset is a pure function of the config.
    """

    def __init__(
        self,
        num_classes: int = 10,
        num_train: int = 2000,
        num_test: int = 500,
        image_size: int = 16,
        channels: int = 3,
        noise: float = 0.9,
        template_smoothness: float = 2.0,
        max_shift: int = 2,
        seed: int = 0,
    ):
        if num_classes < 2:
            raise ValueError(f"need at least 2 classes, got {num_classes}")
        if num_train < num_classes or num_test < num_classes:
            raise ValueError("need at least one sample per class in each split")
        if template_smoothness <= 0:
            raise ValueError(
                f"template_smoothness must be positive, got {template_smoothness}"
            )
        self.num_classes = num_classes
        self.image_size = image_size
        self.channels = channels
        self.noise = noise
        self.max_shift = max_shift
        rng = np.random.default_rng(seed)
        self.templates = np.stack(
            [
                _smooth_template(rng, channels, image_size, template_smoothness)
                for _ in range(num_classes)
            ]
        )
        self._train = self._render_split(rng, num_train)
        self._test = self._render_split(rng, num_test)

    def _render_split(self, rng: np.random.Generator, count: int) -> ArrayDataset:
        """``count`` read-only samples, ``brightness · roll(template) + noise``.

        The draws stay per image and in order (the ziggurat takes a variable
        number of words); the arithmetic runs per block, the roll as a
        gather.  ``tests/reference_data.py`` is the per-image loop it replaced.
        """
        labels = rng.integers(0, self.num_classes, size=count)
        size, shift = self.image_size, self.max_shift
        images = np.empty((count, self.channels, size, size), dtype=np.float64)
        grid = np.arange(size)
        for start in range(0, count, _RENDER_BLOCK):
            block = images[start : start + _RENDER_BLOCK]
            shifts = np.zeros((len(block), 2), dtype=np.int64)
            draws = np.empty((len(block), 1 + block[0].size))
            for j in range(len(block)):
                if shift:
                    shifts[j] = rng.integers(-shift, shift + 1, size=2)
                draws[j] = rng.normal(size=draws.shape[1])
            shifted = self.templates[
                labels[start : start + len(block), None, None, None],
                np.arange(self.channels)[:, None, None],
                ((grid - shifts[:, :1]) % size)[:, None, :, None],
                ((grid - shifts[:, 1:]) % size)[:, None, None, :],
            ]
            np.multiply(shifted, 1.0 + 0.1 * draws[:, :1, None, None], out=block)
            noise = draws[:, 1:]
            noise *= self.noise
            block += noise.reshape(block.shape)
        labels = labels.astype(np.int64)
        images.flags.writeable = labels.flags.writeable = False
        return ArrayDataset(images, labels)

    @property
    def train(self) -> ArrayDataset:
        return self._train

    @property
    def test(self) -> ArrayDataset:
        return self._test


def synthetic_cifar10(
    num_train: int = 2000,
    num_test: int = 500,
    image_size: int = 16,
    noise: float = 0.9,
    seed: int = 0,
    num_classes: int = 10,
) -> Tuple[ArrayDataset, ArrayDataset]:
    """Convenience builder returning read-only (train, test) splits."""
    generated = SyntheticImageClassification(
        num_classes=num_classes,
        num_train=num_train,
        num_test=num_test,
        image_size=image_size,
        noise=noise,
        seed=seed,
    )
    return generated.train, generated.test

