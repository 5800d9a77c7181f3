"""Hypothesis property tests for batch cycling and the synthetic data:
the template blur, and the batched render, which must reproduce the
per-image loop it replaced (``tests/reference_data.py``) bit for bit —
features, labels and the generator's final state."""

import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from reference_data import render_split_reference  # noqa: E402
from repro.data import ArrayDataset, BatchCycler  # noqa: E402
from repro.data.synthetic import (  # noqa: E402
    SyntheticImageClassification,
    _gaussian_blur,
)


def _dataset(n):
    return ArrayDataset(np.arange(n, dtype=float).reshape(n, 1), np.arange(n))


class TestLoaderProperties:
    @given(st.integers(2, 100), st.integers(1, 32), st.integers(1, 50))
    @settings(max_examples=60, deadline=None)
    def test_cycler_consumption_accounting(self, n, batch_size, pulls):
        cycler = BatchCycler(_dataset(n), batch_size, rng=np.random.default_rng(0))
        for _ in range(pulls):
            cycler.next_batch()
        assert cycler.samples_consumed == pulls * cycler.batch_size


class TestBlurProperties:
    @given(
        st.integers(1, 3),
        st.integers(1, 40),
        st.integers(1, 40),
        st.floats(0.3, 6.0),
        st.floats(-6.0, 6.0),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_blur_matches_scipy_gaussian_filter(self, c, h, w, sigma, decade, seed):
        """Bit for bit the ``scipy.ndimage.gaussian_filter`` the template
        blur replaced — kernel wider than the plane (repeated boundary
        reflection) and magnitudes over twelve decades included."""
        ndimage = pytest.importorskip("scipy.ndimage")
        planes = np.random.default_rng(seed).normal(size=(c, h, w)) * 10.0**decade
        want = np.stack([ndimage.gaussian_filter(p, sigma=sigma) for p in planes])
        got = _gaussian_blur(planes, sigma)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @given(st.integers(1, 12), st.integers(1, 12), st.floats(0.3, 4.0))
    @settings(max_examples=40, deadline=None)
    def test_blur_preserves_a_constant_plane(self, h, w, sigma):
        """Normalised weights and a reflecting boundary: flat stays flat."""
        out = _gaussian_blur(np.full((1, h, w), 3.0), sigma)
        np.testing.assert_allclose(out, 3.0, rtol=1e-12)


class TestRenderProperties:
    @given(
        count=st.sampled_from([1, 2, 255, 256, 257, 600]),
        image_size=st.sampled_from([1, 4, 8]),
        channels=st.sampled_from([1, 3]),
        max_shift=st.integers(0, 10),
        num_classes=st.integers(2, 12),
        noise=st.floats(0.0, 2.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=80, deadline=None)
    @example(count=257, image_size=8, channels=3, max_shift=2, num_classes=10,
             noise=0.8, seed=1_000_003)
    @example(count=256, image_size=4, channels=1, max_shift=0, num_classes=2,
             noise=0.9, seed=0)
    @example(count=1, image_size=1, channels=3, max_shift=1, num_classes=12,
             noise=0.9, seed=5)
    @example(count=255, image_size=4, channels=3, max_shift=4, num_classes=3,
             noise=0.9, seed=9)
    def test_render_matches_reference_bitwise(
        self, count, image_size, channels, max_shift, num_classes, noise, seed
    ):
        """Counts either side of the block bound, 1 px planes, shifts of
        zero (no shift draw), within and at or beyond the side length."""
        generator = SyntheticImageClassification(
            num_classes=num_classes,
            num_train=num_classes,
            num_test=num_classes,
            image_size=image_size,
            channels=channels,
            noise=noise,
            max_shift=max_shift,
            seed=seed % 1000,
        )
        rng = np.random.default_rng(seed)
        want_rng = np.random.default_rng(seed)
        got = generator._render_split(rng, count)
        want_features, want_labels = render_split_reference(
            generator, want_rng, count
        )
        assert got.features.shape == want_features.shape
        assert got.features.tobytes() == want_features.tobytes()
        assert got.labels.dtype == want_labels.dtype
        assert got.labels.tobytes() == want_labels.tobytes()
        assert rng.bit_generator.state == want_rng.bit_generator.state
