"""Hypothesis property tests for batch cycling and the synthetic data blur."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.data import ArrayDataset, BatchCycler
from repro.data.synthetic import _gaussian_blur


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
