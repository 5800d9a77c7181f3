"""Hypothesis property tests for HADFL core algorithms."""

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from repro.core import VersionPredictor, hyperperiod
from repro.core.selection import (
    GaussianQuartileSelection,
    gaussian_quartile_probabilities,
)

version_dicts = st.dictionaries(
    keys=st.integers(min_value=0, max_value=50),
    values=st.floats(min_value=0, max_value=1e4, allow_nan=False),
    min_size=1,
    max_size=12,
)


class TestSelectionProbabilityLaw:
    @given(version_dicts)
    @settings(max_examples=80, deadline=None)
    def test_valid_distribution(self, versions):
        probs = gaussian_quartile_probabilities(versions)
        assert abs(sum(probs.values()) - 1.0) < 1e-9
        assert all(p >= 0 for p in probs.values())
        assert set(probs) == set(versions)

    @given(version_dicts, st.floats(min_value=-100, max_value=100, allow_nan=False))
    @settings(max_examples=60, deadline=None)
    def test_shift_invariance(self, versions, shift):
        """Adding a constant to every version cannot change the law —
        only relative staleness matters.

        The invariance holds in exact arithmetic; in fp64 the shift
        itself quantises away spreads near the magnitude's ulp (e.g. a
        1e-119 spread shifted by 1.0 collapses to zero), so examples
        whose spread the shift cannot represent are excluded and the
        tolerance covers the surviving rounding of ~ulp(|shift|)/spread.
        """
        values = list(versions.values())
        spread = max(values) - min(values)
        assume(spread == 0.0 or spread >= 1e-3)
        shifted = {k: v + shift for k, v in versions.items()}
        a = gaussian_quartile_probabilities(versions)
        b = gaussian_quartile_probabilities(shifted)
        for key in a:
            assert abs(a[key] - b[key]) < 1e-6

    @given(version_dicts, st.floats(min_value=0.1, max_value=50, allow_nan=False))
    @settings(max_examples=60, deadline=None)
    def test_scale_invariance(self, versions, scale):
        scaled = {k: v * scale for k, v in versions.items()}
        a = gaussian_quartile_probabilities(versions)
        b = gaussian_quartile_probabilities(scaled)
        for key in a:
            assert abs(a[key] - b[key]) < 1e-9

    @given(version_dicts, st.integers(min_value=1, max_value=12))
    @settings(max_examples=60, deadline=None)
    def test_selection_returns_valid_subset(self, versions, num_selected):
        policy = GaussianQuartileSelection()
        chosen = policy.select(versions, num_selected, np.random.default_rng(0))
        assert len(chosen) == min(num_selected, len(versions))
        assert len(set(chosen)) == len(chosen)
        assert all(c in versions for c in chosen)


class TestHyperperiodProperties:
    durations = st.lists(
        st.floats(min_value=0.01, max_value=100, allow_nan=False),
        min_size=1,
        max_size=6,
    )

    @given(durations)
    @settings(max_examples=80, deadline=None)
    def test_at_least_max_duration(self, times):
        assert hyperperiod(times) >= max(times) - 1e-9

    @given(durations)
    @settings(max_examples=80, deadline=None)
    def test_bounded_by_cap(self, times):
        result = hyperperiod(times, max_multiple=16.0)
        assert result <= 16.0 * max(times) + 1e-9

    @given(st.integers(min_value=1, max_value=10), st.integers(min_value=1, max_value=10))
    @settings(max_examples=60, deadline=None)
    def test_integer_ratios_exact_lcm(self, a, b):
        result = hyperperiod([float(a), float(b)], quantum=1.0, max_multiple=1e9)
        assert result == np.lcm(a, b)

    @given(durations)
    @settings(max_examples=40, deadline=None)
    def test_permutation_invariant(self, times):
        forward = hyperperiod(times)
        backward = hyperperiod(list(reversed(times)))
        assert forward == backward


class TestPredictorProperties:
    @given(
        st.floats(min_value=0, max_value=1000, allow_nan=False),
        st.integers(min_value=1, max_value=30),
        st.floats(min_value=0.05, max_value=0.95),
    )
    @settings(max_examples=60, deadline=None)
    def test_constant_series_fixed_point(self, level, repeats, alpha):
        """A constant observation stream is a fixed point of Eq. 7."""
        predictor = VersionPredictor(alpha=alpha)
        for _ in range(repeats):
            predictor.observe(0, level)
        assert abs(predictor.predict(0) - level) < 1e-6

    @given(
        st.floats(min_value=0.1, max_value=50, allow_nan=False),
        st.floats(min_value=0.2, max_value=0.8),
    )
    @settings(max_examples=40, deadline=None)
    def test_linear_series_trend_recovers_slope(self, slope, alpha):
        predictor = VersionPredictor(alpha=alpha)
        for j in range(300):
            predictor.observe(0, slope * j)
        assert abs((predictor.predict(0, 2) - predictor.predict(0, 1)) - slope) < 0.05 * slope + 1e-6

    @given(
        st.lists(
            st.floats(min_value=0, max_value=1e4, allow_nan=False),
            min_size=1,
            max_size=20,
        ),
        st.floats(min_value=0.05, max_value=0.95),
    )
    @settings(max_examples=60, deadline=None)
    def test_forecast_within_observation_envelope(self, series, alpha):
        """One-step forecasts stay within a generous envelope of the
        observed range (no numerical explosion)."""
        predictor = VersionPredictor(alpha=alpha)
        for value in series:
            predictor.observe(0, value)
        lo, hi = min(series), max(series)
        margin = 20 * (hi - lo) + 1.0
        assert lo - margin <= predictor.predict(0) <= hi + margin
