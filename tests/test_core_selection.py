"""Unit tests for the probability-based selection (Eq. 8) and variants."""

from unittest import mock

import numpy as np
import pytest

from repro.core.selection import (
    ForcedWorstSelection,
    GaussianQuartileSelection,
    LatestOnlySelection,
    UniformSelection,
    gaussian_quartile_probabilities,
    make_selection_policy,
)

RNG = np.random.default_rng(9)


class TestGaussianQuartileProbabilities:
    def test_normalised(self):
        probs = gaussian_quartile_probabilities({0: 10, 1: 20, 2: 30, 3: 40})
        assert sum(probs.values()) == pytest.approx(1.0)
        assert all(p > 0 for p in probs.values())

    def test_peak_near_third_quartile(self):
        """Devices closest to Q3 get the highest probability — "the devices
        owning medial versions have a greater probability of being
        selected, rather than the devices that have the latest" (III-C)."""
        versions = {0: 10.0, 1: 20.0, 2: 30.0, 3: 40.0}
        probs = gaussian_quartile_probabilities(versions)
        # Q3 of {10,20,30,40} = 32.5 → device 2 (30) is closest.
        assert max(probs, key=probs.get) == 2
        # The newest device outranks the stalest, but not device 2.
        assert probs[3] > probs[0]
        assert probs[3] < probs[2]

    def test_stragglers_never_excluded(self):
        versions = {i: float(10 * i) for i in range(8)}
        probs = gaussian_quartile_probabilities(versions)
        assert min(probs.values()) > 0.0

    def test_equal_versions_uniform(self):
        probs = gaussian_quartile_probabilities({0: 5.0, 1: 5.0, 2: 5.0})
        for p in probs.values():
            assert p == pytest.approx(1 / 3)

    def test_scale_invariance(self):
        """Standardisation makes the law invariant to version units."""
        small = gaussian_quartile_probabilities({0: 1.0, 1: 2.0, 2: 3.0, 3: 4.0})
        large = gaussian_quartile_probabilities({0: 100.0, 1: 200.0, 2: 300.0, 3: 400.0})
        for key in small:
            assert small[key] == pytest.approx(large[key])

    def test_sigma_widens_distribution(self):
        versions = {0: 10.0, 1: 20.0, 2: 30.0, 3: 40.0}
        narrow = gaussian_quartile_probabilities(versions, sigma=0.3)
        wide = gaussian_quartile_probabilities(versions, sigma=5.0)
        spread_narrow = max(narrow.values()) - min(narrow.values())
        spread_wide = max(wide.values()) - min(wide.values())
        assert spread_wide < spread_narrow

    def test_validation(self):
        with pytest.raises(ValueError):
            gaussian_quartile_probabilities({})
        with pytest.raises(ValueError):
            gaussian_quartile_probabilities({0: 1.0}, sigma=0.0)


class TestGaussianUnderflowRegression:
    """Regression: a tiny sigma or one far outlier used to underflow
    every density to 0.0, returning NaN probabilities that crash
    ``rng.choice`` downstream."""

    OUTLIER = {0: 0.0, 1: 1.0, 2: 2.0, 3: 1e8}

    def test_far_outlier_small_sigma_no_nan(self):
        probs = gaussian_quartile_probabilities(self.OUTLIER, sigma=1e-4)
        values = np.array(list(probs.values()))
        assert np.all(np.isfinite(values))
        assert values.sum() == pytest.approx(1.0)
        assert np.all(values > 0.0)

    def test_fallback_keeps_nearest_to_q3_mass(self):
        """The heavy-tailed fallback preserves the Eq. 8 argmax: the
        device nearest Q3 keeps the most mass."""
        probs = gaussian_quartile_probabilities(self.OUTLIER, sigma=1e-4)
        versions = self.OUTLIER
        mu = np.percentile(sorted(versions.values()), 75)
        nearest = min(versions, key=lambda i: abs(versions[i] - mu))
        assert max(probs, key=probs.get) == nearest

    def test_underflowed_kernel_still_selects(self):
        policy = GaussianQuartileSelection(sigma=1e-4)
        chosen = policy.select(self.OUTLIER, 2, np.random.default_rng(0))
        assert len(chosen) == 2
        assert len(set(chosen)) == 2

    def test_tiny_sigma_many_devices(self):
        versions = {i: float(i) * 1000.0 for i in range(64)}
        probs = gaussian_quartile_probabilities(versions, sigma=1e-6)
        values = np.array(list(probs.values()))
        assert np.all(np.isfinite(values))
        assert values.sum() == pytest.approx(1.0)


class TestSelection:
    VERSIONS = {0: 10.0, 1: 20.0, 2: 30.0, 3: 40.0}

    def test_select_count_and_distinct(self):
        policy = GaussianQuartileSelection()
        chosen = policy.select(self.VERSIONS, 2, np.random.default_rng(0))
        assert len(chosen) == 2
        assert len(set(chosen)) == 2
        assert all(c in self.VERSIONS for c in chosen)

    def test_select_clamps_to_population(self):
        policy = UniformSelection()
        chosen = policy.select({0: 1.0, 1: 2.0}, 5, np.random.default_rng(0))
        assert sorted(chosen) == [0, 1]

    def test_selection_frequency_tracks_probability(self):
        policy = GaussianQuartileSelection()
        rng = np.random.default_rng(0)
        counts = {i: 0 for i in self.VERSIONS}
        trials = 3000
        for _ in range(trials):
            for c in policy.select(self.VERSIONS, 1, rng):
                counts[c] += 1
        probs = policy.probabilities(self.VERSIONS)
        for device in self.VERSIONS:
            assert counts[device] / trials == pytest.approx(probs[device], abs=0.03)

    def test_invalid_num_selected(self):
        with pytest.raises(ValueError):
            UniformSelection().select(self.VERSIONS, 0, np.random.default_rng(0))


class TestDeterministicPolicies:
    VERSIONS = {0: 10.0, 1: 40.0, 2: 20.0, 3: 30.0}

    def test_latest_only_picks_top(self):
        chosen = LatestOnlySelection().select(self.VERSIONS, 2, np.random.default_rng(0))
        assert chosen == [1, 3]

    def test_forced_worst_picks_bottom(self):
        """The worst-case study's selection: always the two stalest."""
        chosen = ForcedWorstSelection().select(self.VERSIONS, 2, np.random.default_rng(0))
        assert chosen == [0, 2]

    def test_forced_worst_deterministic_across_rngs(self):
        a = ForcedWorstSelection().select(self.VERSIONS, 2, np.random.default_rng(1))
        b = ForcedWorstSelection().select(self.VERSIONS, 2, np.random.default_rng(99))
        assert a == b


class TestSelectUnderflowRegression:
    """Regression: without-replacement draws cannot resolve weights far
    below float resolution — ``rng.choice(..., replace=False, p=...)``
    raised "fewer non-zero entries in p than size" whenever
    ``num_selected`` exceeded the resolvable count."""

    def test_base_select_draws_past_the_underflow_tail(self):
        """Eq. 8 on 40 devices at version 0 and one at 1e6: the outlier's
        weight sits far below its peers', so only 40 weights are viable.
        Asking for all 41 selects the viable 40 and fills the last slot
        from the sub-resolution tail, without a draw."""
        versions = {i: 0.0 for i in range(40)}
        versions[40] = 1e6
        policy = GaussianQuartileSelection()
        probs = policy.probabilities(versions)
        assert 0.0 < probs[40] < 1e-6 * probs[0]
        rng = mock.Mock(wraps=np.random.default_rng(0))
        assert policy.select(versions, 41, rng) == list(range(41))
        rng.choice.assert_not_called()  # the outlier came from the tail
        # One slot fewer: the viable 40 take the draw, the outlier stays out.
        assert policy.select(versions, 40, rng) == list(range(40))
        rng.choice.assert_called_once()

    def test_base_select_uniform_on_degenerate_mass(self):
        """All-zero probabilities (a pathological custom policy) fall
        back to a uniform draw instead of crashing."""
        from repro.core.selection import SelectionPolicy

        class ZeroMass(SelectionPolicy):
            def probabilities(self, versions):
                return {i: 0.0 for i in versions}

        versions = {i: float(i) for i in range(10)}
        chosen = ZeroMass().select(versions, 4, np.random.default_rng(0))
        assert len(chosen) == 4
        assert len(set(chosen)) == 4

    def test_healthy_draws_unchanged(self):
        """The underflow path must not perturb healthy configurations:
        a 4-device gaussian draw matches the pre-fix rng.choice call
        bitwise."""
        versions = {0: 10.0, 1: 20.0, 2: 30.0, 3: 40.0}
        policy = GaussianQuartileSelection()
        probs = policy.probabilities(versions)
        ids = sorted(versions)
        weights = np.array([probs[i] for i in ids])
        weights = weights / weights.sum()
        expected = sorted(
            int(ids[c])
            for c in np.random.default_rng(7).choice(
                len(ids), size=2, replace=False, p=weights
            )
        )
        assert policy.select(versions, 2, np.random.default_rng(7)) == expected


class TestFactory:
    def test_known_policies(self):
        assert isinstance(
            make_selection_policy("gaussian_quartile"), GaussianQuartileSelection
        )
        assert isinstance(make_selection_policy("uniform"), UniformSelection)
        assert isinstance(make_selection_policy("latest"), LatestOnlySelection)
        assert isinstance(make_selection_policy("worst"), ForcedWorstSelection)

    def test_sigma_forwarded(self):
        policy = make_selection_policy("gaussian_quartile", sigma=2.5)
        assert policy.sigma == 2.5

    def test_unknown_policy(self):
        with pytest.raises(KeyError):
            make_selection_policy("round_robin")
