"""Hypothesis properties of the population's per-round draw and mask.

``sample_participants`` picks by uniforms and scores only its candidates,
and ``DiurnalAvailability``'s masks hash a phase and evaluate the ``sin``
only in the band of devices near their threshold.  Both must reproduce the
O(population) code they replaced (``tests/reference_selection.py``) bit
for bit:

* the same picks, in the same dtype, and the same final generator state
  (the generator is the trajectory: it also shuffles every later ring);
* the same mask over any id array — a population's implicit ids, a
  copy, strided, one device — for any time, period, ``low == high`` and
  phase spread;
* every fallback of the uniform draw (an exact ``0.0`` draw, a tie at the
  k-th key, ``count >= n``, an underflowed zero class, too few
  never-trained devices) lands on the full computation with the
  generator where the reference leaves it; all-equal versions (the first
  round) are one score class and drawn by uniforms;
* the platform premise of the uniform draw: a scalar libm ``log`` of a
  ``rng.random`` double is ``rng.gumbel``'s value, bit for bit.
"""

import math
import sys
from collections import Counter
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings, strategies as st

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from reference_selection import (  # noqa: E402
    available_mask_reference,
    sample_participants_reference,
    threshold_mask_reference,
)
from repro.core.selection import _libm_gumbel, sample_participants  # noqa: E402
from repro.sim.failures import DiurnalAvailability  # noqa: E402


class ScriptedGenerator:
    """Serves a fixed list of doubles the way NumPy's ``Generator`` serves
    ``next_double``: ``random(n)`` takes ``n`` of them, ``gumbel(size)``
    one per value plus one per rejected ``0.0`` (``random_gumbel``).  Its
    ``bit_generator.state`` is the read position."""

    def __init__(self, doubles):
        self.doubles = [float(d) for d in doubles]
        self.position = 0
        self.calls = Counter()
        self.bit_generator = self

    @property
    def state(self):
        return self.position

    @state.setter
    def state(self, position):
        self.position = position

    def _next(self):
        value = self.doubles[self.position]
        self.position += 1
        return value

    def random(self, n):
        self.calls["random"] += 1
        return np.array([self._next() for _ in range(n)])

    def gumbel(self, size):
        self.calls["gumbel"] += 1
        out = []
        for _ in range(size):
            u = 1.0 - self._next()
            while not u < 1.0:
                u = 1.0 - self._next()
            out.append(0.0 - math.log(-math.log(u)))
        return np.array(out)


def _versions(n, trained, top, seed, signed=False):
    rng = np.random.default_rng(seed)
    values = np.zeros(n)
    idx = rng.choice(n, trained, replace=False)
    values[idx] = rng.integers(1, top + 1, trained)
    if signed:
        values[idx] *= rng.choice([-1.0, 1.0], trained)
        values[idx] += rng.random(trained)
    return values


@st.composite
def version_arrays(draw):
    n = draw(st.integers(min_value=1, max_value=2500))
    share = draw(st.sampled_from([0.0, 0.01, 0.1, 0.3, 0.6, 1.0]))
    trained = draw(st.integers(min_value=0, max_value=int(share * n)))
    top = draw(st.sampled_from([1, 3, 40]))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return _versions(n, trained, top, seed, signed=draw(st.booleans()))


class TestSampleParticipants:
    @given(
        values=version_arrays(),
        count=st.integers(min_value=1, max_value=300),
        sigma=st.sampled_from([1e-3, 0.05, 0.3, 1.0, 4.0]),
        seed=st.integers(min_value=0, max_value=2**63 - 1),
    )
    @settings(max_examples=300, deadline=None)
    def test_picks_and_generator_state_match_reference(
        self, values, count, sigma, seed
    ):
        fast_rng = np.random.default_rng(seed)
        ref_rng = np.random.default_rng(seed)
        got = sample_participants(values, count, fast_rng, sigma)
        want = sample_participants_reference(values, count, ref_rng, sigma)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
        assert fast_rng.bit_generator.state == ref_rng.bit_generator.state

    @given(
        n=st.integers(min_value=200, max_value=20_000),
        trained=st.integers(min_value=1, max_value=100),
        count=st.integers(min_value=1, max_value=64),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_population_shaped_draws_take_the_uniform_path(
        self, n, trained, count, seed
    ):
        """The arrays a population round passes: few trained devices, a
        cohort far below the zero class.  The draw is uniform (no
        ``gumbel`` call) and still matches the reference."""
        values = _versions(n, trained, 30, seed)
        doubles = np.random.default_rng(seed).random(n + 8)
        fast, slow = ScriptedGenerator(doubles), ScriptedGenerator(doubles)
        got = sample_participants(values, count, fast)
        want = sample_participants_reference(values, count, slow)
        assert fast.calls == {"random": 1}
        assert got.tobytes() == want.tobytes()
        assert fast.position == slow.position == n


class TestFallbacks:
    """Each case the uniform draw cannot decide runs the full computation,
    with the generator rewound if the shortcut had drawn."""

    @staticmethod
    def _both(values, count, doubles, sigma=1.0):
        fast, slow = ScriptedGenerator(doubles), ScriptedGenerator(doubles)
        got = sample_participants(values, count, fast, sigma)
        want = sample_participants_reference(values, count, slow, sigma)
        assert got.tobytes() == want.tobytes()
        assert fast.position == slow.position
        assert fast.calls["gumbel"] == 1
        return fast

    def _values(self):
        values = np.zeros(40)
        values[30:] = 5.0
        return values

    def test_exact_zero_draw(self):
        doubles = np.random.default_rng(1).uniform(0.5, 1.0, 41)
        doubles[7] = 0.0  # random_gumbel rejects it and takes doubles[40]
        fast = self._both(self._values(), 3, doubles)
        assert fast.calls["random"] == 1
        assert fast.position == 41

    def test_exact_zero_draw_on_a_trained_device(self):
        doubles = np.random.default_rng(2).uniform(0.5, 1.0, 41)
        doubles[33] = 0.0
        assert self._both(self._values(), 3, doubles).calls["random"] == 1

    def test_tie_at_the_kth_key(self):
        doubles = np.random.default_rng(3).uniform(0.5, 1.0, 40)
        doubles[3], doubles[9], doubles[17] = 0.1, 0.2, 0.2
        assert self._both(self._values(), 2, doubles).calls["random"] == 1

    def test_count_covers_every_device(self):
        doubles = np.random.default_rng(4).random(5)
        fast = self._both(np.arange(5.0), 10, doubles)
        assert fast.calls["random"] == 0  # decided before drawing

    def test_all_zero_versions(self):
        # The first round: every score is 1/n, one class of n — decided
        # by uniforms, unless a draw ties at k.
        values, doubles = np.zeros(30), np.random.default_rng(5).random(30)
        fast, slow = ScriptedGenerator(doubles), ScriptedGenerator(doubles)
        got = sample_participants(values, 4, fast)
        assert got.tobytes() == sample_participants_reference(values, 4, slow).tobytes()
        assert fast.calls == {"random": 1} and fast.position == slow.position
        doubles[np.argsort(doubles)[4]] = np.sort(doubles)[3]
        assert self._both(np.full(30, 7.0), 4, doubles).calls["random"] == 1

    def test_denormal_spread_is_one_class(self):
        # Distinct values whose variance underflows: the reference's
        # uniform branch, so still one class.
        values = np.zeros(30)
        values[:3] = 5e-324
        doubles = np.random.default_rng(8).random(30)
        fast, slow = ScriptedGenerator(doubles), ScriptedGenerator(doubles)
        got = sample_participants(values, 4, fast)
        assert got.tobytes() == sample_participants_reference(values, 4, slow).tobytes()
        assert fast.calls == {"random": 1} and fast.position == slow.position

    def test_underflowed_zero_class(self):
        values = np.zeros(40)
        values[30:] = 1000.0
        doubles = np.random.default_rng(6).random(40)
        fast = self._both(values, 3, doubles, sigma=1e-3)
        assert fast.calls["random"] == 0

    def test_too_few_never_trained_devices(self):
        values = np.arange(40.0)
        doubles = np.random.default_rng(7).random(40)
        assert self._both(values, 3, doubles).calls["random"] == 0


@st.composite
def diurnal_models(draw):
    low = draw(st.floats(min_value=0.0, max_value=1.0))
    high = draw(
        st.one_of(st.just(low), st.floats(min_value=low, max_value=1.0))
    )
    return DiurnalAvailability(
        period=draw(st.floats(min_value=1e-3, max_value=1e4)),
        low=low,
        high=high,
        phase_spread=draw(
            st.one_of(
                st.sampled_from([0.0, 1.0]), st.floats(min_value=0.0, max_value=1.0)
            )
        ),
        seed=draw(st.integers(min_value=0, max_value=2**16)),
    )


class TestAvailableMask:
    @given(
        model=diurnal_models(),
        time=st.floats(min_value=-1e6, max_value=1e6),
        n=st.integers(min_value=1, max_value=4000),
        layout=st.sampled_from(["population", "copy", "strided", "one"]),
    )
    @example(
        model=DiurnalAvailability(period=24.0, phase_spread=0.0, seed=1),
        time=6.0, n=3000, layout="population",
    )
    @example(
        model=DiurnalAvailability(period=24.0, low=0.4, high=0.4, seed=2),
        time=18.0, n=3000, layout="strided",
    )
    @example(
        model=DiurnalAvailability(period=1e-3, seed=3),
        time=1e15, n=500, layout="copy",
    )
    @example(
        # No threshold range: every phase hashed, across a chunk boundary.
        model=DiurnalAvailability(period=1e-3, seed=4),
        time=1e15, n=70_000, layout="population",
    )
    @settings(max_examples=300, deadline=None)
    def test_mask_matches_reference(self, model, time, n, layout):
        ids = np.arange(n, dtype=np.int64)
        if layout == "population":
            got = model.population_mask(n, time)
        else:
            if layout == "copy":
                ids = ids.copy()
            elif layout == "strided":
                ids = np.arange(3 * n, dtype=np.int64)[1::3]
            else:
                ids = ids[n - 1 :]
            got = model.available_mask(ids, time)
        want = available_mask_reference(model, ids, time)
        assert got.dtype == want.dtype == np.bool_
        assert got.tobytes() == want.tobytes()

    @given(model=diurnal_models(), time=st.floats(min_value=-1e4, max_value=1e4))
    @settings(max_examples=200, deadline=None)
    def test_levels_on_their_own_threshold(self, model, time):
        """Adversarial draws: every phase from the extreme offsets through
        a fine grid between them, each with levels within two ulps of its
        own threshold — where a band too narrow by any margin decides a
        device without its ``sin`` and gets it wrong.  They enter through
        the population's seams: its kept levels and the phase hash."""
        spread = model.phase_spread * model.period
        phases = np.linspace((0.0 - 0.5) * spread, (1.0 - 0.5) * spread, 401)
        threshold = model.low + (model.high - model.low) * (
            0.5 + 0.5 * np.sin(2.0 * np.pi * (time + phases) / model.period)
        )
        steps = np.array([-2, -1, 0, 1, 2])
        levels = threshold[:, None] + steps * np.spacing(threshold)[:, None]
        level, phase = levels.ravel(), np.repeat(phases, steps.size)
        model._population_level = level
        model._phase = phase.take
        got = model.population_mask(level.size, time)
        want = threshold_mask_reference(model, level, phase, time)
        assert got.tobytes() == want.tobytes()


def test_libm_gumbel_is_rng_gumbel():
    """The premise ``_pick_by_uniforms`` rests on: ``rng.random(n)`` draws
    the doubles ``rng.gumbel(size=n)`` consumes, and ``_libm_gumbel`` turns
    each into the very value NumPy's C code returns (no draw is exactly
    ``0.0``, which ``random_gumbel`` would reject and redraw).  A platform
    whose scalar ``log`` rounds otherwise than the one NumPy calls fails
    here, by name, instead of in a golden."""
    n = 200_000
    for seed in range(3):
        draws = np.random.default_rng(seed).random(n)
        assert draws.all(), seed
        libm = np.array([_libm_gumbel(d) for d in draws.tolist()])
        gumbel = np.random.default_rng(seed).gumbel(size=n)
        assert libm.tobytes() == gumbel.tobytes(), (
            seed, int(np.count_nonzero(libm != gumbel))
        )
