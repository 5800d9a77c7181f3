"""Hypothesis properties of the quantised wire formats.

The round-trip contract every codec must satisfy on arbitrary payloads:

* decode(encode(x)) returns fp64 with the input's shape;
* the reconstruction error respects the format's bound — one per-chunk
  scale step for ``int8_sr``, one per-bucket grid step for ``qsgd``,
  and exact-on-survivors / bounded-by-the-k-th-magnitude for ``topk``;
* ``transmit`` is deterministic under a fixed format seed (the
  content-derived RNG has no hidden stream position);
* the priced payload size follows the format's published law;
* top-k selects by partition exactly what the retired stable sort
  selected (``tests/reference_quantise.py``), bit for bit;
* the fused ``int8_sr`` round trip and the ``qsgd`` round trip on the
  shared in-place rounding core return what the retired encode →
  decode → generic-error composition returned, bit for bit, on
  non-finite, subnormal, strided and reshaped payloads, through one
  instance's reused scratch.
"""

import sys
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from reference_quantise import (  # noqa: E402
    encode_reference,
    topk_encode_reference,
    transmit_with_error_reference,
)
from repro.comm.quantise import (  # noqa: E402
    Int8SRWireFormat,
    QSGDWireFormat,
    TopKWireFormat,
)

finite = st.floats(
    min_value=-1e6,
    max_value=1e6,
    allow_nan=False,
    allow_infinity=False,
    allow_subnormal=False,
)

payloads = arrays(
    dtype=np.float64, shape=st.integers(min_value=1, max_value=400),
    elements=finite,
)


class TestInt8SRProperties:
    @given(payloads, st.integers(min_value=1, max_value=64))
    @settings(max_examples=80, deadline=None)
    def test_roundtrip_shape_dtype_and_error_bound(self, vec, chunk):
        fmt = Int8SRWireFormat(chunk_size=chunk)
        received = fmt.transmit(vec)
        assert received.dtype == np.float64
        assert received.shape == vec.shape
        for start in range(0, vec.size, chunk):
            part = vec[start : start + chunk]
            scale = np.abs(part).max() / fmt.LEVELS
            err = np.abs(part - received[start : start + chunk]).max()
            assert err <= scale * (1 + 1e-12) + 1e-300

    @given(payloads, st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_deterministic_under_fixed_seed(self, vec, seed):
        fmt = Int8SRWireFormat(seed=seed)
        np.testing.assert_array_equal(fmt.transmit(vec), fmt.transmit(vec))

    @given(payloads)
    @settings(max_examples=60, deadline=None)
    def test_payload_size_law(self, vec):
        fmt = Int8SRWireFormat(chunk_size=32)
        chunks = -(-vec.size // 32)
        assert fmt.payload_nbytes(vec) == vec.size + chunks * 8


class TestQSGDProperties:
    @given(
        payloads,
        st.sampled_from([2, 4, 8]),
        st.integers(min_value=1, max_value=128),
    )
    @settings(max_examples=80, deadline=None)
    def test_roundtrip_error_within_grid_step(self, vec, bits, bucket):
        fmt = QSGDWireFormat(bits=bits, bucket_size=bucket)
        received = fmt.transmit(vec)
        assert received.dtype == np.float64
        assert received.shape == vec.shape
        for start in range(0, vec.size, bucket):
            part = vec[start : start + bucket]
            norm = np.float64(np.float32(np.abs(part).max()))
            err = np.abs(part - received[start : start + bucket]).max()
            # A bucket whose norm underflows fp32 decodes to zero; its
            # error is then bounded by the smallest fp32 normal.
            assert err <= norm / fmt.levels * (1 + 1e-6) + np.finfo(np.float32).tiny

    @given(payloads, st.sampled_from([2, 4, 8]))
    @settings(max_examples=60, deadline=None)
    def test_deterministic_under_fixed_seed(self, vec, bits):
        fmt = QSGDWireFormat(bits=bits)
        np.testing.assert_array_equal(fmt.transmit(vec), fmt.transmit(vec))


class TestTopKProperties:
    @given(
        payloads,
        st.floats(min_value=0.01, max_value=1.0, allow_nan=False),
    )
    @settings(max_examples=80, deadline=None)
    def test_survivors_exact_dropped_bounded(self, vec, fraction):
        fmt = TopKWireFormat(fraction)
        received = fmt.transmit(vec)
        assert received.dtype == np.float64
        assert received.shape == vec.shape
        k = fmt.k_for(vec.size)
        kept = np.flatnonzero(received)
        assert len(kept) <= k  # fp32-cast survivors may themselves be 0
        # Survivors round-trip through fp32 exactly.
        payload = fmt.encode(vec)
        np.testing.assert_array_equal(
            received[payload.indices],
            vec[payload.indices].astype(np.float32).astype(np.float64),
        )
        # Every dropped entry is bounded by the smallest kept magnitude.
        dropped = np.setdiff1d(np.arange(vec.size), payload.indices)
        if dropped.size and payload.indices.size:
            assert (
                np.abs(vec[dropped]).max()
                <= np.abs(vec[payload.indices]).min() + 1e-300
            )

    @given(payloads, st.floats(min_value=0.01, max_value=1.0, allow_nan=False))
    @settings(max_examples=60, deadline=None)
    def test_deterministic_and_size_law(self, vec, fraction):
        fmt = TopKWireFormat(fraction)
        np.testing.assert_array_equal(fmt.transmit(vec), fmt.transmit(vec))
        assert fmt.payload_nbytes(vec) == 8 + fmt.k_for(vec.size) * 8

    @given(payloads, st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_delta_shipping_reconstructs_around_reference(self, vec, rnd):
        """reference + decode(topk(vec - reference)) never drifts farther
        from vec than the largest dropped delta component."""
        fmt = TopKWireFormat(0.25)
        rng = np.random.default_rng(rnd.randint(0, 2**31))
        reference = vec + rng.normal(scale=0.1, size=vec.shape)
        received, err = fmt.transmit_delta_with_error(vec, reference)
        assert np.abs(received - vec).max() <= err + 1e-6 * (
            1 + np.abs(vec).max()
        )


@st.composite
def topk_cases(draw):
    """``(fraction, payload)`` aimed at the selection's hard cases: mass
    ties across the threshold, one magnitude class, signed zeros, ±inf,
    and NaN counts on either side of the ``n - k`` dropped slots."""
    fraction = draw(
        st.one_of(st.just(1.0), st.floats(min_value=1e-4, max_value=1.0))
    )
    n = draw(st.one_of(st.integers(0, 8), st.integers(0, 4096)))
    k = TopKWireFormat(fraction).k_for(n)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["alphabet", "equal", "zeros", "normal"]))
    if kind == "alphabet":
        letters = draw(
            arrays(np.float64, 3, elements=st.floats(allow_nan=False, width=32))
        )
        vec = rng.choice(letters, size=n)
    elif kind == "equal":
        vec = np.full(n, draw(st.floats(allow_nan=False, width=32)))
    elif kind == "zeros":
        vec = np.zeros(n)
    else:
        vec = rng.normal(size=n)
    vec = vec * rng.choice([-1.0, 1.0], size=n)  # ±x ties, ±0.0
    infs = draw(st.sampled_from([0, 0, 1, n // 3]))
    vec[rng.permutation(n)[:infs]] = rng.choice([-np.inf, np.inf], size=infs)
    around = {0, 1, n - k - 1, n - k, n - k + 1, n}
    counts = sorted(c for c in around if 0 <= c <= n)
    nans = draw(st.one_of(st.just(0), st.sampled_from(counts)))
    vec[rng.permutation(n)[:nans]] = np.nan
    if n % 2 == 0 and draw(st.booleans()):
        vec = vec.reshape(2, n // 2)
    return fraction, vec


@given(topk_cases())
@settings(max_examples=400, deadline=None)
def test_topk_selection_matches_stable_sort_reference(case):
    """The O(n) partition encode *is* the stable-sort encode: same
    survivor set (lower index wins a tie, NaN ranks last), same fp32
    values, same dtypes — for every payload, hence every trajectory."""
    fraction, vec = case
    fmt = TopKWireFormat(fraction)
    got, want = fmt.encode(vec), topk_encode_reference(fmt, vec)
    assert got.indices.dtype == want.indices.dtype
    assert got.values.dtype == want.values.dtype == np.float32
    np.testing.assert_array_equal(got.indices, want.indices)
    assert got.values.tobytes() == want.values.tobytes()  # NaN bits included
    assert (got.size, got.shape) == (want.size, want.shape)


# Scalars that break a grid codec: signed zeros, subnormals, the ends of
# the fp64 range, ±inf and NaN, next to ordinary magnitudes.
_SPECIALS = np.array(
    [0.0, -0.0, 5e-324, -2.5e-320, 1e-300, -1e-300, 1e300, -1e300,
     np.finfo(np.float64).max, np.inf, -np.inf, np.nan]
)


def _codec(name, block):
    if name == "int8_sr":
        return Int8SRWireFormat(chunk_size=block)
    return QSGDWireFormat(bits=int(name[4:]), bucket_size=block)


@st.composite
def _payload(draw, n):
    """A length-``n`` fp64 payload of one value regime, laid out as a
    contiguous vector, a strided view, a ring-row prefix or 2-D."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["normal", "zeros", "tiny", "huge", "specials"]))
    vec = rng.normal(size=n)
    if kind == "zeros":
        vec = np.zeros(n) * rng.choice([-1.0, 1.0], size=n)  # ±0.0 chunks
    elif kind == "tiny":
        vec = vec * 1e-310  # subnormal everywhere
    elif kind == "huge":
        vec = vec * 1e300
    special = draw(st.sampled_from([0.0, 0.05, 0.5])) if kind != "zeros" else 0.0
    hit = rng.random(n) < special
    vec[hit] = rng.choice(_SPECIALS, size=int(hit.sum()))
    layout = draw(st.sampled_from(["flat", "strided", "prefix", "2d"]))
    if layout == "strided":
        base = np.full(2 * n + 1, 7.0)
        base[1::2] = vec
        return base[1::2]
    if layout == "prefix":
        row = np.full((2, n + 5), 7.0)
        row[1, :n] = vec
        return row[1][:n]
    if layout == "2d" and n % 2 == 0:
        return vec.reshape(2, n // 2)
    return vec


def _assert_same_transmit(got, want):
    (received, err), (ref_received, ref_err) = got, want
    assert received.dtype == ref_received.dtype == np.float64
    assert received.shape == ref_received.shape
    assert received.tobytes() == ref_received.tobytes()  # NaN bits included
    assert type(err) is float
    assert (err != err and ref_err != ref_err) or err == ref_err


@st.composite
def _codec_cases(draw):
    name = draw(st.sampled_from(["int8_sr", "qsgd2", "qsgd4", "qsgd8"]))
    block = draw(st.sampled_from([1, 3, 8, 16]))
    n = draw(
        st.one_of(
            st.sampled_from([0, 1, block - 1, block, 3 * block, 3 * block + 1]),
            st.integers(0, 6 * block + 5),
        )
    )
    return name, block, draw(_payload(n))


@given(_codec_cases())
@settings(max_examples=400, deadline=None)
def test_codec_transmit_matches_reference_composition(case):
    """One call through a fresh instance: the received bits, the error
    (NaN-ness included), the shape and the dtype of the reference — and
    ``encode`` ships the reference's levels and scales (norms)."""
    name, block, vec = case
    fmt = _codec(name, block)
    with np.errstate(all="ignore"):
        _assert_same_transmit(
            fmt.transmit_with_error(vec), transmit_with_error_reference(fmt, vec)
        )
        got, want = fmt.encode(vec), encode_reference(fmt, vec)
        for field in ("levels", "scales" if name == "int8_sr" else "norms"):
            a, b = getattr(got, field), getattr(want, field)
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
        assert (got.size, got.shape) == (want.size, want.shape)
        received = fmt.decode(got)
        assert received.tobytes() == transmit_with_error_reference(fmt, vec)[0].tobytes()


@st.composite
def _shared_padding_runs(draw):
    """Payloads of different lengths that share one padded size (and a
    few that do not), in the order one instance receives them."""
    name = draw(st.sampled_from(["int8_sr", "qsgd4"]))
    block = draw(st.sampled_from([3, 8, 1024]))
    chunks = draw(st.integers(1, 3))
    lengths = draw(
        st.lists(
            st.one_of(
                st.integers((chunks - 1) * block + 1, chunks * block),
                st.integers(0, 4 * block + 1) if block < 1024 else st.just(7),
            ),
            min_size=2,
            max_size=6,
        )
    )
    return name, block, [draw(_payload(n)) for n in lengths]


@given(_shared_padding_runs())
@settings(max_examples=150, deadline=None)
def test_reused_scratch_matches_reference_and_never_aliases(run):
    """Successive payloads through ONE instance: a longer payload's
    values never linger in a shorter one's padding, and a returned
    vector is unchanged by every later call."""
    name, block, payloads = run
    fmt = _codec(name, block)
    kept = []
    with np.errstate(all="ignore"):
        for vec in payloads:
            got = fmt.transmit_with_error(vec)
            _assert_same_transmit(got, transmit_with_error_reference(fmt, vec))
            kept.append((got[0], got[0].tobytes()))
    for received, frozen in kept:
        assert received.tobytes() == frozen
