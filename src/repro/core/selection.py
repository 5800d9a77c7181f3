"""Probability-based device selection (paper Sec. III-C, Eq. 8).

The strategy generator selects ``N_p`` devices for partial synchronisation
with probability::

    P(i,j) = f(v_{i,j}) / Σ_n f(v_{n,j}),   f(x) = (1/√2π) exp(−(x−µ)²/2)

where µ is the **3rd quartile** of the current versions.  The design
intent (quoted in the module tests): newer-version devices are favoured so
stragglers perturb convergence less, stragglers are *never* excluded (their
noise "helps the model jump out of the local minimum"), and devices with
*medial* versions beat the very latest — hence the kernel peaks at Q3
rather than the maximum.

As printed, the unit-variance kernel underflows when versions spread over
hundreds of steps, so versions are standardised by their spread before the
kernel is applied; ``sigma`` scales the kernel width in spread units.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

import numpy as np

#: Floor for the near-deterministic policies' 1e-6 mass cascade: small
#: enough never to perturb a healthy draw, large enough (a *normal*
#: float) that probabilities stay exactly representable after
#: normalisation instead of underflowing to 0.0.
_MASS_FLOOR = 1e-300


def _eq8_density(
    offsets: np.ndarray, scale: float
) -> Tuple[np.ndarray, np.ndarray]:
    """Offsets from Q3 standardised by ``scale`` (``sigma * spread``), and
    their Eq. 8 Gaussian density — the one place both scorers
    (:func:`gaussian_quartile_scores`, :func:`_class_scores`) compute
    them, so the two round alike."""
    z = offsets / scale
    return z, np.exp(-0.5 * z**2) / np.sqrt(2 * np.pi)


def gaussian_quartile_scores(
    values: np.ndarray, sigma: float = 1.0
) -> np.ndarray:
    """Normalised Eq. 8 selection probabilities over a version *array*.

    The vectorised kernel under :func:`gaussian_quartile_probabilities`:
    identical arithmetic in identical order (Q3 centre, spread
    standardisation, Gaussian → Cauchy → uniform underflow cascade), so
    dictionary and array callers see bitwise-identical probabilities.
    The array form is the population-scale entry point — scoring 10^6
    versions costs a few vector ops instead of dict churn.
    """
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ValueError("no versions supplied")
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    mu = np.percentile(values, 75)  # the 3rd quartile of all v_{i,j}
    spread = np.std(values)
    if spread == 0.0:
        # All devices at the same version: uniform selection.
        return np.full(values.size, 1.0 / values.size)
    z, density = _eq8_density(values - mu, sigma * spread)
    total = density.sum()
    if not np.isfinite(total) or total <= 0.0:
        # A tiny sigma — or one far outlier inflating the spread — can
        # push every |z| past ~39, where exp(-z²/2) underflows to 0.0
        # and the normalisation would return NaN probabilities (crashing
        # rng.choice downstream).  Fall back to a heavy-tailed kernel in
        # the same standardised coordinate: it shares the Gaussian's
        # argmax (nearest-to-Q3 keeps the most mass, the Eq. 8 design
        # intent) but cannot underflow for finite z.
        density = 1.0 / (1.0 + z * z)
        total = density.sum()
    if not np.isfinite(total) or total <= 0.0:
        # Pathological z (e.g. a denormal spread overflowing z to inf):
        # no usable ordering information left — uniform, like the
        # spread == 0 branch.
        return np.full(values.size, 1.0 / values.size)
    return density / total


def gaussian_quartile_probabilities(
    versions: Dict[int, float], sigma: float = 1.0
) -> Dict[int, float]:
    """Selection probabilities of Eq. 8 over a version dictionary."""
    if not versions:
        raise ValueError("no versions supplied")
    ids = sorted(versions)
    values = np.array([versions[i] for i in ids], dtype=float)
    scores = gaussian_quartile_scores(values, sigma)
    return {i: float(p) for i, p in zip(ids, scores)}


def _libm_gumbel(draw: float) -> float:
    """The ``rng.gumbel()`` value NumPy makes from the uniform double
    ``draw`` (``random_gumbel``: ``0 − log(−log(1 − draw))``), with the
    scalar libm ``log`` its C code calls.  A vectorised ``np.log`` differs
    from it in the last bit for ≈ 0.4 % of draws."""
    return 0.0 - math.log(-math.log(1.0 - draw))


def _smallest(u: np.ndarray, m: int, pool: int) -> np.ndarray:
    """Indices of the ``m`` smallest entries of ``u`` below 1, of which
    there are ``pool`` (>= m) — by threshold, not by partitioning ``u``."""
    threshold = min(1.0, (2.0 * m + 32.0) / pool)
    while True:
        below = np.flatnonzero(u < threshold)
        if below.size >= m or threshold >= 1.0:
            break
        threshold = min(1.0, 2.0 * threshold)
    if below.size > m:
        below = below[np.argpartition(u[below], m - 1)[:m]]
    return below


def _class_scores(
    values: np.ndarray, count: int, sigma: float
) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """Eq. 8 log-probabilities of the one shared class and of the devices
    outside it, bitwise those :func:`gaussian_quartile_scores` computes.

    Returns ``(outside, log_p)``: the indices of the devices outside the
    class, and ``log_p[0]`` for the class followed by one entry per
    outside device.  With a zero spread every device scores ``1/n``, so
    the class is the whole array; otherwise it is the never-trained
    devices (``values == 0``).  ``None`` when the class holds fewer than
    ``count`` devices, or when a non-finite spread or an underflowed class
    score leaves the keys to the full computation.
    """
    n = values.size
    spread = np.std(values)
    if spread == 0.0:
        return np.empty(0, dtype=np.intp), np.log(np.full(1, 1.0 / n))
    outside = np.flatnonzero(values != 0)
    inside = n - outside.size
    scale = sigma * spread
    if inside < count or not (spread > 0.0 and 0.0 < scale < np.inf):
        return None
    # Q3 is exactly +0.0 when both order statistics it interpolates sit in
    # the zero class (one index of slack either side).
    trained = values[outside]
    negative = int(np.count_nonzero(trained < 0))
    q3_index = 0.75 * (n - 1)
    if negative + 1 <= q3_index < negative + inside - 2:
        mu = 0.0
    else:
        mu = np.percentile(values, 75)
    offsets = np.empty(outside.size + 1)
    offsets[0] = 0.0 - mu
    offsets[1:] = trained - mu
    _, density = _eq8_density(offsets, scale)
    if not density[0] > 0.0:
        return None
    # The total still sums a full-length array, so it rounds as the
    # reference's does.
    full = np.full(n, density[0])
    full[outside] = density[1:]
    total = full.sum()
    with np.errstate(divide="ignore"):
        return outside, np.log(density / total)


def _pick_by_uniforms(
    values: np.ndarray, count: int, rng: np.random.Generator, sigma: float
) -> Optional[np.ndarray]:
    """The Gumbel top-k draw of :func:`sample_participants` without a
    Gumbel value (or an Eq. 8 score) per index.

    Devices of one score class (:func:`_class_scores`) are ranked by
    their Gumbel values alone, i.e. by the uniform doubles behind them,
    smallest first: ``rng.random(n)`` consumes the very doubles
    ``rng.gumbel(size=n)`` would.  The candidates are the class's
    ``count + 1`` smallest draws (the extra one is its best loser, which
    must lose strictly) and every device outside the class; only they get
    keys, with scalar-libm Gumbel values (:func:`_libm_gumbel`).

    Returns ``None`` — with the generator restored if anything was drawn
    — wherever that argument needs more than it has: ``count >= n``, no
    usable class, an exact ``0.0`` draw (``random_gumbel`` rejects and
    redraws it) or a tie at the k-th key.  The caller then runs the full
    computation.
    """
    n = values.size
    if count >= n or not sigma > 0:
        return None
    scores = _class_scores(values, count, sigma)
    if scores is None:
        return None
    outside, log_p = scores
    inside = n - outside.size

    state = rng.bit_generator.state
    u = rng.random(n)
    outside_draws = u[outside]
    u[outside] = 2.0
    inside_pick = _smallest(u, count + 1 if inside > count else count, inside)
    candidates = np.concatenate([inside_pick, outside])
    draws = np.concatenate([u[inside_pick], outside_draws])
    if draws.all():
        # n > count, so there are always more than ``count`` candidates.
        lp = np.concatenate([np.full(inside_pick.size, log_p[0]), log_p[1:]])
        keys = lp + np.array([_libm_gumbel(d) for d in draws.tolist()])
        ordered = np.sort(keys)
        if ordered[-count - 1] < ordered[-count]:
            picked = candidates[keys >= ordered[-count]]
            return np.sort(picked.astype(np.int64, copy=False))
    rng.bit_generator.state = state
    return None


def sample_participants(
    values: np.ndarray,
    count: int,
    rng: np.random.Generator,
    sigma: float = 1.0,
) -> np.ndarray:
    """Draw ``count`` distinct indices ∝ Eq. 8 scores, in O(n) time.

    ``rng.choice(n, size=k, replace=False, p=...)`` runs a sequential
    rejection loop — O(n·k) at best — which dominates round time once
    the candidate pool reaches population scale.  The Gumbel-top-k
    trick is the standard replacement: perturb ``log p_i`` with i.i.d.
    Gumbel noise and take the ``k`` largest keys, which is distributed
    exactly as sequential sampling without replacement from ``p``
    (Plackett–Luce equivalence).  Zero-probability entries get ``-inf``
    keys and are only picked when fewer than ``count`` candidates carry
    mass.  Returns indices into ``values``, sorted ascending.

    At population scale most devices never trained and share one score,
    so the draw is made from uniforms and keys are computed for at most
    ``count + 1`` of them plus the trained devices
    (:func:`_pick_by_uniforms`) — same picks, same generator state; the
    full computation below runs whenever that shortcut does not apply.
    """
    values = np.asarray(values, dtype=float)
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    count = min(count, values.size)
    picked = _pick_by_uniforms(values, count, rng, sigma)
    if picked is not None:
        return picked
    probs = gaussian_quartile_scores(values, sigma)
    with np.errstate(divide="ignore"):
        keys = np.log(probs) + rng.gumbel(size=probs.size)
    if count == probs.size:
        return np.arange(probs.size, dtype=np.int64)
    top = np.argpartition(keys, -count)[-count:]
    return np.sort(top.astype(np.int64, copy=False))


class SelectionPolicy:
    """Base class: subclasses return the ``N_p`` selected device ids."""

    def probabilities(self, versions: Dict[int, float]) -> Dict[int, float]:
        raise NotImplementedError

    def select(
        self,
        versions: Dict[int, float],
        num_selected: int,
        rng: np.random.Generator,
    ) -> List[int]:
        """Draw ``num_selected`` distinct devices from the policy's law."""
        if num_selected < 1:
            raise ValueError(f"num_selected must be >= 1, got {num_selected}")
        ids = sorted(versions)
        count = min(num_selected, len(ids))
        probs = self.probabilities(versions)
        weights = np.array([probs[i] for i in ids], dtype=float)
        total = weights.sum()
        if not np.isfinite(total) or total <= 0.0:
            # Degenerate mass (all-zero or non-finite): uniform draw.
            weights = np.ones(len(ids))
            total = float(len(ids))
        weights = weights / total
        # Without-replacement draws cannot resolve probabilities far
        # below the float resolution of the cumulative sum: entries at
        # exact 0.0 make ``rng.choice`` raise ("fewer non-zero entries
        # in p than size") once the near-deterministic policies' 1e-6
        # mass cascade underflows past ~50 devices, and entries merely
        # *near* zero send its rejection loop spinning for ~1/p draws.
        # Split at a viability threshold instead: when enough viable
        # mass exists the draw is untouched (bitwise-identical
        # trajectories for every healthy configuration); otherwise all
        # viable entries are selected and the remaining slots fill from
        # the sub-resolution tail by descending weight (ties toward the
        # lower id — the cascade's documented ordering intent).  The
        # comparison is inclusive with a 1-ulp-scale slack so a weight
        # sitting exactly on the 1e-6 cascade ratio counts as viable
        # regardless of normalisation rounding.
        viable = weights >= weights.max() * 1e-6 * (1.0 - 1e-9)
        num_viable = int(np.count_nonzero(viable))
        if num_viable >= count:
            chosen = rng.choice(len(ids), size=count, replace=False, p=weights)
        else:
            tail = sorted(
                np.flatnonzero(~viable), key=lambda c: (-weights[c], c)
            )
            chosen = list(np.flatnonzero(viable)) + tail[: count - num_viable]
        return sorted(int(ids[c]) for c in chosen)


class GaussianQuartileSelection(SelectionPolicy):
    """The paper's Eq. 8 policy (Gaussian kernel at the 3rd quartile)."""

    def __init__(self, sigma: float = 1.0):
        if sigma <= 0:
            raise ValueError(f"sigma must be positive, got {sigma}")
        self.sigma = sigma

    def probabilities(self, versions: Dict[int, float]) -> Dict[int, float]:
        return gaussian_quartile_probabilities(versions, self.sigma)


class UniformSelection(SelectionPolicy):
    """Version-blind uniform sampling (ablation baseline)."""

    def probabilities(self, versions: Dict[int, float]) -> Dict[int, float]:
        if not versions:
            raise ValueError("no versions supplied")
        p = 1.0 / len(versions)
        return {i: p for i in versions}


class LatestOnlySelection(SelectionPolicy):
    """Deterministically pick the devices with the newest parameters.

    The ablation counterpart to Eq. 8: the paper argues pure
    latest-version selection wastes straggler effort and loses their
    exploration noise.
    """

    def probabilities(self, versions: Dict[int, float]) -> Dict[int, float]:
        if not versions:
            raise ValueError("no versions supplied")
        # Near-deterministic: all mass on the maximum, tiny elsewhere so
        # `select` can still fill N_p slots when ties are absent.  The
        # cascade is floored: 1e-6 ** rank underflows to exact 0.0 past
        # ~50 devices, and zero-probability entries crash
        # ``rng.choice(..., replace=False, p=...)`` when N_p exceeds the
        # nonzero count.
        ids = sorted(versions)
        order = sorted(ids, key=lambda i: -versions[i])
        mass = {i: 0.0 for i in ids}
        weight = 1.0
        for i in order:
            mass[i] = weight
            weight = max(weight * 1e-6, _MASS_FLOOR)
        total = sum(mass.values())
        return {i: m / total for i, m in mass.items()}

    def select(self, versions, num_selected, rng):
        ids = sorted(versions, key=lambda i: (-versions[i], i))
        return sorted(ids[: min(num_selected, len(ids))])


class ForcedWorstSelection(SelectionPolicy):
    """Always select the devices with the *lowest* versions.

    Implements the paper's upper-bound-of-accuracy-loss experiment:
    "we manually specify that during local synchronization, only the two
    GPUs with the worst computing power are selected each time"
    (Sec. IV-B).
    """

    def probabilities(self, versions: Dict[int, float]) -> Dict[int, float]:
        if not versions:
            raise ValueError("no versions supplied")
        ids = sorted(versions)
        order = sorted(ids, key=lambda i: versions[i])
        mass = {i: 0.0 for i in ids}
        weight = 1.0
        for i in order:
            mass[i] = weight
            # Same underflow floor as LatestOnlySelection: exact-zero
            # mass past ~50 devices would crash the base `select` draw.
            weight = max(weight * 1e-6, _MASS_FLOOR)
        total = sum(mass.values())
        return {i: m / total for i, m in mass.items()}

    def select(self, versions, num_selected, rng):
        ids = sorted(versions, key=lambda i: (versions[i], i))
        return sorted(ids[: min(num_selected, len(ids))])


_POLICIES = {
    "gaussian_quartile": GaussianQuartileSelection,
    "uniform": UniformSelection,
    "latest": LatestOnlySelection,
    "worst": ForcedWorstSelection,
}

#: Names :func:`make_selection_policy` (and ``HADFLParams.selection``) accept.
SELECTION_POLICIES = tuple(_POLICIES)


def make_selection_policy(name: str, sigma: float = 1.0) -> SelectionPolicy:
    """Build a policy by config name."""
    if name not in _POLICIES:
        raise KeyError(f"unknown selection policy {name!r}; choose from {sorted(_POLICIES)}")
    if name == "gaussian_quartile":
        return GaussianQuartileSelection(sigma=sigma)
    return _POLICIES[name]()
