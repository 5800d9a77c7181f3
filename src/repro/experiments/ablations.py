"""Ablation studies over HADFL's design choices.

Three ablations back the paper's design arguments:

* **selection policy** — Eq. 8's Gaussian-at-Q3 against uniform,
  latest-only and forced-worst selection (Sec. III-C's rationale for not
  discarding stragglers and not always taking the newest);
* **predictor α** — forecast error of Eq. 7 as device speed drifts
  (Sec. III-B's "the larger α, the closer the predicted value to v_i");
* **N_p** — number of devices in partial sync (Sec. IV-B: "by allowing
  more GPUs to participate in partial synchronization, the training
  effect can be better").
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.core import VersionPredictor
from repro.core.selection import SELECTION_POLICIES, make_selection_policy
from repro.experiments.configs import ExperimentConfig
from repro.experiments.runner import run_scheme
from repro.metrics.records import RunResult


def ablate_selection_policy(
    config: ExperimentConfig,
    policies: Sequence[str] = SELECTION_POLICIES,
) -> Dict[str, RunResult]:
    """HADFL under each selection policy, identical everything else."""
    results = {}
    for policy_name in policies:
        policy = make_selection_policy(policy_name, sigma=config.selection_sigma)
        results[policy_name] = run_scheme(
            "hadfl", config, selection=policy
        )
    return results


def ablate_num_selected(
    config: ExperimentConfig,
    values: Sequence[int] = (1, 2, 3, 4),
) -> Dict[int, RunResult]:
    """HADFL with N_p ∈ values (clamped to the device count)."""
    results = {}
    for num_selected in values:
        if num_selected > config.num_devices:
            continue
        results[num_selected] = run_scheme(
            "hadfl", config.with_overrides(num_selected=num_selected)
        )
    return results


def predictor_drift_error(
    alpha: float,
    drift_per_round: float = 0.02,
    num_rounds: int = 60,
    base_steps: float = 30.0,
    jitter: float = 0.05,
    seed: int = 0,
    mode: str = "linear",
    step_factor: float = 1.5,
) -> float:
    """Mean absolute one-step forecast error under drifting device speed.

    Two drift regimes expose the α trade-off the paper's Sec. III-B
    hints at ("the larger α, the closer the predicted value to v_i"):

    * ``"linear"`` — speed drifts smoothly (thermal ramp, slow
      contention): the per-round step count grows by ``drift_per_round``
      fractionally; low α smooths the measurement noise best because
      Brown's trend term tracks a linear ramp at *any* α.
    * ``"step"`` — speed changes abruptly at mid-run (co-tenant job
      starts, throttling kicks in) by ``step_factor``: high α re-converges
      in a couple of rounds where low α lags for ~1/α rounds.

    Errors are measured from the mid-run point (post-burn-in for linear,
    post-change for step).
    """
    if mode not in ("linear", "step"):
        raise ValueError(f"mode must be 'linear' or 'step', got {mode!r}")
    rng = np.random.default_rng(seed)
    predictor = VersionPredictor(alpha=alpha)
    errors: List[float] = []
    half = num_rounds // 2
    for round_index in range(num_rounds):
        if mode == "linear":
            actual = base_steps * (1.0 + drift_per_round * round_index)
        else:
            actual = base_steps * (step_factor if round_index >= half else 1.0)
        if jitter:
            actual *= float(rng.lognormal(0.0, jitter))
        if round_index > 0:
            forecast = predictor.predict(0, steps_ahead=1)
            if round_index >= half:
                errors.append(abs(forecast - actual))
        predictor.observe(0, actual)
    return float(np.mean(errors))


def ablate_predictor_alpha(
    alphas: Sequence[float] = (0.1, 0.3, 0.5, 0.7, 0.9),
    drift_per_round: float = 0.02,
    jitter: float = 0.05,
    repeats: int = 5,
    mode: str = "linear",
) -> Dict[float, float]:
    """Forecast error per α, averaged over seeds (see
    :func:`predictor_drift_error` for the two drift regimes)."""
    results = {}
    for alpha in alphas:
        errors = [
            predictor_drift_error(
                alpha,
                drift_per_round=drift_per_round,
                jitter=jitter,
                seed=s,
                mode=mode,
            )
            for s in range(repeats)
        ]
        results[alpha] = float(np.mean(errors))
    return results


def ablate_tsync(
    config: ExperimentConfig,
    values: Sequence[int] = (1, 2, 4),
) -> Dict[int, RunResult]:
    """Aggregation period sweep: rarer syncs save communication but let
    local replicas drift further apart."""
    return {
        tsync: run_scheme("hadfl", config.with_overrides(tsync=tsync))
        for tsync in values
    }


def ablate_mix_weight(
    config: ExperimentConfig,
    values: Sequence[float] = (0.0, 0.25, 0.5, 0.75),
) -> Dict[float, RunResult]:
    """How unselected devices integrate the broadcast aggregate
    (Sec. III-D's "integrate the received model parameters with local
    parameters"): 0.0 = replace outright, larger keeps more local state."""
    return {
        w: run_scheme("hadfl", config.with_overrides(unselected_mix_weight=w))
        for w in values
    }
