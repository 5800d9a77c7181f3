"""Async-federation benchmark: sim-time-to-accuracy under stragglers.

Runs the population trainer on a straggler-heavy power spread
(``8:4:1:1`` — half the population computes at 1/8th the speed of the
fastest cohort) in both federation modes and records the virtual time
each needs to reach the target test accuracy:

* ``sync`` — the full-window barrier: every round costs the whole
  ``round_window`` regardless of who finished early;
* ``buffered_async`` — FedBuff-style first-K folding: the round cuts at
  the K-th completed arrival, so the fast cohort's uploads fold without
  waiting out the window, and stragglers fold late with a
  ``(1+τ)^(−a)`` staleness discount.

Acceptance (asserted in full *and* quick mode — virtual time is
deterministic, not machine speed):

* every mode reaches the target accuracy;
* ``buffered_async`` reaches it in **strictly less** virtual time than
  ``sync`` — the point of arrival-ordered aggregation.

Writes the repo-root trajectory artefact ``BENCH_async.json``.

Usage::

    PYTHONPATH=src python benchmarks/bench_async.py [--quick]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path
from typing import Any, Dict, Optional

if __name__ == "__main__":  # standalone run: one BLAS thread, set before NumPy loads
    for _pin in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_pin, "1")

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from repro.experiments.population import PopulationConfig, run_population  # noqa: E402

TARGET_ACCURACY = 0.6
ROUNDS = 16
ROUNDS_QUICK = 8

#: Per-mode PopulationConfig overrides.  The async buffer folds after
#: two completed uploads (the fast cohort), with a 10-step dispatch
#: budget so fast devices turn around well inside the window.
MODES: Dict[str, Dict[str, Any]] = {
    "sync": {},
    "buffered_async": {"async_buffer": 2, "local_steps": 10},
}


def _config(mode: str, quick: bool) -> PopulationConfig:
    return PopulationConfig(
        population=64,
        participants=8,
        rounds=ROUNDS_QUICK if quick else ROUNDS,
        round_window=1.0,
        num_train=256,
        num_test=128,
        eval_every=1,
        seed=5,
        power_levels=(8.0, 4.0, 1.0, 1.0),
        aggregation=mode,
        **MODES[mode],
    )


def _time_to_accuracy(result, target: float) -> Optional[float]:
    """First round-end virtual time at which the test accuracy reached
    ``target``; ``None`` if the run never got there."""
    for record in result.rounds:
        if record.test_accuracy is not None and record.test_accuracy >= target:
            return record.sim_time
    return None


def main(quick: bool = False) -> Dict[str, Any]:
    results: Dict[str, Any] = {}
    for mode in MODES:
        started = time.perf_counter()
        run = run_population(_config(mode, quick))
        wall = time.perf_counter() - started
        robustness = run.robustness_summary()
        results[mode] = {
            "time_to_target": _time_to_accuracy(run, TARGET_ACCURACY),
            "target_accuracy": TARGET_ACCURACY,
            "best_accuracy": run.best_accuracy(),
            "final_sim_time": run.total_time,
            "total_comm_bytes": run.total_comm_bytes,
            "rounds": len(run.rounds),
            "arrivals": robustness["arrivals"],
            "buffered_rounds": robustness["buffered_rounds"],
            "max_staleness": robustness["max_staleness"],
            "wall_seconds": wall,
        }
        print(
            f"{mode:>15}: t@{TARGET_ACCURACY} = "
            f"{results[mode]['time_to_target']} vs final "
            f"{run.total_time:.2f}s virtual, best {run.best_accuracy():.3f}"
        )

    for mode, row in results.items():
        assert row["time_to_target"] is not None, (
            f"{mode} never reached {TARGET_ACCURACY} accuracy"
        )
    speedup = results["sync"]["time_to_target"] / results["buffered_async"][
        "time_to_target"
    ]
    results["async_speedup_over_sync"] = speedup
    assert (
        results["buffered_async"]["time_to_target"]
        < results["sync"]["time_to_target"]
    ), (
        "buffered_async must beat sync to the target accuracy: "
        f"{results['buffered_async']['time_to_target']} vs "
        f"{results['sync']['time_to_target']}"
    )
    print(f"buffered_async speedup over sync: {speedup:.2f}x")

    payload = {
        "bench": "async",
        "quick": quick,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "results": results,
    }
    out = REPO_ROOT / "BENCH_async.json"
    out.write_text(json.dumps(payload, indent=2))
    print(f"wrote {out}")
    return payload


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true", help="fewer rounds for CI smoke runs"
    )
    main(quick=parser.parse_args().quick)
