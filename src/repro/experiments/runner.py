"""Scheme runners: one entry point per training scheme + repetition helpers."""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

import numpy as np

from repro.baselines import DecentralizedFedAvgTrainer, DistributedTrainer
from repro.core import HADFLParams, HADFLTrainer
from repro.core.selection import SelectionPolicy
from repro.experiments.configs import ExperimentConfig
from repro.metrics.records import RoundRecord, RunResult
from repro.sim.failures import FailureInjector

SCHEMES = ("distributed", "decentralized_fedavg", "hadfl")


def run_scheme(
    scheme: str,
    config: ExperimentConfig,
    seed_offset: int = 0,
    selection: Optional[SelectionPolicy] = None,
    failure_injector: Optional[FailureInjector] = None,
    params: Optional[HADFLParams] = None,
) -> RunResult:
    """Build a fresh cluster and train it with the named scheme.

    Each call constructs its own cluster so schemes never share device
    state; the same ``(config, seed_offset)`` yields the same shards and
    initial model for every scheme — the paired-comparison design of the
    paper's evaluation.
    """
    cluster = config.make_cluster(
        seed_offset=seed_offset, failure_injector=failure_injector
    )
    if scheme == "distributed":
        trainer = DistributedTrainer(
            cluster, seed=config.seed + seed_offset, accounting=config.accounting
        )
    elif scheme == "decentralized_fedavg":
        trainer = DecentralizedFedAvgTrainer(
            cluster,
            local_steps=config.fedavg_local_steps,
            seed=config.seed + seed_offset,
            accounting=config.accounting,
        )
    elif scheme == "hadfl":
        trainer = HADFLTrainer(
            cluster,
            params=params or config.hadfl_params(),
            selection=selection,
            seed=config.seed + seed_offset,
        )
    else:
        raise KeyError(f"unknown scheme {scheme!r}; choose from {SCHEMES}")
    try:
        return trainer.run(
            target_epochs=config.target_epochs, eval_every=config.eval_every
        )
    finally:
        # Reap executor resources (the process backend holds worker
        # processes); serial is a no-op.
        cluster.close()


def run_all_schemes(
    config: ExperimentConfig,
    seed_offset: int = 0,
    schemes=SCHEMES,
) -> Dict[str, RunResult]:
    """Run every scheme on identically-initialised clusters."""
    return {
        scheme: run_scheme(scheme, config, seed_offset=seed_offset)
        for scheme in schemes
    }


def average_results(results: List[RunResult]) -> RunResult:
    """Average repeated runs round-by-round (the paper repeats 3 times).

    Runs may differ in length; the average covers the shortest common
    prefix of rounds, which keeps the series well defined.
    """
    if not results:
        raise ValueError("no results to average")
    if len(results) == 1:
        return results[0]
    common = min(len(r.rounds) for r in results)
    averaged = RunResult(
        scheme=results[0].scheme,
        config={**results[0].config, "repeats": len(results)},
    )
    for index in range(common):
        rows = [r.rounds[index] for r in results]

        def _mean_of(attr: str) -> Optional[float]:
            values = [getattr(row, attr) for row in rows]
            if any(v is None for v in values):
                return None
            return float(np.mean(values))

        averaged.append(
            RoundRecord(
                round_index=index,
                sim_time=float(np.mean([row.sim_time for row in rows])),
                global_epoch=float(np.mean([row.global_epoch for row in rows])),
                train_loss=float(np.nanmean([row.train_loss for row in rows])),
                test_loss=_mean_of("test_loss"),
                test_accuracy=_mean_of("test_accuracy"),
                comm_bytes=int(np.mean([row.comm_bytes for row in rows])),
                bypasses=int(np.sum([row.bypasses for row in rows])),
            )
        )
    return averaged


def repeat_scheme(
    scheme: str,
    config: ExperimentConfig,
    repeats: int = 3,
    **kwargs,
) -> RunResult:
    """Run a scheme ``repeats`` times with distinct seeds and average."""
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    runs = [
        run_scheme(scheme, config, seed_offset=1000 * r, **kwargs)
        for r in range(repeats)
    ]
    return average_results(runs)
