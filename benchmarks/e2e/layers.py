"""Where the tracer cuts the program, and what each cut is called.

One row per wrapped boundary: the owner of the attribute (a class, or the
module that imported a function by name), the attribute, and the span
name the calls are recorded under.  A span name ``layer.thing`` yields
the time metric ``layer.thing_s`` (self time per traced pass); some also
yield a call count (:data:`COUNT_METRICS`).  The remaining per-layer
metrics are counters the program already keeps (:func:`counter_metrics`).

``BENCHMARK.json`` lists every metric produced here with its unit; the
layer → end-to-end-metric → workload predictions live in ``README.md``.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Sequence, Tuple

import repro.baselines.distributed
import repro.baselines.fedavg
import repro.comm.gossip
import repro.sim.population
from repro.autograd import Tensor
from repro.baselines.base import SchemeTrainer
from repro.comm.ring_repair import FaultTolerantRingSync
from repro.comm.volume import CommVolumeAccountant
from repro.comm.wire import WireFormat
from repro.core import HADFLTrainer
from repro.core.coordinator import Coordinator
from repro.data.loader import BatchCycler
from repro.nn.fleet import FleetModule
from repro.nn.module import Module
from repro.optim.base import Optimizer
from repro.sim.cluster import SimulatedCluster
from repro.sim.device import Device
from repro.sim.executor import LocalExecutor
from repro.sim.population import PopulationTrainer, VirtualPopulation
from repro.sim.rounds import RoundEngine

from tracer import Tracer, summarise

# (owner, attribute, span name, wrapper options).  Classes are patched
# together with every subclass that overrides the attribute; modules are
# the namespaces that imported the function by name.
_EXCLUSIVE = {"exclusive": True}
BOUNDARIES: Tuple[Tuple[Any, str, str, Dict[str, bool]], ...] = (
    (BatchCycler, "next_batch", "data.next_batch", {}),
    (Module, "__call__", "nn.forward", _EXCLUSIVE),
    (FleetModule, "forward", "nn.forward", _EXCLUSIVE),
    (Tensor, "backward", "autograd.backward", {}),
    (Optimizer, "step", "optim.step", _EXCLUSIVE),
    (Optimizer, "zero_grad", "optim.zero_grad", _EXCLUSIVE),
    (WireFormat, "transmit_with_error", "comm.wire_transmit", _EXCLUSIVE),
    (WireFormat, "transmit_delta_with_error", "comm.wire_transmit", _EXCLUSIVE),
    (FaultTolerantRingSync, "run", "comm.ring_sync", {}),
    (repro.baselines.distributed, "ring_allreduce_detailed", "comm.allreduce", {}),
    (repro.baselines.fedavg, "ring_allreduce_detailed", "comm.allreduce", {}),
    (repro.comm.gossip, "ring_allreduce_detailed", "comm.allreduce", {}),
    (CommVolumeAccountant, "record", "comm.volume_record", {}),
    (Coordinator, "select_devices", "core.select", {}),
    (repro.sim.population, "sample_participants", "core.select", {}),
    (Coordinator, "negotiate", "core.strategy", {}),
    (Coordinator, "update_strategy", "core.strategy", {}),
    (HADFLTrainer, "run", "core.trainer_self", {}),
    (Device, "train_until", "sim.device_loop", {}),
    (Device, "train_steps", "sim.device_loop", {}),
    (LocalExecutor, "run_tasks", "sim.executor", {}),
    (RoundEngine, "launch", "sim.rounds_launch", {}),
    (RoundEngine, "collect", "sim.rounds_collect", {}),
    (SimulatedCluster, "evaluate_params", "sim.eval", {"leaf": True}),
    (VirtualPopulation, "evaluate_params", "sim.eval", {"leaf": True}),
    (VirtualPopulation, "materialise", "sim.population_materialise", {}),
    (VirtualPopulation, "release", "sim.population_release", {}),
    (VirtualPopulation, "available_ids", "sim.population_available", {}),
    (PopulationTrainer, "run", "sim.population_self", {}),
    (SchemeTrainer, "run", "baselines.run_self", {}),
)

SPAN_NAMES: Tuple[str, ...] = tuple(dict.fromkeys(row[2] for row in BOUNDARIES))

# Count metric -> the span whose calls it counts.
COUNT_METRICS: Dict[str, str] = {
    "data.batches": "data.next_batch",
    "nn.forward_calls": "nn.forward",
    "autograd.backward_calls": "autograd.backward",
    "optim.steps": "optim.step",
    "comm.wire_transmits": "comm.wire_transmit",
    "comm.ring_syncs": "comm.ring_sync",
    "comm.allreduces": "comm.allreduce",
    "comm.volume_records": "comm.volume_record",
    "core.selects": "core.select",
    "sim.evals": "sim.eval",
}


def install(tracer: Tracer) -> None:
    """Wrap every boundary; ``tracer.restore()`` undoes all of it."""
    for owner, attr, name, options in BOUNDARIES:
        tracer.patch(owner, attr, name, **options)


def unit_of(metric: str) -> str:
    """Unit of a span or counter metric, as ``BENCHMARK.json`` lists it."""
    if metric.endswith("_s"):
        return "s"
    return {
        "comm.bytes_total": "B",
        "comm.wire_cast_error_max": "abs",
        "sim.max_staleness": "epochs",
    }.get(metric, "count")


def span_metrics(spans: Sequence[Sequence[Any]], pass_id: int) -> Dict[str, float]:
    """Time (self seconds) and call-count metrics of one traced pass.

    Layers the pass never crossed report 0 — the prediction "this
    workload does not touch that layer" is itself checkable.
    """
    totals = summarise(spans, pass_id)
    metrics: Dict[str, float] = {
        f"{name}_s": totals.get(name, (0.0, 0))[0] for name in SPAN_NAMES
    }
    for metric, name in COUNT_METRICS.items():
        metrics[metric] = totals.get(name, (0.0, 0))[1]
    return metrics


def counter_metrics(legs: Iterable[Any]) -> Dict[str, float]:
    """Counters the program keeps itself, summed over a pass's trainers.

    ``legs`` are the pass's :class:`workloads.Leg` records (one per
    trainer run); maxima combine by ``max``, everything else adds up.
    """
    totals = {
        "comm.bytes_total": 0,
        "comm.retries": 0,
        "comm.dropped_messages": 0,
        "comm.bypasses": 0,
        "comm.resyncs": 0,
        "comm.failed_syncs": 0,
        "comm.wire_cast_error_max": 0.0,
        "sim.events": 0,
        "sim.arrivals": 0,
        "sim.max_staleness": 0.0,
        "sim.pool_created": 0,
        "sim.pool_recycled": 0,
        "sim.pool_max_resident": 0,
    }
    for leg in legs:
        robustness = leg.result.robustness_summary()
        totals["comm.bytes_total"] += leg.accounted_bytes
        for key in ("retries", "dropped_messages", "bypasses", "resyncs"):
            totals[f"comm.{key}"] += robustness[key]
        totals["comm.failed_syncs"] += robustness["failed_syncs"]
        totals["comm.wire_cast_error_max"] = max(
            totals["comm.wire_cast_error_max"],
            max(
                (
                    float(r.detail.get("wire_cast_error", 0.0))
                    for r in leg.result.rounds
                ),
                default=0.0,
            ),
        )
        totals["sim.events"] += leg.events
        totals["sim.arrivals"] += robustness["arrivals"]
        totals["sim.max_staleness"] = max(
            totals["sim.max_staleness"], robustness["max_staleness"]
        )
        pool = leg.result.config.get("pool", {})
        totals["sim.pool_created"] += pool.get("created", 0)
        totals["sim.pool_recycled"] += pool.get("recycled", 0)
        totals["sim.pool_max_resident"] = max(
            totals["sim.pool_max_resident"], pool.get("max_resident", 0)
        )
    return totals
