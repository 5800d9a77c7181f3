"""Discrete-event simulation of a heterogeneous device cluster.

This subpackage replaces the paper's physical testbed (four V100 GPUs with
``sleep()``-emulated heterogeneity) with a virtual-clock simulation:

* :class:`~repro.sim.engine.Simulator` — event-queue core with
  cancellable timers (used by the fault-tolerant sync protocol).
* :class:`~repro.sim.device.DeviceSpec` / :class:`~repro.sim.device.Device`
  — a training node with relative computing power, timing jitter, a local
  model/optimizer/shard, and a parameter-version counter.
* :class:`~repro.sim.network.NetworkModel` — latency/bandwidth cost model
  for point-to-point, broadcast, ring all-reduce and gossip transfers.
* :class:`~repro.sim.failures.FailureInjector` — scheduled or random
  crash windows and slowdown (straggler) windows (Sec. III-D's
  unreliable devices).
* :class:`~repro.sim.linkfaults.LinkFaultModel` /
  :class:`~repro.sim.linkfaults.ReliableDelivery` — lossy links with
  drop probability, latency jitter and flap windows, plus the
  retry/backoff envelope that crosses them.
* :class:`~repro.sim.trace.TraceRecorder` — structured event log.
"""

from repro.sim.engine import EventHandle, Simulator
from repro.sim.device import Device, DeviceSpec
from repro.sim.network import HeterogeneousNetworkModel, NetworkModel
from repro.sim.failures import (
    FailureInjector,
    FailureWindow,
    SlowdownDrift,
    SlowdownWindow,
)
from repro.sim.linkfaults import (
    DEFAULT_RETRY_POLICY,
    DeliveryOutcome,
    LinkFaultModel,
    LinkFlapWindow,
    ReliableDelivery,
    RetryPolicy,
)
from repro.sim.trace import TraceRecorder
from repro.sim.executor import (
    FleetExecutor,
    LocalExecutor,
    ProcessExecutor,
    SerialExecutor,
    make_executor,
)
from repro.sim.cluster import SimulatedCluster

__all__ = [
    "Simulator",
    "EventHandle",
    "Device",
    "DeviceSpec",
    "NetworkModel",
    "HeterogeneousNetworkModel",
    "FailureInjector",
    "FailureWindow",
    "SlowdownDrift",
    "SlowdownWindow",
    "LinkFaultModel",
    "LinkFlapWindow",
    "ReliableDelivery",
    "RetryPolicy",
    "DeliveryOutcome",
    "DEFAULT_RETRY_POLICY",
    "TraceRecorder",
    "SimulatedCluster",
    "LocalExecutor",
    "SerialExecutor",
    "ProcessExecutor",
    "FleetExecutor",
    "make_executor",
]
