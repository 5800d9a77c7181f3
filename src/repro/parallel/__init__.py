"""The process backend of :class:`~repro.sim.executor.ProcessExecutor`.

The simulator's local-training phase is embarrassingly parallel: within a
round every device trains on its own replica until the synchronisation
barrier, with zero cross-device data flow.
:mod:`repro.parallel.process_pool` exploits that with a fork-based
persistent worker pool that round-trips each device's state through
shared memory: the arena, its grad vector and the optimizer's flat
vectors packed into one contiguous fp64 slot per device.  The in-process
executor never imports this package.

Running a batch of bursts through the pool leaves the live devices in
exactly the state serial execution would (the repo-wide bitwise
contract).
"""

from repro.parallel.process_pool import (
    ForkedDevicePool,
    device_state_scalars,
    export_state_into,
    fork_available,
    import_state_from,
)

__all__ = [
    "ForkedDevicePool",
    "device_state_scalars",
    "export_state_into",
    "fork_available",
    "import_state_from",
]
