"""Parallel-executor benchmark: serial vs forked-pool rounds.

Measures the wall-clock throughput of one "round" of local training — a
batch of per-device bursts, the embarrassingly parallel phase of every
scheme — on a >= 8-device heterogeneous cluster, through each execution
backend, and verifies the bitwise-parity contract on the side.

Writes the repo-root trajectory artefact ``BENCH_parallel.json``.

The process pool's speedup is bounded by the machine: on an N-core box
the expected gain approaches ``min(N, devices)`` for compute-dominated
bursts; on a single-core container it records ~1x (the state-shipping
overhead is the measured quantity then).  It also needs single-threaded
BLAS in the workers: with the thread pins unset, forked workers x BLAS
threads oversubscribe the cores and the same bench reads 0.34-0.44x on
two cores.  The artefact stores ``cpu_count`` and the pins it ran under
so trajectory diffs across machines stay interpretable.

Usage::

    PYTHONPATH=src python benchmarks/bench_parallel.py [--quick]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

if __name__ == "__main__":  # standalone run: one BLAS thread, set before NumPy loads
    for _pin in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_pin, "1")

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from repro.experiments import ExperimentConfig  # noqa: E402
from repro.parallel import LocalTrainTask  # noqa: E402
from repro.sim.executor import BLAS_PIN_VARS  # noqa: E402

POWER_RATIO = (4, 3, 3, 2, 2, 1, 1, 1)  # 8 devices, heterogeneous


def _make_cluster(executor: str):
    config = ExperimentConfig(
        model="mlp",
        num_train=4096,
        num_test=256,
        image_size=16,
        batch_size=64,
        power_ratio=POWER_RATIO,
        momentum=0.9,
        seed=1,
        executor=executor,
    )
    return config.make_cluster()


def _round_tasks(cluster, steps: int, start_time: float):
    return [
        LocalTrainTask(
            device_id=device.device_id, num_steps=steps, start_time=start_time
        )
        for device in cluster.devices
    ]


def _time_pass(cluster, rounds: int, steps: int, offset: int) -> float:
    """Wall seconds for one pass of ``rounds`` burst batches."""
    start = time.perf_counter()
    for index in range(rounds):
        cluster.run_local_tasks(
            _round_tasks(cluster, steps, float(offset * rounds + index))
        )
    return time.perf_counter() - start


def run(
    rounds: int = 5, steps: int = 30, repeats: int = 3, enforce_floor: bool = True
) -> dict:
    backends = ("serial", "process")
    clusters = {}
    timings = {backend: float("inf") for backend in backends}
    for backend in backends:
        cluster = _make_cluster(backend)
        clusters[backend] = cluster
        # One untimed warm-up batch: first-touch costs (worker fork,
        # scratch allocation) are not throughput.
        cluster.run_local_tasks(_round_tasks(cluster, 1, -1.0))
    # Best-of-``repeats`` (the bench_hotpath policy: noise only inflates
    # a timing), with backends interleaved inside each repeat so slow
    # drift in background load cannot bias one backend's block.
    for repeat in range(repeats):
        for backend in backends:
            elapsed = _time_pass(clusters[backend], rounds, steps, repeat)
            timings[backend] = min(timings[backend], elapsed)

    # Parity spot-check: identical seeds and bursts must leave identical
    # replicas regardless of backend (the full contract lives in
    # tests/test_executor.py).
    reference = clusters["serial"]
    for ref_device, device in zip(
        reference.devices, clusters["process"].devices
    ):
        np.testing.assert_array_equal(
            ref_device.get_params(), device.get_params(), err_msg="process"
        )
    for cluster in clusters.values():
        cluster.close()

    serial = timings["serial"]
    results = {
        "devices": len(POWER_RATIO),
        "rounds": rounds,
        "steps_per_burst": steps,
        "best_of": repeats,
        "cpu_count": os.cpu_count(),
        "blas_pins": {pin: os.environ.get(pin) for pin in BLAS_PIN_VARS},
        "seconds": {k: round(v, 6) for k, v in timings.items()},
        "rounds_per_second": {
            k: round(rounds / v, 4) for k, v in timings.items()
        },
        "speedup_vs_serial": {
            k: round(serial / v, 4) for k, v in timings.items()
        },
        "parity": "bitwise",
    }

    # The >= 1.3x pool-throughput floor (ROADMAP item 10's keep-or-delete
    # rule) is a property of the backend on parallel hardware with
    # single-threaded BLAS; a single-core machine cannot express it, and
    # quick-mode bursts are too small to be compute-dominated (the floor
    # would become a machine-speed gate, which CI must not have).  Only
    # the full bench on a multicore box enforces it.
    available = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (
        os.cpu_count() or 1
    )
    results["cores_available"] = available
    if available < 2:
        results["note"] = (
            "single core available: process-pool speedup is bounded at "
            "~1x here; the recorded figure measures state-shipping "
            "overhead, not parallel capacity"
        )
    elif enforce_floor:
        assert results["speedup_vs_serial"]["process"] >= 1.3, (
            "process pool below the 1.3x floor on multicore hardware: "
            f"{results['speedup_vs_serial']} under {results['blas_pins']}"
        )
    return results


def main(quick: bool = False) -> dict:
    if quick or os.environ.get("REPRO_BENCH_QUICK"):
        results = run(rounds=2, steps=8, repeats=1, enforce_floor=False)
    else:
        results = run()
    import platform

    payload = {
        "bench": "parallel",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "results": results,
    }
    artefact = REPO_ROOT / "BENCH_parallel.json"
    artefact.write_text(json.dumps(payload, indent=2))
    print(json.dumps(results, indent=2))
    print(f"wrote {artefact}")
    return results


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true", help="tiny sizes for CI smoke runs"
    )
    main(quick=parser.parse_args().quick)
