"""Fleet benchmark: batched training bursts.

Per fleet size D ∈ {4, 8, 32}, on architecture-identical MLP replicas:
rounds of fixed-step local-training bursts through ``executor="serial"``
vs ``executor="fleet"`` (the replica-batched kernels), with the bitwise
parity contract spot-checked on the final parameters.  Explains the
``nn.forward`` / ``sim.executor`` layers of the e2e ``population_1m``
workload, the one that trains through the fleet executor.

Writes the repo-root trajectory artefact ``BENCH_fleet.json``.

Usage::

    PYTHONPATH=src python benchmarks/bench_fleet.py [--quick]
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

FLEET_SIZES = (4, 8, 32)


def _make_cluster(executor: str, fleet_size: int):
    config = ExperimentConfig(
        model="mlp",
        num_train=512,
        num_test=16,
        image_size=8,
        batch_size=32,
        power_ratio=tuple([1.0] * fleet_size),
        momentum=0.9,
        seed=1,
        executor=executor,
    )
    return config.make_cluster()


def _best_of(fn, repeats: int) -> float:
    """Best wall-seconds over ``repeats`` runs (noise only inflates)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _round_tasks(cluster, steps: int, start_time: float):
    return [
        LocalTrainTask(
            device_id=device.device_id, num_steps=steps, start_time=start_time
        )
        for device in cluster.devices
    ]


def _bench_training(fleet_size: int, rounds: int, steps: int, repeats: int) -> dict:
    backends = ("serial", "fleet")
    clusters = {name: _make_cluster(name, fleet_size) for name in backends}
    for cluster in clusters.values():
        cluster.run_local_tasks(_round_tasks(cluster, 1, -1.0))  # warm-up
    timings = {name: float("inf") for name in backends}
    # Interleave backends inside each repeat so load drift cannot bias
    # one backend's block (the bench_parallel policy).
    for repeat in range(repeats):
        for name in backends:
            cluster = clusters[name]
            elapsed = _best_of(
                lambda c=cluster, r=repeat: [
                    c.run_local_tasks(
                        _round_tasks(c, steps, float(r * rounds + i))
                    )
                    for i in range(rounds)
                ],
                1,
            )
            timings[name] = min(timings[name], elapsed)
    # Parity: identical seeds and bursts leave identical replicas (the
    # full contract lives in tests/test_fleet.py).
    for serial_dev, fleet_dev in zip(
        clusters["serial"].devices, clusters["fleet"].devices
    ):
        np.testing.assert_array_equal(
            serial_dev.get_params(), fleet_dev.get_params()
        )
    for cluster in clusters.values():
        cluster.close()
    return {
        "fleet_size": fleet_size,
        "rounds": rounds,
        "steps_per_burst": steps,
        "seconds": {k: round(v, 6) for k, v in timings.items()},
        "speedup_vs_serial": round(timings["serial"] / timings["fleet"], 4),
        "parity": "bitwise",
    }


# --------------------------------------------------------------------- #
def run(rounds: int = 4, steps: int = 12, repeats: int = 5) -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "training_bursts": [
            _bench_training(d, rounds, steps, repeats) for d in FLEET_SIZES
        ],
    }


def main(quick: bool = False) -> dict:
    if quick or os.environ.get("REPRO_BENCH_QUICK"):
        # Tiny sizes for CI smoke: numbers are noise, only the bitwise
        # parity assertions are meaningful.
        results = run(rounds=1, steps=4, repeats=1)
    else:
        results = run()
    import platform

    payload = {
        "bench": "fleet",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "results": results,
    }
    artefact = REPO_ROOT / "BENCH_fleet.json"
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
