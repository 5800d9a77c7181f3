"""Fleet benchmark: batched training bursts against the per-device loop.

Per fleet size D ∈ {4, 8, 32}, on architecture-identical MLP replicas:
rounds of fixed-step local-training bursts through the default
in-process executor (which batches every run of MLP replicas) vs the
per-device reference loop (``tests/reference_executor.py``: each burst
alone, the loop the executor contract is defined against), with the
bitwise parity contract spot-checked on the final parameters.  A
crossover row repeats the comparison where batching gains least — wide
inputs (in = 3072), B = 64, D = 8, 30-step bursts — and reads the
batched path's wall over the per-device loop's.  Explains the
``nn.forward`` / ``sim.executor`` layers of the e2e workloads that train
MLPs (``table1_mlp``, ``population_1m``, ``chaos_topk_ring``).

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

# The per-device reference loop lives with the parity tests.
sys.path.insert(0, str(REPO_ROOT / "tests"))

import numpy as np  # noqa: E402
from reference_executor import ReferenceExecutor  # noqa: E402

from repro.experiments import ExperimentConfig  # noqa: E402
from repro.sim.device import LocalTrainTask  # noqa: E402

FLEET_SIZES = (4, 8, 32)
# Where batching gains least: 3 x 32 x 32 = 3072 input features.
CROSSOVER = {"fleet_size": 8, "image_size": 32, "batch_size": 64, "steps": 30}


def _make_cluster(
    executor, fleet_size: int, image_size: int = 8, batch_size: int = 32
):
    config = ExperimentConfig(
        model="mlp",
        num_train=max(512, 2 * batch_size * fleet_size),
        num_test=16,
        image_size=image_size,
        batch_size=batch_size,
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
            device_id=device.device_id, start_time=start_time, max_steps=steps
        )
        for device in cluster.devices
    ]


def _bench_training(
    fleet_size: int,
    rounds: int,
    steps: int,
    repeats: int,
    image_size: int = 8,
    batch_size: int = 32,
) -> dict:
    legs = {"per_device": ReferenceExecutor(), "batched": "serial"}
    clusters = {
        name: _make_cluster(executor, fleet_size, image_size, batch_size)
        for name, executor in legs.items()
    }
    for cluster in clusters.values():
        cluster.run_local_tasks(_round_tasks(cluster, 1, -1.0))  # warm-up
    timings = {name: float("inf") for name in legs}
    # Interleave legs inside each repeat so load drift cannot bias one
    # leg's block.
    for repeat in range(repeats):
        for name in legs:
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
    for ref_dev, dev in zip(
        clusters["per_device"].devices, clusters["batched"].devices
    ):
        np.testing.assert_array_equal(ref_dev.get_params(), dev.get_params())
    return {
        "fleet_size": fleet_size,
        "in_features": 3 * image_size**2,
        "batch_size": batch_size,
        "rounds": rounds,
        "steps_per_burst": steps,
        "seconds": {k: round(v, 6) for k, v in timings.items()},
        "speedup_vs_per_device": round(
            timings["per_device"] / timings["batched"], 4
        ),
        "parity": "bitwise",
    }


# --------------------------------------------------------------------- #
def run(
    rounds: int = 4, steps: int = 12, repeats: int = 5, crossover_steps: int = 30
) -> dict:
    crossover = _bench_training(
        CROSSOVER["fleet_size"],
        2,
        crossover_steps,
        repeats,
        CROSSOVER["image_size"],
        CROSSOVER["batch_size"],
    )
    crossover["batched_over_per_device"] = round(
        crossover["seconds"]["batched"] / crossover["seconds"]["per_device"], 4
    )
    return {
        "cpu_count": os.cpu_count(),
        "training_bursts": [
            _bench_training(d, rounds, steps, repeats) for d in FLEET_SIZES
        ],
        "crossover": crossover,
    }


def main(quick: bool = False) -> dict:
    if quick or os.environ.get("REPRO_BENCH_QUICK"):
        # Tiny sizes for CI smoke: numbers are noise, only the bitwise
        # parity assertions are meaningful.
        results = run(rounds=1, steps=4, repeats=1, crossover_steps=2)
    else:
        results = run(crossover_steps=CROSSOVER["steps"])
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
