"""Population benchmark: memory stays O(participants), not O(population).

Sweeps the virtual-population size at a fixed participant count and
records, per population:

* **peak RSS** — measured in a fresh subprocess per point (``ru_maxrss``
  is process-monotone, so sharing one process would hide growth);
* **round throughput** — rounds/s and per-local-step wall seconds;
* **pool telemetry** — arena blocks ever built, high-water mark,
  recycle count.

Acceptance floors (full mode only; ``--quick`` keeps the invariant
assertions but not the machine-speed floors):

* ``pool.max_resident <= participants`` at **every** population — the
  bounded-memory contract (asserted in every mode, inside the child);
* peak RSS grows by at most ``RSS_GROWTH_FLOOR_MB`` from the smallest
  to the largest population — the only O(population) state is vector
  bookkeeping (the int64 version array, availability hashing), never
  model replicas;
* population per-step time within ``THROUGHPUT_FLOOR``x of a dense
  8-device HADFL run — lazy materialisation + pooling must not tax the
  training hot path.

``--attribute`` adds one more child at the largest population, run under
``tracemalloc`` (so untimed): at the end of every round it measures the
traced size and keeps the snapshot of the largest, and the artefact gets
that snapshot's top allocation sites (file:line, MiB, blocks) with the
traced peak beside it — the peak also counts the transients inside a
round, so the gap between the two is what no round boundary holds.

Writes the repo-root trajectory artefact ``BENCH_population.json``.

Usage::

    PYTHONPATH=src python benchmarks/bench_population.py [--quick] [--attribute]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
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

POPULATIONS = (10_000, 100_000, 1_000_000)
POPULATIONS_QUICK = (1_000, 10_000)
PARTICIPANTS = 100
PARTICIPANTS_QUICK = 16
ROUNDS = 3
RSS_GROWTH_FLOOR_MB = 400.0  # vector state for 10^6 devices, with slack
THROUGHPUT_FLOOR = 2.0  # per-step time vs the dense 8-device run
ATTRIBUTION_SITES = 12  # top tracemalloc sites kept in the artefact


def _peak_rss_mb() -> float:
    """Peak resident set of this process, in MiB.

    Prefers ``VmHWM`` from ``/proc/self/status``: it belongs to the
    current address space and is reset at exec, whereas ``ru_maxrss``
    can inherit the forking parent's high-water mark (a child spawned
    by ``run_bench.py`` after the other benches would report the
    parent's peak, not its own).
    """
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return float(line.split()[1]) / 1024.0  # KiB -> MiB
    except OSError:
        pass
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # bytes on macOS
        return peak / (1024.0 * 1024.0)
    return peak / 1024.0


# --------------------------------------------------------------------- #
# Child workloads — run in a fresh interpreter per measurement point so
# ru_maxrss reflects this point alone.
# --------------------------------------------------------------------- #
def _population_config(spec: dict):
    from repro.experiments.population import PopulationConfig

    return PopulationConfig(
        population=spec["population"],
        participants=spec["participants"],
        rounds=spec["rounds"],
        round_window=0.5,
        shard_size=48,
        num_train=512,
        num_test=64,
        batch_size=16,
        availability="diurnal",
        seed=3,
    )


def _child_population(spec: dict) -> dict:
    from repro.experiments.population import run_population

    config = _population_config(spec)
    build_start = time.perf_counter()
    result = run_population(config)
    elapsed = time.perf_counter() - build_start
    pool = result.config["pool"]
    # The bounded-memory contract, enforced at every scale and mode.
    assert pool["max_resident"] <= config.participants, (
        f"{pool['max_resident']} resident arenas for "
        f"{config.participants} participants"
    )
    # Conservation: every byte the accountant saw belongs to a round.
    per_round = sum(r.comm_bytes for r in result.rounds)
    assert per_round == result.config["accounting"]["total_bytes"]
    steps = round(
        result.rounds[-1].global_epoch * config.num_train / config.batch_size
    )
    return {
        "population": config.population,
        "participants": config.participants,
        "rounds": config.rounds,
        "seconds": round(elapsed, 4),
        "rounds_per_s": round(config.rounds / elapsed, 4),
        "local_steps": steps,
        "s_per_step": round(elapsed / max(1, steps), 6),
        "pool": pool,
        "peak_rss_mb": round(_peak_rss_mb(), 2),
    }


def _site(frame) -> str:
    """``file:line``, relative to the package root it lives under (the
    bare file name for the standard library)."""
    path = Path(frame.filename).as_posix()
    for root in ("/site-packages/", "/src/"):
        if root in path:
            return f"{path.split(root, 1)[1]}:{frame.lineno}"
    return f"{Path(path).name}:{frame.lineno}"


def _child_attribute(spec: dict) -> dict:
    """The largest point once more under ``tracemalloc``: top allocation
    sites of the round boundary that holds the most traced memory."""
    import tracemalloc

    from repro.experiments.population import run_population
    from repro.sim.population import PopulationTrainer

    largest = {"traced": -1, "snapshot": None, "round": None}
    run_round = PopulationTrainer._run_round

    def measured(self, round_index, evaluate):
        record = run_round(self, round_index, evaluate)
        traced, _ = tracemalloc.get_traced_memory()
        if traced > largest["traced"]:
            largest.update(
                traced=traced, snapshot=tracemalloc.take_snapshot(), round=round_index
            )
        return record

    PopulationTrainer._run_round = measured
    tracemalloc.start()
    run_population(_population_config(spec))
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    stats = largest["snapshot"].statistics("lineno")
    return {
        "population": spec["population"],
        "round": largest["round"],
        "traced_mb": round(largest["traced"] / 2**20, 2),
        "traced_peak_mb": round(peak / 2**20, 2),
        "top_sites": [
            {
                "site": _site(stat.traceback[0]),
                "mb": round(stat.size / 2**20, 2),
                "blocks": stat.count,
            }
            for stat in stats[:ATTRIBUTION_SITES]
        ],
    }


def _child_dense(spec: dict) -> dict:
    from repro.core import HADFLTrainer
    from repro.experiments import ExperimentConfig

    config = ExperimentConfig(
        model="mlp",
        power_ratio=(3, 3, 1, 1, 3, 3, 1, 1),
        num_train=512,
        num_test=64,
        image_size=8,
        batch_size=16,
        seed=3,
    )
    start = time.perf_counter()
    trainer = HADFLTrainer(config.make_cluster(), params=config.hadfl_params())
    result = trainer.run(target_epochs=spec["epochs"])
    elapsed = time.perf_counter() - start
    steps = round(
        result.rounds[-1].global_epoch * config.num_train / config.batch_size
    )
    return {
        "devices": config.num_devices,
        "rounds": len(result.rounds),
        "seconds": round(elapsed, 4),
        "local_steps": steps,
        "s_per_step": round(elapsed / max(1, steps), 6),
        "peak_rss_mb": round(_peak_rss_mb(), 2),
    }


def _run_child(kind: str, spec: dict) -> dict:
    """One measurement point in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, __file__, "--child", kind, json.dumps(spec)],
        capture_output=True,
        text=True,
        env=env,
        check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"child {kind} {spec} failed:\n{proc.stdout}\n{proc.stderr}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


# --------------------------------------------------------------------- #
def run(
    populations=POPULATIONS,
    participants: int = PARTICIPANTS,
    rounds: int = ROUNDS,
    enforce_floor: bool = True,
    attribute: bool = False,
) -> dict:
    sweep = []
    for population in populations:
        row = _run_child(
            "pop",
            {
                "population": population,
                "participants": participants,
                "rounds": rounds,
            },
        )
        print(
            f"population {population:>9,}: {row['rounds_per_s']:.3f} rounds/s, "
            f"peak RSS {row['peak_rss_mb']:.1f} MiB, "
            f"pool max_resident {row['pool']['max_resident']}"
        )
        sweep.append(row)
    dense = _run_child("dense", {"epochs": 3.0})
    print(
        f"dense 8-device: {dense['s_per_step'] * 1e3:.3f} ms/step, "
        f"peak RSS {dense['peak_rss_mb']:.1f} MiB"
    )
    step_ratio = sweep[-1]["s_per_step"] / dense["s_per_step"]
    rss_growth = sweep[-1]["peak_rss_mb"] - sweep[0]["peak_rss_mb"]
    results = {
        "participants": participants,
        "rounds": rounds,
        "rss_growth_floor_mb": RSS_GROWTH_FLOOR_MB,
        "throughput_floor": THROUGHPUT_FLOOR,
        "sweep": sweep,
        "dense_baseline": dense,
        "step_time_vs_dense": round(step_ratio, 4),
        "rss_growth_mb": round(rss_growth, 2),
    }
    if attribute:
        attribution = _run_child(
            "attribute",
            {
                "population": populations[-1],
                "participants": participants,
                "rounds": rounds,
            },
        )
        print(
            f"attribution at {populations[-1]:,}: "
            f"{attribution['traced_mb']:.1f} MiB traced after round "
            f"{attribution['round']} (peak {attribution['traced_peak_mb']:.1f})"
        )
        for row in attribution["top_sites"]:
            print(f"  {row['mb']:8.2f} MiB  {row['blocks']:>8}  {row['site']}")
        results["attribution"] = attribution
    if enforce_floor:
        assert rss_growth <= RSS_GROWTH_FLOOR_MB, (
            f"peak RSS grew {rss_growth:.1f} MiB from population "
            f"{sweep[0]['population']:,} to {sweep[-1]['population']:,} "
            f"(floor {RSS_GROWTH_FLOOR_MB} MiB) — arenas are leaking "
            "population-proportional state"
        )
        assert step_ratio <= THROUGHPUT_FLOOR, (
            f"population per-step time is {step_ratio:.2f}x the dense run "
            f"(floor {THROUGHPUT_FLOOR}x)"
        )
    return results


def main(quick: bool = False, attribute: bool = False) -> dict:
    if quick or os.environ.get("REPRO_BENCH_QUICK"):
        # Tiny sizes for CI smoke: the bounded-pool and accounting
        # assertions still run (inside every child); the RSS/throughput
        # floors need the full sweep and are skipped.
        results = run(
            populations=POPULATIONS_QUICK,
            participants=PARTICIPANTS_QUICK,
            rounds=2,
            enforce_floor=False,
            attribute=attribute,
        )
    else:
        results = run(attribute=attribute)
    payload = {
        "bench": "population",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "results": results,
    }
    out = REPO_ROOT / "BENCH_population.json"
    out.write_text(json.dumps(payload, indent=2))
    print(f"wrote {out}")
    return payload


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true", help="tiny sizes for CI smoke runs"
    )
    parser.add_argument(
        "--attribute",
        action="store_true",
        help="add the tracemalloc top sites at the largest population",
    )
    parser.add_argument(
        "--child",
        nargs=2,
        metavar=("KIND", "SPEC"),
        help=argparse.SUPPRESS,  # internal: one measurement point
    )
    args = parser.parse_args()
    if args.child:
        kind, raw = args.child
        spec = json.loads(raw)
        worker = {
            "pop": _child_population,
            "attribute": _child_attribute,
            "dense": _child_dense,
        }[kind]
        print(json.dumps(worker(spec)))
    else:
        main(quick=args.quick, attribute=args.attribute)
