"""Perf-trajectory entry point: run the perf benches, record JSON.

Usage (from the repo root)::

    PYTHONPATH=src python benchmarks/run_bench.py [--quick]

Runs :mod:`bench_hotpath`, :mod:`bench_wire`, :mod:`bench_fleet`,
:mod:`bench_population` and :mod:`bench_async`; each writes its one
artefact at the repo root — ``BENCH_hotpath.json`` / ``BENCH_wire.json``
/ ``BENCH_fleet.json`` / ``BENCH_population.json`` / ``BENCH_async.json``:
the measurements plus run metadata, the files future PRs diff to track
the perf trajectory.

BLAS is pinned to one thread before NumPy loads, as
``benchmarks/e2e/run.py`` does: every number is taken under the
configuration the e2e harness measures under.

``--quick`` shrinks repeat counts for CI smoke runs (numbers are then
noisy; only the bitwise-equality checks are meaningful).
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

for _pin in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_pin, "1")

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
for path in (str(SRC), str(REPO_ROOT / "benchmarks")):
    if path not in sys.path:
        sys.path.insert(0, path)

import bench_async  # noqa: E402
import bench_fleet  # noqa: E402
import bench_hotpath  # noqa: E402
import bench_population  # noqa: E402
import bench_wire  # noqa: E402


def main(quick: bool = False) -> dict:
    if quick:
        os.environ.setdefault("REPRO_BENCH_HOTPATH_REPEATS", "2")
    hotpath = bench_hotpath.main()
    wire = bench_wire.main(quick=quick)
    fleet = bench_fleet.main(quick=quick)
    population = bench_population.main(quick=quick)
    async_modes = bench_async.main(quick=quick)
    # Each bench persists its own artefact; the merged dict is only the
    # in-process return value.
    return {
        "hotpath": hotpath,
        "wire": wire,
        "fleet": fleet,
        "population": population,
        "async": async_modes,
    }


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true", help="tiny sizes for CI smoke runs"
    )
    main(quick=parser.parse_args().quick)
