"""Append the e2e benchmark's end-to-end numbers to a committed history.

    python3 benchmarks/record.py [--history FILE] [--smoke]

Runs ``benchmarks/e2e/run.py`` three times for each of seeds 1 and 2
(one child process per workload each) and appends one JSON line per
seed x workload x end-to-end metric of ``BENCHMARK.json`` to
``--history``:
``{commit, seed, workload, metric, median, q1, q3, host_slowdown, digest}``.
``median``/``q1``/``q3`` are medians over the runs of each run's median
and quartiles, so ``setup_s`` is the median of three process medians.
``host_slowdown`` is the workload's median host-speed reading
(``e2e/README.md``), ``digest`` the sha256 of its member trajectory
digests, which must repeat in every run.  Failed checks record nothing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any, Dict, List, Sequence

REPO = Path(__file__).resolve().parents[1]
RUN = REPO / "benchmarks" / "e2e" / "run.py"
SEEDS = (1, 2)
RUNS = 3  # run.py processes per seed


def ensemble_digest(digests: Dict[str, str]) -> str:
    lines = "".join(f"{member}:{digests[member]}\n" for member in sorted(digests, key=int))
    return hashlib.sha256(lines.encode()).hexdigest()


def run_once(seed: int, smoke: bool, out: Path) -> Dict[str, Any]:
    command = [sys.executable, str(RUN), "--seed", str(seed), "--out", str(out)]
    status = subprocess.run(command + (["--smoke"] if smoke else []), check=False)
    if status.returncode != 0:
        raise SystemExit(f"run.py --seed {seed} failed (exit {status.returncode})")
    return json.loads(out.read_text())


def rows(documents: Sequence[Dict[str, Any]], metrics: Sequence[str]) -> List[Dict[str, Any]]:
    """One row per workload x metric over the runs of one seed."""
    first = documents[0]
    found = []
    for workload in first["workloads"]:
        entries = [doc["workloads"][workload]["timed"] for doc in documents]
        digests = {ensemble_digest(entry["digests"]) for entry in entries}
        if len(digests) != 1:
            raise SystemExit(f"{workload}: member digests differ between runs")
        (digest,) = digests
        slowdown = statistics.median(r for e in entries for r in e["host_slowdown"])
        for metric in metrics:
            values = [entry["metrics"][metric] for entry in entries]
            found.append({
                "commit": first["commit"],
                "seed": first["seed"],
                "workload": workload,
                "metric": metric,
                "median": statistics.median(v["value"] for v in values),
                "q1": statistics.median(v["q1"] for v in values),
                "q3": statistics.median(v["q3"] for v in values),
                "host_slowdown": slowdown,
                "digest": digest,
            })
    return found


def main(argv: Sequence[str] = ()) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--history", type=Path, default=REPO / "benchmarks" / "history.jsonl")
    parser.add_argument("--smoke", action="store_true", help="run.py --smoke (tiny sizes)")
    args = parser.parse_args(argv)
    manifest = json.loads((REPO / "BENCHMARK.json").read_text())
    metrics = [m["name"] for m in manifest["end_to_end"]]
    recorded: List[Dict[str, Any]] = []
    with tempfile.TemporaryDirectory() as scratch:
        for seed in SEEDS:
            documents = [
                run_once(seed, args.smoke, Path(scratch) / f"seed{seed}-run{i}.json")
                for i in range(RUNS)
            ]
            recorded += rows(documents, metrics)
    args.history.parent.mkdir(parents=True, exist_ok=True)
    with args.history.open("a") as history:
        history.writelines(json.dumps(row, sort_keys=True) + "\n" for row in recorded)
    print(f"appended {len(recorded)} rows to {args.history}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
