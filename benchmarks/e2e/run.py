"""The repo's benchmark: one command, every metric by name, outputs checked.

    python3 benchmarks/e2e/run.py [--seed S] [--seconds N] [--trace]
    python3 benchmarks/e2e/run.py --workload NAME --seed S --seconds N --trace 0|1

Without ``--workload`` every workload runs in its own child process
(timed, then traced with ``--trace``) and one result file is written to
``benchmarks/e2e/results/``; ``--smoke`` runs them all in this process
at tiny sizes.  With ``--workload`` this process *is* the
load generator: it pins the BLAS pools to one thread before NumPy is
imported, runs the one workload, prints its metrics and ends with one
JSON line ``{"correct", "attempted", "failed", "metrics"}`` — the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  The exit code is non-zero when a check failed.

``README.md`` next to this file defines every metric and workload.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, Optional, Sequence

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
RESULTS = HERE / "results"
THREAD_PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def commit_id() -> str:
    """Short commit of the checkout, read from ``.git`` without spawning
    git; ``nocommit`` when the checkout is not a repository."""
    git = REPO / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            ref_file = git / ref
            if ref_file.exists():
                head = ref_file.read_text().strip()
            else:
                packed = (git / "packed-refs").read_text().splitlines()
                head = next(l.split()[0] for l in packed if l.endswith(" " + ref))
        return head[:10]
    except (OSError, StopIteration):
        return "nocommit"


def default_out() -> Path:
    stamp = time.strftime("%Y%m%dT%H%M%S")
    return RESULTS / f"{stamp}-{commit_id()}.json"


def write_result(out: Path, args: argparse.Namespace, workloads: Dict[str, Any]) -> None:
    out.parent.mkdir(parents=True, exist_ok=True)
    document = {
        "schema": 1,
        "commit": commit_id(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "environment": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "system": platform.system(),
            "cpus": os.cpu_count(),
        },
        "workloads": workloads,
    }
    out.write_text(json.dumps(document, indent=1) + "\n")


def print_entry(entry: Dict[str, Any]) -> None:
    print(
        f"== {entry['workload']}  seed {entry['seed']}  {entry['mode']}  "
        f"{entry['passes']} passes  ops {entry['ops_attempted']} "
        f"attempted / {entry['ops_failed']} failed"
    )
    for name, m in entry["metrics"].items():
        spread = (
            f"  [q1 {m['q1']:.6g}  q3 {m['q3']:.6g}  n {m['n']}]"
            if m["n"] > 1
            else ""
        )
        print(f"  {name:<34} {m['value']:>14.6g} {m['unit']:<8}{spread}")
    for member, digest in entry["digests"].items():
        print(f"  digest[member {member}] {digest}")
    for problem in entry["problems"]:
        print(f"  CHECK FAILED: {problem}")


def contract_line(entry: Dict[str, Any]) -> str:
    """The driver's last line; a non-finite value is reported as null."""
    return json.dumps(
        {
            "correct": entry["correct"],
            "attempted": entry["ops_attempted"],
            "failed": entry["ops_failed"],
            "metrics": {
                name: {
                    "value": m["value"] if math.isfinite(m["value"]) else None,
                    "unit": m["unit"],
                }
                for name, m in entry["metrics"].items()
            },
        }
    )


def run_here(args: argparse.Namespace) -> int:
    """This process is the load generator for ``args.names``."""
    for pin in THREAD_PINS:
        os.environ[pin] = "1"
    sys.path.insert(0, str(REPO / "src"))
    started = time.perf_counter()
    import workloads

    import_s = time.perf_counter() - started
    out = args.out or default_out()
    merged: Dict[str, Any] = {}
    entry: Dict[str, Any] = {}
    for name in args.names:
        workload = workloads.BY_NAME[name]
        for traced in args.modes:
            if traced:
                entry, tracer = workloads.trace(
                    workload, args.seed, args.seconds, args.smoke
                )
                trace_file = out.with_name(f"{out.stem}.{name}.trace.json")
                trace_file.parent.mkdir(parents=True, exist_ok=True)
                trace_file.write_text(json.dumps(tracer.document()) + "\n")
            else:
                entry = workloads.measure(
                    workload, args.seed, args.seconds, import_s, args.smoke
                )
            merged.setdefault(name, {})[entry["mode"]] = entry
            print_entry(entry)
    write_result(out, args, merged)
    print(contract_line(entry))
    return 0 if all(e["correct"] for m in merged.values() for e in m.values()) else 1


def run_children(args: argparse.Namespace) -> int:
    """Every workload in its own child process (its peak RSS and its
    imports are its own); one merged result file."""
    out = args.out or default_out()
    merged: Dict[str, Any] = {}
    status = 0
    for name in args.names:
        for traced in args.modes:
            part = out.with_name(f".part-{out.stem}-{name}-{traced}.json")
            command = [
                sys.executable,
                str(HERE / "run.py"),
                "--workload", name,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--trace", str(traced),
                "--out", str(part),
            ]
            status = max(status, subprocess.run(command, check=False).returncode)
            if part.exists():
                merged.setdefault(name, {}).update(
                    json.loads(part.read_text())["workloads"][name]
                )
                part.unlink()
            trace_part = part.with_name(f"{part.stem}.{name}.trace.json")
            if trace_part.exists():
                trace_part.rename(out.with_name(f"{out.stem}.{name}.trace.json"))
    write_result(out, args, merged)
    print(f"result file: {out}")
    return status


def parse_args(argv: Optional[Sequence[str]] = None) -> argparse.Namespace:
    manifest = json.loads((REPO / "BENCHMARK.json").read_text())
    names = tuple(w["name"] for w in manifest["workloads"])
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="timed window per workload (default: run_seconds of BENCHMARK.json)",
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="per-layer traced run (with --workload: instead of the timed run)",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny sizes, minimum passes, all checks on: a harness self-test",
    )
    parser.add_argument("--out", type=Path, help="result file (default: results/)")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 0.0 if args.smoke else float(manifest["run_seconds"])
    # One workload: the one mode asked for.  All of them: timed, then
    # traced with --trace.
    if args.workload:
        args.names, args.modes = (args.workload,), (args.trace,)
    else:
        args.names, args.modes = names, (0, 1) if args.trace else (0,)
    return args


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    if args.workload or args.smoke:
        return run_here(args)
    return run_children(args)


if __name__ == "__main__":
    sys.exit(main())
