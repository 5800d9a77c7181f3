"""Compare two result files of ``run.py``: ``compare.py A.json B.json``.

One row per (end-to-end metric x workload): both values (medians) with
the quartiles of their samples, the ratio B / A (base: A), and a verdict
against the bound ``BENCHMARK.json`` fixes for the metric:

``better``        B improved on A by more than A's own quartile spread
``within bound``  B is not worse than A by more than the bound
``worse``         B is worse than A by more than the bound
``unresolved``    the quartile spread of A or B is wider than the bound,
                  so the pair cannot tell "unchanged" from "changed" —
                  unless every quartile of B is better than A's

Trajectory digests are diffed member by member, and the share of failed
operations is compared.  Exits non-zero on any ``worse`` row or a larger
failed share.  One pair of runs sizes no claim — see README.md.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any, Dict, Sequence

REPO = Path(__file__).resolve().parents[2]


def spread_share(metric: Dict[str, Any]) -> float:
    """Quartile distance of the samples as a share of the value."""
    return abs(metric["q3"] - metric["q1"]) / abs(metric["value"])


def verdict(a: Dict[str, Any], b: Dict[str, Any], better: str, bound: float) -> str:
    sign = -1.0 if better == "lower" else 1.0
    gain = sign * (b["value"] - a["value"]) / abs(a["value"])
    if max(spread_share(a), spread_share(b)) > bound:
        if better == "lower":
            separated = b["q3"] < a["q1"]
        else:
            separated = b["q1"] > a["q3"]
        return "better" if separated else "unresolved"
    if gain < -bound:
        return "worse"
    if gain > spread_share(a):
        return "better"
    return "within bound"


def compare(a_doc: Dict[str, Any], b_doc: Dict[str, Any], manifest: Dict[str, Any]) -> int:
    worse = 0
    header = (
        f"{'workload':<16} {'metric':<24} {'A value [q1, q3]':<36} "
        f"{'B value [q1, q3]':<36} {'B/A':>8}  verdict"
    )
    print(header)
    for name in (w["name"] for w in manifest["workloads"]):
        a_run = a_doc["workloads"].get(name, {}).get("timed")
        b_run = b_doc["workloads"].get(name, {}).get("timed")
        if a_run is None or b_run is None:
            print(f"{name:<16} (not in both files)")
            continue
        for spec in manifest["end_to_end"]:
            a, b = a_run["metrics"][spec["name"]], b_run["metrics"][spec["name"]]
            result = verdict(a, b, spec["better"], spec["bound"])
            worse += result == "worse"
            cells = [
                f"{m['value']:.6g} [{m['q1']:.6g}, {m['q3']:.6g}]" for m in (a, b)
            ]
            print(
                f"{name:<16} {spec['name']:<24} {cells[0]:<36} {cells[1]:<36} "
                f"{b['value'] / a['value']:>8.4f}  {result}"
            )
        for member in sorted(set(a_run["digests"]) | set(b_run["digests"])):
            da, db = a_run["digests"].get(member), b_run["digests"].get(member)
            state = "same" if da == db else "DIFFERENT"
            print(f"{name:<16} digest[member {member}] {state}  {da}  {db}")
        a_share = a_run["ops_failed"] / a_run["ops_attempted"]
        b_share = b_run["ops_failed"] / b_run["ops_attempted"]
        print(
            f"{name:<16} failed operations  A {a_run['ops_failed']}/"
            f"{a_run['ops_attempted']}  B {b_run['ops_failed']}/{b_run['ops_attempted']}"
        )
        if b_share > a_share:
            print(f"{name:<16} B fails a larger share of its operations")
            worse += 1
    return 1 if worse else 0


def main(argv: Sequence[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    a_doc, b_doc = (json.loads(Path(p).read_text()) for p in argv)
    manifest = json.loads((REPO / "BENCHMARK.json").read_text())
    return compare(a_doc, b_doc, manifest)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
