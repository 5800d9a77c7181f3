"""Persistence: run results on disk.

Round-trip storage for :class:`~repro.metrics.records.RunResult` so
experiment campaigns can be analysed offline, as JSON (the schema of
``RunResult.to_dict``).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Union

from repro.metrics.records import RoundRecord, RunResult

PathLike = Union[str, Path]


def save_result(result: RunResult, path: PathLike) -> Path:
    """Write a run result to JSON."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(result.to_dict(), indent=2))
    return path


def load_result(path: PathLike) -> RunResult:
    """Read a run result back from JSON."""
    payload = json.loads(Path(path).read_text())
    result = RunResult(scheme=payload["scheme"], config=payload.get("config", {}))
    for row in payload["rounds"]:
        result.append(
            RoundRecord(
                round_index=row["round_index"],
                sim_time=row["sim_time"],
                global_epoch=row["global_epoch"],
                train_loss=row["train_loss"],
                test_loss=row.get("test_loss"),
                test_accuracy=row.get("test_accuracy"),
                selected=list(row.get("selected", [])),
                versions={int(k): v for k, v in row.get("versions", {}).items()},
                comm_bytes=row.get("comm_bytes", 0),
                bypasses=row.get("bypasses", 0),
                detail=dict(row.get("detail", {})),
            )
        )
    return result


def save_results(results: Dict[str, RunResult], directory: PathLike) -> Path:
    """Write a named family of runs (one JSON per scheme)."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for name, result in results.items():
        save_result(result, directory / f"{name}.json")
    return directory
