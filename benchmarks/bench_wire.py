"""Wire-format benchmark: accuracy vs communication volume per wire format.

Runs the canonical HADFL configuration once per wire format — the float
casts (fp64, fp32, fp16) plus the quantised codecs (`int8_sr`, QSGD
buckets, DGC-style top-k) — on identically-seeded clusters and records
the bytes-vs-final-accuracy frontier every compressed collective trades
along.  Verifies the pricing and accuracy contracts on the side:

* fp64 (default) is lossless — zero cast error in every round — and
  prices 8 B/scalar;
* fp32/fp16 totals are exactly 1/2 and 1/4 of the fp64 bytes;
* the quantised headline formats (`int8_sr`, `topk0.2`) cut per-round
  collective bytes >= 4x vs fp64 while landing final accuracy within
  the fp16 envelope on the same seeds;
* the PR-2 accounting invariant (``sum(comm_bytes) + initial_dispatch ==
  accountant.total_bytes``) holds for every format — including the
  variable-size top-k payloads.

Writes the repo-root trajectory artefact ``BENCH_wire.json``.

Usage::

    PYTHONPATH=src python benchmarks/bench_wire.py [--quick]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from dataclasses import asdict
from pathlib import Path

if __name__ == "__main__":  # standalone run: one BLAS thread, set before NumPy loads
    for _pin in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_pin, "1")

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from repro.core import HADFLTrainer  # noqa: E402
from repro.experiments import (  # noqa: E402
    ExperimentConfig,
    format_wire_sweep,
    run_wire_sweep,
)

WIRE_DTYPES = (
    "fp64", "fp32", "fp16", "int8_sr", "qsgd8", "qsgd4", "topk0.2", "topk0.05",
)
QUICK_WIRE_DTYPES = ("fp64", "fp32", "int8_sr", "topk0.2")

#: The quantised headline formats of the acceptance criteria: each must
#: cut per-round collective bytes by at least this factor vs fp64 …
QUANTISED_HEADLINERS = ("int8_sr", "topk0.2")
MIN_BYTE_CUT = 4.0
#: … while keeping final accuracy within the fp16 envelope: the fp16
#: run's own deviation from fp64 plus a few evaluation-grid steps
#: (1/256 test samples ≈ 0.004 accuracy per step at the bench scale).
ENVELOPE_SLACK = 0.025


def _config(quick: bool) -> ExperimentConfig:
    return ExperimentConfig(
        model="mlp",
        num_train=256 if quick else 512,
        num_test=128 if quick else 256,
        image_size=8,
        target_epochs=3.0 if quick else 16.0,
        seed=3,
    )


def _check_invariant(config: ExperimentConfig, wire_dtype: str) -> None:
    """The accounting invariant must hold under every wire format."""
    # A shorter horizon than the sweep: the invariant is structural per
    # round, so a few rounds exercise it as well as the full frontier.
    config = config.with_overrides(target_epochs=min(config.target_epochs, 4.0))
    cluster = config.with_overrides(wire_dtype=wire_dtype).make_cluster()
    trainer = HADFLTrainer(cluster, params=config.hadfl_params(), seed=config.seed)
    result = trainer.run(target_epochs=config.target_epochs)
    dispatch = trainer.volume.bytes_by_kind()["initial_dispatch"]
    total = sum(r.comm_bytes for r in result.rounds) + dispatch
    assert total == trainer.volume.total_bytes, (
        f"accounting invariant broken on {wire_dtype}: "
        f"{total} != {trainer.volume.total_bytes}"
    )


def main(quick: bool = False) -> dict:
    config = _config(quick)
    wire_dtypes = QUICK_WIRE_DTYPES if quick else WIRE_DTYPES
    cells = run_wire_sweep(config, wire_dtypes=wire_dtypes)
    by_dtype = {cell.wire_dtype: cell for cell in cells}

    fp64 = by_dtype["fp64"]
    if not quick:
        # Identical seeds run identical round counts at the full bench
        # scale, which makes the totals directly comparable too.  (At
        # quick scale a cheaper wire's shorter dispatch can shift a
        # window boundary across a step; the per-round figures below
        # stay comparable regardless.)
        rounds = {cell.rounds for cell in cells}
        assert len(rounds) == 1, f"round counts diverged across wires: {rounds}"
        assert by_dtype["fp32"].total_comm_bytes * 2 == fp64.total_comm_bytes, (
            "fp32 wire must halve the fp64 byte total"
        )
        assert by_dtype["fp16"].total_comm_bytes * 4 == fp64.total_comm_bytes, (
            "fp16 wire must quarter the fp64 byte total"
        )
        assert by_dtype["fp16"].max_cast_error > by_dtype["fp32"].max_cast_error

    # Contract checks (cheap relative to the sweep itself).
    assert fp64.max_cast_error == 0.0, "fp64 wire must be lossless"
    assert by_dtype["fp32"].max_cast_error > 0.0

    # Quantised headliners: >= 4x fewer collective bytes per round …
    for name in QUANTISED_HEADLINERS:
        cell = by_dtype[name]
        cut = fp64.comm_bytes_per_round / cell.comm_bytes_per_round
        assert cut >= MIN_BYTE_CUT, (
            f"{name} cut per-round bytes only {cut:.2f}x (< {MIN_BYTE_CUT}x)"
        )
        assert cell.max_cast_error > 0.0, f"{name} must report quantisation error"
    # … at final accuracy within the fp16 envelope.  Quick runs are too
    # short/noisy to pin accuracy; the full bench asserts it.
    if not quick:
        envelope = (
            abs(by_dtype["fp16"].final_accuracy - fp64.final_accuracy)
            + ENVELOPE_SLACK
        )
        for name in QUANTISED_HEADLINERS:
            drop = abs(by_dtype[name].final_accuracy - fp64.final_accuracy)
            assert drop <= envelope, (
                f"{name} final accuracy deviates {drop:.4f} from fp64 "
                f"(> fp16 envelope {envelope:.4f})"
            )

    # Accounting invariant for every swept format, incl. variable-size
    # top-k payloads (quick keeps one cast + one quantised format).
    invariant_dtypes = ("fp64", "int8_sr") if quick else wire_dtypes
    for wire_dtype in invariant_dtypes:
        _check_invariant(config, wire_dtype)

    table = format_wire_sweep(cells)
    print(table)
    payload = {
        "bench": "wire",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "quick": quick,
        "config": {
            "model": config.model,
            "num_train": config.num_train,
            "target_epochs": config.target_epochs,
            "seed": config.seed,
        },
        "cells": [asdict(cell) for cell in cells],
        "table": table,
    }
    out = REPO_ROOT / "BENCH_wire.json"
    out.write_text(json.dumps(payload, indent=2))
    print(f"wrote {out}")
    return payload


if __name__ == "__main__":
    parser = argparse.ArgumentParser()
    parser.add_argument("--quick", action="store_true")
    main(quick=parser.parse_args().quick)
