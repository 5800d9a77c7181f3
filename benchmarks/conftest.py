"""Shared benchmark configuration.

Benchmarks reproduce the paper's tables/figures on the NumPy substrate.
Scale is controlled by environment variables so CI stays fast while a
"paper-scale" run is one export away:

* ``REPRO_BENCH_TRAIN``  — training-set size        (default 800)
* ``REPRO_BENCH_TEST``   — test-set size            (default 400)
* ``REPRO_BENCH_EPOCHS`` — target global epochs     (default 14)
* ``REPRO_BENCH_IMAGE``  — image side in pixels     (default 8)

Each benchmark writes its reproduced table/figure to
``benchmarks/results/<name>.txt`` (git-ignored) so the artefacts survive
pytest's output capture.
"""

import os
from pathlib import Path

import pytest

from repro.experiments import ExperimentConfig

RESULTS_DIR = Path(__file__).parent / "results"


def _env_int(name: str, default: int) -> int:
    return int(os.environ.get(name, default))


def bench_config(**overrides) -> ExperimentConfig:
    base = dict(
        model="resnet_mini",
        num_train=_env_int("REPRO_BENCH_TRAIN", 800),
        num_test=_env_int("REPRO_BENCH_TEST", 400),
        image_size=_env_int("REPRO_BENCH_IMAGE", 8),
        batch_size=16,
        target_epochs=float(_env_int("REPRO_BENCH_EPOCHS", 14)),
        seed=1,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def write_artifact(name: str, text: str) -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / name
    path.write_text(text)
    return path


@pytest.fixture
def artifact_writer():
    return write_artifact
