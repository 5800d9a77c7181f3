"""Golden conv trajectories: the conv/norm kernels may never move a bit.

``tests/golden/conv_parity.json`` pins, for three conv models, the
per-step training loss (as float hex) and the sha256 of the final flat
parameters + buffers after six SGD-momentum steps.  The fixture was
recorded at the commit *before* the strided conv kernels and the fused
``standardize`` node replaced the index-arithmetic lowering, and
re-recorded once on purpose when the normalisation backward became a
closed form (a declared numeric change; every case has a norm layer),
so a green run proves later rewrites are bitwise trajectory-preserving
on:

* ``resnet_mini`` — BatchNorm, a stride-2 stage, a 1×1 projection shortcut;
* ``simple_cnn`` — BatchNorm, max pooling, a linear head on flattened maps;
* ``resnet_mini`` with GroupNorm.

Re-record (only when a trajectory change is intended) with
``PYTHONPATH=src python tests/test_conv_parity.py``.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.autograd import Tensor, softmax_cross_entropy
from repro.comm.params import ParamArena
from repro.nn.models import build_model
from repro.optim import SGD

GOLDEN_PATH = Path(__file__).parent / "golden" / "conv_parity.json"

CASES = {
    "resnet_mini": dict(model="resnet_mini", kwargs={}),
    "simple_cnn": dict(model="simple_cnn", kwargs={"image_size": 8}),
    "resnet_mini_groupnorm": dict(model="resnet_mini", kwargs={"norm": "group"}),
}
STEPS = 6
BATCH = 16


def trajectory(case: str) -> dict:
    spec = CASES[case]
    rng = np.random.default_rng(2021)
    model = build_model(spec["model"], num_classes=10, rng=rng, **spec["kwargs"])
    arena = ParamArena(model)
    optimizer = SGD(arena, lr=0.05, momentum=0.9)
    model.train()
    losses = []
    for _ in range(STEPS):
        x = rng.normal(size=(BATCH, 3, 8, 8))
        y = rng.integers(0, 10, size=BATCH)
        optimizer.zero_grad()
        loss = softmax_cross_entropy(model(Tensor(x)), y)
        loss.backward()
        optimizer.step()
        losses.append(float(loss.data).hex())
    state = np.ascontiguousarray(arena.read(), dtype=np.float64)
    return {"losses": losses, "state_sha256": hashlib.sha256(state.tobytes()).hexdigest()}


def record() -> dict:
    golden = {"numpy": np.version.version}
    golden.update({case: trajectory(case) for case in CASES})
    return golden


GOLDEN = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else None


def test_fixture_present():
    assert GOLDEN is not None, f"missing {GOLDEN_PATH}"
    assert set(CASES) <= set(GOLDEN)


@pytest.mark.golden("conv_parity.json")
@pytest.mark.parametrize("case", sorted(CASES))
def test_conv_trajectory_matches_golden(case):
    got = trajectory(case)
    assert got["losses"] == GOLDEN[case]["losses"]
    assert got["state_sha256"] == GOLDEN[case]["state_sha256"]


def test_conv_trajectory_is_reproducible():
    assert trajectory("simple_cnn") == trajectory("simple_cnn")


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
