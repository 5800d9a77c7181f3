"""Golden MLP trajectories: the serial step spine may never move a bit.

``tests/golden/mlp_parity.json`` pins, for six small fully-connected
models, every device's per-step training loss (as float hex) and the
sha256 of its final flat parameters after a burst of SGD-momentum steps
driven through ``Device.train_steps``.  The fixture was recorded at the
commit *before* the one-node ``linear`` op, the O(batch) batch gather and
the leaf-free ``backward`` replaced the composed ``x @ W.T + b`` chain,
the per-step ``Subset.features`` gather and the all-nodes traversal, so
a green run proves that rewrite is bitwise trajectory-preserving on:

* ``MLP`` on image-shaped input (bias), a bias-free stack, and a stack
  with ``Dropout`` — each at batch 16 and batch 1 (``N == 1`` is where a
  bias gradient's sign-of-zero rule shows);
* nested ``Subset(Subset(...))`` shards small enough that every burst
  crosses at least two reshuffles;
* the ``serial`` and ``fleet`` executors (three devices with 7 / 6 / 5
  steps, so the fleet path also runs its shrinking-prefix batches) —
  both must equal the one recorded trajectory.

Re-record (only when a trajectory change is intended) with
``PYTHONPATH=src python tests/test_mlp_parity.py``.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.data.dataset import ArrayDataset, Subset
from repro.data.loader import BatchCycler
from repro.nn.layers import Dropout, Linear, ReLU, Sequential
from repro.nn.models.mlp import MLP
from repro.optim import SGD
from repro.parallel import LocalTrainTask
from repro.sim import make_executor
from repro.sim.device import Device, DeviceSpec

GOLDEN_PATH = Path(__file__).parent / "golden" / "mlp_parity.json"

IN_FEATURES, CLASSES = 24, 4
STEPS = (7, 6, 5)


def _mlp(rng, k):
    return MLP(IN_FEATURES, hidden=(16, 16), num_classes=CLASSES, rng=rng)


def _nobias(rng, k):
    return Sequential(
        Linear(IN_FEATURES, 16, bias=False, rng=rng),
        ReLU(),
        Linear(16, CLASSES, bias=False, rng=rng),
    )


def _dropout(rng, k):
    return Sequential(
        Linear(IN_FEATURES, 16, rng=rng),
        ReLU(),
        Dropout(0.25, rng=np.random.default_rng(500 + k)),
        Linear(16, CLASSES, rng=rng),
    )


# case -> (model factory, per-sample feature shape, batch size, shard size)
CASES = {
    "mlp_b16": (_mlp, (1, 4, 6), 16, 40),
    "mlp_b1": (_mlp, (1, 4, 6), 1, 2),
    "nobias_b16": (_nobias, (IN_FEATURES,), 16, 40),
    "nobias_b1": (_nobias, (IN_FEATURES,), 1, 2),
    "dropout_b16": (_dropout, (IN_FEATURES,), 16, 40),
    "dropout_b1": (_dropout, (IN_FEATURES,), 1, 2),
}


class _Devices:
    """The slice of the cluster interface an executor uses."""

    def __init__(self, devices):
        self.devices = devices

    def device_by_id(self, device_id):
        return self.devices[device_id]


def _build(case: str) -> _Devices:
    factory, shape, batch, shard = CASES[case]
    rng = np.random.default_rng(2021)
    base = ArrayDataset(
        rng.normal(size=(400,) + shape), rng.integers(0, CLASSES, size=400)
    )
    devices = []
    for k in range(len(STEPS)):
        # Device k sees `shard` rows of its own 100-row outer subset of base.
        outer = Subset(base, rng.permutation(400)[:100])
        dataset = Subset(outer, rng.permutation(100)[:shard])
        model = factory(rng, k)
        optimizer = SGD(model.parameters(), lr=0.05, momentum=0.9)
        cycler = BatchCycler(dataset, batch, rng=np.random.default_rng(900 + k))
        devices.append(Device(DeviceSpec(device_id=k), model, optimizer, cycler))
    return _Devices(devices)


def trajectory(case: str, executor: str = "serial") -> dict:
    cluster = _build(case)
    tasks = [LocalTrainTask(device_id=k, num_steps=n) for k, n in enumerate(STEPS)]
    results = make_executor(executor).run_tasks(cluster, tasks)
    out = {}
    for k, device in enumerate(cluster.devices):
        state = np.ascontiguousarray(device.get_params(), dtype=np.float64)
        out[f"device{k}"] = {
            "losses": [float(loss).hex() for loss in results[k].losses],
            "state_sha256": hashlib.sha256(state.tobytes()).hexdigest(),
        }
    return out


def record() -> dict:
    golden = {"numpy": np.version.version}
    golden.update({case: trajectory(case) for case in CASES})
    return golden


GOLDEN = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else None

requires_golden_numpy = pytest.mark.skipif(
    GOLDEN is None or np.version.version != GOLDEN["numpy"],
    reason=(
        "golden fixture captured under numpy "
        f"{GOLDEN['numpy'] if GOLDEN else '<missing>'}, running {np.version.version}"
    ),
)


def test_fixture_present():
    assert GOLDEN is not None, f"missing {GOLDEN_PATH}"
    assert set(CASES) <= set(GOLDEN)


def test_every_burst_crosses_two_reshuffles():
    for case, (_, _, batch, shard) in CASES.items():
        per_epoch = shard // min(batch, shard)
        assert (min(STEPS) - 1) // per_epoch >= 2, case


@requires_golden_numpy
@pytest.mark.parametrize("executor", ["serial", "fleet"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_mlp_trajectory_matches_golden(case, executor):
    assert trajectory(case, executor) == GOLDEN[case]


def test_mlp_trajectory_is_reproducible():
    assert trajectory("dropout_b16") == trajectory("dropout_b16")


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
