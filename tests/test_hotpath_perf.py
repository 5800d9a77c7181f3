"""Hot-path regression guards: trajectory identity + perf smoke run.

The arena/fused refactor must be *invisible* to the training dynamics:
a fixed-seed ``HADFLTrainer.run()`` produces bitwise-identical
``RoundRecord`` losses whether devices run on the arena + fused kernels
or on the seed (pre-arena) codec path re-implemented in
``benchmarks/bench_hotpath.py``.  The perf-marked smoke test additionally
runs the microbench at reduced repeats and sanity-checks the speedups.
"""

import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import bench_hotpath  # noqa: E402  (needs the path insert above)
import reference_autograd as ref  # noqa: E402

from repro.autograd import Tensor  # noqa: E402
from repro.data.dataset import ArrayDataset, Subset  # noqa: E402
from repro.data.loader import BatchCycler  # noqa: E402
from repro.experiments import ExperimentConfig, run_scheme  # noqa: E402
from repro.nn.layers import Linear  # noqa: E402
from repro.nn.models.mlp import MLP  # noqa: E402
from repro.optim import SGD  # noqa: E402
from repro.optim.base import Optimizer  # noqa: E402
from repro.sim.device import Device, DeviceSpec  # noqa: E402


def _config():
    return ExperimentConfig(
        model="mlp", num_train=256, num_test=128, image_size=8,
        target_epochs=3.0, seed=41,
    )


def _losses(result):
    return [r.train_loss for r in result.rounds]


def _run_with_fallback_optimizers(legacy_codec_path: bool):
    """One fixed-seed run on the seed-equivalent slow paths."""
    try:
        Optimizer.fused = False
        if legacy_codec_path:
            with bench_hotpath.legacy_device_paths():
                return run_scheme("hadfl", _config())
        return run_scheme("hadfl", _config())
    finally:
        Optimizer.fused = True


class TestTrajectoryRegression:
    def test_arena_run_bitwise_matches_seed_path(self):
        """Stock (arena + fused) vs full seed emulation: per-parameter
        codec round-trips and per-parameter optimizer loops."""
        stock = run_scheme("hadfl", _config())
        legacy = _run_with_fallback_optimizers(legacy_codec_path=True)
        assert _losses(stock), "run produced no rounds"
        assert _losses(stock) == _losses(legacy)
        np.testing.assert_array_equal(stock.times(), legacy.times())

    def test_fused_kernels_bitwise_match_fallback(self):
        """Same run with only the fused kernels disabled (arena kept)."""
        stock = run_scheme("hadfl", _config())
        fallback = _run_with_fallback_optimizers(legacy_codec_path=False)
        assert _losses(stock) == _losses(fallback)
        np.testing.assert_array_equal(stock.times(), fallback.times())


BATCH = 16


def _mlp_device(hidden=(64, 64)):
    """The `table1_mlp` step: 192-64-64-10 MLP, batch 16, a 400-row
    nested-``Subset`` shard of a 2400-row base."""
    rng = np.random.default_rng(7)
    base = ArrayDataset(rng.normal(size=(2400, 3, 8, 8)), rng.integers(0, 10, size=2400))
    shard = Subset(Subset(base, rng.permutation(2400)[:1600]), rng.permutation(1600)[:400])
    model = MLP(192, hidden=hidden, num_classes=10, rng=rng)
    optimizer = SGD(model.parameters(), lr=0.05, momentum=0.9)
    cycler = BatchCycler(shard, BATCH, rng=np.random.default_rng(8))
    return Device(DeviceSpec(device_id=0), model, optimizer, cycler)


class GatherSpy(np.ndarray):
    """Logs how many rows every ``array[index]`` read returns."""

    rows: list = []

    def __getitem__(self, index):
        out = super().__getitem__(index)
        GatherSpy.rows.append(len(out))
        return out


class TestStepSpineCounts:
    """Count-type guards (no timing): what one serial MLP step may build,
    visit and gather.  A regression here is a per-step cost that the
    e2e ``table1_mlp`` wall pays 3 000 times a pass."""

    def test_one_step_builds_and_visits_one_node_per_layer(self, monkeypatch):
        device = _mlp_device(hidden=(16, 16, 16))
        layers = sum(isinstance(m, Linear) for m in device.model.modules())
        built, ran = [], []
        make = Tensor._make

        def counting(data, parents, backward):
            op = backward.__qualname__.split(".<locals>")[0].split(".")[-1]

            def logged(g):
                ran.append(op)
                backward(g)

            out = make(data, parents, logged)
            if out._backward is not None:
                built.append(op)
            return out

        monkeypatch.setattr(Tensor, "_make", staticmethod(counting))
        device.train_steps(1)
        assert Counter(built) == {
            "linear": layers, "relu": layers - 1, "softmax_cross_entropy": 1,
        }
        assert ran == built[::-1]  # backward visits exactly those, once each

    def test_next_batch_gathers_batch_rows_only(self):
        cycler = _mlp_device().cycler
        cycler.base_features = cycler.base_features.view(GatherSpy)
        cycler.base_labels = cycler.base_labels.view(GatherSpy)
        cycler._rows = cycler._rows.view(GatherSpy)
        GatherSpy.rows = []
        steps = 2 * cycler.batches_per_epoch + 1  # crosses two reshuffles
        for _ in range(steps):
            cycler.next_batch()
        # rows -> features -> labels: three gathers of B rows per batch.
        assert GatherSpy.rows == [BATCH] * (3 * steps)


@pytest.mark.perf
class TestStepSpineFloor:
    def test_serial_mlp_step_beats_reference_chain(self):
        """Production step vs the pre-rewrite spine (composed Linear chain,
        all-nodes traversal, gather through ``Subset.features``) on the
        same seed: bitwise-equal losses, >= 1.6x faster."""
        steps, rounds = 300, 5

        def reference_steps(device):
            losses = []
            for _ in range(steps):
                features, labels = ref.next_batch(device.cycler)
                device.optimizer.zero_grad()
                loss = device.loss_fn(device.model(Tensor(features)), labels)
                ref.backward(loss)
                device.optimizer.step()
                losses.append(float(loss.data))
            return losses

        fast, slow = _mlp_device(), _mlp_device()
        for module in slow.model.modules():
            if type(module) is Linear:
                module.__class__ = ref.ChainLinear
        fast_s = slow_s = float("inf")
        for _ in range(rounds):
            t0 = time.perf_counter()
            got = fast.train_steps(steps).losses
            t1 = time.perf_counter()
            want = reference_steps(slow)
            t2 = time.perf_counter()
            assert got == want
            fast_s, slow_s = min(fast_s, t1 - t0), min(slow_s, t2 - t1)
        assert slow_s / fast_s >= 1.6, f"{slow_s / fast_s:.2f}x"


@pytest.mark.perf
class TestHotpathBench:
    def test_microbench_speedups(self):
        results = bench_hotpath.run(repeats=2)
        # Lenient floors (CI machines are noisy); the dedicated
        # run_bench.py artefact records the real numbers.
        assert results["codec_roundtrip"]["speedup"] > 2.0
        assert results["sgd_step"]["speedup"] > 1.2
        assert results["adam_step"]["speedup"] > 1.2
        # Grad arena: the zero-copy step must beat the gather-based seed
        # step, and the real-backward trajectories must stay bitwise.
        assert results["grad_path"]["speedup"] > 1.2
        assert results["grad_path"]["losses_bitwise_equal"]
        assert results["hadfl_round"]["losses_bitwise_equal"]
