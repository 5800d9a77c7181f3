"""Hot-path regression guards: trajectory identity + perf smoke run.

The arena/flat-step refactor must be *invisible* to the training
dynamics: a fixed-seed ``HADFLTrainer.run()`` produces bitwise-identical
``RoundRecord`` losses whether devices run on the arena + the production
optimizer kernel or on the seed (pre-arena) codec path re-implemented in
``benchmarks/bench_hotpath.py`` with the retired per-parameter optimizer
(``tests/reference_optim.py``).  The perf-marked smoke test additionally
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
import reference_allreduce as ref_ring  # noqa: E402
import reference_autograd as ref  # noqa: E402
import reference_optim  # noqa: E402
import reference_quantise as ref_quantise  # noqa: E402
import reference_selection as ref_selection  # noqa: E402

from repro.autograd import Tensor  # noqa: E402
from repro.comm.allreduce import ring_allreduce_detailed  # noqa: E402
from repro.comm.wire import WireFormat, get_wire_format  # noqa: E402
from repro.core import selection  # noqa: E402
from repro.data.dataset import ArrayDataset, Subset  # noqa: E402
from repro.data.loader import BatchCycler  # noqa: E402
from repro.experiments import ExperimentConfig, run_scheme  # noqa: E402
from repro.experiments import configs as experiment_configs  # noqa: E402
from repro.experiments.population import PopulationConfig, make_population  # noqa: E402
from repro.nn.layers import Linear  # noqa: E402
from repro.nn.models.mlp import MLP  # noqa: E402
from repro.optim import SGD  # noqa: E402
from repro.optim.base import Optimizer  # noqa: E402
from repro.sim import failures as failures_module  # noqa: E402
from repro.sim.device import Device, DeviceSpec  # noqa: E402
from repro.sim.failures import DiurnalAvailability  # noqa: E402
from repro.sim import population as population_module  # noqa: E402
from repro.sim.population import PopulationSpecs, PopulationTrainer  # noqa: E402


def _config():
    return ExperimentConfig(
        model="mlp", num_train=256, num_test=128, image_size=8,
        target_epochs=3.0, seed=41,
    )


def _losses(result):
    return [r.train_loss for r in result.rounds]


def _run_with_reference_optimizers(monkeypatch, legacy_codec_path: bool):
    """One fixed-seed run on the seed-equivalent slow paths: every device
    steps with the retired per-parameter SGD."""
    monkeypatch.setattr(experiment_configs, "SGD", reference_optim.ReferenceSGD)
    if legacy_codec_path:
        with bench_hotpath.legacy_device_paths():
            return run_scheme("hadfl", _config())
    return run_scheme("hadfl", _config())


class TestTrajectoryRegression:
    def test_arena_run_bitwise_matches_seed_path(self, monkeypatch):
        """Stock (arena + flat step) vs full seed emulation: per-parameter
        codec round-trips and per-parameter optimizer loops."""
        stock = run_scheme("hadfl", _config())
        legacy = _run_with_reference_optimizers(monkeypatch, legacy_codec_path=True)
        assert _losses(stock), "run produced no rounds"
        assert _losses(stock) == _losses(legacy)
        np.testing.assert_array_equal(stock.times(), legacy.times())

    def test_fused_kernels_bitwise_match_fallback(self, monkeypatch):
        """Same run with only the optimizer swapped for the reference
        per-parameter update (arena kept)."""
        stock = run_scheme("hadfl", _config())
        fallback = _run_with_reference_optimizers(monkeypatch, legacy_codec_path=False)
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


class TestLocalStepCounts:
    """Count-type guards on the two kernels this repo writes once: the
    4-D conv never enters the replica-stack branch (``dense_cnn`` issues
    ≈ 9 small convs per 4 ms step), and the optimizer's two call shapes
    are exactly one flat call or one call per parameter."""

    def test_4d_conv_never_stacks(self, monkeypatch):
        from repro.autograd import ops

        rng = np.random.default_rng(3)
        x = Tensor(rng.normal(size=(2, 3, 6, 6)), requires_grad=True)
        w = Tensor(rng.normal(size=(4, 3, 3, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=4), requires_grad=True)
        stacks = []
        stack = np.stack
        monkeypatch.setattr(
            ops.np, "stack", lambda *a, **k: (stacks.append(1), stack(*a, **k))[1]
        )
        ops.conv2d(x, w, b, stride=1, padding=1).sum().backward()
        assert x.grad is not None and not stacks
        # ... while a stacked call does: once for cols, once for the input grad.
        x5 = Tensor(rng.normal(size=(2, 2, 3, 6, 6)), requires_grad=True)
        w5 = Tensor(rng.normal(size=(2, 4, 3, 3, 3)), requires_grad=True)
        ops.conv2d(x5, w5, padding=1).sum().backward()
        assert len(stacks) == 2

    def test_arena_step_is_one_kernel_call(self):
        device = _mlp_device()
        device.train_steps(2)
        assert bench_hotpath.kernel_calls_per_step(device.optimizer) == 1

    def test_manual_gradient_step_is_one_call_per_parameter(self):
        device = _mlp_device()
        params = device.optimizer.params
        for param in params:
            param.grad = np.ones(param.data.shape)
        assert bench_hotpath.kernel_calls_per_step(device.optimizer) == len(params)
        params[0].grad = None  # skipped, not stepped with a zero
        assert bench_hotpath.kernel_calls_per_step(device.optimizer) == len(params) - 1


def _ring_vectors(k, n):
    rng = np.random.default_rng(k * 1000 + n)
    return [rng.normal(size=n) for _ in range(k)]


def _reference_ring(vectors, wire, reference=None):
    buffers = ref_ring.ingest_buffers(vectors)
    ref_ring.run_schedule(buffers, wire, reference)
    return buffers[0] / len(buffers)


class TestRingCounts:
    """Count-type guards (no timing) on the ring schedule: how often a
    K-node all-reduce may cross the wire codec and the pricing hook.  A
    regression here is the ``2·K·(K−1)`` per-send loop coming back —
    79 200 calls per ``population_1m`` pass."""

    @staticmethod
    def _count(monkeypatch, run):
        calls = Counter()
        for name in ("transmit_with_error", "payload_nbytes"):
            original = getattr(WireFormat, name)

            def counted(self, *args, _name=name, _original=original):
                calls[_name] += 1
                return _original(self, *args)

            monkeypatch.setattr(WireFormat, name, counted)
        run()
        return calls

    @pytest.mark.parametrize("wire_name", ["fp64", "fp32"])
    @pytest.mark.parametrize("k,n", [(2, 7), (5, 23), (16, 1000), (100, 17162)])
    def test_elementwise_wire_crosses_per_step_not_per_send(
        self, monkeypatch, wire_name, k, n
    ):
        vectors, wire = _ring_vectors(k, n), get_wire_format(wire_name)
        calls = self._count(
            monkeypatch, lambda: ring_allreduce_detailed(vectors, wire=wire)
        )
        assert 0 < calls["transmit_with_error"] <= 3 * 2 * (k - 1)
        assert calls["payload_nbytes"] == 0

    @pytest.mark.parametrize("k,n", [(2, 7), (5, 23), (8, 203)])
    def test_seeded_codec_keeps_one_call_per_payload(self, monkeypatch, k, n):
        vectors, wire = _ring_vectors(k, n), get_wire_format("topk0.2")
        reference = np.mean(vectors, axis=0)
        got = self._count(
            monkeypatch,
            lambda: ring_allreduce_detailed(vectors, wire=wire, reference=reference),
        )
        monkeypatch.undo()
        want = self._count(
            monkeypatch, lambda: _reference_ring(vectors, wire, reference)
        )
        assert got["transmit_with_error"] == want["transmit_with_error"] == 2 * k * (k - 1)
        assert got["payload_nbytes"] == 0


class TestTopKCounts:
    """Count-type guards on top-k survivor selection: keeping a fifth of
    a payload is an O(n) partition, never a sort of the payload.  A
    regression here is the full stable ``argsort`` coming back — 45 % of
    a ``chaos_topk_ring`` pass."""

    def test_ring_selects_survivors_without_sorting_payloads(self, monkeypatch):
        k, n = 8, 50_000
        vectors, wire = _ring_vectors(k, n), get_wire_format("topk0.2")
        reference = np.mean(vectors, axis=0)
        sorted_sizes = []
        for name in ("sort", "argsort"):

            def spy(a, *args, _original=getattr(np, name), **kwargs):
                sorted_sizes.append(np.size(a))
                return _original(a, *args, **kwargs)

            monkeypatch.setattr(np, name, spy)
        got = TestRingCounts._count(
            monkeypatch,
            lambda: ring_allreduce_detailed(vectors, wire=wire, reference=reference),
        )
        assert [size for size in sorted_sizes if size >= n // k] == []
        # The spy does see the retired encode: one argsort of the
        # payload, one sort of its k survivors.
        ref_quantise.topk_encode_reference(wire, vectors[0])
        assert sorted_sizes[-2:] == [n, wire.k_for(n)]
        monkeypatch.undo()
        want = TestRingCounts._count(
            monkeypatch, lambda: _reference_ring(vectors, wire, reference)
        )
        assert got["transmit_with_error"] == want["transmit_with_error"] == 2 * k * (k - 1)


class _CountingGenerator:
    """A ``Generator`` (or a seed for one) that counts the draws the
    selection makes; every other attribute passes through."""

    def __init__(self, rng):
        if not isinstance(rng, np.random.Generator):
            rng = np.random.default_rng(rng)
        self._rng = rng
        self.calls = Counter()

    def random(self, *args, **kwargs):
        self.calls["random"] += 1
        return self._rng.random(*args, **kwargs)

    def gumbel(self, *args, **kwargs):
        self.calls["gumbel"] += 1
        return self._rng.gumbel(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._rng, name)


class TestPopulationCounts:
    """Count-type guards on the per-round population path: what a round
    may hash, and what a pool may allocate."""

    @pytest.mark.parametrize(
        "make,draws,rehashes",
        [
            # Two uniforms per population, not two per round.
            (lambda: DiurnalAvailability(period=24.0, seed=3), 2, 0),
        ],
    )
    def test_population_is_hashed_once_not_per_round(
        self, monkeypatch, make, draws, rehashes
    ):
        hashed = []
        hash_uniform = failures_module._hash_uniform

        def spy(device_ids, salt):
            hashed.append(len(device_ids))
            return hash_uniform(device_ids, salt)

        monkeypatch.setattr(failures_module, "_hash_uniform", spy)
        model = make()
        specs = PopulationSpecs.sampled(5000, 100, 10, availability=model)
        assert hashed == []  # filled on the first query, not at build time
        times = [0.5, 3.0, 3.5, 5.0, 9.0]
        masks = [model.available_mask(specs.device_ids, t) for t in times]
        assert hashed == [5000] * (draws * (1 + rehashes))
        # Any other id array — an equal copy, a subset, one device — is
        # hashed on the spot and leaves the kept draws alone.
        fresh = make()
        for t, mask in zip(times, masks):
            np.testing.assert_array_equal(
                mask, fresh.available_mask(specs.device_ids.copy(), t)
            )
            np.testing.assert_array_equal(
                mask[::7], model.available_mask(specs.device_ids[::7], t)
            )
            assert model.available_mask(specs.device_ids[42:43], t)[0] == mask[42]
        kept = len(hashed)
        model.available_mask(specs.device_ids, times[-1])
        assert len(hashed) == kept

    def test_selection_draws_uniforms_and_scores_only_candidates(self, monkeypatch):
        """A population-shaped draw consumes ``rng.random(n)``, never
        ``rng.gumbel``, and makes scalar Gumbel values for at most the
        cohort, its best loser and the trained devices."""
        n, trained, count = 50_000, 300, 64
        values = np.zeros(n)
        rng = np.random.default_rng(4)
        values[rng.choice(n, trained, replace=False)] = rng.integers(1, 40, trained)
        scalars = []
        libm_gumbel = selection._libm_gumbel
        monkeypatch.setattr(
            selection, "_libm_gumbel", lambda d: (scalars.append(d), libm_gumbel(d))[1]
        )
        fast = _CountingGenerator(5)
        got = selection.sample_participants(values, count, fast)
        want = ref_selection.sample_participants_reference(
            values, count, np.random.default_rng(5)
        )
        assert fast.calls == {"random": 1}
        assert count <= len(scalars) <= count + 1 + trained
        assert got.tobytes() == want.tobytes()

    def test_population_rounds_never_draw_gumbel_noise(self, monkeypatch):
        """Whole buffered-async rounds: every selection takes the uniform
        path, and the cohorts equal those the reference draw picks."""
        config = PopulationConfig(
            population=5000, participants=16, rounds=5,
            aggregation="buffered_async", async_buffer=8, local_steps=1,
            availability="diurnal", num_train=64, num_test=32, seed=3,
        )
        selected = {}
        for name, draw in (
            ("fast", population_module.sample_participants),
            ("reference", ref_selection.sample_participants_reference),
        ):
            monkeypatch.setattr(population_module, "sample_participants", draw)
            trainer = PopulationTrainer(
                make_population(config), participants=16,
                aggregation="buffered_async", async_buffer=8, local_steps=1,
                seed=3,
            )
            trainer._rng = _CountingGenerator(trainer._rng)
            result = trainer.run(config.rounds)
            selected[name] = [r.selected for r in result.rounds]
            if name == "fast":
                assert trainer._rng.calls["gumbel"] == 0
                assert trainer._rng.calls["random"] == config.rounds
        assert selected["fast"] == selected["reference"]

    def test_pool_blocks_share_one_optimizer_scratch(self):
        population = make_population(
            PopulationConfig(population=200, participants=4, num_train=64, num_test=32)
        )
        blocks = [population.pool.acquire() for _ in range(3)]
        scratch = blocks[0].optimizer._scratch
        assert all(block.optimizer._scratch is scratch for block in blocks)
        for block in blocks:
            population.pool.release(block)


@pytest.mark.perf
class TestRingFloor:
    @pytest.mark.parametrize(
        "k,n,floor",
        [
            (100, 17162, 3.0),  # the population_1m ring: per-send overhead gone
            # Few long segments: nothing to batch, and no tax either — a
            # node's vector moves in and out of the cube as <= 3 row-block
            # copies, the average folded into the last (measured
            # 0.85-0.97x); a fancy-index cube gathered per step read
            # 0.11-0.33x here, which is what this floor is for.
            (4, 101770, 0.8),
        ],
    )
    def test_cube_ring_vs_per_send_reference(self, k, n, floor):
        vectors, wire = _ring_vectors(k, n), get_wire_format("fp64")
        fast_s = slow_s = float("inf")
        for _ in range(7):
            t0 = time.perf_counter()
            got, _ = ring_allreduce_detailed(vectors, wire=wire)
            t1 = time.perf_counter()
            want = _reference_ring(vectors, wire)
            t2 = time.perf_counter()
            assert got.tobytes() == want.tobytes()
            fast_s, slow_s = min(fast_s, t1 - t0), min(slow_s, t2 - t1)
        assert slow_s / fast_s >= floor, f"{slow_s / fast_s:.2f}x"


@pytest.mark.perf
class TestTopKFloor:
    # A ring segment and the broadcast payload of `chaos_topk_ring`
    # (measured 8-13x).
    @pytest.mark.parametrize("n", [6250, 50_000])
    def test_partition_encode_vs_stable_sort_reference(self, n):
        fmt = get_wire_format("topk0.2")
        vec = np.random.default_rng(n).normal(size=n)
        fast_s = slow_s = float("inf")
        for _ in range(7):
            t0 = time.perf_counter()
            got = fmt.encode(vec)
            t1 = time.perf_counter()
            want = ref_quantise.topk_encode_reference(fmt, vec)
            t2 = time.perf_counter()
            assert got.indices.tobytes() == want.indices.tobytes()
            assert got.values.tobytes() == want.values.tobytes()
            fast_s, slow_s = min(fast_s, t1 - t0), min(slow_s, t2 - t1)
        assert slow_s / fast_s >= 5.0, f"{slow_s / fast_s:.2f}x"


@pytest.mark.perf
class TestPopulationRoundFloor:
    """The per-round population work at 10^6 ids against the
    O(population) reference (``tests/reference_selection.py``)."""

    N = 1_000_000

    def test_uniform_draw_vs_gumbel_reference(self):
        # A 100-device cohort with 300 devices trained: population_1m's
        # last draw (4 rounds of 100) at most (measured ≈ 5x).
        values = np.zeros(self.N)
        rng = np.random.default_rng(8)
        trained = rng.choice(self.N, 300, replace=False)
        values[trained] = rng.integers(1, 40, trained.size)
        fast_s = slow_s = float("inf")
        for seed in range(5):
            t0 = time.perf_counter()
            got = selection.sample_participants(values, 100, np.random.default_rng(seed))
            t1 = time.perf_counter()
            want = ref_selection.sample_participants_reference(
                values, 100, np.random.default_rng(seed)
            )
            t2 = time.perf_counter()
            assert got.tobytes() == want.tobytes()
            fast_s, slow_s = min(fast_s, t1 - t0), min(slow_s, t2 - t1)
        assert slow_s / fast_s >= 2.0, f"{slow_s / fast_s:.2f}x"

    def test_band_mask_vs_sin_everywhere_reference(self):
        # One day at the default phase spread: the band's width follows
        # the slope of the cycle (measured ≈ 1.5x).
        model = DiurnalAvailability(period=24.0, seed=8)
        ids = np.arange(self.N, dtype=np.int64)
        model.keep_draws_for(ids)
        times = np.linspace(0.0, 24.0, 13)
        fast_s = slow_s = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            got = [model.available_mask(ids, t) for t in times]
            t1 = time.perf_counter()
            want = [
                ref_selection.available_mask_reference(model, ids, t) for t in times
            ]
            t2 = time.perf_counter()
            assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))
            fast_s, slow_s = min(fast_s, t1 - t0), min(slow_s, t2 - t1)
        assert slow_s / fast_s >= 1.3, f"{slow_s / fast_s:.2f}x"


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
