"""Hot-path regression guards: trajectory identity + perf smoke run.

The arena/flat-step refactor must be *invisible* to the training
dynamics: a fixed-seed ``HADFLTrainer.run()`` produces bitwise-identical
``RoundRecord`` losses whether devices run on the arena + the production
optimizer kernel or on the seed (pre-arena) codec path re-implemented in
``benchmarks/bench_hotpath.py`` with the retired per-parameter optimizer
(``tests/reference_optim.py``).  The perf-marked smoke test additionally
runs the microbench at reduced repeats and sanity-checks the speedups.
"""

import gc
import sys
import time
import tracemalloc
import weakref
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import bench_hotpath  # noqa: E402  (needs the path insert above)
import reference_allreduce as ref_ring  # noqa: E402
from reference_executor import ReferenceExecutor  # noqa: E402
import reference_autograd as ref  # noqa: E402
import reference_data  # noqa: E402
import reference_optim  # noqa: E402
import reference_quantise as ref_quantise  # noqa: E402
import reference_selection as ref_selection  # noqa: E402

from repro.autograd import Tensor  # noqa: E402
from repro.comm.allreduce import ring_allreduce_detailed  # noqa: E402
from repro.comm.params import ParamArena  # noqa: E402
from repro.comm.quantise import Int8SRWireFormat  # noqa: E402
from repro.comm.wire import WireFormat, get_wire_format  # noqa: E402
from repro.core import HADFLTrainer, selection  # noqa: E402
from repro.data.dataset import ArrayDataset, Subset  # noqa: E402
from repro.data.synthetic import SyntheticImageClassification  # noqa: E402
from repro.data.loader import BatchCycler  # noqa: E402
from repro.experiments import ExperimentConfig, run_scheme  # noqa: E402
from repro.experiments import configs as experiment_configs  # noqa: E402
from repro.experiments.population import PopulationConfig, make_population  # noqa: E402
from repro.nn.conv import Conv2d  # noqa: E402
from repro.nn.fleet import FleetModule  # noqa: E402
from repro.nn.layers import Dropout, Flatten, Linear, ReLU, Sequential  # noqa: E402
from repro.nn.models.mlp import MLP  # noqa: E402
from repro.nn.models.resnet import resnet_mini  # noqa: E402
from repro.nn.norm import BatchNorm2d, GroupNorm  # noqa: E402
from repro.optim import SGD  # noqa: E402
from repro.optim.base import Optimizer  # noqa: E402
from repro.sim import device as device_module  # noqa: E402
from repro.sim import failures as failures_module  # noqa: E402
from repro.sim import SerialExecutor  # noqa: E402
from repro.sim.device import Device, DeviceSpec, LocalTrainTask  # noqa: E402
from repro.sim.failures import DiurnalAvailability  # noqa: E402
from repro.sim import population as population_module  # noqa: E402
from repro.sim.population import PopulationSpecs, PopulationTrainer  # noqa: E402
from repro.sim.cluster import DeviceSubstrate, SimulatedCluster  # noqa: E402
from repro.sim.rounds import RoundEngine  # noqa: E402


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
    optimizer = SGD(ParamArena(model), lr=0.05, momentum=0.9)
    cycler = BatchCycler(shard, BATCH, rng=np.random.default_rng(8))
    return Device(DeviceSpec(device_id=0), model, optimizer, cycler)


class GatherSpy(np.ndarray):
    """Logs how many rows every ``array[index]`` read returns."""

    rows: list = []

    def __getitem__(self, index):
        out = super().__getitem__(index)
        GatherSpy.rows.append(len(out))
        return out


def _record_nodes(monkeypatch):
    """Log every interior node ``Tensor._make`` builds (by op name) and
    every backward closure that runs, in order."""
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
    return built, ran


class TestStepSpineCounts:
    """Count-type guards (no timing): what one serial MLP step may build,
    visit and gather.  A regression here is a per-step cost that the
    e2e ``table1_mlp`` wall pays 3 000 times a pass."""

    def test_one_step_builds_and_visits_one_node_per_layer(self, monkeypatch):
        device = _mlp_device(hidden=(16, 16, 16))
        layers = sum(isinstance(m, Linear) for m in device.model.modules())
        built, ran = _record_nodes(monkeypatch)
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


class TestConvStepCounts:
    """Count-type guards (no timing) on the `dense_cnn` step: a norm
    layer is one tape node (statistics and affine map fused), so the
    graph's size is set by its layers, not by their glue."""

    @pytest.mark.parametrize("norm", ["batch", "group"])
    def test_resnet_step_builds_one_node_per_norm_layer(self, monkeypatch, norm):
        rng = np.random.default_rng(7)
        data = ArrayDataset(rng.normal(size=(64, 3, 8, 8)), rng.integers(0, 10, size=64))
        model = resnet_mini(rng=rng, norm=norm)
        norms = sum(isinstance(m, (BatchNorm2d, GroupNorm)) for m in model.modules())
        convs = sum(isinstance(m, Conv2d) for m in model.modules())
        device = Device(
            DeviceSpec(device_id=0), model, SGD(ParamArena(model), lr=0.05, momentum=0.9),
            BatchCycler(data, BATCH, rng=np.random.default_rng(8)),
        )
        built, ran = _record_nodes(monkeypatch)
        device.train_steps(1)
        assert norms == convs == 6
        assert len(built) == 22
        assert Counter(built) == {
            "conv2d": convs, "normalize": norms, "relu": 5, "__add__": 2,
            "global_avg_pool2d": 1, "linear": 1, "softmax_cross_entropy": 1,
        }
        # Backward visits exactly those, once each (residual branches
        # interleave, so the order is not the build order reversed).
        assert Counter(ran) == Counter(built)


class TestLocalStepCounts:
    """Count-type guards on the optimizer kernel: its one call shape is
    exactly one flat call per step, and a step off the gradient contract
    makes none."""

    def test_arena_step_is_one_kernel_call(self):
        device = _mlp_device()
        device.train_steps(2)
        assert bench_hotpath.kernel_calls_per_step(device.optimizer) == 1

    @pytest.mark.parametrize("grad", ["none", "assigned"])
    def test_refused_step_makes_no_kernel_call(self, grad):
        device = _mlp_device()
        device.train_steps(2)
        param = device.model.parameters()[0]
        param.grad = None if grad == "none" else np.ones(param.data.shape)
        optimizer = device.optimizer
        with mock.patch.object(optimizer, "_kernel", wraps=optimizer._kernel) as spy:
            with pytest.raises(ValueError, match="gradient of"):
                optimizer.step()
        assert spy.call_count == 0


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


class TestInt8Counts:
    """Count-type guards (no timing) on the ``int8_sr`` round trip: a
    warm transmit allocates only the vector it returns and seeds one
    content generator, and a buffered-async round calls the codec once
    per completed upload.  A regression here is the encode → decode →
    error composition coming back — fresh payload-sized temporaries,
    42 % of an ``async_int8_pop`` pass."""

    N = 17_162  # the async_int8_pop model

    def test_warm_transmit_allocates_one_vector_and_one_generator(self, monkeypatch):
        fmt = Int8SRWireFormat()
        vec = np.random.default_rng(2).normal(size=self.N)
        fmt.transmit_with_error(vec)  # sizes the scratch
        built = []
        default_rng = np.random.default_rng
        monkeypatch.setattr(
            np.random, "default_rng", lambda *a: built.append(a) or default_rng(*a)
        )
        tracemalloc.start()
        try:
            received, _ = fmt.transmit_with_error(vec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(built) == 1
        assert received.nbytes == 8 * self.N
        assert peak <= 1.25 * 8 * self.N, peak

    def test_buffered_async_round_calls_the_codec_once_per_upload(self, monkeypatch):
        config = PopulationConfig(
            population=5_000, participants=8, rounds=6,
            aggregation="buffered_async", async_buffer=4, local_steps=1,
            wire_dtype="int8_sr", availability="diurnal", executor="serial",
            eval_every=4, num_train=160, num_test=80, seed=1,
        )
        population = make_population(config)  # its build ships a payload
        calls = Counter()
        for owner, name in (
            (Int8SRWireFormat, "transmit_with_error"),
            (WireFormat, "transmit_delta_with_error"),
            (PopulationTrainer, "_dispatch"),
        ):
            original = getattr(owner, name)

            def counted(self, *args, _name=name, _original=original):
                calls[_name] += 1
                return _original(self, *args)

            monkeypatch.setattr(owner, name, counted)
        trainer = PopulationTrainer(population, **config.trainer_options())
        result = trainer.run(config.rounds, eval_every=config.eval_every)
        uploads = sum(len(r.selected) for r in result.rounds)
        assert uploads > 0 and calls["_dispatch"] > 0
        assert calls["transmit_delta_with_error"] == uploads
        # Every codec call is a dispatch or an upload — the count the
        # tracer reports as ``comm.wire_transmits``.
        assert calls["transmit_with_error"] == calls["_dispatch"] + uploads


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

    @staticmethod
    def _spy_hashes(monkeypatch):
        """Record ``(salt, ids hashed)`` of every ``_hash_uniform`` call."""
        hashed = []
        hash_uniform = failures_module._hash_uniform

        def spy(device_ids, salt):
            hashed.append((salt, len(device_ids)))
            return hash_uniform(device_ids, salt)

        monkeypatch.setattr(failures_module, "_hash_uniform", spy)
        return hashed

    N = 200_000
    TIMES = [0.5, 3.0, 3.5, 5.0, 9.0]

    def test_level_is_hashed_once_per_population_in_chunks(self, monkeypatch):
        hashed = self._spy_hashes(monkeypatch)
        model = DiurnalAvailability(period=24.0, seed=3)
        PopulationSpecs.sampled(self.N, 100, 10, availability=model)
        assert hashed == []  # filled on the first query, not at build time
        level_salt = model.seed * 31 + model._SALT_LEVEL
        for t in self.TIMES:
            model.population_mask(self.N, t)
        levels = [size for salt, size in hashed if salt == level_salt]
        assert sum(levels) == self.N
        assert max(levels) <= 1 << 16 and len(levels) == -(-self.N // (1 << 16))
        # A smaller population reuses the kept prefix.
        model.population_mask(self.N // 2, self.TIMES[0])
        assert sum(size for salt, size in hashed if salt == level_salt) == self.N

    def test_query_hashes_phases_only_for_the_band(self, monkeypatch):
        hashed = self._spy_hashes(monkeypatch)
        model = DiurnalAvailability(period=24.0, seed=3)
        model.population_mask(self.N, self.TIMES[0])
        phase_salt = model.seed * 31 + model._SALT_PHASE
        level = model._population_level
        for t in self.TIMES:
            del hashed[:]
            model.population_mask(self.N, t)
            low, high = model._threshold_range(t)
            band = int(np.count_nonzero((level >= low) & (level < high)))
            phases = [size for salt, size in hashed if salt == phase_salt]
            assert len(phases) == len(hashed)  # no level rehash
            assert sum(phases) == band < self.N
            assert max(phases, default=0) <= 1 << 16

    def test_explicit_ids_match_the_population_mask(self):
        model = DiurnalAvailability(period=24.0, seed=3)
        fresh = DiurnalAvailability(period=24.0, seed=3)
        ids = np.arange(self.N, dtype=np.int64)
        for t in self.TIMES:
            mask = model.population_mask(self.N, t)
            assert mask.tobytes() == fresh.available_mask(ids, t).tobytes()
            assert mask[::7].tobytes() == model.available_mask(ids[::7], t).tobytes()
            assert model.available_mask(ids[42:43], t)[0] == mask[42]
        # Explicit ids are hashed on the spot: the kept levels stay put.
        assert fresh._population_level is None

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


def _spy(monkeypatch, owner, name, log):
    """Record the first argument after ``self`` of every ``owner.name`` call."""
    real = getattr(owner, name)

    def spy(self, *args):
        log.append(args[0] if args else None)
        return real(self, *args)

    monkeypatch.setattr(owner, name, spy)


def _spy_runs(monkeypatch):
    """Per in-process executor burst, the slab rows of every run it stacked."""
    bursts = []
    run_tasks, stack = SerialExecutor.run_tasks, DeviceSubstrate.stack

    def spy_run_tasks(self, cluster, tasks):
        bursts.append([])
        return run_tasks(self, cluster, tasks)

    def spy_stack(self, devices):
        bursts[-1].append([self.row_of(device.device_id) for device in devices])
        return stack(self, devices)

    monkeypatch.setattr(SerialExecutor, "run_tasks", spy_run_tasks)
    monkeypatch.setattr(DeviceSubstrate, "stack", spy_stack)
    return bursts


class TestResidentSlab:
    """Every pool block's arena lives on a row of the pool's resident
    slab, bound once; a fleet burst batches each maximal run of
    consecutive rows along which planned steps do not increase, as a
    view of those rows — nothing is moved to build one."""

    def test_population_fleet_run_binds_once_and_moves_no_row(self, monkeypatch):
        rebinds = []
        _spy(monkeypatch, ParamArena, "rebind_storage", rebinds)
        bursts = _spy_runs(monkeypatch)
        config = PopulationConfig(
            population=20_000, participants=8, rounds=3, availability="diurnal",
            executor="fleet", num_train=160, num_test=80, seed=1,
        )
        trainer = PopulationTrainer(make_population(config), **config.trainer_options())
        pool = trainer.run(config.rounds).config["pool"]
        # Strongest-first materialisation: every round's burst is one run
        # over all the participants' rows.
        assert bursts == [[list(range(8))]] * config.rounds
        assert pool["recycled"] > 0
        assert len(rebinds) <= pool["created"]

    def test_dense_fleet_runs_follow_power_order(self, monkeypatch):
        """Power ratio (4, 2, 2, 1) x 2: the negotiation burst (equal step
        counts) is one run over all eight rows; each window burst's steps
        fall along rows 0-3 and again along rows 4-7, so it is two runs."""
        bursts = _spy_runs(monkeypatch)
        runs = {}
        for name, executor in (("reference", ReferenceExecutor()), ("fleet", "fleet")):
            config = ExperimentConfig(
                model="mlp", power_ratio=(4, 2, 2, 1) * 2, num_train=256,
                num_test=128, image_size=8, target_epochs=3.0, seed=11,
                executor=executor,
            )
            cluster = config.make_cluster()
            trainer = HADFLTrainer(cluster, params=config.hadfl_params(), seed=config.seed)
            result = trainer.run(target_epochs=config.target_epochs)
            runs[name] = (
                [(r.selected, r.versions, r.train_loss) for r in result.rounds],
                [device.get_params().tobytes() for device in cluster.devices],
            )
        assert bursts == [[list(range(8))], [[0, 1, 2, 3], [4, 5, 6, 7]]]
        assert runs["reference"] == runs["fleet"]

    def test_stack_rejects_non_consecutive_rows(self):
        population = make_population(
            PopulationConfig(population=200, participants=4, num_train=64, num_test=32)
        )
        devices = [population.materialise(device_id) for device_id in (5, 6, 7)]
        params, grads = population.stack(devices[:2])
        assert np.shares_memory(params, population.pool.params)
        assert params.shape[0] == grads.shape[0] == 2
        with pytest.raises(ValueError, match=r"consecutive slab rows, got \[0, 2\]"):
            population.stack([devices[0], devices[2]])
        with pytest.raises(ValueError, match=r"got \[1, 0\]"):
            population.stack([devices[1], devices[0]])

    def test_burst_against_row_order_is_bitwise_serial(self, monkeypatch):
        """Power ratio (1, 2, 4): a deadline burst's step order is the
        reverse of the row order, so every device is a run of one — a
        D = 1 stack on its planned timeline — after a first burst left
        every replica with its own momentum, gradients and dropout
        stream."""
        bursts = _spy_runs(monkeypatch)
        config = ExperimentConfig(
            power_ratio=(1, 2, 4), num_train=96, num_test=32, image_size=8,
            batch_size=8, seed=7,
        )
        train, test = config.make_data()

        def factory(rng):
            return Sequential(
                Flatten(),
                Linear(3 * 8 * 8, 16, rng=rng),
                ReLU(),
                Dropout(0.3, rng=np.random.default_rng(rng.integers(2**31))),
                Linear(16, 10, rng=rng),
            )

        clusters = {
            name: SimulatedCluster(
                factory, train, test, config.make_specs(), batch_size=8,
                optimizer_factory=lambda arena: SGD(arena, lr=0.05, momentum=0.9),
                seed=config.seed, executor=executor,
            )
            for name, executor in (("reference", ReferenceExecutor()), ("fleet", "fleet"))
        }
        window = 2.5 * max(d.step_time() for d in clusters["reference"].devices)
        bursts_tasks = [
            # Steps 3, 2, 1 fall along rows 0, 1, 2: one run.
            lambda d: LocalTrainTask(d.device_id, max_steps=3 - d.device_id),
            # Steps 2, 5, 10 rise along rows 0, 1, 2: three runs of one.
            lambda d: LocalTrainTask(d.device_id, deadline=10.0 + window, start_time=10.0),
            lambda d: LocalTrainTask(d.device_id, deadline=20.0 + window, start_time=20.0),
        ]
        for index, make_task in enumerate(bursts_tasks):
            results = {
                name: cluster.run_local_tasks(
                    [make_task(d) for d in cluster.devices]
                )
                for name, cluster in clusters.items()
            }
            assert results["reference"] == results["fleet"]
            if index == 1:
                steps = [results["fleet"][d].steps for d in (0, 1, 2)]
                assert steps == sorted(steps) and steps[0] < steps[2]
            for want, got in zip(clusters["reference"].devices, clusters["fleet"].devices):
                assert want.get_params().tobytes() == got.get_params().tobytes()
                assert want.arena.grad_flat.tobytes() == got.arena.grad_flat.tobytes()
                assert [g is None for g in (p.grad for p in want.model.parameters())] == [
                    g is None for g in (p.grad for p in got.model.parameters())
                ]
                for a, b in zip(want.optimizer.flat_state(), got.optimizer.flat_state()):
                    assert a.tobytes() == b.tobytes()
                # Optimizer scalars, module (dropout) and device RNG states.
                want_state, got_state = want.export_train_state(), got.export_train_state()
                assert want_state.pop("cycler")["rng_state"] == got_state.pop("cycler")["rng_state"]
                assert want_state == got_state
        assert bursts == [[[0, 1, 2]], [[0], [1], [2]], [[0], [1], [2]]]

    def test_buffered_async_arranges_across_free_rows_bitwise(self, monkeypatch):
        """In-flight devices keep their rows while refills take the free
        ones, so a refill burst's rows have gaps: it trains one run per
        stretch of consecutive rows, and every trajectory equals serial's."""
        bursts = _spy_runs(monkeypatch)
        runs = {}
        for name, executor in (("reference", ReferenceExecutor()), ("fleet", "fleet")):
            config = PopulationConfig(
                population=20_000, participants=16, rounds=8,
                aggregation="buffered_async", async_buffer=5,
                availability="diurnal", num_train=256, num_test=128, seed=3,
                executor=executor,
            )
            trainer = PopulationTrainer(make_population(config), **config.trainer_options())
            result = trainer.run(config.rounds)
            runs[name] = (
                [(r.selected, r.versions, r.train_loss) for r in result.rounds],
                trainer._global_params.tobytes(),
                result.config["pool"],
            )
        assert any(len(burst) > 1 for burst in bursts), "no refill burst split"
        assert runs["reference"] == runs["fleet"]


class TestBatchedDefaultCounts:
    """A dense MLP cluster trains batched on the default executor, and a
    batched burst pays its setup once: one signature per device, one
    :class:`FleetModule` per run of rows, no per-step feature stack."""

    @staticmethod
    def _count(monkeypatch, counts, owner, name):
        real = getattr(owner, name)

        def spy(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, spy)

    def test_distributed_step_is_one_batched_forward_and_backward(self, monkeypatch):
        """Distributed training on (4, 2, 2, 1): every lockstep iteration
        is a 1-step burst on all four devices — one batched forward and
        one backward on the default executor, each burst timed once by
        the planner and none trained per device; four forwards and
        backwards per device on the interleaved reference loop, which
        neither plans nor calls the per-device loop."""
        counts = {}
        for name, options in (
            ("default", {}), ("reference", {"executor": ReferenceExecutor()})
        ):
            tally = counts[name] = Counter()
            with monkeypatch.context() as patch:
                for owner, attr in (
                    (RoundEngine, "launch"),
                    (FleetModule, "forward"),
                    (Tensor, "backward"),
                    (Device, "plan"),
                    (Device, "train_until"),
                ):
                    self._count(patch, tally, owner, attr)
                config = ExperimentConfig(
                    model="mlp", power_ratio=(4, 2, 2, 1), num_train=1024,
                    num_test=64, image_size=8, target_epochs=1.0, seed=3,
                    **options,
                )
                assert run_scheme("distributed", config).rounds
        batched, reference = counts["default"], counts["reference"]
        steps = batched["launch"]
        assert steps >= 4 and reference["launch"] == steps
        assert batched["forward"] == batched["backward"] == steps
        assert batched["plan"] == reference["backward"] == 4 * steps
        assert batched["train_until"] == reference["forward"] == 0
        assert reference["plan"] == reference["train_until"] == 0

    def test_one_fleet_module_per_run_of_rows(self, monkeypatch):
        """Ten bursts on (4, 2, 2, 1) x 2: equal step counts batch one run
        over all eight rows, deadline bursts two runs of four.  One module
        is built per distinct run and one signature per device.  A
        population's shells, cyclers and modules outlive a release and
        die with the population."""
        bursts = _spy_runs(monkeypatch)
        counts = Counter()
        self._count(monkeypatch, counts, FleetModule, "__init__")
        self._count(monkeypatch, counts, device_module, "fleet_capable")
        config = ExperimentConfig(
            model="mlp", power_ratio=(4, 2, 2, 1) * 2, num_train=512,
            num_test=64, image_size=8, seed=2,
        )
        cluster = config.make_cluster()
        window = 3.5 * max(d.step_time() for d in cluster.devices)
        for burst in range(10):
            start = float(burst)
            cluster.run_local_tasks([
                LocalTrainTask(d.device_id, max_steps=3, start_time=start)
                if burst % 2 else
                LocalTrainTask(d.device_id, deadline=start + window, start_time=start)
                for d in cluster.devices
            ])
        runs = [tuple(rows) for burst in bursts for rows in burst]
        assert len(bursts) == 10 and len(runs) == 15
        assert set(runs) == {tuple(range(8)), (0, 1, 2, 3), (4, 5, 6, 7)}
        assert counts["__init__"] == 3 == len(cluster.pool.fleets)
        assert counts["fleet_capable"] == len(cluster.devices)

        # A population round: nothing stays active after the run, and
        # what its blocks keep dies with the population, by refcount.
        pop_config = PopulationConfig(
            population=2_000, participants=6, rounds=1, num_train=160,
            num_test=32, seed=4,
        )
        population = make_population(pop_config)
        trainer = PopulationTrainer(population, **pop_config.trainer_options())
        trainer.run(1)
        assert counts["__init__"] == 4 and population._active == {}
        blocks = population.pool._blocks
        kept = [weakref.ref(block.device) for block in blocks]
        kept += [weakref.ref(block.device.cycler) for block in blocks]
        kept += [weakref.ref(module) for module in population.pool.fleets.values()]
        assert len(kept) == 2 * len(blocks) + 1
        del blocks
        gc.collect()
        gc.disable()
        try:
            del population, trainer
            assert all(ref() is None for ref in kept)
        finally:
            gc.enable()

    def test_warm_pool_participation_builds_nothing(self, monkeypatch):
        """Buffered-async rounds on a warm pool: a participation rebinds
        its block's device shell and cycler (no construction), writes its
        row once (the start vector), walks no module tree for its burst
        signature and seeds two generators — its shard draw and its
        device stream; the timing stream is never drawn, so never built."""
        config = PopulationConfig(
            population=2_000, participants=6, rounds=3, num_train=160,
            num_test=32, seed=4, aggregation="buffered_async", local_steps=1,
        )
        population = make_population(config)
        PopulationTrainer(population, **config.trainer_options()).run(2)
        trainer = PopulationTrainer(population, **config.trainer_options())
        pool = population.pool  # warm: every block built
        created, recycled = pool.created, pool.recycled
        counts = Counter()
        for owner, name in (
            (Device, "__init__"), (BatchCycler, "__init__"),
            (device_module, "fleet_capable"), (np.random, "default_rng"),
        ):
            self._count(monkeypatch, counts, owner, name)
        write = ParamArena.write

        def spy_write(arena, flat):
            if arena is not population._eval_arena:
                counts["write"] += 1
            write(arena, flat)

        monkeypatch.setattr(ParamArena, "write", spy_write)
        trainer.run(config.rounds)
        monkeypatch.undo()
        participations = pool.recycled - recycled
        assert pool.created == created and participations >= 2 * config.participants
        assert counts["__init__"] == counts["fleet_capable"] == 0
        assert counts["write"] == participations
        assert counts["default_rng"] == 2 * participations

    def test_warm_batched_step_is_two_nodes_and_no_fill(self, monkeypatch):
        """A warm batched MLP step (module built, gradients live) records
        two tape nodes — the layer plan and the loss — and visits each
        once; it calls no ``Optimizer.zero_grad`` and fills no gradient
        row: the plan's backward writes every element of the rows, so
        the NaN seeded into them before the step is gone after it."""
        config = ExperimentConfig(
            model="mlp", power_ratio=(2, 2, 1), num_train=192, num_test=32,
            image_size=8, batch_size=8, seed=5,
        )
        cluster = config.make_cluster()
        rows = cluster.pool.grads[: len(cluster.devices)]
        cluster.run_local_tasks(  # builds the module; gradients go live
            [LocalTrainTask(d.device_id, max_steps=1) for d in cluster.devices]
        )
        rows[...] = np.nan
        counts = Counter()
        self._count(monkeypatch, counts, Optimizer, "zero_grad")
        self._count(monkeypatch, counts, ParamArena, "zero_grads")
        built, ran = _record_nodes(monkeypatch)
        cluster.run_local_tasks([
            LocalTrainTask(d.device_id, max_steps=1, start_time=100.0)
            for d in cluster.devices
        ])
        assert built == ["_run_plan", "softmax_cross_entropy"]
        assert ran == built[::-1]
        assert counts["zero_grad"] == counts["zero_grads"] == 0
        assert not np.isnan(rows).any()

    def test_batched_loop_stacks_no_feature_batch(self, monkeypatch):
        """Each cycler gathers its batch straight into its row of the
        run's stacked input: ``np.stack`` sees labels, never features."""
        stacked = []
        real_stack = np.stack

        def spy_stack(arrays, *args, **kwargs):
            arrays = list(arrays)
            stacked.append([np.shape(a) for a in arrays])
            return real_stack(arrays, *args, **kwargs)

        config = ExperimentConfig(
            model="mlp", power_ratio=(2, 2, 1), num_train=192, num_test=32,
            image_size=8, batch_size=8, seed=5,
        )
        cluster = config.make_cluster()
        monkeypatch.setattr(np, "stack", spy_stack)
        cluster.run_local_tasks(
            [LocalTrainTask(d.device_id, max_steps=4) for d in cluster.devices]
        )
        monkeypatch.undo()
        assert stacked and all(
            shape == (8,) for shapes in stacked for shape in shapes
        )


class TestRenderCounts:
    """A Table I pass builds every scheme from one config: the dataset is
    rendered once and shared, read-only, by every cluster."""

    @pytest.fixture
    def renders(self, monkeypatch):
        monkeypatch.setattr(
            experiment_configs, "_renders", weakref.WeakValueDictionary()
        )
        calls = []
        render = SyntheticImageClassification._render_split

        def spy(generator, rng, count):
            calls.append(count)
            return render(generator, rng, count)

        monkeypatch.setattr(SyntheticImageClassification, "_render_split", spy)
        return calls

    def test_three_clusters_one_render(self, renders):
        config = ExperimentConfig(num_train=96, num_test=48)
        clusters = [config.make_cluster() for _ in range(3)]
        assert renders == [96, 48]  # one train split, one test split
        features = [
            c.devices[0].cycler.dataset.dataset.features for c in clusters
        ]
        assert np.shares_memory(features[0], features[1])
        assert features[1] is features[2]

    def test_shared_arrays_are_read_only(self, renders):
        train, test = ExperimentConfig(num_train=96, num_test=48).make_data()
        for array in (train.features, train.labels, test.features, test.labels):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0

    def test_render_lives_as_long_as_its_holders(self, renders):
        a = ExperimentConfig(num_train=96, num_test=48, data_seed=1)
        b = a.with_overrides(data_seed=2)
        data_a, data_b = a.make_data(), b.make_data()
        assert len(renders) == 4  # another data_seed renders again
        assert not np.array_equal(data_a[0].features, data_b[0].features)
        assert all(x is y for x, y in zip(a.make_data(), data_a))
        del data_a
        a.make_data()  # the dropped render is gone, not kept resident
        assert len(renders) == 6

    def test_render_rolls_nothing(self, monkeypatch):
        rolls = []
        roll = np.roll

        def counting_roll(*args, **kwargs):
            rolls.append(args)
            return roll(*args, **kwargs)

        monkeypatch.setattr(np, "roll", counting_roll)
        SyntheticImageClassification(num_train=300, num_test=40, image_size=8)
        assert rolls == []


@pytest.mark.perf
class TestRenderFloor:
    def test_batched_render_vs_per_image_reference(self):
        """``table1_mlp``'s split sizes at 8 px: bitwise equal to the
        per-image loop, >= 1.5x faster (measured 1.8-2.1x)."""
        generator = SyntheticImageClassification(
            num_train=10, num_test=10, image_size=8, noise=0.8, seed=1
        )
        fast_s = slow_s = float("inf")
        for seed in range(5):
            t0 = time.perf_counter()
            got = [
                generator._render_split(np.random.default_rng(seed), count)
                for count in (1600, 800)
            ]
            t1 = time.perf_counter()
            want = [
                reference_data.render_split_reference(
                    generator, np.random.default_rng(seed), count
                )
                for count in (1600, 800)
            ]
            t2 = time.perf_counter()
            for split, (features, labels) in zip(got, want):
                assert split.features.tobytes() == features.tobytes()
                assert split.labels.tobytes() == labels.tobytes()
            fast_s, slow_s = min(fast_s, t1 - t0), min(slow_s, t2 - t1)
        assert slow_s / fast_s >= 1.5, f"{slow_s / fast_s:.2f}x"


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
class TestInt8Floor:
    def test_fused_round_trip_vs_reference_composition(self):
        """An ``async_int8_pop`` upload: the fused kernel against the
        encode → decode → error composition, bitwise equal, >= 1.2x
        faster on the median of alternating trials."""
        fmt = get_wire_format("int8_sr")
        vec = np.random.default_rng(5).normal(size=TestInt8Counts.N)
        ratios = []
        for _ in range(9):
            t0 = time.perf_counter()
            for _ in range(20):
                got = fmt.transmit_with_error(vec)
            t1 = time.perf_counter()
            for _ in range(20):
                want = ref_quantise.transmit_with_error_reference(fmt, vec)
            t2 = time.perf_counter()
            assert got[0].tobytes() == want[0].tobytes() and got[1] == want[1]
            ratios.append((t2 - t1) / (t1 - t0))
        assert np.median(ratios) >= 1.2, f"{np.median(ratios):.2f}x"


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
        model.population_mask(self.N, 0.0)  # hashes and keeps the levels
        level, phase = model._population_level, model._phase(ids)
        times = np.linspace(0.0, 24.0, 13)
        fast_s = slow_s = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            got = [model.population_mask(self.N, t) for t in times]
            t1 = time.perf_counter()
            want = [
                ref_selection.threshold_mask_reference(model, level, phase, t)
                for t in times
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
