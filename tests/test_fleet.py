"""Vectorised fleets: resident-slab/FleetModule contracts and executor parity.

The fleet contract extends the executor contract (``tests/test_executor.py``):
running D architecture-identical replicas through ONE batched
forward/backward — the in-process executor's training bursts — leaves
every trajectory bitwise identical to the per-device reference loop
(``tests/reference_executor.py``) on the same seeds.  These tests pin:

* the :class:`~repro.sim.cluster.ArenaPool` slab storage contract
  (block arenas are slab rows; the next occupant writes its row in
  place; growth keeps values and drops cached modules, a release keeps
  them) and :meth:`~repro.comm.params.ParamArena.layout`;
* unit-level batched training parity for MLP / dropout models, and the
  serial fallback of conv/norm/pool trees (``fleet_capable``);
* end-to-end HADFL and baseline parity for the batched executor;
* the evaluation paths (arena-write ``evaluate_params``,
  ``Device.evaluate``) against a forward loop written here;
* serial fallback for non-fleet-capable models;
* the linter audit: the fleet surface adds no unsanctioned pricing
  sites or accounting kinds.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from reference_executor import ReferenceExecutor, reference_burst  # noqa: E402
from stacking import stack_arenas  # noqa: E402

from repro.autograd import Tensor, no_grad, softmax_cross_entropy  # noqa: E402
from repro.autograd import ops  # noqa: E402
from repro.comm.params import ArenaSlot, ParamArena  # noqa: E402
from repro.core import HADFLTrainer  # noqa: E402
from repro.experiments import ExperimentConfig, PopulationConfig  # noqa: E402
from repro.experiments.population import make_population  # noqa: E402
from repro.nn import fleet as fleet_module  # noqa: E402
from repro.nn.fleet import FleetModule, fleet_capable  # noqa: E402
from repro.nn.conv import Conv2d  # noqa: E402
from repro.nn.layers import Dropout, Flatten, Linear, ReLU, Sequential  # noqa: E402
from repro.nn.losses import evaluate  # noqa: E402
from repro.nn.models.mlp import MLP  # noqa: E402
from repro.nn.models.simple_cnn import SimpleCNN  # noqa: E402
from repro.nn.module import Module  # noqa: E402
from repro.nn.norm import BatchNorm2d, GroupNorm  # noqa: E402
from repro.nn.pooling import GlobalAvgPool2d, MaxPool2d  # noqa: E402
from repro.optim.sgd import SGD  # noqa: E402
from repro.sim import SerialExecutor, SimulatedCluster, make_executor  # noqa: E402
from repro.sim.cluster import ArenaPool  # noqa: E402
from repro.sim.device import LocalTrainTask  # noqa: E402
from repro.sim.executor import EXECUTOR_NAMES  # noqa: E402


def _mlp(seed):
    return MLP(12, hidden=(8, 8), num_classes=4, rng=np.random.default_rng(seed))


def _cnn(seed):
    return SimpleCNN(
        in_channels=1, num_classes=4, image_size=8, width=4,
        rng=np.random.default_rng(seed),
    )


def _dropnet(seed):
    rng = np.random.default_rng(seed)
    return Sequential(
        Linear(12, 16, rng=rng),
        ReLU(),
        Dropout(0.3, rng=np.random.default_rng(seed + 1000)),
        Linear(16, 4, rng=rng),
    )


# ---------------------------------------------------------------------- #
class TestArenaLayout:
    def test_layout_matches_flat_order(self):
        model = _cnn(3)
        arena = ParamArena(model)
        layout = arena.layout()
        assert all(isinstance(slot, ArenaSlot) for slot in layout)
        assert layout[0].offset == 0
        cursor = 0
        for slot in layout:
            assert slot.offset == cursor
            assert slot.size == int(np.prod(slot.shape))
            cursor += slot.size
        assert cursor == arena.num_scalars
        # Param slots precede buffer slots and cover exactly param_scalars.
        param_scalars = sum(s.size for s in layout if s.is_param)
        assert param_scalars == arena.param_scalars
        names = dict(model.named_parameters())
        for slot in layout:
            if slot.is_param:
                view = arena.flat[slot.offset : slot.offset + slot.size]
                np.testing.assert_array_equal(
                    view.reshape(slot.shape), names[slot.name].data
                )


def _pool(momentum=0.0):
    template = ParamArena(_mlp(0)).snapshot()
    return ArenaPool(
        _mlp, lambda arena: SGD(arena, lr=0.1, momentum=momentum), template
    )


class TestArenaPoolSlab:
    def test_rows_alias_block_arenas(self):
        pool = _pool()
        pool.reserve(3)
        blocks = [pool.acquire() for _ in range(3)]
        assert pool.params.shape == (3, blocks[0].arena.num_scalars)
        for row, block in enumerate(blocks):
            assert block.row == row
            assert block.arena.flat.base is pool.params.base
            assert np.shares_memory(pool.params[row], block.arena.flat)
            assert np.shares_memory(pool.grads[row], block.arena.grad_flat)
        # A write through a parameter lands in the slab row and vice versa.
        param = blocks[1].model.parameters()[0]
        param.data[...] = 7.5
        assert (pool.params[1, : param.data.size] == 7.5).all()
        pool.params[2, :4] = -3.25
        assert (blocks[2].arena.flat[:4] == -3.25).all()

    def test_next_occupant_writes_its_row_in_place(self):
        """Release leaves a row's parameters to its next occupant: the
        start vector lands in the same slab row, in the same shell."""
        population = make_population(
            PopulationConfig(population=50, participants=3, num_train=64, num_test=32)
        )
        pool = population.pool
        devices = [population.materialise(device_id) for device_id in (4, 5, 6)]
        pool.params[1, 0] = 42.0
        population.release(6)
        population.release(5)
        assert pool.params[1, 0] == 42.0  # release leaves parameters alone
        payload = np.full(pool.params.shape[1], 0.5)
        # The lowest free row goes out first; its arena never moved.
        again = population.materialise(9, payload)
        assert again is devices[1] and again.device_id == 9
        assert population.row_of(9) == 1
        assert again.arena.flat.base is pool.params.base
        assert (pool.params[1] == 0.5).all()

    def test_growth_keeps_every_block_state(self):
        pool, wide = _pool(momentum=0.9), _pool(momentum=0.9)
        pool.reserve(2)
        wide.reserve(8)  # never regrows
        blocks = [pool.acquire() for _ in range(2)]
        blocks[0].arena.flat[:3] = [1.0, 2.0, 3.0]
        snapshot = [block.arena.snapshot() for block in blocks]
        blocks.append(pool.acquire())  # outgrows the reservation
        assert pool.params.shape[0] == 4
        for block, before in zip(blocks, snapshot):
            np.testing.assert_array_equal(block.arena.read(), before)
            assert np.shares_memory(pool.params[block.row], block.arena.flat)
        # Each block's optimizer steps the rows its arena moved onto.
        wide_blocks = [wide.acquire() for _ in range(3)]
        wide_blocks[0].arena.flat[:3] = [1.0, 2.0, 3.0]
        rng = np.random.default_rng(3)
        x = rng.normal(size=(6, 12))
        y = rng.integers(0, 4, size=6)
        for block in blocks + wide_blocks:
            block.optimizer.zero_grad()
            softmax_cross_entropy(block.model(Tensor(x)), y).backward()
            block.optimizer.step()
        for block, twin in zip(blocks, wide_blocks):
            assert pool.params[block.row].tobytes() == wide.params[twin.row].tobytes()
            assert pool.grads[block.row].tobytes() == wide.grads[twin.row].tobytes()

    def test_regrowth_drops_fleet_modules_release_keeps_them(self):
        """A cached batched module views its rows' slab storage and block
        models: a release keeps both, a regrowth moves the storage and
        drops every cached module."""
        pool = _pool()
        pool.reserve(2)
        blocks = [pool.acquire() for _ in range(2)]
        module = FleetModule([b.model for b in blocks], pool.params[:2],
                             blocks[0].arena.layout(), grad_stack=pool.grads[:2])
        pool.fleets[(0, 2)] = module
        pool.release(blocks[1])
        assert pool.fleets == {(0, 2): module}
        assert pool.acquire() is blocks[1]
        blocks.append(pool.acquire())  # outgrows the reservation
        assert pool.fleets == {}

    def test_module_reused_after_release_trains_like_a_fresh_one(self):
        """Bursts on rows whose occupants changed: the module cached by
        the first cohort trains the second bitwise like a module built
        for it."""
        config = PopulationConfig(
            population=60, participants=4, num_train=128, num_test=32, seed=3,
        )
        ran = {}
        for name in ("reused", "fresh"):
            population = make_population(config)
            executor = SerialExecutor()
            for cohort in ((7, 11, 19, 23), (2, 8, 30, 41)):
                for device_id in cohort:
                    population.materialise(device_id)
                results = executor.run_tasks(
                    population, [LocalTrainTask(d, max_steps=3) for d in cohort]
                )
                for device_id in cohort:
                    population.release(device_id)
                if name == "fresh":
                    population.pool.fleets.clear()
            assert len(population.pool.fleets) == (name == "reused")
            ran[name] = (
                [results[d].losses for d in cohort],
                population.pool.params.tobytes(),
                population.pool.grads.tobytes(),
            )
        assert ran["reused"] == ran["fresh"]

    def test_optimizer_steps_write_through_slab(self):
        pool = _pool(momentum=0.9)
        blocks = [pool.acquire() for _ in range(2)]
        rng = np.random.default_rng(0)
        x = rng.normal(size=(6, 12))
        y = rng.integers(0, 4, size=6)
        for block in blocks:
            block.optimizer.zero_grad()
            loss = softmax_cross_entropy(block.model(Tensor(x)), y)
            loss.backward()
            before = pool.params.copy()
            block.optimizer.step()
            assert not np.array_equal(pool.params[block.row], before[block.row])
            # The optimizer steps the arena that lives on the slab row.
            assert block.optimizer.arena is block.arena
            assert np.shares_memory(block.optimizer.arena.flat, pool.params[block.row])


# ---------------------------------------------------------------------- #
def _serial_train_steps(models, optimizers, xs, ys):
    """Reference loop: each replica trains alone; returns per-step losses."""
    losses = []
    for step in range(len(xs)):
        step_losses = []
        for k, (model, optimizer) in enumerate(zip(models, optimizers)):
            optimizer.zero_grad()
            loss = softmax_cross_entropy(model(Tensor(xs[step, k])), ys[step, k])
            loss.backward()
            optimizer.step()
            step_losses.append(float(loss.data))
        losses.append(step_losses)
    return losses


def _fleet_train_steps(models, arenas, optimizers, xs, ys):
    stack, grad_stack = stack_arenas(arenas)
    module = FleetModule(models, stack, arenas[0].layout(), grad_stack=grad_stack)
    d = len(models)
    losses = []
    for step in range(len(xs)):
        for optimizer in optimizers:
            optimizer.zero_grad()
        logits = module.forward(Tensor(xs[step]), count=d)
        loss_vec = softmax_cross_entropy(logits, ys[step])
        loss_vec.backward(np.ones(d))
        module.adopt_member_grads(d)
        for optimizer in optimizers:
            optimizer.step()
        losses.append([float(v) for v in loss_vec.data])
    return losses


class TestFleetModuleParity:
    @pytest.mark.parametrize(
        "factory,x_shape",
        [(_mlp, (12,)), (_dropnet, (12,))],
        ids=["mlp", "dropout"],
    )
    def test_batched_training_bitwise_equals_serial(self, factory, x_shape):
        d, steps, batch = 4, 3, 6
        serial_models = [factory(k) for k in range(d)]
        fleet_models = [factory(k) for k in range(d)]
        serial_arenas = [ParamArena(m) for m in serial_models]
        fleet_arenas = [ParamArena(m) for m in fleet_models]
        serial_opts = [SGD(a, lr=0.05, momentum=0.9) for a in serial_arenas]
        fleet_opts = [SGD(a, lr=0.05, momentum=0.9) for a in fleet_arenas]
        rng = np.random.default_rng(9)
        xs = rng.normal(size=(steps, d, batch) + x_shape)
        ys = rng.integers(0, 4, size=(steps, d, batch))
        for m in serial_models + fleet_models:
            m.train()
        ref = _serial_train_steps(serial_models, serial_opts, xs, ys)
        got = _fleet_train_steps(fleet_models, fleet_arenas, fleet_opts, xs, ys)
        assert ref == got  # float-exact losses, every step, every replica
        for sa, fa in zip(serial_arenas, fleet_arenas):
            assert sa.read().tobytes() == fa.read().tobytes()
            assert sa.grad_flat.tobytes() == fa.grad_flat.tobytes()

    @pytest.mark.parametrize(
        "factory,shared_shape", [(_mlp, (5, 12))], ids=["mlp"]
    )
    def test_shared_batch_rejected(self, factory, shared_shape):
        """One input mode: a shared ``(N, ...)`` batch is a ValueError, never
        a silent broadcast — even when N happens to equal the replica count."""
        models = [factory(k) for k in range(3)]
        arenas = [ParamArena(m) for m in models]
        stack, grad_stack = stack_arenas(arenas)
        module = FleetModule(models, stack, arenas[0].layout(), grad_stack)
        with pytest.raises(ValueError, match=r"rank >= 3"):
            module.forward(Tensor(np.zeros(shared_shape)))

    def test_capability_checks(self):
        assert fleet_capable(_mlp(0))
        assert fleet_capable(_dropnet(0))
        # Conv/norm/pool trees take the serial fallback (it is as fast).
        assert not fleet_capable(_cnn(0))
        for layer in (
            Conv2d(1, 2, 3), BatchNorm2d(2), GroupNorm(1, 2),
            MaxPool2d(2), GlobalAvgPool2d(),
        ):
            assert not fleet_capable(layer)
            assert not fleet_capable(Sequential(Linear(4, 4), ReLU(), layer))

        class Custom(Module):
            def forward(self, x):
                return x

        assert not fleet_capable(Custom())
        assert not fleet_capable(Sequential(Linear(4, 4), Custom()))

        class SneakyLinear(Linear):
            def forward(self, x):
                return super().forward(x) * 2

        # Subclasses may override forward: exact-type dispatch only.
        assert not fleet_capable(SneakyLinear(4, 4))


# ---------------------------------------------------------------------- #
def _config(**overrides):
    defaults = dict(
        model="mlp",
        num_train=256,
        num_test=128,
        image_size=8,
        target_epochs=6.0,
        seed=11,
        momentum=0.9,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


def _run_hadfl(config):
    cluster = config.make_cluster()
    trainer = HADFLTrainer(cluster, params=config.hadfl_params(), seed=config.seed)
    result = trainer.run(target_epochs=config.target_epochs)
    return result, cluster, trainer


def _assert_bitwise_equal(ref, other):
    ref_result, ref_cluster, _ref_trainer = ref
    result, cluster, _trainer = other
    assert len(ref_result.rounds) == len(result.rounds)
    np.testing.assert_array_equal(ref_result.train_losses(), result.train_losses())
    np.testing.assert_array_equal(
        ref_result.test_accuracies(), result.test_accuracies()
    )
    np.testing.assert_array_equal(ref_result.times(), result.times())
    for ra, rb in zip(ref_result.rounds, result.rounds):
        assert ra.selected == rb.selected
        assert ra.versions == rb.versions
        assert ra.comm_bytes == rb.comm_bytes
    for ref_device, device in zip(ref_cluster.devices, cluster.devices):
        assert ref_device.version == device.version
        np.testing.assert_array_equal(ref_device.get_params(), device.get_params())
        np.testing.assert_array_equal(
            ref_device.arena.grad_flat, device.arena.grad_flat
        )
        for ref_vec, vec in zip(
            ref_device.optimizer.flat_state(), device.optimizer.flat_state()
        ):
            np.testing.assert_array_equal(ref_vec, vec)
        assert (
            ref_device._rng.bit_generator.state == device._rng.bit_generator.state
        )
        assert (
            ref_device.cycler.get_state()["rng_state"]
            == device.cycler.get_state()["rng_state"]
        )


class TestFleetExecutorParity:
    def test_fixed_seed_run_identical_to_serial(self):
        ref = _run_hadfl(_config(executor=ReferenceExecutor()))
        assert len(ref[0].rounds) >= 2
        _assert_bitwise_equal(ref, _run_hadfl(_config(executor="fleet")))

    def test_jittered_devices_identical_to_serial(self):
        """Jitter draws live on the device RNG; ``Device.plan`` pre-draws
        them in exactly the reference loop's order (including a deadline
        burst's consumed overshoot probe)."""
        ref = _run_hadfl(_config(executor=ReferenceExecutor(), jitter=0.2, seed=5))
        _assert_bitwise_equal(
            ref, _run_hadfl(_config(executor="fleet", jitter=0.2, seed=5))
        )

    def test_cnn_run_identical_to_serial(self):
        ref = _run_hadfl(_config(executor=ReferenceExecutor(), model="simple_cnn",
                                 target_epochs=3.0))
        _assert_bitwise_equal(
            ref,
            _run_hadfl(_config(executor="fleet", model="simple_cnn",
                               target_epochs=3.0)),
        )

    def test_dropout_streams_identical_to_serial(self):
        def factory(rng):
            return Sequential(
                Flatten(),
                Linear(3 * 8 * 8, 32, rng=rng),
                ReLU(),
                Dropout(0.4, rng=np.random.default_rng(rng.integers(2**31))),
                Linear(32, 10, rng=rng),
            )

        def build(executor):
            config = _config(executor=executor)
            train, test = config.make_data()
            from repro.sim import SimulatedCluster

            return SimulatedCluster(
                model_factory=factory,
                train_set=train,
                test_set=test,
                specs=config.make_specs(),
                batch_size=config.batch_size,
                lr_schedule=config.make_lr_schedule(),
                network=config.make_network(),
                seed=config.seed,
                executor=executor,
            )

        clusters = {"reference": build(ReferenceExecutor()), "fleet": build("fleet")}
        for cluster in clusters.values():
            tasks = [
                LocalTrainTask(device_id=d.device_id, max_steps=6, start_time=0.0)
                for d in cluster.devices
            ]
            cluster.run_local_tasks(tasks)
        for ref_device, device in zip(
            clusters["reference"].devices, clusters["fleet"].devices
        ):
            np.testing.assert_array_equal(
                ref_device.get_params(), device.get_params()
            )
            # Dropout streams advanced identically.
            serial_states = [
                s for s in ref_device.export_train_state()["module_rng_states"]
            ]
            fleet_states = [
                s for s in device.export_train_state()["module_rng_states"]
            ]
            assert serial_states == fleet_states

    def test_divergent_step_counts_batch_as_prefixes(self):
        """Mixed step-count bursts exercise the shrinking active prefix."""
        def run(executor):
            config = _config(executor=executor)
            cluster = config.make_cluster()
            tasks = [
                LocalTrainTask(device_id=d.device_id, max_steps=2 + 3 * i)
                for i, d in enumerate(cluster.devices)
            ]
            results = cluster.run_local_tasks(tasks)
            return results, cluster

        ref, ref_cluster = run(ReferenceExecutor())
        got, cluster = run("fleet")
        assert set(ref) == set(got)
        for device_id in ref:
            assert ref[device_id].steps == got[device_id].steps
            assert ref[device_id].losses == got[device_id].losses
            assert ref[device_id].elapsed == got[device_id].elapsed
        for a, b in zip(ref_cluster.devices, cluster.devices):
            np.testing.assert_array_equal(a.get_params(), b.get_params())

    def test_mixed_liveness_run_matches_reference(self, monkeypatch):
        """A device that never stepped (its first burst had ``max_steps=0``,
        so its gradients are still ``None``) trains in one batched run
        with devices whose gradient views are live: every bias row gets
        the per-device loop's bytes where a batch sum is ``-0.0``.  A
        NumPy 2.4.6 axis sum never returns one, so the bias writer is fed
        sums whose zeros — the shut ReLU units' — carry the sign bit."""
        flipped = []
        write_bias_grad = ops.write_bias_grad

        def signed_zero_sums(bias, grad):
            flipped.append(int(np.count_nonzero(grad == 0.0)))
            write_bias_grad(bias, np.where(grad == 0.0, -0.0, grad))

        monkeypatch.setattr(ops, "write_bias_grad", signed_zero_sums)
        monkeypatch.setattr(fleet_module, "write_bias_grad", signed_zero_sums)

        def dead_unit_mlp(rng):
            model = MLP(3 * 8 * 8, hidden=(16,), num_classes=10, rng=rng)
            first = next(m for m in model.modules() if type(m) is Linear)
            first.bias.data[:4] = -50.0  # four units whose gates never open
            return model

        def run(executor):
            config = _config()
            train, test = config.make_data()
            cluster = SimulatedCluster(
                model_factory=dead_unit_mlp, train_set=train, test_set=test,
                specs=config.make_specs(), batch_size=config.batch_size,
                seed=config.seed, executor=executor,
            )
            ids = [d.device_id for d in cluster.devices]
            results = [
                cluster.run_local_tasks([
                    LocalTrainTask(device_id=i, start_time=start, max_steps=steps(i))
                    for i in ids
                ])
                for start, steps in ((0.0, lambda i: 0 if i == ids[0] else 2),
                                     (10.0, lambda i: 1))
            ]
            return results, cluster

        ref, ref_cluster = run(ReferenceExecutor())
        got, cluster = run("serial")
        assert sum(flipped) > 0
        assert [{i: r.losses for i, r in burst.items()} for burst in ref] == [
            {i: r.losses for i, r in burst.items()} for burst in got
        ]
        for a, b in zip(ref_cluster.devices, cluster.devices):
            assert a.arena.grad_flat.tobytes() == b.arena.grad_flat.tobytes()
            assert a.get_params().tobytes() == b.get_params().tobytes()

    def test_zero_step_burst(self):
        config = _config(executor="fleet")
        cluster = config.make_cluster()
        tasks = [
            LocalTrainTask(device_id=d.device_id, max_steps=0)
            for d in cluster.devices
        ]
        results = cluster.run_local_tasks(tasks)
        for result in results.values():
            assert result.steps == 0
            assert result.losses == []

    def test_non_capable_model_falls_back_to_serial(self):
        class Scaled(Module):
            """Fleet-unknown wrapper: forces the serial fallback."""

            def __init__(self, rng):
                super().__init__()
                self.net = MLP(3 * 8 * 8, hidden=(16,), num_classes=10, rng=rng)

            def forward(self, x):
                return self.net(x) * 1.0

        def build(executor):
            config = _config(executor=executor)
            train, test = config.make_data()
            from repro.sim import SimulatedCluster

            return SimulatedCluster(
                model_factory=lambda rng: Scaled(rng),
                train_set=train,
                test_set=test,
                specs=config.make_specs(),
                batch_size=config.batch_size,
                seed=config.seed,
                executor=executor,
            )

        clusters = {"reference": build(ReferenceExecutor()), "fleet": build("fleet")}
        assert clusters["fleet"].devices[0].burst_signature is None
        for cluster in clusters.values():
            tasks = [
                LocalTrainTask(device_id=d.device_id, max_steps=4, start_time=0.0)
                for d in cluster.devices
            ]
            cluster.run_local_tasks(tasks)
        for a, b in zip(clusters["reference"].devices, clusters["fleet"].devices):
            np.testing.assert_array_equal(a.get_params(), b.get_params())

    def test_plan_matches_reference_timing(self):
        """One timeline planner for every task under jitter: steps,
        elapsed time and the jitter stream's final state equal the
        interleaved reference burst's (a deadline burst consumes its
        overshooting draw, a fixed count and a reached cap draw exactly
        one duration per step)."""
        config = _config(jitter=0.4, seed=2)
        serial_device = config.make_cluster().devices[0]
        fleet_device = config.make_cluster().devices[0]
        tasks = [
            LocalTrainTask(device_id=0, max_steps=5, start_time=1.0),
            LocalTrainTask(device_id=0, max_steps=0, start_time=1.0),
            LocalTrainTask(device_id=0, deadline=10.0, start_time=9.0),
            # Capped: the cap binds long before the deadline.
            LocalTrainTask(device_id=0, deadline=40.0, start_time=20.0, max_steps=3),
            # Capped, but the deadline binds first.
            LocalTrainTask(device_id=0, deadline=51.0, start_time=50.0, max_steps=99),
            LocalTrainTask(device_id=0, deadline=60.0, start_time=60.0, max_steps=3),
        ]
        steps = []
        for task in tasks:
            ref = reference_burst(
                serial_device, task.deadline, task.start_time, task.max_steps
            )
            planned = fleet_device.plan(task.start_time, task.deadline, task.max_steps)
            assert planned == (ref.steps, ref.elapsed)
            assert (
                serial_device._rng.bit_generator.state
                == fleet_device._rng.bit_generator.state
            )
            steps.append(ref.steps)
        assert steps[:2] == [5, 0] and steps[3] == 3 and steps[5] == 0
        assert 0 < steps[2] and 0 < steps[4] < 99


class TestExecutorInterface:
    def test_make_executor_resolves_fleet(self):
        assert "fleet" in EXECUTOR_NAMES
        assert type(make_executor("fleet")) is SerialExecutor
        assert type(make_executor("serial")) is SerialExecutor

    def test_empty_batch(self):
        config = _config(executor="fleet")
        cluster = config.make_cluster()
        assert cluster.run_local_tasks([]) == {}

    def test_duplicate_device_tasks_rejected(self):
        config = _config(executor="fleet")
        cluster = config.make_cluster()
        tasks = [
            LocalTrainTask(device_id=0, max_steps=1, start_time=0.0),
            LocalTrainTask(device_id=0, max_steps=1, start_time=0.0),
        ]
        with pytest.raises(ValueError):
            cluster.run_local_tasks(tasks)


# ---------------------------------------------------------------------- #
class TestEvaluationPaths:
    def _cluster(self, executor="serial", **overrides):
        config = _config(executor=executor, **overrides)
        cluster = config.make_cluster()
        tasks = [
            LocalTrainTask(device_id=d.device_id, max_steps=3, start_time=0.0)
            for d in cluster.devices
        ]
        cluster.run_local_tasks(tasks)
        return cluster

    def test_evaluate_params_arena_write_matches_codec_route(self):
        """The vectorized arena write + ``evaluate_params`` are pinned
        bitwise against the route a per-parameter codec would take,
        written out here: a fresh model loaded slot by slot, then one
        forward per test chunk."""
        cluster = self._cluster()
        device = cluster.devices[1]
        flat = device.get_params()
        model = _config().make_model_factory()(np.random.default_rng(0))
        arena = ParamArena(model, bind_grads=False)
        for slot in device.arena.layout():
            arena.flat[slot.offset : slot.offset + slot.size] = flat[
                slot.offset : slot.offset + slot.size
            ]
        model.eval()
        features, labels = cluster.test_set.features, cluster.test_set.labels
        loss_sum, correct = 0.0, 0.0
        with no_grad():
            for start in range(0, len(features), 32):
                lb = labels[start : start + 32]
                logits = model(Tensor(features[start : start + 32]))
                loss_sum += float(softmax_cross_entropy(logits, lb).data) * len(lb)
                correct += float((logits.data.argmax(axis=1) == lb).mean()) * len(lb)
        want = (loss_sum / len(labels), correct / len(labels))
        assert cluster.evaluate_params(flat, batch_size=32) == want

    def test_evaluate_device_matches_codec_round_trip(self):
        cluster = self._cluster()
        features, labels = cluster.test_set.features, cluster.test_set.labels
        for device in cluster.devices:
            direct = evaluate(
                device.model, device.loss_fn, features, labels, batch_size=32
            )
            assert device.model.training  # evaluate() restores the mode
            routed = cluster.evaluate_params(device.get_params(), batch_size=32)
            assert direct == routed


# ---------------------------------------------------------------------- #
class TestFleetContractAudit:
    def test_fleet_adds_no_pricing_or_accounting_sites(self):
        """Audit: no record() charges and no raw pricing-primitive calls
        anywhere in the fleet path — it moves compute, never bytes."""
        import ast

        from test_contracts import _chain, _package

        from repro.sim.network import NetworkModel

        primitives = {name for name in vars(NetworkModel) if "time" in name}
        assert "p2p_time_between" in primitives
        for rel, tree in _package():
            if rel not in ("nn/fleet.py", "sim/fleet.py"):
                continue
            for node in ast.walk(tree):
                if isinstance(node, ast.Call):
                    called = _chain(node.func)[-1:]
                    assert called != ["record"], (rel, node.lineno)
                    assert not set(called) & primitives, (rel, node.lineno)
