"""Vectorised fleets: FleetArena/FleetModule contracts and executor parity.

The fleet contract extends the executor contract (``tests/test_executor.py``):
running D architecture-identical replicas through ONE batched
forward/backward — ``executor="fleet"`` training bursts — leaves every
trajectory bitwise identical to the serial per-device loop on the same
seeds.  These tests pin:

* the :class:`~repro.comm.params.FleetArena` storage contract (aliasing,
  rebinding, release) and :meth:`~repro.comm.params.ParamArena.layout`;
* unit-level batched training parity for MLP / CNN / dropout models;
* end-to-end HADFL and baseline parity for ``executor="fleet"``;
* the evaluation paths (arena-write ``evaluate_params``,
  ``Device.evaluate``) against a forward loop written here;
* serial fallback for non-fleet-capable models;
* the linter audit: the fleet surface adds no unsanctioned pricing
  sites or accounting kinds.
"""

import numpy as np
import pytest

from repro.autograd import Tensor, no_grad, softmax_cross_entropy
from repro.comm.params import ArenaSlot, FleetArena, ParamArena
from repro.core import HADFLTrainer
from repro.experiments import ExperimentConfig
from repro.nn.fleet import FleetModule, fleet_capable
from repro.nn.layers import Dropout, Flatten, Linear, ReLU, Sequential
from repro.nn.losses import evaluate
from repro.nn.models.mlp import MLP
from repro.nn.models.simple_cnn import SimpleCNN
from repro.nn.module import Module
from repro.optim.sgd import SGD
from repro.parallel import LocalTrainTask
from repro.sim import FleetExecutor, SerialExecutor, make_executor
from repro.sim.executor import EXECUTOR_NAMES
from repro.sim.fleet import burst_signature, plan_burst


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


class TestFleetArena:
    def test_rows_alias_member_arenas(self):
        # The module owns its arena (the back-reference is gone: no
        # module <-> arena cycle), so the test holds the models itself.
        models = [_mlp(k) for k in range(3)]
        arenas = [ParamArena(model) for model in models]
        before = [arena.read().copy() for arena in arenas]
        fleet = FleetArena(arenas)
        assert fleet.stack.shape == (3, arenas[0].num_scalars)
        for k, arena in enumerate(arenas):
            np.testing.assert_array_equal(fleet.stack[k], before[k])
            assert np.shares_memory(fleet.stack, arena.flat)
            assert np.shares_memory(fleet.grad_stack, arena.grad_flat)
        # A write through a parameter lands in the fleet row and vice versa.
        param = models[1].parameters()[0]
        param.data[...] = 7.5
        assert (fleet.stack[1, : param.data.size] == 7.5).all()
        fleet.stack[2, :4] = -3.25
        assert (arenas[2].flat[:4] == -3.25).all()

    def test_release_restores_private_storage(self):
        models = [_mlp(k) for k in range(2)]
        arenas = [ParamArena(model) for model in models]
        fleet = FleetArena(arenas)
        fleet.stack[0, 0] = 42.0
        fleet.release()
        for arena in arenas:
            assert not np.shares_memory(fleet.stack, arena.flat)
            assert not np.shares_memory(fleet.grad_stack, arena.grad_flat)
        assert arenas[0].flat[0] == 42.0
        # The released arenas still alias their parameters.
        assert np.shares_memory(models[0].parameters()[0].data, arenas[0].flat)

    def test_mismatched_arenas_rejected(self):
        with pytest.raises(ValueError):
            FleetArena([])
        small = ParamArena(_mlp(0))
        big = ParamArena(MLP(12, hidden=(16,), num_classes=4,
                             rng=np.random.default_rng(1)))
        with pytest.raises(ValueError):
            FleetArena([small, big])

    def test_optimizer_steps_write_through_stack(self):
        models = [_mlp(k) for k in range(2)]
        arenas = [ParamArena(model) for model in models]
        optimizers = [SGD(m.parameters(), lr=0.1, momentum=0.9) for m in models]
        fleet = FleetArena(arenas)
        rng = np.random.default_rng(0)
        x = rng.normal(size=(6, 12))
        y = rng.integers(0, 4, size=6)
        for model, optimizer in zip(models, optimizers):
            optimizer.zero_grad()
            loss = softmax_cross_entropy(model(Tensor(x)), y)
            loss.backward()
            before = fleet.stack.copy()
            optimizer.step()
            assert not np.array_equal(fleet.stack, before)
        fleet.release()


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
    fleet = FleetArena(arenas)
    module = FleetModule(
        models, fleet.stack, arenas[0].layout(), grad_stack=fleet.grad_stack
    )
    d = len(models)
    losses = []
    try:
        for step in range(len(xs)):
            for optimizer in optimizers:
                optimizer.zero_grad()
            module.sync_grad_liveness(d)
            logits = module.forward(Tensor(xs[step]), count=d)
            loss_vec = softmax_cross_entropy(logits, ys[step])
            loss_vec.backward(np.ones(d))
            module.adopt_member_grads(d)
            for optimizer in optimizers:
                optimizer.step()
            losses.append([float(v) for v in loss_vec.data])
    finally:
        fleet.release()
    return losses


class TestFleetModuleParity:
    @pytest.mark.parametrize(
        "factory,x_shape",
        [(_mlp, (12,)), (_cnn, (1, 8, 8)), (_dropnet, (12,))],
        ids=["mlp", "cnn", "dropout"],
    )
    def test_batched_training_bitwise_equals_serial(self, factory, x_shape):
        d, steps, batch = 4, 3, 6
        serial_models = [factory(k) for k in range(d)]
        fleet_models = [factory(k) for k in range(d)]
        serial_arenas = [ParamArena(m) for m in serial_models]
        fleet_arenas = [ParamArena(m) for m in fleet_models]
        serial_opts = [SGD(m.parameters(), lr=0.05, momentum=0.9)
                       for m in serial_models]
        fleet_opts = [SGD(m.parameters(), lr=0.05, momentum=0.9)
                      for m in fleet_models]
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
        "factory,shared_shape",
        [(_mlp, (5, 12)), (_cnn, (5, 1, 8, 8)), (_cnn, (3, 1, 8, 8))],
        ids=["mlp", "cnn", "cnn-batch-equals-replicas"],
    )
    def test_shared_batch_rejected(self, factory, shared_shape):
        """One input mode: a shared ``(N, ...)`` batch is a ValueError, never
        a silent broadcast — even when N happens to equal the replica count."""
        models = [factory(k) for k in range(3)]
        fleet = FleetArena([ParamArena(m) for m in models])
        module = FleetModule(
            models, fleet.stack, fleet.arenas[0].layout(), fleet.grad_stack
        )
        with pytest.raises(ValueError, match=r"\(D, N, C_in, H, W\)|rank >= 3"):
            module.forward(Tensor(np.zeros(shared_shape)))

    def test_capability_checks(self):
        assert fleet_capable(_mlp(0))
        assert fleet_capable(_cnn(0))

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
    cluster.close()
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
        ref = _run_hadfl(_config(executor="serial"))
        assert len(ref[0].rounds) >= 2
        _assert_bitwise_equal(ref, _run_hadfl(_config(executor="fleet")))

    def test_jittered_devices_identical_to_serial(self):
        """Jitter draws live on the device RNG; plan_burst pre-draws them
        in exactly the serial order (including train_until's consumed
        overshoot probe)."""
        ref = _run_hadfl(_config(executor="serial", jitter=0.2, seed=5))
        _assert_bitwise_equal(
            ref, _run_hadfl(_config(executor="fleet", jitter=0.2, seed=5))
        )

    def test_cnn_run_identical_to_serial(self):
        ref = _run_hadfl(_config(executor="serial", model="simple_cnn",
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

        clusters = {name: build(name) for name in ("serial", "fleet")}
        for cluster in clusters.values():
            tasks = [
                LocalTrainTask(device_id=d.device_id, num_steps=6, start_time=0.0)
                for d in cluster.devices
            ]
            cluster.run_local_tasks(tasks)
            cluster.close()
        for ref_device, device in zip(
            clusters["serial"].devices, clusters["fleet"].devices
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
        """Mixed num_steps bursts exercise the shrinking active prefix."""
        def run(executor):
            config = _config(executor=executor)
            cluster = config.make_cluster()
            tasks = [
                LocalTrainTask(device_id=d.device_id, num_steps=2 + 3 * i)
                for i, d in enumerate(cluster.devices)
            ]
            results = cluster.run_local_tasks(tasks)
            cluster.close()
            return results, cluster

        ref, ref_cluster = run("serial")
        got, cluster = run("fleet")
        assert set(ref) == set(got)
        for device_id in ref:
            assert ref[device_id].steps == got[device_id].steps
            assert ref[device_id].losses == got[device_id].losses
            assert ref[device_id].elapsed == got[device_id].elapsed
        for a, b in zip(ref_cluster.devices, cluster.devices):
            np.testing.assert_array_equal(a.get_params(), b.get_params())

    def test_zero_step_burst(self):
        config = _config(executor="fleet")
        cluster = config.make_cluster()
        tasks = [
            LocalTrainTask(device_id=d.device_id, num_steps=0)
            for d in cluster.devices
        ]
        results = cluster.run_local_tasks(tasks)
        for result in results.values():
            assert result.steps == 0
            assert result.losses == []
            assert np.isnan(result.mean_loss)
        cluster.close()

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

        clusters = {name: build(name) for name in ("serial", "fleet")}
        assert burst_signature(clusters["fleet"].devices[0]) is None
        for cluster in clusters.values():
            tasks = [
                LocalTrainTask(device_id=d.device_id, num_steps=4, start_time=0.0)
                for d in cluster.devices
            ]
            cluster.run_local_tasks(tasks)
            cluster.close()
        for a, b in zip(clusters["serial"].devices, clusters["fleet"].devices):
            np.testing.assert_array_equal(a.get_params(), b.get_params())

    def test_plan_burst_matches_serial_timing(self):
        config = _config(jitter=0.4, seed=2)
        serial_cluster = config.make_cluster()
        fleet_cluster = config.make_cluster()
        serial_device = serial_cluster.devices[0]
        fleet_device = fleet_cluster.devices[0]
        ref = serial_device.train_steps(5, start_time=1.0)
        steps, elapsed = plan_burst(
            fleet_device, LocalTrainTask(device_id=0, num_steps=5, start_time=1.0)
        )
        assert (steps, elapsed) == (5, ref.elapsed)
        ref_until = serial_device.train_until(deadline=3.0, start_time=2.0)
        steps, elapsed = plan_burst(
            fleet_device,
            LocalTrainTask(device_id=0, deadline=3.0, start_time=2.0),
        )
        assert steps == ref_until.steps
        assert elapsed == ref_until.elapsed
        # The consumed overshoot probe left both streams in the same state.
        assert (
            serial_device._rng.bit_generator.state
            == fleet_device._rng.bit_generator.state
        )


class TestExecutorInterface:
    def test_make_executor_resolves_fleet(self):
        assert "fleet" in EXECUTOR_NAMES
        assert isinstance(make_executor("fleet"), FleetExecutor)
        assert isinstance(make_executor("serial"), SerialExecutor)

    def test_empty_batch(self):
        config = _config(executor="fleet")
        cluster = config.make_cluster()
        assert cluster.run_local_tasks([]) == {}
        cluster.close()

    def test_duplicate_device_tasks_rejected(self):
        config = _config(executor="fleet")
        cluster = config.make_cluster()
        tasks = [
            LocalTrainTask(device_id=0, num_steps=1, start_time=0.0),
            LocalTrainTask(device_id=0, num_steps=1, start_time=0.0),
        ]
        with pytest.raises(ValueError):
            cluster.run_local_tasks(tasks)
        cluster.close()


# ---------------------------------------------------------------------- #
class TestEvaluationPaths:
    def _cluster(self, executor="serial", **overrides):
        config = _config(executor=executor, **overrides)
        cluster = config.make_cluster()
        tasks = [
            LocalTrainTask(device_id=d.device_id, num_steps=3, start_time=0.0)
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
        cluster.close()

    def test_evaluate_device_matches_codec_round_trip(self):
        cluster = self._cluster()
        features, labels = cluster.test_set.features, cluster.test_set.labels
        for device in cluster.devices:
            direct = evaluate(
                device.model, device.loss_fn, features, labels, batch_size=32
            )
            device.model.train()  # evaluate() leaves its model in eval mode
            routed = cluster.evaluate_params(device.get_params(), batch_size=32)
            assert direct == routed
        cluster.close()


# ---------------------------------------------------------------------- #
class TestFleetLinterAudit:
    FLEET_SOURCES = (
        "src/repro/nn/fleet.py",
        "src/repro/sim/fleet.py",
        "src/repro/comm/params.py",
        "src/repro/sim/executor.py",
    )

    def test_fleet_surface_is_contract_clean(self):
        """The full linter (determinism, aliasing, wire boundary,
        accounting, fork safety) passes over the fleet modules."""
        from repro.analysis import run_analysis

        report = run_analysis(list(self.FLEET_SOURCES))
        assert report.ok, report.render_text()

    def test_fleet_adds_no_pricing_or_accounting_sites(self):
        """Audit: no record() charges and no raw pricing-primitive calls
        anywhere in the fleet path — it moves compute, never bytes."""
        import ast

        from repro.analysis.base import call_name_chain
        from repro.analysis.rules.wireboundary import PRICING_PRIMITIVES

        for path in ("src/repro/nn/fleet.py", "src/repro/sim/fleet.py"):
            with open(path, "r", encoding="utf-8") as fh:
                tree = ast.parse(fh.read(), filename=path)
            for node in ast.walk(tree):
                if not isinstance(node, ast.Call):
                    continue
                chain = call_name_chain(node.func)
                assert not (chain and chain[-1] == "record"), (path, node.lineno)
                assert not (chain and chain[-1] in PRICING_PRIMITIVES), (
                    path, node.lineno,
                )

    def test_fleet_has_no_wire_allowlist_entries(self):
        """The sanctioned-pricing inventory gained no fleet entries."""
        from repro.analysis.rules.wireboundary import DEFAULT_ALLOWLIST, load_allowlist

        for rel, _qual in load_allowlist(DEFAULT_ALLOWLIST):
            assert "fleet" not in rel

    def test_fleet_module_is_fork_shipped_scope(self):
        from repro.analysis.rules.forksafety import FORK_SHIPPED_PREFIXES

        assert "repro/sim/fleet.py" in FORK_SHIPPED_PREFIXES
        assert any(
            "repro/nn/fleet.py".startswith(p) for p in FORK_SHIPPED_PREFIXES
        )
