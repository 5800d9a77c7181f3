"""The executor: bitwise parity with the per-device reference loop.

The contract (see ``repro.sim.executor``): running a round's local
bursts through the executor leaves the live devices — parameters, losses,
versions, optimizer state, RNG streams — in exactly the state the
per-device loop (``tests/reference_executor.py``) produces on the same
seeds.  These tests pin that bitwise, for plain runs, jittered devices,
mid-window failures, momentum state, and dropout streams.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from reference_executor import ReferenceExecutor  # noqa: E402

from repro.baselines import (  # noqa: E402
    DecentralizedFedAvgTrainer,
    DistributedTrainer,
)
from repro.core import HADFLParams, HADFLTrainer  # noqa: E402
from repro.experiments import ExperimentConfig, run_scheme  # noqa: E402
from repro.nn.layers import Dropout, Flatten, Linear, ReLU, Sequential  # noqa: E402
from repro.sim import (  # noqa: E402
    FailureInjector,
    SerialExecutor,
    SimulatedCluster,
    make_executor,
)
from repro.sim.device import LocalTrainTask  # noqa: E402
from repro.sim.executor import EXECUTOR_NAMES  # noqa: E402

# "fleet" names the same executor (see test_make_executor_resolution).
BACKENDS = ("serial",)


def _config(**overrides):
    defaults = dict(
        model="mlp",
        num_train=256,
        num_test=128,
        image_size=8,
        target_epochs=6.0,
        seed=11,
        momentum=0.9,  # exercises the optimizer's flat state
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


def _run_hadfl(config, failure_injector=None):
    """Run HADFL returning (result, cluster, trainer) for state inspection."""
    cluster = config.make_cluster(failure_injector=failure_injector)
    trainer = HADFLTrainer(cluster, params=config.hadfl_params(), seed=config.seed)
    result = trainer.run(target_epochs=config.target_epochs)
    return result, cluster, trainer


def _assert_bitwise_equal(ref, other, backend):
    ref_result, ref_cluster, ref_trainer = ref
    result, cluster, trainer = other
    assert len(ref_result.rounds) == len(result.rounds), backend
    np.testing.assert_array_equal(
        ref_result.train_losses(), result.train_losses(), err_msg=backend
    )
    np.testing.assert_array_equal(
        ref_result.test_accuracies(), result.test_accuracies(), err_msg=backend
    )
    np.testing.assert_array_equal(
        ref_result.times(), result.times(), err_msg=backend
    )
    for ra, rb in zip(ref_result.rounds, result.rounds):
        assert ra.selected == rb.selected, backend
        assert ra.versions == rb.versions, backend
        assert ra.comm_bytes == rb.comm_bytes, backend
    np.testing.assert_array_equal(
        ref_trainer.global_params, trainer.global_params, err_msg=backend
    )
    for ref_device, device in zip(ref_cluster.devices, cluster.devices):
        assert ref_device.version == device.version, backend
        np.testing.assert_array_equal(
            ref_device.get_params(), device.get_params(), err_msg=backend
        )
        for ref_vec, vec in zip(
            ref_device.optimizer.flat_state(), device.optimizer.flat_state()
        ):
            np.testing.assert_array_equal(ref_vec, vec, err_msg=backend)
        # Post-burst gradient state (the last local step's accumulation)
        # matches the reference bitwise.
        np.testing.assert_array_equal(
            ref_device.arena.grad_flat, device.arena.grad_flat, err_msg=backend
        )
        # The RNG streams advanced identically: the next draws agree.
        assert (
            ref_device._rng.bit_generator.state == device._rng.bit_generator.state
        ), backend


class TestHADFLParity:
    def test_fixed_seed_run_identical_across_backends(self):
        ref = _run_hadfl(_config(executor=ReferenceExecutor()))
        assert len(ref[0].rounds) >= 2
        for backend in BACKENDS:
            other = _run_hadfl(_config(executor=backend))
            _assert_bitwise_equal(ref, other, backend)

    def test_jittered_devices_identical_across_backends(self):
        """Jitter draws one lognormal per step (plus the final probe of
        each deadline burst) from the device RNG — the stream must
        advance exactly as the reference loop advances it."""
        ref = _run_hadfl(_config(executor=ReferenceExecutor(), jitter=0.2, seed=5))
        for backend in BACKENDS:
            other = _run_hadfl(_config(executor=backend, jitter=0.2, seed=5))
            _assert_bitwise_equal(ref, other, backend)

    def test_mid_window_failure_identical_across_backends(self):
        """A device dropping mid-window truncates its burst via the
        effective deadline; the truncated burst must match the
        reference bit-for-bit."""

        def injector():
            failures = FailureInjector()
            failures.fail(0, down_at=3.0, up_at=30.0)
            return failures

        config = lambda backend: _config(  # noqa: E731
            executor=backend, target_epochs=4.0, seed=3, num_selected=2
        )
        ref = _run_hadfl(config(ReferenceExecutor()), failure_injector=injector())
        # The failure actually truncated device 0's burst: it finished
        # round 1 with fewer steps than its equal-power peer.
        last = ref[0].rounds[-1].versions
        assert last[0] < last[1]
        for backend in BACKENDS:
            other = _run_hadfl(config(backend), failure_injector=injector())
            _assert_bitwise_equal(ref, other, backend)

    def test_executor_is_the_clusters(self):
        """The backend is chosen in one place: the trainer runs on the
        cluster's executor and HADFLParams carries no override.  The two
        inert knobs stop at the configs: no runtime class takes them."""
        config = _config()
        cluster = config.make_cluster()
        trainer = HADFLTrainer(cluster, params=config.hadfl_params())
        assert trainer.executor is cluster.executor
        assert not hasattr(trainer, "close")
        train, test = config.make_data()
        removed = (
            lambda: HADFLParams(executor="fleet"),
            lambda: HADFLParams(executor_workers=2),
            lambda: HADFLParams(accounting="exact"),
            lambda: make_executor("serial", 2),
            lambda: SerialExecutor(2),
            lambda: SimulatedCluster(
                model_factory=config.make_model_factory(),
                train_set=train,
                test_set=test,
                specs=config.make_specs(),
                executor_workers=2,
            ),
            lambda: DistributedTrainer(cluster, accounting="exact"),
            lambda: DecentralizedFedAvgTrainer(cluster, accounting="exact"),
        )
        for build in removed:
            with pytest.raises(TypeError):
                build()


class TestBaselineParity:
    @pytest.mark.parametrize("scheme", ("decentralized_fedavg", "distributed"))
    def test_fixed_seed_baselines_identical(self, scheme):
        ref = run_scheme(
            scheme, _config(executor=ReferenceExecutor(), target_epochs=2.0)
        )
        for backend in BACKENDS:
            run = run_scheme(scheme, _config(executor=backend, target_epochs=2.0))
            np.testing.assert_array_equal(
                ref.train_losses(), run.train_losses(), err_msg=backend
            )
            np.testing.assert_array_equal(ref.times(), run.times(), err_msg=backend)


class TestDropoutParity:
    def test_dropout_streams_round_trip(self):
        """Per-layer forward-time RNGs (dropout masks) must advance as the
        reference loop advances them, or batched trajectories silently
        diverge."""

        def factory(rng):
            return Sequential(
                Flatten(),
                Linear(3 * 8 * 8, 32, rng=rng),
                ReLU(),
                Dropout(0.4, rng=np.random.default_rng(rng.integers(2**31))),
                Linear(32, 10, rng=rng),
            )

        def build(executor):
            config = _config(executor=executor, target_epochs=2.0)
            train, test = config.make_data()
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

        clusters = {backend: build(backend) for backend in BACKENDS}
        clusters["reference"] = build(ReferenceExecutor())
        for cluster in clusters.values():
            tasks = [
                LocalTrainTask(device_id=d.device_id, max_steps=6, start_time=0.0)
                for d in cluster.devices
            ]
            cluster.run_local_tasks(tasks)
        ref = clusters["reference"]
        for backend in BACKENDS:
            for ref_device, device in zip(ref.devices, clusters[backend].devices):
                np.testing.assert_array_equal(
                    ref_device.get_params(), device.get_params(), err_msg=backend
                )


class TestStateRoundTrip:
    def test_cycler_state_replay_is_bitwise(self):
        config = _config()
        cluster = config.make_cluster()
        device = cluster.devices[0]
        state = device.cycler.get_state()
        first = [device.cycler.next_batch()[0] for _ in range(12)]
        device.cycler.set_state(state)
        second = [device.cycler.next_batch()[0] for _ in range(12)]
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a, b)

    def test_device_train_state_replay_is_bitwise(self):
        config = _config(jitter=0.3)
        ref_cluster = config.make_cluster()
        replay_cluster = config.make_cluster()
        device = ref_cluster.devices[0]
        replica = replay_cluster.devices[0]

        # Advance the reference device, snapshot, advance both further.
        device.train_steps(4, start_time=0.0)
        snapshot = device.export_train_state()
        params = device.get_params()
        flat = [vec.copy() for vec in device.optimizer.flat_state()]
        burst_a = device.train_steps(5, start_time=1.0)

        replica.import_train_state(snapshot)
        replica.set_params(params)
        for vec, saved in zip(replica.optimizer.flat_state(), flat):
            vec[:] = saved
        burst_b = replica.train_steps(5, start_time=1.0)

        assert burst_a.losses == burst_b.losses
        assert burst_a.elapsed == burst_b.elapsed
        np.testing.assert_array_equal(device.get_params(), replica.get_params())
        assert device.version == replica.version


class TestExecutorInterface:
    def test_task_validation(self):
        """One task shape: a burst needs a finite deadline or a step cap
        (with neither it would never end), and a cap is non-negative."""
        for unbounded in ({}, {"deadline": float("inf")}, {"deadline": float("nan")}):
            with pytest.raises(ValueError, match="finite deadline or max_steps"):
                LocalTrainTask(device_id=0, **unbounded)
        with pytest.raises(ValueError, match="non-negative"):
            LocalTrainTask(device_id=0, max_steps=-1)
        with pytest.raises(ValueError, match="precedes"):
            LocalTrainTask(device_id=0, start_time=2.0, deadline=1.0)
        # Either bound alone is a burst, and so are both together.
        LocalTrainTask(device_id=0, max_steps=0)
        LocalTrainTask(device_id=0, deadline=1.0)
        LocalTrainTask(device_id=0, max_steps=1, deadline=1.0)

    def test_make_executor_resolution(self):
        # One in-process executor: the default, "serial" and "fleet".
        for spec in (None, "serial", "fleet"):
            assert type(make_executor(spec)) is SerialExecutor
        instance = SerialExecutor()
        assert make_executor(instance) is instance
        with pytest.raises(ValueError):
            make_executor("gpu")

    def test_thread_backend_is_gone(self):
        """Only the in-process executor has names: "thread" and "process"
        are refused wherever an executor is named, by a ValueError that
        lists the accepted names."""
        assert EXECUTOR_NAMES == ("serial", "fleet")
        config = _config()
        train, test = config.make_data()
        accepted = r"choose from \('serial', 'fleet'\)"
        for name in ("thread", "process"):
            with pytest.raises(ValueError, match=accepted):
                make_executor(name)
            with pytest.raises(ValueError, match=accepted):
                _config(executor=name)
            with pytest.raises(ValueError, match=accepted):
                SimulatedCluster(
                    model_factory=config.make_model_factory(),
                    train_set=train,
                    test_set=test,
                    specs=config.make_specs(),
                    executor=name,
                )

    def test_empty_batch(self):
        for backend in EXECUTOR_NAMES:
            cluster = _config(executor=backend).make_cluster()
            assert cluster.run_local_tasks([]) == {}

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_duplicate_device_tasks_rejected(self, backend):
        """Two bursts on one replica have no serial counterpart — the
        executor rejects them."""
        config = _config(executor=backend)
        cluster = config.make_cluster()
        tasks = [
            LocalTrainTask(device_id=0, max_steps=1, start_time=0.0),
            LocalTrainTask(device_id=0, max_steps=1, start_time=0.0),
        ]
        with pytest.raises(ValueError):
            cluster.run_local_tasks(tasks)
