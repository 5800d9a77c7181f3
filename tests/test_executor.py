"""Executor backends: bitwise parity with serial execution.

The contract (see ``repro.sim.executor``): running a round's local
bursts through any backend leaves the live devices — parameters, losses,
versions, optimizer state, RNG streams — in exactly the state serial
execution produces on the same seeds.  These tests pin that bitwise, for
plain runs, jittered devices, mid-window failures, momentum state, and
dropout streams.
"""

import os
import warnings

import numpy as np
import pytest

from repro.core import HADFLParams, HADFLTrainer
from repro.experiments import ExperimentConfig, run_scheme
from repro.nn.layers import Dropout, Flatten, Linear, ReLU, Sequential
from repro.parallel import (
    LocalTrainTask,
    device_state_scalars,
    export_state_into,
    import_state_from,
)
from repro.sim import (
    FailureInjector,
    FleetExecutor,
    ProcessExecutor,
    SerialExecutor,
    make_executor,
)
from repro.sim.executor import BLAS_PIN_VARS, EXECUTOR_NAMES

# Fleet's parity with serial is pinned by tests/test_fleet.py.
BACKENDS = ("serial", "process")


def _config(**overrides):
    defaults = dict(
        model="mlp",
        num_train=256,
        num_test=128,
        image_size=8,
        target_epochs=6.0,
        seed=11,
        momentum=0.9,  # exercises the optimizer flat-state round-trip
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


def _run_hadfl(config, failure_injector=None):
    """Run HADFL returning (result, cluster, trainer) for state inspection."""
    cluster = config.make_cluster(failure_injector=failure_injector)
    trainer = HADFLTrainer(cluster, params=config.hadfl_params(), seed=config.seed)
    result = trainer.run(target_epochs=config.target_epochs)
    cluster.close()
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
        # The grad arena ships with the slot: post-burst gradient state
        # (the last local step's accumulation) matches serial bitwise.
        np.testing.assert_array_equal(
            ref_device.arena.grad_flat, device.arena.grad_flat, err_msg=backend
        )
        # The RNG streams advanced identically: the next draws agree.
        assert (
            ref_device._rng.bit_generator.state == device._rng.bit_generator.state
        ), backend


class TestHADFLParity:
    def test_fixed_seed_run_identical_across_backends(self):
        ref = _run_hadfl(_config(executor="serial"))
        assert len(ref[0].rounds) >= 2
        for backend in BACKENDS[1:]:
            other = _run_hadfl(_config(executor=backend))
            _assert_bitwise_equal(ref, other, backend)

    def test_jittered_devices_identical_across_backends(self):
        """Jitter draws one lognormal per step (plus the final probe of
        each deadline burst) from the device RNG — the stream must
        round-trip through the workers exactly."""
        ref = _run_hadfl(_config(executor="serial", jitter=0.2, seed=5))
        for backend in BACKENDS[1:]:
            other = _run_hadfl(_config(executor=backend, jitter=0.2, seed=5))
            _assert_bitwise_equal(ref, other, backend)

    def test_mid_window_failure_identical_across_backends(self):
        """A device dropping mid-window truncates its burst via the
        effective deadline; the truncated burst must ship through the
        parallel backends bit-for-bit."""

        def injector():
            failures = FailureInjector()
            failures.fail(0, down_at=3.0, up_at=30.0)
            return failures

        config = lambda backend: _config(  # noqa: E731
            executor=backend, target_epochs=4.0, seed=3, num_selected=2
        )
        ref = _run_hadfl(config("serial"), failure_injector=injector())
        # The failure actually truncated device 0's burst: it finished
        # round 1 with fewer steps than its equal-power peer.
        last = ref[0].rounds[-1].versions
        assert last[0] < last[1]
        for backend in BACKENDS[1:]:
            other = _run_hadfl(config(backend), failure_injector=injector())
            _assert_bitwise_equal(ref, other, backend)

    def test_executor_is_the_clusters(self):
        """The backend is chosen in one place: the trainer runs on the
        cluster's executor and HADFLParams carries no override."""
        config = _config()
        cluster = config.make_cluster()
        trainer = HADFLTrainer(cluster, params=config.hadfl_params())
        assert trainer.executor is cluster.executor
        assert not hasattr(trainer, "close")
        with pytest.raises(TypeError):
            HADFLParams(executor="fleet")
        with pytest.raises(TypeError):
            HADFLParams(executor_workers=2)


class TestBaselineParity:
    @pytest.mark.parametrize("scheme", ("decentralized_fedavg", "distributed"))
    def test_fixed_seed_baselines_identical(self, scheme):
        runs = {
            backend: run_scheme(scheme, _config(executor=backend, target_epochs=2.0))
            for backend in BACKENDS
        }
        ref = runs["serial"]
        for backend in BACKENDS[1:]:
            np.testing.assert_array_equal(
                ref.train_losses(), runs[backend].train_losses(), err_msg=backend
            )
            np.testing.assert_array_equal(
                ref.times(), runs[backend].times(), err_msg=backend
            )


class TestDropoutParity:
    def test_dropout_streams_round_trip(self):
        """Per-layer forward-time RNGs (dropout masks) must travel with
        the device state, or parallel trajectories silently diverge."""

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

        clusters = {backend: build(backend) for backend in BACKENDS}
        for cluster in clusters.values():
            tasks = [
                LocalTrainTask(device_id=d.device_id, num_steps=6, start_time=0.0)
                for d in cluster.devices
            ]
            cluster.run_local_tasks(tasks)
            cluster.close()
        ref = clusters["serial"]
        for backend in BACKENDS[1:]:
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

    def test_flat_state_shipping_round_trip(self):
        config = _config()
        cluster = config.make_cluster()
        device = cluster.devices[0]
        device.train_steps(3, start_time=0.0)
        assert device.arena.grad_flat.any()  # the burst left real gradients
        slot = np.empty(device_state_scalars(device), dtype=np.float64)
        assert slot.size == (
            device.arena.num_scalars
            + device.arena.grad_flat.size
            + sum(v.size for v in device.optimizer.flat_state())
        )
        export_state_into(device, slot)
        params = device.get_params()
        grads = device.arena.grad_flat.copy()
        momentum = device.optimizer.flat_state()[0].copy()
        device.set_params(np.zeros_like(params))
        device.arena.grad_flat[:] = -2.0
        device.optimizer.flat_state()[0][:] = -1.0
        import_state_from(device, slot)
        np.testing.assert_array_equal(device.get_params(), params)
        np.testing.assert_array_equal(device.arena.grad_flat, grads)
        np.testing.assert_array_equal(device.optimizer.flat_state()[0], momentum)


class TestExecutorInterface:
    def test_task_validation(self):
        with pytest.raises(ValueError):
            LocalTrainTask(device_id=0)
        with pytest.raises(ValueError):
            LocalTrainTask(device_id=0, num_steps=1, deadline=1.0)
        with pytest.raises(ValueError):
            LocalTrainTask(device_id=0, num_steps=-1)

    def test_make_executor_resolution(self):
        assert isinstance(make_executor(None), SerialExecutor)
        assert isinstance(make_executor("serial"), SerialExecutor)
        assert isinstance(make_executor("fleet", 2), FleetExecutor)
        assert isinstance(make_executor("process"), ProcessExecutor)
        instance = SerialExecutor(3)
        assert make_executor(instance) is instance
        with pytest.raises(ValueError):
            make_executor("gpu")

    def test_thread_backend_is_gone(self):
        assert EXECUTOR_NAMES == ("serial", "process", "fleet")
        with pytest.raises(ValueError):
            make_executor("thread")
        with pytest.raises(ValueError):
            _config(executor="thread").make_cluster()

    def test_repro_parallel_imports_standalone(self):
        """`import repro.parallel` must work as the first repro import —
        regression test for the executor/parallel import cycle."""
        import subprocess
        import sys
        from pathlib import Path

        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-c", "import repro.parallel"],
            env=env,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr

    def test_empty_batch(self):
        for backend in EXECUTOR_NAMES:
            cluster = _config(executor=backend).make_cluster()
            assert cluster.run_local_tasks([]) == {}
            cluster.close()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_duplicate_device_tasks_rejected(self, backend):
        """Two bursts on one replica have no serial counterpart — every
        backend must reject them the same way."""
        config = _config(executor=backend)
        cluster = config.make_cluster()
        tasks = [
            LocalTrainTask(device_id=0, num_steps=1, start_time=0.0),
            LocalTrainTask(device_id=0, num_steps=1, start_time=0.0),
        ]
        with pytest.raises(ValueError):
            cluster.run_local_tasks(tasks)
        cluster.close()

    def test_close_is_idempotent_and_pool_rebuilds(self):
        config = _config(executor="process")
        cluster = config.make_cluster()
        tasks = [
            LocalTrainTask(device_id=d.device_id, num_steps=1, start_time=0.0)
            for d in cluster.devices
        ]
        first = cluster.run_local_tasks(tasks)
        cluster.close()
        cluster.close()
        second = cluster.run_local_tasks(tasks)
        assert set(first) == set(second)
        cluster.close()

    @pytest.mark.parametrize("pinned", [False, True])
    def test_process_pool_warns_once_iff_blas_unpinned(self, monkeypatch, pinned):
        """Forked workers x BLAS threads oversubscribe the cores: one
        RuntimeWarning per executor when no pin variable is set — however
        often the pool is rebuilt — and none when any of them is."""
        from repro.parallel.process_pool import fork_available

        if not fork_available():
            pytest.skip("no fork: the pool is never built")
        for var in BLAS_PIN_VARS:
            monkeypatch.delenv(var, raising=False)
        if pinned:
            monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        cluster = _config(executor="process", executor_workers=2).make_cluster()
        tasks = [
            LocalTrainTask(device_id=d.device_id, num_steps=1, start_time=0.0)
            for d in cluster.devices
        ]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for _ in range(2):  # close() drops the pool: it is built twice
                cluster.run_local_tasks(tasks)
                cluster.close()
        unpinned = [w for w in caught if "BLAS threads unpinned" in str(w.message)]
        assert len(unpinned) == (0 if pinned else 1)
        assert all(w.category is RuntimeWarning for w in unpinned)
