"""Every trainer's whole run dump against a golden.

``tests/golden/records_parity.json`` holds the full
``RunResult.to_dict()`` — config, accounting snapshot, and every round's
times, losses, evaluation cadence, selection, versions, bytes and detail
keys — of one small run per trainer and mode: HADFL (sync,
buffered-async, chaos under both rollback policies, every device down
for a stretch), grouped HADFL, the three baselines (one of them stalled
by a failure window), and the population (sync on the serial and fleet
executors, buffered-async over ``int8_sr``, nobody available).  Where
the other goldens pin trajectories, this one pins the *records*: a
refactor of how rounds are recorded must reproduce each key.

Re-record (only when a record change is intended) with
``PYTHONPATH=src python tests/test_records_parity.py``.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.baselines import DecentralizedFedAvgTrainer, DistributedTrainer
from repro.core import GroupedHADFLTrainer, HADFLTrainer
from repro.experiments import ExperimentConfig
from repro.experiments.population import PopulationConfig, make_population
from repro.sim import LinkFaultModel
from repro.sim.failures import FailureInjector
from repro.sim.population import PopulationTrainer

sys.path.insert(0, str(Path(__file__).resolve().parent))
from reference_central_fedavg import CentralizedFedAvgTrainer  # noqa: E402

GOLDEN_PATH = Path(__file__).parent / "golden" / "records_parity.json"

EIGHT_DEVICES = (4, 4, 3, 3, 2, 2, 1, 1)


def _config(**overrides):
    defaults = dict(target_epochs=3.0, num_train=256, num_test=128, seed=3)
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


def _all_down(num_devices, down_at, up_at):
    failures = FailureInjector()
    for device_id in range(num_devices):
        failures.fail(device_id, down_at, up_at)
    return failures


def _dump(result):
    """The run dump as its JSON text reads it back."""
    return json.loads(json.dumps(result.to_dict()))


def _dense(config, make_trainer, **cluster_kwargs):
    cluster = config.make_cluster(**cluster_kwargs)
    trainer = make_trainer(cluster, config)
    return _dump(
        trainer.run(
            target_epochs=config.target_epochs, eval_every=config.eval_every
        )
    )


def _hadfl(config, **cluster_kwargs):
    return _dense(
        config,
        lambda cluster, c: HADFLTrainer(
            cluster, params=c.hadfl_params(), seed=c.seed
        ),
        **cluster_kwargs,
    )


def _chaos(policy):
    """topk delta wire, random crashes and link drops, and a link
    blackout over [6, 12) so some syncs fail and later ones recover."""
    config = _config(
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
        eval_every=2,
    )
    faults = LinkFaultModel(drop_prob=config.link_drop_prob, seed=config.chaos_seed)
    for i in range(config.num_devices):
        for j in range(i + 1, config.num_devices):
            faults.flap(i, j, down_at=6.0, up_at=12.0)
    return _hadfl(config, link_faults=faults)


def _grouped():
    config = _config(target_epochs=8.0, num_train=512, power_ratio=EIGHT_DEVICES)
    return _dense(
        config,
        lambda cluster, c: GroupedHADFLTrainer(
            cluster, params=c.hadfl_params(), groups=2, inter_group_period=2,
            seed=c.seed,
        ),
    )


def _baseline(cls, **overrides):
    config = _config(**overrides)
    return _dense(
        config,
        lambda cluster, c: cls(cluster, seed=c.seed),
    )


def _population(down=None, **overrides):
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
    config = PopulationConfig(**defaults)
    population = make_population(config)
    if down is not None:
        for device_id in range(config.population):
            population.failures.fail(device_id, *down)
    trainer = PopulationTrainer(population, **config.trainer_options())
    return _dump(trainer.run(config.rounds, eval_every=config.eval_every))


CASES = {
    "hadfl_sync": lambda: _hadfl(_config(target_epochs=8.0, eval_every=2)),
    "hadfl_buffered_async": lambda: _hadfl(
        _config(
            aggregation="buffered_async",
            target_epochs=10.0,
            num_train=512,
            power_ratio=EIGHT_DEVICES,
            num_selected=3,
        )
    ),
    "hadfl_chaos_skip_round": lambda: _chaos("skip_round"),
    "hadfl_chaos_fallback_dense": lambda: _chaos("fallback_dense"),
    # Every device down over [1.5, 4.0]: the windows in it idle, skipped.
    "hadfl_all_down": lambda: _hadfl(
        _config(target_epochs=10.0),
        failure_injector=_all_down(4, 1.5, 4.0),
    ),
    "grouped": _grouped,
    "distributed": lambda: _baseline(DistributedTrainer, eval_every=2),
    "decentralized_fedavg": lambda: _baseline(DecentralizedFedAvgTrainer),
    "centralized_fedavg": lambda: _baseline(CentralizedFedAvgTrainer),
    # A failure window the synchronous collective stalls through.
    "decentralized_fedavg_stalled": lambda: _dense(
        _config(),
        lambda cluster, c: DecentralizedFedAvgTrainer(cluster, seed=c.seed),
        failure_injector=_all_down(1, 0.5, 2.0),
    ),
    "population_sync": lambda: _population(),
    "population_sync_fleet": lambda: _population(executor="fleet"),
    "population_buffered_async_int8": lambda: _population(
        aggregation="buffered_async", wire_dtype="int8_sr"
    ),
    # Nobody reachable over [1.5, 4.0]: those windows idle, skipped.
    "population_nobody_available": lambda: _population(
        down=(1.5, 4.0), availability="always"
    ),
}

GOLDEN = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else None


def test_records_fixture_present():
    assert GOLDEN is not None, f"missing {GOLDEN_PATH}"
    assert set(CASES) <= set(GOLDEN)


@pytest.mark.golden("records_parity.json")
@pytest.mark.parametrize("case", sorted(CASES))
def test_run_dump_matches_golden(case):
    observed, expected = CASES[case](), GOLDEN[case]
    assert observed["scheme"] == expected["scheme"]
    assert observed["config"] == expected["config"]
    assert len(observed["rounds"]) == len(expected["rounds"])
    for got, want in zip(observed["rounds"], expected["rounds"]):
        # NaN losses (skipped rounds) compare equal as JSON text.
        assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True), (
            case,
            want["round_index"],
        )


if __name__ == "__main__":
    golden = {"numpy": np.version.version}
    golden.update({case: run() for case, run in CASES.items()})
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
