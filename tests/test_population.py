"""Virtual populations: arena pooling, availability.

The contract under test is *bitwise equivalence*: a recycled arena block
must be indistinguishable from a fresh one.  A participant is stateless
across releases but for its version, so a population's memory is
O(pool), not O(distinct participants).
"""

import tracemalloc

import numpy as np
import pytest

from repro.core.selection import (
    gaussian_quartile_probabilities,
    gaussian_quartile_scores,
    sample_participants,
)
from repro.data.partition import (
    DirichletShardSpec,
    IIDShardSpec,
    SampledShardSpec,
)
from repro.experiments import PopulationConfig, run_population
from repro.experiments.population import make_population
from repro.sim.failures import (
    DiurnalAvailability,
    FailureInjector,
    FailureWindow,
    make_availability_model,
)
from repro.sim.executor import ProcessExecutor
from repro.sim.population import PopulationSpecs, PopulationTrainer


def _pop_config(**overrides):
    base = dict(
        population=200,
        participants=8,
        rounds=3,
        round_window=0.8,
        shard_size=48,
        num_train=256,
        num_test=96,
        seed=11,
    )
    base.update(overrides)
    return PopulationConfig(**base)


def _assert_runs_bitwise_equal(a, b):
    assert len(a.rounds) == len(b.rounds)
    for ra, rb in zip(a.rounds, b.rounds):
        assert ra.train_loss == rb.train_loss
        assert ra.test_accuracy == rb.test_accuracy
        assert ra.comm_bytes == rb.comm_bytes
        assert ra.selected == rb.selected
        assert ra.versions == rb.versions
        assert ra.sim_time == rb.sim_time


def _peek_batch(device):
    """The features of ``device``'s next batch, leaving its cycler as is."""
    state = device.cycler.get_state()
    features, _ = device.cycler.next_batch()
    device.cycler.set_state(state)
    return features


# ---------------------------------------------------------------------- #
class TestShardSpecs:
    def test_iid_spec_matches_partition(self):
        spec = IIDShardSpec(100, 4, rng=np.random.default_rng(3))
        shards = IIDShardSpec(100, 4, rng=np.random.default_rng(3)).materialise()
        for d in range(4):
            np.testing.assert_array_equal(spec.shard(d), shards[d])

    def test_dirichlet_spec_matches_partition(self):
        labels = np.random.default_rng(0).integers(0, 10, size=400)
        spec = DirichletShardSpec(
            labels, 8, alpha=0.5, rng=np.random.default_rng(5)
        )
        shards = DirichletShardSpec(
            labels, 8, alpha=0.5, rng=np.random.default_rng(5)
        ).materialise()
        for d in range(8):
            np.testing.assert_array_equal(spec.shard(d), shards[d])

    def test_dirichlet_retry_path_matches_partition(self):
        # alpha tiny + min_size forces at least one retry on this seed.
        labels = np.random.default_rng(1).integers(0, 10, size=400)
        spec = DirichletShardSpec(
            labels, 8, alpha=0.05, rng=np.random.default_rng(9), min_size=8
        )
        shards = DirichletShardSpec(
            labels, 8, alpha=0.05, rng=np.random.default_rng(9), min_size=8
        ).materialise()
        for d in range(8):
            np.testing.assert_array_equal(spec.shard(d), shards[d])

    def test_sampled_spec_deterministic_and_lazy(self):
        spec = SampledShardSpec(10_000, 1_000_000, shard_size=32, seed=4)
        again = SampledShardSpec(10_000, 1_000_000, shard_size=32, seed=4)
        shard = spec.shard(123_456)
        np.testing.assert_array_equal(shard, again.shard(123_456))
        assert shard.size == 32
        assert np.all(shard >= 0) and np.all(shard < 10_000)
        assert np.unique(shard).size == 32  # without replacement
        # Different devices draw different shards.
        assert not np.array_equal(shard, spec.shard(123_457))

    def test_sampled_spec_shard_sizes(self):
        spec = SampledShardSpec(100, 10, shard_size=16, seed=0)
        assert list(spec.shard_sizes()) == [16] * 10


# ---------------------------------------------------------------------- #
class TestVectorisedSelection:
    def test_scores_match_dict_probabilities(self):
        rng = np.random.default_rng(2)
        versions = {i: int(v) for i, v in enumerate(rng.integers(0, 50, 40))}
        probs = gaussian_quartile_probabilities(versions)
        values = np.array([versions[i] for i in sorted(versions)], dtype=float)
        scores = gaussian_quartile_scores(values)
        for i in sorted(versions):
            assert probs[i] == scores[i]

    def test_degenerate_spread_is_uniform(self):
        scores = gaussian_quartile_scores(np.full(7, 3.0))
        np.testing.assert_array_equal(scores, np.full(7, 1.0 / 7))

    def test_sample_participants_deterministic(self):
        values = np.random.default_rng(0).integers(0, 30, 1000).astype(float)
        a = sample_participants(values, 20, np.random.default_rng(6))
        b = sample_participants(values, 20, np.random.default_rng(6))
        np.testing.assert_array_equal(a, b)
        assert a.size == 20 == np.unique(a).size
        assert np.all(np.diff(a) > 0)  # sorted, unique

    def test_sample_participants_count_clamped(self):
        values = np.arange(5, dtype=float)
        picked = sample_participants(values, 10, np.random.default_rng(0))
        np.testing.assert_array_equal(picked, np.arange(5))


# ---------------------------------------------------------------------- #
class TestAvailability:
    def test_diurnal_deterministic_and_subset_invariant(self):
        model = DiurnalAvailability(seed=3)
        ids = np.arange(10_000)
        mask = model.available_mask(ids, 12.5)
        np.testing.assert_array_equal(
            mask, DiurnalAvailability(seed=3).available_mask(ids, 12.5)
        )
        # A device's fate does not depend on who else is being asked.
        subset = ids[::7]
        np.testing.assert_array_equal(
            model.available_mask(subset, 12.5), mask[::7]
        )
        assert model.available_mask(ids[42:43], 12.5)[0] == mask[42]

    def test_diurnal_fraction_tracks_cycle(self):
        model = DiurnalAvailability(
            period=24.0, low=0.1, high=0.9, phase_spread=0.0, seed=1
        )
        ids = np.arange(20_000)
        peak = model.available_mask(ids, 6.0).mean()  # sin peak at period/4
        trough = model.available_mask(ids, 18.0).mean()
        assert peak == pytest.approx(0.9, abs=0.02)
        assert trough == pytest.approx(0.1, abs=0.02)

    def test_factory_and_validation(self):
        assert make_availability_model("always").fraction(0.0) == 1.0
        assert isinstance(
            make_availability_model("diurnal", seed=1, low=0.2),
            DiurnalAvailability,
        )
        with pytest.raises(KeyError):
            make_availability_model("nope")
        with pytest.raises(ValueError):
            DiurnalAvailability(low=0.9, high=0.1)

    def test_alive_mask_matches_is_alive(self):
        injector = FailureInjector()
        injector.add_window(FailureWindow(3, 1.0, 2.0))
        ids = np.arange(6)
        mask = injector.alive_mask(ids, 1.5)
        for d in ids:
            assert mask[d] == injector.is_alive(int(d), 1.5)


# ---------------------------------------------------------------------- #
class TestArenaPool:
    def _population(self, **overrides):
        return make_population(_pop_config(**overrides))

    def test_recycled_block_bitwise_clean(self):
        pop = self._population()
        device = pop.materialise(17)
        block = pop._blocks[17]
        rng_states_before = list(block.initial_module_rng_states)
        device.train_steps(4, start_time=0.0)
        assert device.version == 4
        pop.release(17)
        # The freed block is scrubbed back to template state, bitwise.
        np.testing.assert_array_equal(block.arena.flat, pop._initial_payload)
        assert not np.any(block.arena.grad_flat)
        for vec in block.optimizer.flat_state():
            assert not np.any(vec)
        assert dict(block.optimizer.scalar_state()) == block.initial_scalars
        assert [
            r.bit_generator.state for r in block.module_rngs
        ] == rng_states_before

    def test_pool_reuses_blocks(self):
        pop = self._population()
        pop.materialise(0)
        pop.release(0)
        first = pop.pool.stats()
        assert first == {
            "created": 1, "in_use": 0, "recycled": 0, "max_resident": 1,
        }
        pop.materialise(1)
        assert pop.pool.stats()["recycled"] == 1
        assert pop.pool.stats()["created"] == 1

    def test_returning_device_keeps_only_its_version(self):
        # A participant picked twice carries its version across the
        # release — nothing else: fresh optimizer moments, the block's
        # template parameters (which the dispatch overwrites) and batch
        # order reseeded by the version, so its first batches are not
        # replayed.
        pop = self._population()
        dev = pop.materialise(9)
        first_batch = _peek_batch(dev)
        dev.train_steps(3, start_time=0.0)
        assert any(np.any(vec) for vec in dev.optimizer.flat_state())
        pop.release(9)
        assert pop.versions[9] == 3

        dev = pop.materialise(9)
        assert dev.version == 3
        np.testing.assert_array_equal(dev.get_params_view(), pop._initial_payload)
        for vec in dev.optimizer.flat_state():
            assert not np.any(vec)
        assert not np.array_equal(_peek_batch(dev), first_batch)
        dev.train_steps(2, start_time=0.0)
        pop.release(9)
        assert pop.versions[9] == 5

    def test_release_without_steps_keeps_the_seed(self):
        pop = self._population()
        first_batch = _peek_batch(pop.materialise(4))
        pop.release(4)
        dev = pop.materialise(4)
        assert dev.version == 0
        np.testing.assert_array_equal(_peek_batch(dev), first_batch)


# ---------------------------------------------------------------------- #
class TestPopulationSpecs:
    def test_power_levels_cycle(self):
        specs = PopulationSpecs.sampled(
            size=10, num_samples=100, shard_size=8,
            power_levels=(3.0, 1.0), seed=0,
        )
        assert [specs.device_spec(d).power for d in range(6)] == [
            3.0, 1.0, 3.0, 1.0, 3.0, 1.0
        ]
        # Fastest-native normalisation: the strongest level steps at
        # base_step_time, matching specs_from_power_ratio.
        fast = specs.device_spec(0)
        slow = specs.device_spec(1)
        assert fast.base_step_time / fast.power == pytest.approx(0.1)
        assert slow.base_step_time / slow.power == pytest.approx(0.3)

    def test_validation(self):
        with pytest.raises(ValueError):
            PopulationSpecs.sampled(size=0, num_samples=10, shard_size=2)
        with pytest.raises(ValueError, match="covers"):
            PopulationSpecs(
                5, SampledShardSpec(100, 6, shard_size=4, seed=0)
            )
        specs = PopulationSpecs.sampled(size=4, num_samples=10, shard_size=2)
        with pytest.raises(IndexError):
            specs.device_spec(4)


# ---------------------------------------------------------------------- #
class TestPopulationTrainer:
    def test_run_deterministic_bitwise(self):
        first = run_population(_pop_config())
        second = run_population(_pop_config())
        _assert_runs_bitwise_equal(first, second)
        assert first.config["accounting"] == second.config["accounting"]

    def test_memory_bounded_by_participants(self):
        result = run_population(_pop_config(rounds=4))
        pool = result.config["pool"]
        assert pool["max_resident"] <= 8
        assert pool["in_use"] == 0
        # Across 4 rounds of 8 participants, blocks were recycled.
        assert pool["recycled"] >= 8

    def test_traced_memory_is_o_pool_not_o_participants(self):
        # ~400 distinct momentum-SGD participants over 4 pool blocks: what
        # a run keeps alive after its early rounds stays under one block.
        config = _pop_config(
            population=10_000, participants=4, power_levels=(1.0,),
            round_window=0.05, num_train=128, num_test=16, shard_size=16,
        )
        trainer = PopulationTrainer(
            make_population(config), **config.trainer_options()
        )
        device = trainer.population.materialise(0)
        block_bytes = (
            device.arena.flat.nbytes
            + device.arena.grad_flat.nbytes
            + sum(vec.nbytes for vec in device.optimizer.flat_state())
        )
        trainer.population.release(0)
        trainer.run(5)
        tracemalloc.start()
        try:
            trainer.run(95)
            growth, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            trainer.close()
        assert trainer.population.pool.stats()["created"] == 4
        assert int(np.count_nonzero(trainer.population.versions)) > 300
        assert growth < block_bytes

    def test_round_telemetry(self):
        result = run_population(
            _pop_config(availability="diurnal", eval_every=2)
        )
        assert result.scheme == "population_hadfl"
        for record in result.rounds:
            detail = record.detail
            assert 0.0 <= detail["churn"] <= 1.0
            assert 0.0 < detail["available_fraction"] <= 1.0
            assert detail["hotspot_bytes"] > 0
            straggler = detail["straggler"]
            assert straggler["p50"] <= straggler["p90"] <= straggler["p99"]
            assert len(record.selected) == 8
        assert result.rounds[0].detail["churn"] == 1.0
        assert result.rounds[0].test_accuracy is not None
        assert result.rounds[-1].test_accuracy is not None

    def test_training_improves(self):
        result = run_population(_pop_config(rounds=6, eval_every=5))
        assert result.rounds[-1].test_accuracy > result.rounds[0].test_accuracy
        losses = [r.train_loss for r in result.rounds]
        assert losses[-1] < losses[0]

    def test_nobody_available_skips_round(self):
        config = _pop_config(
            availability="diurnal",
            availability_kwargs={"low": 0.0, "high": 0.0},
        )
        result = run_population(config)
        assert all(r.detail.get("skipped") for r in result.rounds)
        assert all(not r.selected for r in result.rounds)

    def test_single_participant_round(self):
        result = run_population(_pop_config(participants=1, rounds=2))
        assert all(len(r.selected) == 1 for r in result.rounds)

    def test_comm_accounting_conserved(self):
        result = run_population(_pop_config())
        accounting = result.config["accounting"]
        per_round = sum(r.comm_bytes for r in result.rounds)
        assert per_round == accounting["total_bytes"]
        assert set(accounting["bytes_by_kind"]) == {
            "participant_dispatch", "partial_sync",
        }

    def test_process_executor_rejected(self):
        pop = make_population(_pop_config())
        # By name and as a ready instance: both resolve to the backend
        # that ships a full device list.
        for executor in ("process", ProcessExecutor()):
            with pytest.raises(ValueError, match="process executor"):
                PopulationTrainer(pop, participants=4, executor=executor)

    def test_exact_and_aggregate_accounting_agree(self):
        results = {}
        received = {}
        for mode in ("exact", "aggregate"):
            pop = make_population(_pop_config())
            trainer = PopulationTrainer(
                pop, participants=8, round_window=0.8,
                seed=11, accounting=mode,
            )
            results[mode] = trainer.run(3)
            received[mode] = trainer.volume.bytes_received_by_device()
            if mode == "exact":
                assert trainer.volume.records()
            else:
                assert not trainer.volume.records()
            trainer.close()
        _assert_runs_bitwise_equal(results["exact"], results["aggregate"])
        exact = dict(results["exact"].config["accounting"])
        aggregate = dict(results["aggregate"].config["accounting"])
        assert exact == aggregate
        assert received["exact"] == received["aggregate"]
