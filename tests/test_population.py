"""Virtual populations: arena pooling, availability.

The contract under test is *bitwise equivalence*: a recycled arena block
must be indistinguishable from a fresh one.  A participant is stateless
across releases but for its version, so a population's memory is
O(pool), not O(distinct participants).
"""

import json
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
    ExplicitShardSpec,
    IIDShardSpec,
    SampledShardSpec,
)
from repro.data import synthetic_cifar10
from repro.experiments import PopulationConfig, run_population
from repro.experiments.population import make_population
from repro.sim.failures import (
    DiurnalAvailability,
    FailureInjector,
    FailureWindow,
    make_availability_model,
)
from repro.nn.layers import Dropout, Flatten, Linear, ReLU, Sequential
from repro.nn.models.mlp import MLP
from repro.optim import Adam
from repro.sim import population as population_module
from repro.sim.population import PopulationSpecs, PopulationTrainer, VirtualPopulation


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
        assert [spec.shard(d).size for d in range(10)] == [16] * 10


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
        # A population's implicit ids 0 .. n-1 are the same devices.
        np.testing.assert_array_equal(model.population_mask(ids.size, 12.5), mask)

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

    def test_clear_down_matches_is_alive(self):
        injector = FailureInjector()
        injector.add_window(FailureWindow(3, 1.0, 2.0))
        injector.add_window(FailureWindow(9, 1.0, 2.0))  # outside the mask
        mask = np.ones(6, dtype=bool)
        mask[1] = False
        injector.clear_down(mask, 1.5)
        for d in range(6):
            assert mask[d] == (d != 1 and injector.is_alive(d, 1.5))


def _leaky_population():
    """A dropout-bearing Adam population: every kind of state an
    occupant can leave behind (parameters, gradients, optimizer flat and
    scalar state, module RNG streams)."""
    train, test = synthetic_cifar10(num_train=96, num_test=32, image_size=4, seed=0)

    def model(rng):
        return Sequential(
            Flatten(), Linear(48, 16, rng=rng), ReLU(),
            Dropout(0.5, rng=np.random.default_rng(int(rng.integers(2**31)))),
            Linear(16, 10, rng=rng),
        )

    specs = PopulationSpecs.sampled(size=20, num_samples=96, shard_size=24, seed=1)
    return VirtualPopulation(
        model, train, specs, batch_size=8, test_set=test,
        optimizer_factory=lambda arena: Adam(arena, lr=1e-2),
    )


def _assert_same_state(a, b):
    if isinstance(a, dict):
        assert a.keys() == b.keys()
        for key in a:
            _assert_same_state(a[key], b[key])
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            _assert_same_state(x, y)
    elif isinstance(a, np.ndarray):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    else:
        assert a == b


# ---------------------------------------------------------------------- #
class TestArenaPool:
    def _population(self, **overrides):
        return make_population(_pop_config(**overrides))

    def test_recycled_block_bitwise_clean(self):
        pop, fresh = self._population(), self._population()
        device = pop.materialise(17)
        block = pop._blocks[17]
        rng_states_before = list(block.initial_module_rng_states)
        payload = np.linspace(-1.0, 1.0, block.arena.num_scalars)
        for device_id, params, expected in (
            (3, None, pop._initial_payload), (5, payload, payload),
        ):
            device.train_steps(4, start_time=0.0)
            pop.release(device.device_id)
            # Release resets the optimizer state and module RNG streams the
            # next occupant reads before its first step, bitwise; the
            # parameters are the next start vector's.
            for vec in block.optimizer.flat_state():
                assert not np.any(vec)
            assert dict(block.optimizer.scalar_state()) == block.initial_scalars
            assert [
                r.bit_generator.state for r in block.module_rngs
            ] == rng_states_before
            device = pop.materialise(device_id, params)
            assert pop._blocks[device_id] is block
            np.testing.assert_array_equal(block.arena.flat, expected)
            # The gradient vector still holds the last occupant's values;
            # the first step's zero_grad is its one fill, after which it
            # is bitwise a fresh block's.
            twin = fresh.materialise(device_id, params)
            ran, ran_twin = device.train_steps(1), twin.train_steps(1)
            assert ran.losses == ran_twin.losses
            assert block.arena.grad_flat.tobytes() == twin.arena.grad_flat.tobytes()
            assert block.arena.flat.tobytes() == twin.arena.flat.tobytes()

    def test_no_occupant_state_leaks_into_the_next(self):
        """Sentinels (42.0 and NaN) in an occupant's parameters, gradients
        and optimizer state, a used dropout stream and parameters
        overwritten after the release: the block's next occupant starts
        from its start vector — all of it — with zero optimizer state, in
        the train state of a fresh block's device, and after its first
        step its gradients and parameters are bitwise the fresh device's
        (the 42.0 gradients never reach a step)."""
        payload = np.linspace(-1.0, 1.0, _leaky_population().initial_params.size)
        for params in (None, payload):
            pop, fresh = _leaky_population(), _leaky_population()
            pop.materialise(2).train_steps(3, start_time=0.0)
            block = pop._blocks[2]
            block.arena.flat[::2] = 42.0
            block.arena.flat[1::2] = np.nan
            block.arena.grad_flat[...] = 42.0
            for vec in block.optimizer.flat_state():
                vec[...] = np.nan
            pop.release(2)
            block.arena.flat[...] = np.nan
            device = pop.materialise(5, params)
            assert pop._blocks[5] is block
            start = pop._initial_payload if params is None else payload
            assert device.get_params_view().size == block.arena.num_scalars
            assert device.get_params_view().tobytes() == start.tobytes()
            for vec in block.optimizer.flat_state():
                assert not np.any(vec)
            twin = fresh.materialise(5, params)
            _assert_same_state(device.export_train_state(), twin.export_train_state())
            assert device.export_train_state()["module_rng_states"]
            ran, ran_twin = device.train_steps(1), twin.train_steps(1)
            assert ran.losses == ran_twin.losses
            assert block.arena.grad_flat.tobytes() == twin.arena.grad_flat.tobytes()
            assert device.get_params_view().tobytes() == twin.get_params_view().tobytes()
            _assert_same_state(device.export_train_state(), twin.export_train_state())

    def test_recycled_shell_takes_its_occupants_batch_shape(self):
        """Shards of different sizes through one block: the burst
        signature's batch half is the current occupant's, as on a fresh
        block."""
        def population():
            train, _ = synthetic_cifar10(num_train=64, num_test=10, image_size=4, seed=0)
            shards = ExplicitShardSpec([range(0, 40), range(40, 43), range(43, 64)])
            return VirtualPopulation(
                lambda rng: MLP(48, (8,), 10, rng=rng), train,
                PopulationSpecs(3, shards), batch_size=8,
            )

        pop, fresh = population(), population()
        for device_id, batch in ((0, 8), (1, 3), (2, 8)):
            device = pop.materialise(device_id)
            assert device.burst_signature[2] == batch == device.cycler.batch_size
            assert device.burst_signature == fresh.materialise(device_id).burst_signature
            pop.release(device_id)

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

    @pytest.mark.parametrize("aggregation", ["sync", "buffered_async"])
    def test_memory_bounded_by_participants(self, aggregation):
        result = run_population(_pop_config(rounds=4, aggregation=aggregation))
        pool = result.config["pool"]
        assert pool["max_resident"] <= 8
        # Buffered-async tears down with stragglers still in flight; their
        # blocks go back to the pool with the run.
        if aggregation == "buffered_async":
            assert result.rounds[-1].detail["in_flight"] > 0
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
        assert trainer.population.pool.stats()["created"] == 4
        assert int(np.count_nonzero(trainer.population.versions)) > 300
        assert growth < block_bytes

    def test_population_state_is_twelve_bytes_per_device(self):
        """Build plus one sync fleet round, traced at 10^4 and 10^6
        devices: what the population keeps is one int32 version and one
        fp64 availability level per device (12 B; ids stay implicit,
        phases are never kept).  Inside the round the Eq. 8 draw adds
        three 8 B vectors over the *available* devices (their ids, their
        versions as floats, their uniforms), and nothing else grows with
        the population."""

        def traced(population):
            config = _pop_config(
                population=population, participants=4, rounds=1,
                round_window=0.1, shard_size=8, num_train=64, num_test=16,
                availability="diurnal", executor="fleet",
            )
            tracemalloc.start()
            try:
                base, _ = tracemalloc.get_traced_memory()
                trainer = PopulationTrainer(
                    make_population(config), **config.trainer_options()
                )
                result = trainer.run(1)
                retained, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            available = result.rounds[0].detail["available_fraction"]
            return retained - base, peak - base, available

        small, large = traced(10_000), traced(1_000_000)
        extra = 1_000_000 - 10_000
        retained = (large[0] - small[0]) / extra
        peak = (large[1] - small[1]) / extra
        assert retained <= 13.0, f"{retained:.1f} B per extra device retained"
        assert peak <= 13.0 + 3 * 8 * large[2], f"{peak:.1f} B per extra device"

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
        """The name "process" is refused like any unknown one, by an
        error that lists the accepted names."""
        pop = make_population(_pop_config())
        with pytest.raises(ValueError, match=r"choose from \('serial', 'fleet'\)"):
            PopulationTrainer(pop, participants=4, executor="process")

    @pytest.mark.parametrize(
        "option,message",
        [
            (dict(executor_workers=0), "workers must be >= 1, got 0"),
            (dict(accounting="bogus"), "unknown accounting mode 'bogus'"),
        ],
    )
    def test_inert_knobs_are_still_checked(self, option, message):
        """The two knobs without effect keep their one check, and its
        messages, on the trainer the frozen harness builds."""
        pop = make_population(_pop_config())
        with pytest.raises(ValueError, match=message):
            PopulationTrainer(pop, participants=4, **option)

    def test_exact_and_aggregate_accounting_agree(self):
        """Both ``accounting`` names keep the same books: bitwise-equal
        runs and snapshots; only the reported name differs."""
        results = {}
        for mode in ("exact", "aggregate"):
            pop = make_population(_pop_config())
            trainer = PopulationTrainer(
                pop, participants=8, round_window=0.8,
                seed=11, accounting=mode,
            )
            results[mode] = trainer.run(3)
            assert results[mode].config["accounting_mode"] == mode
        _assert_runs_bitwise_equal(results["exact"], results["aggregate"])
        exact = dict(results["exact"].config["accounting"])
        aggregate = dict(results["aggregate"].config["accounting"])
        assert exact == aggregate
        details = {
            mode: json.dumps([r.detail for r in result.rounds], sort_keys=True)
            for mode, result in results.items()
        }
        assert details["exact"] == details["aggregate"]


class TestBufferedAsyncFold:
    """The buffered-async round weights each upload into the aggregate
    as it crosses the wire, and never writes into what the wire
    returned: on ``fp64`` that is the sender's own params view."""

    @pytest.mark.parametrize("wire", ["fp64", "int8_sr", "topk0.2"])
    def test_fold_equals_list_then_sum_and_leaves_senders_intact(
        self, monkeypatch, wire
    ):
        config = _pop_config(
            population=400, rounds=5, aggregation="buffered_async",
            async_buffer=4, local_steps=1, wire_dtype=wire,
        )
        trainer = PopulationTrainer(make_population(config), **config.trainer_options())
        fmt = trainer.wire
        uploads, weights, folds, aliased = [], [], [], []
        transmit = fmt.transmit_delta_with_error

        def spy_transmit(vec, reference):
            received, err = transmit(vec, reference)
            uploads.append((vec, vec.tobytes(), received.copy()))
            aliased.append(received is vec)
            return received, err

        staleness_weights = population_module.staleness_weights

        def spy_weights(taus, exponent):
            weights.append(staleness_weights(taus, exponent))
            return weights[-1]

        note_fold = trainer._note_fold

        def spy_note_fold(aggregate, folded):
            assert len(uploads) == len(folded) == len(weights[-1]) > 0
            for params_view, before, _ in uploads:
                assert params_view.tobytes() == before
            want = np.zeros_like(aggregate)
            for weight, (_, _, received) in zip(weights[-1], uploads):
                want += weight * received
            assert aggregate.tobytes() == want.tobytes()
            folds.append(len(folded))
            del uploads[:]
            note_fold(aggregate, folded)

        # ``fmt`` is the registry's shared instance: spy through its
        # ``__dict__`` so teardown deletes the entry.  ``setattr`` on the
        # instance would restore a bound method there instead, shadowing
        # any later class-level spy.
        monkeypatch.setitem(vars(fmt), "transmit_delta_with_error", spy_transmit)
        monkeypatch.setattr(population_module, "staleness_weights", spy_weights)
        monkeypatch.setattr(trainer, "_note_fold", spy_note_fold)
        trainer.run(config.rounds)
        assert len(folds) == config.rounds and sum(folds) > config.rounds
        # The lossless wire hands back the sender's view itself.
        assert all(aliased) if wire == "fp64" else not any(aliased)
