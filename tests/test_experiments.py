"""Unit tests for experiment configs and runners."""

import numpy as np
import pytest

from repro.experiments import (
    ExperimentConfig,
    HETEROGENEITY_3311,
    HETEROGENEITY_4221,
    average_results,
    format_wire_sweep,
    run_scheme,
    run_wire_sweep,
    specs_from_power_ratio,
)
from repro.experiments.population import PopulationConfig, make_population
from repro.experiments.runner import repeat_scheme
from repro.experiments.table1 import Table1Cell, format_table1
from repro.metrics import RoundRecord, RunResult
from repro.sim.executor import SerialExecutor
from repro.sim.population import PopulationTrainer


class TestSpecsFromPowerRatio:
    def test_fastest_device_native(self):
        """The strongest device runs at base_step_time; weaker ones are
        proportionally slower (the paper's sleep() emulation)."""
        specs = specs_from_power_ratio([4, 2, 2, 1], base_step_time=0.1)
        step_times = [s.base_step_time / s.power for s in specs]
        assert step_times[0] == pytest.approx(0.1)
        assert step_times[1] == pytest.approx(0.2)
        assert step_times[3] == pytest.approx(0.4)

    def test_worst_straggler_scales_with_ratio(self):
        t3311 = max(
            s.base_step_time / s.power for s in specs_from_power_ratio([3, 3, 1, 1])
        )
        t4221 = max(
            s.base_step_time / s.power for s in specs_from_power_ratio([4, 2, 2, 1])
        )
        assert t4221 > t3311

    def test_ids_sequential(self):
        specs = specs_from_power_ratio([1, 2, 3])
        assert [s.device_id for s in specs] == [0, 1, 2]

    def test_validation(self):
        with pytest.raises(ValueError):
            specs_from_power_ratio([])
        with pytest.raises(ValueError):
            specs_from_power_ratio([1, 0])


class TestExperimentConfig:
    def test_defaults_build_cluster(self):
        config = ExperimentConfig(num_train=160, num_test=80)
        cluster = config.make_cluster()
        assert len(cluster.devices) == 4
        assert cluster.model_nbytes > 0

    def test_same_seed_same_initial_model(self):
        config = ExperimentConfig(num_train=160, num_test=80)
        a = config.make_cluster()
        b = config.make_cluster()
        np.testing.assert_array_equal(a.initial_params, b.initial_params)

    def test_seed_offset_changes_shards(self):
        config = ExperimentConfig(num_train=160, num_test=80)
        a = config.make_cluster(seed_offset=0)
        b = config.make_cluster(seed_offset=1)
        shards_a = a.devices[0].cycler.dataset.indices
        shards_b = b.devices[0].cycler.dataset.indices
        assert not np.array_equal(shards_a, shards_b)

    def test_with_overrides_copies(self):
        config = ExperimentConfig()
        other = config.with_overrides(model="vgg_mini", target_epochs=3)
        assert other.model == "vgg_mini"
        assert config.model == "mlp"

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(num_selected=9, power_ratio=(1, 1))
        with pytest.raises(ValueError):
            ExperimentConfig(batch_size=0)
        # Every value HADFLParams / PopulationTrainer rejects fails when
        # the config is built, not when a run starts.
        executors = (
            dict(executor="thread"),
            dict(executor="process"),
            dict(executor_workers=0),
        )
        for bad in (
            dict(aggregation="bogus"),
            dict(tsync=0),
            dict(accounting="bogus"),
            *executors,
        ):
            with pytest.raises(ValueError):
                ExperimentConfig(**bad)
        for bad in (
            dict(round_window=0),
            dict(staleness_exponent=-1),
            dict(accounting="bogus"),
            *executors,
        ):
            with pytest.raises(ValueError):
                PopulationConfig(**bad)
        # A ready executor instance is accepted as it is.
        ExperimentConfig(executor=SerialExecutor())
        PopulationConfig(executor=SerialExecutor())

    def test_steps_per_local_epoch(self):
        config = ExperimentConfig(num_train=320, batch_size=16)
        assert config.steps_per_local_epoch() == 5  # 320/4 devices/16

    def test_hadfl_params_mirror_config(self):
        config = ExperimentConfig(tsync=2, num_selected=3, selection="uniform")
        params = config.hadfl_params()
        assert params.tsync == 2
        assert params.num_selected == 3
        assert params.selection == "uniform"

    def test_describe_mentions_model(self):
        assert "mlp" in ExperimentConfig().describe()

    def test_model_factories_for_all_zoo_entries(self):
        for model in ("mlp", "simple_cnn", "resnet_mini", "vgg_mini"):
            config = ExperimentConfig(model=model, image_size=8)
            factory = config.make_model_factory()
            instance = factory(np.random.default_rng(0))
            assert sum(p.size for p in instance.parameters()) > 0


class TestPopulationSelectionSigma:
    """An invalid Eq. 8 width fails where it is given, not inside the
    first round's draw ("sigma must be positive" from ``run``)."""

    @pytest.mark.parametrize("sigma", [0.0, -1.0, float("nan")])
    def test_config_rejects_sigma(self, sigma):
        with pytest.raises(ValueError, match="selection_sigma"):
            PopulationConfig(selection_sigma=sigma)

    @pytest.mark.parametrize("sigma", [0.0, -1.0, float("nan")])
    def test_trainer_rejects_sigma_at_construction(self, sigma):
        population = make_population(
            PopulationConfig(population=50, participants=4, num_train=64, num_test=32)
        )
        with pytest.raises(ValueError, match="selection_sigma"):
            PopulationTrainer(population, participants=4, selection_sigma=sigma)


class TestRunner:
    def test_unknown_scheme_raises(self):
        with pytest.raises(KeyError):
            run_scheme("sgd_party", ExperimentConfig())

    def test_run_scheme_smoke(self):
        config = ExperimentConfig(num_train=160, num_test=80, target_epochs=2)
        result = run_scheme("hadfl", config)
        assert result.scheme == "hadfl"
        assert result.total_epochs >= 2

    @pytest.mark.parametrize("num_classes", [5, 12])
    @pytest.mark.parametrize("scheme", ["hadfl", "decentralized_fedavg"])
    def test_data_renders_num_classes(self, scheme, num_classes):
        """The data has the model head's class count: ten rendered classes
        crashed a five-class head and left two of twelve logits dead."""
        config = ExperimentConfig(
            num_classes=num_classes, num_train=192, num_test=96, target_epochs=2
        )
        train, test = config.make_data()
        assert set(np.unique(train.labels)) == set(range(num_classes))
        assert test.labels.max() < num_classes
        assert run_scheme(scheme, config).total_epochs >= 2

    def test_repeat_scheme_averages(self):
        config = ExperimentConfig(num_train=160, num_test=80, target_epochs=2)
        averaged = repeat_scheme("decentralized_fedavg", config, repeats=2)
        assert averaged.config.get("repeats") == 2

    def test_repeat_requires_positive(self):
        with pytest.raises(ValueError):
            repeat_scheme("hadfl", ExperimentConfig(), repeats=0)


class TestWireSweep:
    def test_sweep_trades_bytes_for_cast_error(self):
        config = ExperimentConfig(num_train=160, num_test=80, target_epochs=2)
        cells = run_wire_sweep(config, wire_dtypes=("fp64", "fp32"))
        assert [c.wire_dtype for c in cells] == ["fp64", "fp32"]
        fp64, fp32 = cells
        assert fp64.total_comm_bytes == 2 * fp32.total_comm_bytes
        assert fp64.max_cast_error == 0.0
        assert fp32.max_cast_error > 0.0
        assert fp32.best_accuracy > 0.0

    def test_format_contains_every_dtype(self):
        config = ExperimentConfig(num_train=160, num_test=80, target_epochs=2)
        cells = run_wire_sweep(config, wire_dtypes=("fp64", "fp32"))
        table = format_wire_sweep(cells)
        assert "fp64" in table and "fp32" in table
        assert "max cast err" in table

    def test_empty_dtypes_raises(self):
        with pytest.raises(ValueError):
            run_wire_sweep(ExperimentConfig(), wire_dtypes=())


class TestAverageResults:
    def _run(self, times, accs):
        result = RunResult(scheme="x")
        for index, (t, acc) in enumerate(zip(times, accs)):
            result.append(
                RoundRecord(
                    round_index=index, sim_time=t, global_epoch=index + 1.0,
                    train_loss=1.0, test_loss=0.5, test_accuracy=acc,
                )
            )
        return result

    def test_roundwise_mean(self):
        a = self._run([1.0, 2.0], [0.4, 0.8])
        b = self._run([3.0, 4.0], [0.6, 1.0])
        averaged = average_results([a, b])
        np.testing.assert_allclose(averaged.times(), [2.0, 3.0])
        np.testing.assert_allclose(averaged.test_accuracies(), [0.5, 0.9])

    def test_truncates_to_common_prefix(self):
        a = self._run([1.0, 2.0, 3.0], [0.1, 0.2, 0.3])
        b = self._run([1.0], [0.5])
        assert len(average_results([a, b]).rounds) == 1

    def test_single_result_passthrough(self):
        a = self._run([1.0], [0.5])
        assert average_results([a]) is a

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            average_results([])


class TestTable1Formatting:
    def _fake_cell(self):
        def run_with(times, accs, scheme):
            result = RunResult(scheme=scheme)
            for index, (t, a) in enumerate(zip(times, accs)):
                result.append(
                    RoundRecord(
                        round_index=index, sim_time=t, global_epoch=index + 1.0,
                        train_loss=1.0, test_accuracy=a, test_loss=0.1,
                    )
                )
            return result

        return Table1Cell(
            model="mlp",
            power_ratio=(3, 3, 1, 1),
            results={
                "distributed": run_with([10, 20], [0.5, 0.9], "distributed"),
                "decentralized_fedavg": run_with(
                    [8, 16], [0.5, 0.9], "decentralized_fedavg"
                ),
                "hadfl": run_with([4, 8], [0.5, 0.88], "hadfl"),
            },
        )

    def test_speedups(self):
        cell = self._fake_cell()
        # Common target 0.88 is only hit at the final round of each run.
        assert cell.speedup_over("distributed") == pytest.approx(20 / 8)
        assert cell.speedup_over("decentralized_fedavg") == pytest.approx(16 / 8)

    def test_format_contains_speedup_rows(self):
        table = format_table1([self._fake_cell()])
        assert "hadfl speedup vs distributed" in table
        assert "2.50x" in table

