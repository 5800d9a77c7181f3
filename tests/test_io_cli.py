"""Tests for result persistence (repro.io), CLI, centralized FedAvg."""

import numpy as np
import pytest

from repro import io
from repro.baselines import CentralizedFedAvgTrainer
from repro.cli import build_parser, main
from repro.experiments import ExperimentConfig, run_scheme
from repro.metrics import RoundRecord, RunResult


def _tiny_config(**overrides):
    base = dict(
        model="mlp", num_train=160, num_test=80, image_size=8,
        target_epochs=3.0, seed=6,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestResultPersistence:
    def _result(self):
        result = RunResult(scheme="hadfl", config={"tsync": 1})
        result.append(
            RoundRecord(
                round_index=0, sim_time=1.5, global_epoch=1.0, train_loss=0.9,
                test_loss=0.8, test_accuracy=0.5, selected=[0, 2],
                versions={0: 10, 2: 4}, comm_bytes=128, bypasses=1,
                detail={"wire_dtype": "fp32", "wire_cast_error": 2.5e-8},
            )
        )
        result.append(
            RoundRecord(
                round_index=1, sim_time=3.0, global_epoch=2.0, train_loss=0.5,
            )
        )
        return result

    def test_json_roundtrip(self, tmp_path):
        original = self._result()
        path = io.save_result(original, tmp_path / "run.json")
        loaded = io.load_result(path)
        assert loaded.scheme == "hadfl"
        assert len(loaded.rounds) == 2
        assert loaded.rounds[0].versions == {0: 10, 2: 4}
        assert loaded.rounds[0].selected == [0, 2]
        # detail (quantisation telemetry) survives the roundtrip.
        assert loaded.rounds[0].detail == {
            "wire_dtype": "fp32",
            "wire_cast_error": 2.5e-8,
        }
        assert loaded.rounds[1].test_accuracy is None
        assert loaded.rounds[1].detail == {}
        np.testing.assert_allclose(loaded.times(), original.times())

    def test_directory_roundtrip(self, tmp_path):
        family = {"a": self._result(), "b": self._result()}
        directory = io.save_results(family, tmp_path / "runs")
        loaded = {path.stem: io.load_result(path) for path in directory.glob("*.json")}
        assert set(loaded) == {"a", "b"}
        assert all(len(result.rounds) == 2 for result in loaded.values())


class TestCentralizedFedAvg:
    def test_converges_and_counts_server_bytes(self):
        config = _tiny_config()
        cluster = config.make_cluster()
        trainer = CentralizedFedAvgTrainer(cluster)
        result = trainer.run(target_epochs=3)
        assert result.best_accuracy() > 0.3
        # Sec. II-B: every round moves exactly 2KM through the server.
        expected = 2 * len(cluster.devices) * cluster.model_nbytes
        for record in result.rounds:
            assert record.comm_bytes == expected
        assert trainer.server_bytes == expected * len(result.rounds)

    def test_server_serialisation_slower_than_decentralized(self):
        """The server round (2K sequential sends) must cost more wall time
        than the ring gossip — the paper's challenge-2 bottleneck."""
        from repro.baselines import DecentralizedFedAvgTrainer

        config = _tiny_config()
        central = CentralizedFedAvgTrainer(config.make_cluster())
        decentralized = DecentralizedFedAvgTrainer(config.make_cluster())
        r_central = central.run(target_epochs=2)
        r_dec = decentralized.run(target_epochs=2)
        assert r_central.total_time > r_dec.total_time

    def test_weighted_by_shard_size(self):
        config = _tiny_config()
        cluster = config.make_cluster()
        trainer = CentralizedFedAvgTrainer(cluster, local_steps=1)
        trainer.run(target_epochs=0.5)
        # All devices end the round with the same global model.
        reference = cluster.devices[0].get_params()
        for device in cluster.devices[1:]:
            np.testing.assert_allclose(device.get_params(), reference)

    def test_invalid_local_steps(self):
        with pytest.raises(ValueError):
            CentralizedFedAvgTrainer(_tiny_config().make_cluster(), local_steps=0)


class TestCLI:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "resnet_mini" in out
        assert "hadfl" in out

    def test_run_and_save(self, tmp_path, capsys):
        code = main(
            [
                "run", "--scheme", "hadfl", "--model", "mlp",
                "--train", "160", "--test", "80", "--epochs", "2",
                "--out", str(tmp_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "best accuracy" in out
        assert (tmp_path / "hadfl.json").exists()
        loaded = io.load_result(tmp_path / "hadfl.json")
        assert loaded.scheme == "hadfl"

    def test_run_with_fp32_wire(self, tmp_path, capsys):
        code = main(
            [
                "run", "--scheme", "hadfl", "--model", "mlp",
                "--train", "160", "--test", "80", "--epochs", "2",
                "--wire-dtype", "fp32", "--out", str(tmp_path),
            ]
        )
        assert code == 0
        loaded = io.load_result(tmp_path / "hadfl.json")
        assert loaded.config["wire_dtype"] == "fp32"
        # The cast-error telemetry survives the CLI save path.
        assert any(
            r.detail.get("wire_cast_error", 0.0) > 0.0 for r in loaded.rounds
        )

    @pytest.mark.parametrize("scheme", ["distributed", "decentralized_fedavg"])
    def test_baselines_verify_accounting(self, scheme, tmp_path, capsys):
        """Regression: the baselines kept an accountant but never stored
        its snapshot, so ``--verify-accounting`` died with "no accounting
        snapshot" on every non-HADFL scheme."""
        code = main(
            [
                "run", "--scheme", scheme, "--model", "mlp", "--epochs", "1",
                "--train", "128", "--test", "64", "--seed", "3",
                "--verify-accounting", "--out", str(tmp_path),
            ]
        )
        assert code == 0
        assert "accounting ok:" in capsys.readouterr().out
        saved = io.load_result(tmp_path / f"{scheme}.json")
        accounting = saved.config["accounting"]
        assert accounting["total_bytes"] > 0
        assert accounting["total_bytes"] == sum(
            r.comm_bytes for r in saved.rounds
        ) + accounting["bytes_by_kind"].get("initial_dispatch", 0)

    def test_bad_wire_dtype_rejected(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["run", "--wire-dtype", "int8"])

    def test_compare(self, capsys):
        code = main(
            [
                "compare", "--model", "mlp", "--train", "160", "--test", "80",
                "--epochs", "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "distributed" in out
        assert "accuracy vs virtual time" in out

    def test_bad_ratio_rejected(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["run", "--ratio", "3,oops"])

    def test_bad_scheme_rejected(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["run", "--scheme", "magic"])

    def test_every_flag_stores_into_its_config(self):
        """A flag's ``dest`` names the config field it sets, so a
        mistyped ``dest`` cannot silently drop the flag."""
        import argparse
        import dataclasses

        from repro.experiments.population import PopulationConfig

        subparsers = next(
            a for a in build_parser()._actions
            if isinstance(a, argparse._SubParsersAction)
        )
        not_config = {"help", "scheme", "out", "verify_accounting", "repeats"}
        for name, sub in subparsers.choices.items():
            if name == "info":
                continue
            config = PopulationConfig if name == "population" else ExperimentConfig
            names = {f.name for f in dataclasses.fields(config)}
            for action in sub._actions:
                assert action.dest in names | not_config, (name, action.dest)

    @pytest.mark.parametrize("command", ["info", "run", "compare", "population", "table1"])
    def test_help_renders(self, command, capsys):
        """argparse formats help lazily: a broken help string or default
        only fails when someone asks for ``--help``."""
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--help"])
        assert exit_info.value.code == 0
        assert "usage: repro" in capsys.readouterr().out

    def test_mode_and_executor_vocabularies_are_spelled_once(self):
        """Every ``--aggregation`` / ``--executor`` flag of every
        sub-command takes its choices from the one vocabulary tuple, so
        a literal copy cannot drift (or resurrect a deleted value)."""
        import argparse

        from repro.sim.executor import EXECUTOR_NAMES
        from repro.sim.rounds import AGGREGATION_MODES

        parser = build_parser()
        subparsers = next(
            a for a in parser._actions
            if isinstance(a, argparse._SubParsersAction)
        )
        seen = {"--aggregation": 0, "--executor": 0}
        for name, sub in subparsers.choices.items():
            for action in sub._actions:
                if "--aggregation" in action.option_strings:
                    assert tuple(action.choices) == AGGREGATION_MODES, name
                    seen["--aggregation"] += 1
                if "--executor" in action.option_strings:
                    assert set(action.choices) <= set(EXECUTOR_NAMES), name
                    seen["--executor"] += 1
                    if name == "population":
                        assert "process" not in action.choices
                    with pytest.raises(SystemExit):
                        parser.parse_args([name, "--executor", "thread"])
                    with pytest.raises(SystemExit):
                        parser.parse_args([name, "--aggregation", "semi" "_sync"])
        assert min(seen.values()) >= 2  # run/compare/table1 + population
