"""Integration tests pinning the paper's qualitative claims.

These run all three schemes end-to-end on a small-but-real task (MLP on
the synthetic CIFAR stand-in) and assert the *shape* of the published
results: scheme ordering in time-to-accuracy, heterogeneity scaling,
accuracy gaps, worst-case degradation, partial-sync width, and
communication volumes.  This file is the one home of the paper's
evaluation; the README's "Paper-claims index" maps each claim to its
test, grouped by heterogeneity axis.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core import GroupedHADFLTrainer, HADFLTrainer
from repro.core.selection import ForcedWorstSelection
from repro.experiments import (
    ExperimentConfig,
    HETEROGENEITY_3311,
    HETEROGENEITY_4221,
    run_all_schemes,
    run_scheme,
)
from repro.metrics import speedup, time_to_accuracy, time_to_max_accuracy
from repro.sim import FailureInjector

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from reference_central_fedavg import CentralizedFedAvgTrainer  # noqa: E402


def _config(ratio=HETEROGENEITY_3311, **overrides):
    base = dict(
        model="mlp",
        power_ratio=ratio,
        num_train=800,
        num_test=400,
        image_size=8,
        target_epochs=25.0,
        seed=1,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


@pytest.fixture(scope="module")
def results_3311():
    return run_all_schemes(_config(HETEROGENEITY_3311))


@pytest.fixture(scope="module")
def results_4221():
    return run_all_schemes(_config(HETEROGENEITY_4221))


class TestConvergenceSpeed:
    """Paper: "HADFL converges faster than the other two schemes"."""

    @pytest.mark.parametrize("fixture", ["results_3311", "results_4221"])
    def test_hadfl_fastest_to_common_accuracy(self, fixture, request):
        results = request.getfixturevalue(fixture)
        target = min(r.best_accuracy() for r in results.values()) - 0.01
        times = {
            name: time_to_accuracy(result, target)
            for name, result in results.items()
        }
        assert times["hadfl"] is not None
        assert times["hadfl"] < times["distributed"]
        assert times["hadfl"] < times["decentralized_fedavg"]

    def test_speedup_magnitudes_in_paper_ballpark(self, results_3311):
        """Paper Table I (ResNet, [3,3,1,1]): ~3.0x over distributed,
        ~2.1x over decentralized-FedAvg, computed as the ratio of each
        scheme's own time-to-max-accuracy.  We require the right order of
        magnitude (>1.3x), not the exact factors."""
        _, t_dist = time_to_max_accuracy(results_3311["distributed"])
        _, t_fed = time_to_max_accuracy(results_3311["decentralized_fedavg"])
        _, t_hadfl = time_to_max_accuracy(results_3311["hadfl"])
        assert t_dist / t_hadfl > 1.3
        assert t_fed / t_hadfl > 1.3

    def test_distributed_degrades_with_stronger_heterogeneity(
        self, results_3311, results_4221
    ):
        """Table I: distributed training needs more time on [4,2,2,1]
        (4x straggler) than [3,3,1,1] (3x straggler)."""
        t_33 = results_3311["distributed"].total_time
        t_42 = results_4221["distributed"].total_time
        assert t_42 > t_33

    def test_hadfl_insensitive_to_heterogeneity_shape(
        self, results_3311, results_4221
    ):
        """HADFL's window packs work by device speed, so its total time
        moves far less than distributed training's when the ratio changes."""
        hadfl_ratio = (
            results_4221["hadfl"].total_time / results_3311["hadfl"].total_time
        )
        dist_ratio = (
            results_4221["distributed"].total_time
            / results_3311["distributed"].total_time
        )
        assert hadfl_ratio < dist_ratio * 1.2


class TestAccuracy:
    """Paper: "almost no loss of convergence accuracy" (within ~2 points),
    but per-epoch loss slightly above the synchronous schemes."""

    @pytest.mark.parametrize("fixture", ["results_3311", "results_4221"])
    def test_hadfl_accuracy_close_to_baselines(self, fixture, request):
        results = request.getfixturevalue(fixture)
        gap = results["distributed"].best_accuracy() - results["hadfl"].best_accuracy()
        assert gap < 0.06

    @pytest.mark.parametrize("fixture", ["results_3311", "results_4221"])
    def test_hadfl_warmup_above_chance_at_first_eval(self, fixture, request):
        """Fig. 3(e): the warm-up and mutual-negotiation phase puts
        HADFL's first evaluated accuracy above chance (0.1)."""
        results = request.getfixturevalue(fixture)
        assert results["hadfl"].test_accuracies()[0] > 0.12

    def test_all_schemes_learn(self, results_3311):
        for result in results_3311.values():
            assert result.best_accuracy() > 0.7  # 10-class task, chance=0.1

    def test_hadfl_per_epoch_loss_not_better_than_synchronous(self, results_3311):
        """Fig. 3(a): at matched epochs HADFL's training loss sits at or
        above the fully synchronous scheme's (partial sync costs a bit)."""
        hadfl = results_3311["hadfl"]
        dist = results_3311["distributed"]
        # Compare the training loss around epoch ~10 via interpolation.
        probe = 10.0
        hadfl_loss = np.interp(probe, hadfl.epochs(), hadfl.train_losses())
        dist_loss = np.interp(probe, dist.epochs(), dist.train_losses())
        assert hadfl_loss > dist_loss * 0.8  # not materially better


class TestWorstCase:
    """Paper Sec. IV-B: forcing the two weakest devices into every sync
    bounds the accuracy loss (86% vs 90% on ResNet) with fluctuation."""

    def test_forced_worst_loses_accuracy_but_still_learns(self):
        config = _config(target_epochs=20.0, seed=2)
        normal = run_scheme("hadfl", config)
        worst = run_scheme("hadfl", config, selection=ForcedWorstSelection())
        assert worst.best_accuracy() < normal.best_accuracy()
        assert worst.best_accuracy() > 0.5  # bounded loss, not collapse


class TestPartialSyncWidth:
    """Paper Sec. IV-B: "by allowing more GPUs to participate in partial
    synchronization, the training effect can be better"."""

    def test_wider_sync_holds_accuracy_and_moves_more_bytes(self):
        narrow, wide = (
            run_scheme("hadfl", _config(HETEROGENEITY_4221, num_selected=n))
            for n in (1, 4)
        )
        assert wide.best_accuracy() >= narrow.best_accuracy() - 0.02
        assert wide.total_comm_bytes > narrow.total_comm_bytes


class TestCommunication:
    """Sec. II-B / III-D: HADFL keeps device volume at 2·K·M per round and
    moves far fewer bytes than per-iteration all-reduce overall."""

    def test_distributed_moves_most_bytes(self, results_3311):
        assert (
            results_3311["distributed"].total_comm_bytes
            > 3 * results_3311["hadfl"].total_comm_bytes
        )

    def test_hadfl_round_volume_bounded_by_2km(self, results_3311):
        hadfl = results_3311["hadfl"]
        model_nbytes = hadfl.config["model_nbytes"]
        k = len(hadfl.config["power_ratio"])
        bound = 2 * k * model_nbytes
        for record in hadfl.rounds:
            if record.comm_bytes:
                assert record.comm_bytes <= bound * 1.05  # repair margin

    def test_hadfl_relays_no_model_through_a_server(self, results_3311):
        """Sec. III-D: past the one-time initial dispatch, every model
        byte moves device to device (partial sync, broadcast)."""
        kinds = results_3311["hadfl"].config["accounting"]["bytes_by_kind"]
        assert set(kinds) <= {"initial_dispatch", "partial_sync", "broadcast"}

    def test_centralized_server_moves_km_each_way_per_round(self):
        """Sec. II-B: a parameter server receives and sends K·M bytes
        every round — the 2·K·M hotspot HADFL removes."""
        config = _config()
        result = CentralizedFedAvgTrainer(config.make_cluster(), seed=1).run(
            target_epochs=config.target_epochs
        )
        k = len(config.power_ratio)
        per_direction = len(result.rounds) * k * result.config["model_nbytes"]
        kinds = result.config["accounting"]["bytes_by_kind"]
        assert kinds["upload"] == kinds["download"] == per_direction


class TestFaultTolerance:
    def test_hadfl_survives_mid_run_disconnect(self):
        injector = FailureInjector()
        injector.fail(1, down_at=10.0, up_at=25.0)
        config = _config(target_epochs=15.0, num_selected=3)
        cluster = config.make_cluster(failure_injector=injector)
        trainer = HADFLTrainer(cluster, params=config.hadfl_params(), seed=1)
        result = trainer.run(target_epochs=15.0)
        assert result.best_accuracy() > 0.6
        # The dead device was skipped or bypassed, never crashed the run.
        assert result.total_epochs >= 15.0


class TestHierarchicalGroups:
    def test_grouped_hadfl_converges(self):
        config = _config(
            power_ratio=(3, 3, 1, 1, 4, 2, 2, 1),
            num_train=960,
            target_epochs=12.0,
        )
        cluster = config.make_cluster()
        trainer = GroupedHADFLTrainer(
            cluster, params=config.hadfl_params(), groups=2, inter_group_period=2,
            seed=1,
        )
        result = trainer.run(target_epochs=12.0)
        assert result.best_accuracy() > 0.65
