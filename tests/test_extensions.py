"""Tests for the future-work extensions: heterogeneous bandwidth + data.

The paper's conclusion promises support for "heterogeneous network
bandwidth and data distribution"; these tests cover the
:class:`HeterogeneousNetworkModel` and HADFL under non-IID (Dirichlet)
shards.
"""

import numpy as np
import pytest

from repro.comm import FaultTolerantRingSync
from repro.experiments import ExperimentConfig, run_scheme
from repro.sim import HeterogeneousNetworkModel, NetworkModel, Simulator


class TestHeterogeneousNetworkModel:
    def _net(self):
        return HeterogeneousNetworkModel(
            latency=1e-3,
            bandwidth=1e6,
            device_bandwidth={0: 1e6, 1: 1e6, 2: 5e4},  # device 2 throttled
            device_latency={2: 1e-2},
        )

    def test_defaults_for_unlisted_devices(self):
        net = self._net()
        assert net.effective_bandwidth(7) == 1e6
        assert net.effective_latency(7) == 1e-3

    def test_p2p_gated_by_slower_endpoint(self):
        net = self._net()
        fast_pair = net.p2p_time_between(0, 1, 1e5)
        slow_pair = net.p2p_time_between(0, 2, 1e5)
        assert slow_pair > fast_pair
        assert slow_pair == pytest.approx(1e-2 + 1e5 / 5e4)

    def test_ring_gated_by_slowest_member(self):
        net = self._net()
        fast_ring = net.ring_time_for([0, 1], 1e5)
        slow_ring = net.ring_time_for([0, 1, 2], 1e5)
        assert slow_ring > fast_ring

    def test_single_member_ring_free(self):
        assert self._net().ring_time_for([0], 1e6) == 0.0

    def test_base_model_participant_api_consistent(self):
        """The uniform model's participant-aware methods must agree with
        its aggregate formulas, so trainers can use one API."""
        net = NetworkModel(latency=1e-3, bandwidth=1e6)
        assert net.p2p_time_between(0, 1, 500) == net.p2p_time(500)
        assert net.ring_time_for([0, 1, 2], 900) == net.ring_allreduce_time(900, 3)

    def test_validation(self):
        with pytest.raises(ValueError):
            HeterogeneousNetworkModel(device_bandwidth={0: 0.0})
        with pytest.raises(ValueError):
            HeterogeneousNetworkModel(device_latency={0: -1.0})
        with pytest.raises(ValueError):
            self._net().ring_time_for([], 100)

    def test_ring_sync_slower_with_throttled_member(self):
        net = self._net()
        vectors = {i: np.zeros(10) for i in range(3)}
        fast = FaultTolerantRingSync(net).run(
            Simulator(), [0, 1], {0: vectors[0], 1: vectors[1]},
            lambda d, t: True, 100_000,
        )
        slow = FaultTolerantRingSync(net).run(
            Simulator(), [0, 1, 2], vectors, lambda d, t: True, 100_000
        )
        assert (slow.completion_time - slow.start_time) > (
            fast.completion_time - fast.start_time
        )


class TestNonIIDData:
    def test_hadfl_converges_on_dirichlet_shards(self):
        config = ExperimentConfig(
            model="mlp", num_train=400, num_test=200, target_epochs=12.0,
            partition="dirichlet", dirichlet_alpha=0.3, seed=13,
        )
        result = run_scheme("hadfl", config)
        assert result.best_accuracy() > 0.5

    def test_noniid_harder_than_iid(self):
        base = dict(
            model="mlp", num_train=400, num_test=200, target_epochs=10.0, seed=13
        )
        iid = run_scheme("hadfl", ExperimentConfig(**base))
        skewed = run_scheme(
            "hadfl",
            ExperimentConfig(
                **base, partition="dirichlet", dirichlet_alpha=0.1
            ),
        )
        assert skewed.best_accuracy() <= iid.best_accuracy() + 0.02

    def test_heterogeneous_network_config_roundtrip(self):
        config = ExperimentConfig(device_bandwidth={0: 1e5})
        cluster = config.make_cluster()
        assert isinstance(cluster.network, HeterogeneousNetworkModel)
        assert cluster.network.effective_bandwidth(0) == 1e5
