"""Centralised FedAvg (McMahan et al.) — the paper's Sec. II-B reference
(test-only).

The classic FL pattern HADFL decentralises away: every E local steps, all
devices upload to a central parameter server which averages (Eq. 4) and
downloads the new global model.  The server round costs
``2K`` sequential full-model messages (the communication-pressure
bottleneck of the paper's challenge 2), and the synchronisation barrier
still waits for the slowest device.

Not part of the paper's measured comparison (which uses the
*decentralized* FedAvg variant [11]), and no entry point runs it: it
lives beside the other reference files so the tests can check the
server-pressure arithmetic of Sec. II-B against a running
implementation (``records_parity.json``'s ``centralized_fedavg`` entry,
``tests/integration/test_paper_claims.py``'s server-pressure row,
``tests/test_io_cli.py`` and ``tests/test_accounting.py``).
"""

from __future__ import annotations

import numpy as np

from repro.baselines.fedavg import DecentralizedFedAvgTrainer


class CentralizedFedAvgTrainer(DecentralizedFedAvgTrainer):
    """FedAvg through a central parameter server: decentralized FedAvg's
    local phase (``local_steps`` E, default one local epoch), merged by
    upload, weighted average and download instead of the gossip ring.
    ``SERVER_ID`` is the server endpoint in volume accounting.
    """

    scheme_name = "centralized_fedavg"
    SERVER_ID = -1

    def _merge(self, barrier: float) -> float:
        cluster = self.cluster
        devices = cluster.devices
        m = cluster.model_nbytes
        k = len(devices)

        # Upload: K sequential receptions serialise at the server — the
        # server only sees what survived the wire cast; then aggregation
        # (Eq. 4) and K sequential downloads, cast again on the way out.
        upload = cluster.network.sequential_sends_time(m, k)
        shard_sizes = np.array([len(d.cycler.dataset) for d in devices], dtype=float)
        weights = shard_sizes / shard_sizes.sum()  # n_k / N weighting (Eq. 2)
        wire_cast_error = 0.0
        uploads = []
        for device in devices:
            # Server and device share the last downloaded global model —
            # the delta reference for sparsifying wires in both
            # directions.
            received, err = self.wire.transmit_delta_with_error(
                device.get_params_view(), self._wire_reference
            )
            wire_cast_error = max(wire_cast_error, err)
            uploads.append(received)
        stacked = np.stack(uploads)
        averaged = np.tensordot(weights, stacked, axes=1)
        download = cluster.network.sequential_sends_time(m, k)
        downloaded, err = self.wire.transmit_delta_with_error(
            averaged, self._wire_reference
        )
        wire_cast_error = max(wire_cast_error, err)
        for device in devices:
            device.set_params(downloaded)
        self._global_params = averaged
        self._wire_reference = downloaded

        # The Sec. II-B per-round volume: 2KM through the server.
        self.volume.record(barrier, k * m, "upload", dst=self.SERVER_ID)
        self.volume.record(barrier + upload, k * m, "download", src=self.SERVER_ID)
        self.sim.run(until=barrier + upload + download)
        return wire_cast_error
