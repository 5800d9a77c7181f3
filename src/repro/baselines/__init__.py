"""Comparison baselines from the paper's evaluation (Sec. IV-A).

* :class:`DistributedTrainer` — "Pytorch distributed training scheme ...
  a decentralized ring all reduce algorithm" [12]: synchronous data
  parallelism, one collective per iteration, the slowest device gates
  every step.
* :class:`DecentralizedFedAvgTrainer` — Decentralized-FedAvg [11]:
  every device runs the *same* number of local steps, then all devices
  average synchronously over a gossip ring.

Classic parameter-server FedAvg, the Sec. II-B reference the paper
decentralises away, runs only in the tests
(``tests/reference_central_fedavg.py``).
"""

from repro.baselines.base import SchemeTrainer
from repro.baselines.distributed import DistributedTrainer
from repro.baselines.fedavg import DecentralizedFedAvgTrainer

__all__ = [
    "SchemeTrainer",
    "DistributedTrainer",
    "DecentralizedFedAvgTrainer",
]
