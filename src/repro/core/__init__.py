"""HADFL core: the paper's primary contribution.

* :mod:`~repro.core.prediction` — runtime parameter-version prediction via
  Brown's double exponential smoothing (Eq. 7).
* :mod:`~repro.core.selection` — probability-based device selection with a
  Gaussian kernel centred on the 3rd quartile of versions (Eq. 8), plus
  the ablation/worst-case policies.
* :mod:`~repro.core.strategy` — heterogeneity-aware training strategy
  generation: hyperperiod (LCM of per-epoch times), local steps E_k,
  synchronisation period, ring topology (Sec. III-C).
* :mod:`~repro.core.coordinator` — the cloud coordinator: liveness
  monitor, runtime supervisor, strategy generator, model manager
  (Fig. 2a).
* :mod:`~repro.core.trainer` — :class:`HADFLTrainer`, Algorithm 1 on the
  simulated cluster with fault-tolerant partial synchronisation.
* :mod:`~repro.core.groups` — hierarchical multi-group HADFL (Fig. 2a's
  device groups with inter-group synchronisation).
"""

from repro.core.config import HADFLParams
from repro.core.prediction import VersionPredictor
from repro.core.selection import (
    ForcedWorstSelection,
    GaussianQuartileSelection,
    LatestOnlySelection,
    SelectionPolicy,
    UniformSelection,
    make_selection_policy,
)
from repro.core.strategy import StrategyGenerator, TrainingStrategy, hyperperiod
from repro.core.coordinator import Coordinator, ModelManager
from repro.core.trainer import HADFLTrainer
from repro.core.groups import GroupedHADFLTrainer

__all__ = [
    "HADFLParams",
    "VersionPredictor",
    "SelectionPolicy",
    "GaussianQuartileSelection",
    "UniformSelection",
    "LatestOnlySelection",
    "ForcedWorstSelection",
    "make_selection_policy",
    "StrategyGenerator",
    "TrainingStrategy",
    "hyperperiod",
    "Coordinator",
    "ModelManager",
    "HADFLTrainer",
    "GroupedHADFLTrainer",
]
