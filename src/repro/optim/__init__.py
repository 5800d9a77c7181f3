"""Optimizers and learning-rate schedules.

The paper trains with SGD at lr 0.01 after a small-lr warm-up during the
mutual-negotiation phase (Sec. III-B); :class:`WarmupSchedule` composes
that behaviour over any base schedule.  Every optimizer is built on a
:class:`~repro.comm.params.ParamArena` and steps it with one kernel
call (:mod:`repro.optim.base`).  :class:`SGD` (heavy-ball momentum,
weight decay) is the optimizer every cluster builds by default;
:class:`Adam` is kept for its hot-path bench row
(``benchmarks/bench_hotpath.py``).
"""

from repro.optim.base import Optimizer
from repro.optim.sgd import SGD
from repro.optim.adam import Adam
from repro.optim.lr_schedules import (
    ConstantSchedule,
    LRSchedule,
    WarmupSchedule,
)

__all__ = [
    "Optimizer",
    "SGD",
    "Adam",
    "LRSchedule",
    "ConstantSchedule",
    "WarmupSchedule",
]
