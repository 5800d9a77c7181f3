"""Optimizers and learning-rate schedules.

The paper trains with SGD at lr 0.01 after a small-lr warm-up during the
mutual-negotiation phase (Sec. III-B); :class:`WarmupSchedule` composes
that behaviour over any base schedule.
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
