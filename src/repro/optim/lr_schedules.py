"""Learning-rate schedules as pure functions of the global step.

Schedules are callables ``step -> lr`` so device trainers can apply them
without shared mutable state: in the federated simulation every device
holds its own optimizer but all consult the same schedule, exactly as the
paper's setup (single lr policy, warm-up in the mutual-negotiation phase,
0.01 afterwards).
"""

from __future__ import annotations


class LRSchedule:
    """Base class: subclasses implement ``__call__(step) -> lr``."""

    def __call__(self, step: int) -> float:
        raise NotImplementedError


class ConstantSchedule(LRSchedule):
    """Fixed learning rate (the paper's 0.01 main-phase policy)."""

    def __init__(self, lr: float):
        if lr <= 0:
            raise ValueError(f"lr must be positive, got {lr}")
        self.lr = lr

    def __call__(self, step: int) -> float:
        return self.lr


class WarmupSchedule(LRSchedule):
    """Linear ramp from ``warmup_lr`` to the base schedule's lr.

    Models the paper's mutual-negotiation phase: devices "train
    E_warm_up epochs using a small learning rate, which can alleviate the
    severe fluctuations ... at the early stage of training" (Sec. III-B).
    """

    def __init__(self, base: LRSchedule, warmup_steps: int, warmup_lr: float = 1e-3):
        if warmup_steps < 0:
            raise ValueError(f"warmup_steps must be non-negative, got {warmup_steps}")
        self.base = base
        self.warmup_steps = warmup_steps
        self.warmup_lr = warmup_lr

    def __call__(self, step: int) -> float:
        if self.warmup_steps == 0 or step >= self.warmup_steps:
            return self.base(step)
        target = self.base(self.warmup_steps)
        fraction = step / self.warmup_steps
        return self.warmup_lr + fraction * (target - self.warmup_lr)
