"""Config-driven entry point for virtual-population experiments.

Bridges the experiment harness (synthetic data, model zoo, network
model) to :mod:`repro.sim.population`: a :class:`PopulationConfig`
names every knob of a large-population run, and :func:`run_population`
turns it into a :class:`~repro.metrics.records.RunResult` with the
same shape the cluster-scale runners produce — so ``repro.io`` and the
metrics/plotting stack work unchanged.

The data/model fields delegate to :class:`ExperimentConfig` so a
population run trains on exactly the synthetic task the 8-device
experiments use; the population itself stays virtual (see the module
docstring of :mod:`repro.sim.population`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from inspect import signature
from typing import Any, Dict, Optional, Tuple

from repro.experiments.configs import ExperimentConfig
from repro.metrics.records import RunResult
from repro.optim.sgd import SGD
from repro.sim.failures import make_availability_model
from repro.sim.population import (
    PopulationSpecs,
    PopulationTrainer,
    VirtualPopulation,
    check_population_options,
)


@dataclass
class PopulationConfig:
    """Everything a virtual-population run needs.

    Scale
    -----
    ``population``
        Number of virtual devices.
    ``participants``
        Devices materialised per round; peak arena memory is bounded by
        this, never by ``population``.
    ``rounds`` / ``round_window``
        Round count and the virtual-seconds training window per round.
    ``shard_size``
        Samples in each device's (lazily sampled) local shard.

    Population shape
    ----------------
    ``power_levels`` / ``base_step_time``
        Compute heterogeneity, dealt round-robin over device ids.
    ``availability`` / ``availability_kwargs``
        Availability model name for
        :func:`~repro.sim.failures.make_availability_model`
        (``"always"`` or ``"diurnal"``) plus its keyword arguments.

    Training task
    -------------
    ``model``/``image_size``/``num_train``/``num_test``/``batch_size``/
    ``lr``/``momentum``/``wire_dtype`` mirror :class:`ExperimentConfig`.

    Bookkeeping
    -----------
    ``accounting``
        Accountant mode — ``"aggregate"`` (bounded memory, the default
        at population scale) or ``"exact"`` (full per-transfer log).
    """

    population: int = 10_000
    participants: int = 100
    rounds: int = 10
    round_window: float = 1.0
    shard_size: int = 64
    power_levels: Tuple[float, ...] = (3.0, 3.0, 1.0, 1.0)
    base_step_time: float = 0.05
    availability: str = "always"
    availability_kwargs: Dict[str, float] = field(default_factory=dict)
    selection_sigma: float = 1.0
    model: str = "mlp"
    image_size: int = 8
    num_train: int = 800
    num_test: int = 400
    batch_size: int = 16
    lr: float = 0.05
    momentum: float = 0.9
    wire_dtype: str = "fp64"
    accounting: str = "aggregate"
    eval_every: int = 0
    executor: str = "serial"
    executor_workers: Optional[int] = None
    # Federation mode and the rest of the trainer's options: documented
    # on PopulationTrainer, validated by check_population_options.
    aggregation: str = "sync"
    async_buffer: Optional[int] = None
    local_steps: Optional[int] = None
    staleness_exponent: float = 0.5
    seed: int = 1

    def __post_init__(self) -> None:
        if self.population < 1:
            raise ValueError(f"population must be >= 1, got {self.population}")
        if self.shard_size < 1:
            raise ValueError(f"shard_size must be >= 1, got {self.shard_size}")
        options = self.trainer_options()
        del options["seed"]
        check_population_options(**options)

    def with_overrides(self, **kwargs) -> "PopulationConfig":
        """A copy with fields replaced."""
        return replace(self, **kwargs)

    def trainer_options(self) -> Dict[str, Any]:
        """The :class:`PopulationTrainer` keyword arguments: every trainer
        parameter but the population is a field of the same name."""
        names = list(signature(PopulationTrainer).parameters)[1:]
        return {name: getattr(self, name) for name in names}

    # ------------------------------------------------------------------ #
    def base_config(self) -> ExperimentConfig:
        """The :class:`ExperimentConfig` carrying the shared data/model
        knobs (its cluster-scale fields are left at defaults)."""
        shared = ("model", "image_size", "num_train", "num_test", "batch_size",
                  "lr", "wire_dtype", "seed")
        return ExperimentConfig(**{name: getattr(self, name) for name in shared})

    def describe(self) -> str:
        return (
            f"population={self.population:,} participants={self.participants} "
            f"rounds={self.rounds} window={self.round_window} "
            f"model={self.model} shard={self.shard_size} "
            f"availability={self.availability} wire={self.wire_dtype} "
            f"accounting={self.accounting} seed={self.seed}"
        )


def make_population(config: PopulationConfig) -> VirtualPopulation:
    """Build the :class:`VirtualPopulation` a config describes."""
    base = config.base_config()
    train_set, test_set = base.make_data()
    specs = PopulationSpecs.sampled(
        size=config.population,
        num_samples=len(train_set),
        shard_size=min(config.shard_size, len(train_set)),
        power_levels=config.power_levels,
        base_step_time=config.base_step_time,
        availability=make_availability_model(
            config.availability,
            seed=config.seed,
            **config.availability_kwargs,
        ),
        seed=config.seed,
    )
    lr = config.lr
    momentum = config.momentum
    return VirtualPopulation(
        base.make_model_factory(),
        train_set,
        specs,
        batch_size=config.batch_size,
        optimizer_factory=lambda params: SGD(params, lr=lr, momentum=momentum),
        network=base.make_network(),
        seed=config.seed,
        wire=config.wire_dtype,
        test_set=test_set,
    )


def run_population(config: PopulationConfig) -> RunResult:
    """Train a virtual population per ``config``; returns the trajectory."""
    population = make_population(config)
    trainer = PopulationTrainer(population, **config.trainer_options())
    try:
        result = trainer.run(config.rounds, eval_every=config.eval_every)
    finally:
        trainer.close()
    result.config["describe"] = config.describe()
    return result


__all__ = ["PopulationConfig", "make_population", "run_population"]
