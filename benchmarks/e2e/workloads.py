"""The five workloads, the pass protocol, the metrics and the checks.

A *pass* is one fresh build (data, cluster or population, trainer —
untimed) followed by the timed ``trainer.run(...)`` of a fixed scenario.
The benchmark drives only public entry points and hands the program
nothing but a generated config.

``--seed S`` fans out into :data:`ENSEMBLE` member seeds.  Timed pass
``p`` runs member ``p % ENSEMBLE``; whenever a member comes round again
(always in the traced mode, which repeats member 0) its trajectory
digest must repeat: a trajectory is a pure function of its config.
Host-time metrics are the median over all timed passes of the pass's
time divided by the host's slowdown around it (:mod:`hostspeed`), with
the quartiles beside it and the raw seconds kept in the result file.
Simulated statistics are taken over the first ``ENSEMBLE`` timed passes
— a single trajectory's time-to-target moves 15-30 % from seed to seed,
the mean curve of ten 4-13 % — and repeat exactly for one commit and
seed.
"""

from __future__ import annotations

import hashlib
import math
import resource
import statistics
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from time import perf_counter
from typing import (
    Any,
    Callable,
    ContextManager,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

import hostspeed
from repro.baselines import DecentralizedFedAvgTrainer, DistributedTrainer
from repro.core import HADFLTrainer
from repro.experiments.configs import ExperimentConfig
from repro.experiments.population import PopulationConfig, make_population
from repro.metrics.convergence import time_to_accuracy
from repro.metrics.records import RunResult
from repro.sim.population import PopulationTrainer

ENSEMBLE = 10
NUM_CLASSES = 10
TABLE1_SCHEMES = ("distributed", "decentralized_fedavg", "hadfl")
TIE = 0.9
"""Smallest speed-up over a baseline that still counts as not losing."""

Config = Any  # ExperimentConfig | PopulationConfig


def member_seed(seed: int, member: int) -> int:
    """The seed of ensemble member ``member`` of benchmark seed ``seed``."""
    return (seed * 1_000_003 + member) % 2**31


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    target: float
    """Pinned test accuracy whose first crossing ``virtual_s_to_target``
    reports."""
    smoke_target: float
    make_config: Callable[[int, bool], Config]
    """``(member seed, smoke) -> config``; ``smoke`` shrinks every size."""
    schemes: Tuple[str, ...] = ("hadfl",)


def _table1(seed: int, smoke: bool) -> ExperimentConfig:
    return ExperimentConfig(
        model="mlp",
        power_ratio=(4, 2, 2, 1),
        num_train=192 if smoke else 1600,
        num_test=96 if smoke else 800,
        target_epochs=6 if smoke else 10,
        eval_every=1,
        seed=seed,
        data_seed=seed,
        chaos_seed=seed,
    )


def _dense_cnn(seed: int, smoke: bool) -> ExperimentConfig:
    return ExperimentConfig(
        model="resnet_mini",
        power_ratio=(3, 3, 1, 1),
        num_train=64 if smoke else 800,
        num_test=32 if smoke else 400,
        momentum=0.9,
        target_epochs=2 if smoke else 4,
        eval_every=1,
        seed=seed,
        data_seed=seed,
        chaos_seed=seed,
    )


def _population_1m(seed: int, smoke: bool) -> PopulationConfig:
    return PopulationConfig(
        population=20_000 if smoke else 1_000_000,
        participants=8 if smoke else 100,
        rounds=2 if smoke else 4,
        aggregation="sync",
        wire_dtype="fp64",
        availability="diurnal",
        executor="fleet",
        eval_every=1,
        num_train=160 if smoke else 800,
        num_test=80 if smoke else 400,
        seed=seed,
    )


def _chaos_topk_ring(seed: int, smoke: bool) -> ExperimentConfig:
    return ExperimentConfig(
        model="mlp",
        power_ratio=(4, 2, 2, 1) * 4,
        image_size=16,
        num_train=128 if smoke else 512,
        num_test=80 if smoke else 400,
        num_selected=8,
        target_epochs=4 if smoke else 34,
        wire_dtype="topk0.2",
        link_drop_prob=0.05,
        link_jitter=0.2,
        failure_rate=0.01,
        mean_downtime=2.0,
        eval_every=2,
        accounting="exact",
        seed=seed,
        data_seed=seed,
        chaos_seed=seed,
    )


def _async_int8_pop(seed: int, smoke: bool) -> PopulationConfig:
    return PopulationConfig(
        population=5_000 if smoke else 100_000,
        participants=8 if smoke else 64,
        rounds=6 if smoke else 40,
        aggregation="buffered_async",
        async_buffer=4 if smoke else 32,
        local_steps=1,
        wire_dtype="int8_sr",
        availability="diurnal",
        executor="serial",
        eval_every=4,
        num_train=160 if smoke else 800,
        num_test=80 if smoke else 400,
        seed=seed,
    )


WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        "table1_mlp",
        "Paper Table I cell: all three schemes on paired seeds; wall is "
        "autograd/nn graph overhead; only user of baselines and per-step allreduce",
        target=0.90,
        smoke_target=0.30,
        make_config=_table1,
        schemes=TABLE1_SCHEMES,
    ),
    Workload(
        "dense_cnn",
        "Same layers, opposite regime: wall is NumPy conv kernels, so graph and "
        "optimizer work must not move it and conv-kernel work shows only here",
        target=0.85,
        smoke_target=0.11,
        make_config=_dense_cnn,
    ),
    Workload(
        "population_1m",
        "Scale headline: 1M virtual devices, fleet executor, 100-node fp64 ring, "
        "million-wide selection; the one where peak RSS is meaningful",
        target=0.85,
        smoke_target=0.11,
        make_config=_population_1m,
    ),
    Workload(
        "chaos_topk_ring",
        "comm the other way round: top-k delta codec, retries, bypasses, revival "
        "re-syncs on a 16-device ring under link and device faults",
        target=0.85,
        smoke_target=0.11,
        make_config=_chaos_topk_ring,
    ),
    Workload(
        "async_int8_pop",
        "Local training is the minority: int8 codec, population materialise/"
        "release churn and event-driven buffered-async arrivals dominate",
        target=0.50,
        smoke_target=0.11,
        make_config=_async_int8_pop,
    ),
)

BY_NAME: Dict[str, Workload] = {w.name: w for w in WORKLOADS}


# ---------------------------------------------------------------------- #
# One pass
# ---------------------------------------------------------------------- #
@dataclass
class Leg:
    """One trainer's build + run inside a pass."""

    scheme: str
    result: RunResult
    build_s: float
    wall_s: float
    steps: int
    events: int
    accounted_bytes: int
    problems: List[str]
    checks: int


@dataclass
class Pass:
    member: int
    legs: List[Leg]
    digest: str
    build_s: float = field(init=False)
    wall_s: float = field(init=False)
    steps: int = field(init=False)

    def __post_init__(self) -> None:
        self.build_s = sum(leg.build_s for leg in self.legs)
        self.wall_s = sum(leg.wall_s for leg in self.legs)
        self.steps = sum(leg.steps for leg in self.legs)

    @property
    def hadfl(self) -> Leg:
        """The leg whose simulated statistics the workload reports."""
        return self.legs[-1]


def trajectory_digest(result: RunResult) -> str:
    """sha256 over what a round did, printed so commits can be compared."""
    digest = hashlib.sha256()
    for r in result.rounds:
        row = (
            r.sim_time,
            r.train_loss,
            r.test_accuracy,
            int(r.comm_bytes),
            [int(d) for d in r.selected],
        )
        digest.update(repr(row).encode())
    return digest.hexdigest()


def _build(config: Config, scheme: str) -> Tuple[Any, Any, Callable[[], RunResult]]:
    """``(substrate, trainer, run)`` for one leg — everything untimed."""
    if isinstance(config, PopulationConfig):
        population = make_population(config)
        trainer = PopulationTrainer(
            population,
            participants=config.participants,
            round_window=config.round_window,
            selection_sigma=config.selection_sigma,
            seed=config.seed,
            executor=config.executor,
            executor_workers=config.executor_workers,
            accounting=config.accounting,
            aggregation=config.aggregation,
            async_buffer=config.async_buffer,
            local_steps=config.local_steps,
            staleness_exponent=config.staleness_exponent,
        )
        return population, trainer, lambda: trainer.run(
            config.rounds, eval_every=config.eval_every
        )
    cluster = config.make_cluster()
    if scheme == "hadfl":
        trainer = HADFLTrainer(
            cluster, params=config.hadfl_params(), seed=config.seed
        )
    elif scheme == "distributed":
        trainer = DistributedTrainer(cluster, seed=config.seed)
    else:
        trainer = DecentralizedFedAvgTrainer(
            cluster, local_steps=config.fedavg_local_steps, seed=config.seed
        )
    return cluster, trainer, lambda: trainer.run(
        target_epochs=config.target_epochs, eval_every=config.eval_every
    )


def _leg_checks(
    config: Config, substrate: Any, trainer: Any, result: RunResult
) -> Tuple[List[str], int, int]:
    """``(problems, checks made, accounted bytes)`` of a finished leg."""
    problems: List[str] = []
    accounting = result.config.get("accounting") or trainer.volume.snapshot()
    total = int(accounting["total_bytes"])
    dispatch = int(accounting["bytes_by_kind"].get("initial_dispatch", 0))
    if result.total_comm_bytes + dispatch != total:
        problems.append(
            f"{result.scheme}: byte conservation broken "
            f"({result.total_comm_bytes} + {dispatch} != {total})"
        )
    if not np.all(np.isfinite(trainer.global_params)):
        problems.append(f"{result.scheme}: non-finite parameters")
    checks = 2
    if isinstance(config, PopulationConfig):
        pool = substrate.pool.stats()
        if pool["in_use"] != 0:
            problems.append(f"pool.in_use == {pool['in_use']} at exit")
        if pool["max_resident"] > config.participants:
            problems.append(
                f"pool.max_resident {pool['max_resident']} > "
                f"participants {config.participants}"
            )
        checks += 2
    return problems, checks, total


def run_pass(
    workload: Workload,
    seed: int,
    member: int,
    smoke: bool = False,
    around_run: Callable[[], ContextManager] = nullcontext,
) -> Pass:
    """Build and run every leg of one pass.  Each ``trainer.run`` executes
    inside ``around_run()`` — the traced mode's hook for wrapping the
    layer boundaries for exactly the timed region."""
    config = workload.make_config(member_seed(seed, member), smoke)
    legs: List[Leg] = []
    for scheme in workload.schemes:
        t_build = perf_counter()
        substrate, trainer, run = _build(config, scheme)
        t_run = perf_counter()
        try:
            with around_run():
                result = run()
            t_end = perf_counter()
            if isinstance(config, PopulationConfig):
                steps = int(substrate.versions.sum())
            else:
                steps = sum(d.version for d in substrate.devices)
            problems, checks, accounted = _leg_checks(
                config, substrate, trainer, result
            )
        finally:
            # Baseline trainers and populations own no executor to close.
            for owner in (trainer, substrate):
                if hasattr(owner, "close"):
                    owner.close()
        legs.append(
            Leg(
                scheme=scheme,
                result=result,
                build_s=t_run - t_build,
                wall_s=t_end - t_run,
                steps=steps,
                events=trainer.sim.processed,
                accounted_bytes=accounted,
                problems=problems,
                checks=checks,
            )
        )
    digest = hashlib.sha256(
        "".join(trajectory_digest(leg.result) for leg in legs).encode()
    ).hexdigest()
    return Pass(member=member, legs=legs, digest=digest)


# ---------------------------------------------------------------------- #
# Operations and simulated statistics
# ---------------------------------------------------------------------- #
def failed_rounds(result: RunResult) -> int:
    """Rounds that did no useful work: skipped, sync failed, or a
    non-finite training loss."""
    return sum(
        1
        for r in result.rounds
        if r.detail.get("skipped")
        or r.detail.get("sync_failed")
        or not math.isfinite(r.train_loss)
    )


def mean_curve(results: Sequence[RunResult]) -> List[Tuple[float, float]]:
    """Mean test accuracy of the members as a function of virtual time.

    Each member's accuracy is piecewise linear through its evaluated
    rounds, starting at ``(0, chance)`` and flat after its last round;
    the mean is evaluated on the union of all evaluation times, where it
    is exact.  Members need not have the same number of rounds.
    """
    curves = [
        (
            np.concatenate(([0.0], r.times(evaluated_only=True))),
            np.concatenate(([1.0 / NUM_CLASSES], r.test_accuracies())),
        )
        for r in results
    ]
    grid = np.unique(np.concatenate([times for times, _ in curves]))
    mean = np.mean([np.interp(grid, *curve) for curve in curves], axis=0)
    return list(zip(grid.tolist(), mean.tolist()))


def interpolated_time_to(
    curve: Sequence[Tuple[float, float]], target: float
) -> Optional[float]:
    """First crossing of ``target`` on a :func:`mean_curve`, linearly
    interpolated between its points.

    The uninterpolated first-hit time jumps a whole round on a one-round
    shift; the interpolated crossing moves continuously with the curve.
    """
    prev_time, prev_acc = curve[0]
    for time, acc in curve[1:]:
        if acc >= target:
            if acc <= prev_acc:
                return time
            return prev_time + (time - prev_time) * (target - prev_acc) / (
                acc - prev_acc
            )
        prev_time, prev_acc = time, acc
    return None


def _quartiles(values: Sequence[float]) -> Tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def _metric(values: Sequence[float], unit: str) -> Dict[str, Any]:
    """A metric as the result file stores it: the median of the samples
    beside their quartiles and count."""
    q1, q3 = _quartiles(values)
    return {
        "value": statistics.median(values),
        "unit": unit,
        "q1": q1,
        "q3": q3,
        "n": len(values),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Ledger:
    """Operations attempted / failed, and why."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def add_pass(self, done: Pass) -> None:
        for leg in done.legs:
            self.attempted += len(leg.result.rounds) + leg.checks
            self.failed += failed_rounds(leg.result) + len(leg.problems)
            self.problems.extend(leg.problems)

    def check(self, ok: bool, problem: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(problem)


def _check_digests(ledger: Ledger, passes: Sequence[Pass]) -> Dict[str, str]:
    """One check per repeated member: same config, same trajectory."""
    digests: Dict[int, str] = {}
    for done in passes:
        if done.member in digests:
            ledger.check(
                digests[done.member] == done.digest,
                f"member {done.member}: trajectory digest differs between passes",
            )
        else:
            digests[done.member] = done.digest
    return {str(member): digest for member, digest in sorted(digests.items())}


# ---------------------------------------------------------------------- #
# The two run modes
# ---------------------------------------------------------------------- #
def measure(
    workload: Workload,
    seed: int,
    seconds: float,
    import_s: float,
    smoke: bool = False,
) -> Dict[str, Any]:
    """Tracing off: the end-to-end metrics of one workload."""
    ensemble = 2 if smoke else ENSEMBLE
    ledger = Ledger()
    timed: List[Pass] = []
    reference = hostspeed.Reference()
    readings = [reference.slowdown()]
    started = perf_counter()
    # No warm-up pass: a cold first pass is one slow sample of ten or
    # more, which the median ignores.
    while len(timed) < ensemble or perf_counter() - started < seconds:
        timed.append(run_pass(workload, seed, len(timed) % ensemble, smoke))
        ledger.add_pass(timed[-1])
        readings.append(reference.slowdown())
    digests = _check_digests(ledger, timed)
    # Host seconds of pass p, over the slowdown read either side of it.
    slowdown = hostspeed.between(readings)
    walls = [p.wall_s / s for p, s in zip(timed, slowdown)]
    setups = [
        import_s / readings[0] + p.build_s / s for p, s in zip(timed, slowdown)
    ]

    members = timed[:ensemble]
    target = workload.smoke_target if smoke else workload.target
    hadfl = [p.hadfl.result for p in members]
    curve = mean_curve(hadfl)
    to_target = interpolated_time_to(curve, target)
    ledger.check(
        to_target is not None,
        f"mean accuracy never reached the target {target} "
        f"(best {max(acc for _, acc in curve):.4f})",
    )
    speedups = {"speedup_vs_dfedavg": 1.0, "speedup_vs_distributed": 1.0}
    if workload.schemes == TABLE1_SCHEMES:
        for name, index in (("distributed", 0), ("dfedavg", 1)):
            base = interpolated_time_to(
                mean_curve([p.legs[index].result for p in members]), target
            )
            ratio = base / to_target if base and to_target else float("nan")
            speedups[f"speedup_vs_{name}"] = ratio
            # HADFL leads decentralized FedAvg by ~1.15x with a seed-to-seed
            # sigma of ~5 %: one ensemble in thirty ties (1.004x).  The
            # check allows a tie; the metric's bound polices the margin.
            ledger.check(
                ratio > TIE,
                f"hadfl loses to {name} on the way to {target}: {ratio:.4f}x",
            )

    rounds = sum(len(r.rounds) for r in hadfl)
    metrics = {
        "pass_wall_s": _metric(walls, "s"),
        "steps_per_s": _metric([p.steps / w for p, w in zip(timed, walls)], "1/s"),
        "peak_rss_mb": _metric([peak_rss_mb()], "MiB"),
        "setup_s": _metric(setups, "s"),
        "virtual_s_to_target": _metric(
            [to_target if to_target is not None else float("nan")], "s"
        ),
        "final_accuracy": _metric(
            [float(np.mean([r.final_accuracy() for r in hadfl]))], "fraction"
        ),
        "comm_mb_per_round": _metric(
            [sum(r.total_comm_bytes for r in hadfl) / rounds / 1e6], "MB"
        ),
        "speedup_vs_dfedavg": _metric([speedups["speedup_vs_dfedavg"]], "ratio"),
        "speedup_vs_distributed": _metric(
            [speedups["speedup_vs_distributed"]], "ratio"
        ),
    }
    return _entry(workload, seed, "timed", len(timed), ledger, digests, metrics) | {
        "target": target,
        "first_hit_s": [time_to_accuracy(r, target) for r in hadfl],
        "raw_pass_walls_s": [p.wall_s for p in timed],
        "raw_setup_s": [import_s + p.build_s for p in timed],
        "host_slowdown": readings,
    }


def trace(
    workload: Workload, seed: int, seconds: float, smoke: bool = False
) -> Tuple[Dict[str, Any], Any]:
    """Tracing on: untraced/traced pass pairs of member 0; returns the
    per-layer entry and the tracer holding every span."""
    import layers
    from tracer import Tracer

    tracer = Tracer()

    @contextmanager
    def tracing() -> Iterator[None]:
        layers.install(tracer)
        try:
            yield
        finally:
            tracer.restore()

    ledger = Ledger()
    warmup = run_pass(workload, seed, 0, smoke)
    ledger.add_pass(warmup)
    plain: List[Pass] = []
    traced: List[Pass] = []
    started = perf_counter()
    while not traced or perf_counter() - started < seconds:
        plain.append(run_pass(workload, seed, 0, smoke))
        tracer.pass_id = len(traced)
        traced.append(run_pass(workload, seed, 0, smoke, around_run=tracing))
        ledger.add_pass(plain[-1])
        ledger.add_pass(traced[-1])
    digests = _check_digests(ledger, [warmup] + plain + traced)

    per_pass = [
        layers.span_metrics(tracer.spans, k) | layers.counter_metrics(p.legs)
        for k, p in enumerate(traced)
    ]
    counts = [
        {k: v for k, v in m.items() if not k.endswith("_s")} for m in per_pass
    ]
    ledger.check(
        all(c == counts[0] for c in counts),
        "count-type layer metrics differ between traced passes",
    )
    # Every span name has its ``*_s`` metric, so their sum is the time
    # the spans account for.
    covered = [
        sum(v for name, v in m.items() if name.endswith("_s")) / p.wall_s
        for m, p in zip(per_pass, traced)
    ]
    ledger.check(
        min(covered) >= 0.90,
        f"spans cover only {min(covered):.3f} of the traced pass wall",
    )
    # Times are medians over the traced passes; counts repeat exactly
    # (checked above), so the first pass's value is the value.
    metrics = {
        name: _metric(
            [m[name] for m in per_pass] if name.endswith("_s") else [value],
            layers.unit_of(name),
        )
        for name, value in per_pass[0].items()
    }
    metrics["experiments.build_s"] = _metric(
        [p.build_s for p in plain + traced], "s"
    )
    metrics["trace.covered_share"] = _metric(covered, "ratio")
    metrics["trace.overhead_share"] = _metric(
        [min(p.wall_s for p in traced) / min(p.wall_s for p in plain) - 1.0],
        "ratio",
    )
    entry = _entry(
        workload, seed, "traced", len(traced), ledger, digests, metrics
    )
    return entry, tracer


def _entry(
    workload: Workload,
    seed: int,
    mode: str,
    passes: int,
    ledger: Ledger,
    digests: Dict[str, str],
    metrics: Dict[str, Dict[str, Any]],
) -> Dict[str, Any]:
    finite = all(math.isfinite(m["value"]) for m in metrics.values())
    return {
        "workload": workload.name,
        "seed": seed,
        "mode": mode,
        "passes": passes,
        "correct": ledger.failed == 0 and finite,
        "ops_attempted": ledger.attempted,
        "ops_failed": ledger.failed,
        "problems": ledger.problems,
        "digests": digests,
        "metrics": metrics,
    }
