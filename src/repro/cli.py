"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``info``
    Versions, available models/schemes/selection policies.
``run``
    Train one scheme on a configurable cluster; print the summary and
    optionally save the result JSON.
``compare``
    Run all three schemes on identical clusters; print a Table I-style
    comparison and an accuracy-vs-time plot.
``table1``
    Regenerate the paper's Table I at the chosen scale.
``population``
    Train over a virtual device population (lazy materialisation +
    arena pooling): memory scales with ``--participants``, not
    ``--population``.

Examples::

    python -m repro run --scheme hadfl --model resnet_mini --ratio 4,2,2,1
    python -m repro compare --model mlp --epochs 20 --out /tmp/runs
    python -m repro table1 --epochs 10
    python -m repro population --population 100000 --participants 64
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

from repro import io
from repro.experiments import (
    ExperimentConfig,
    format_table1,
    run_all_schemes,
    run_scheme,
    run_table1,
)
from repro.experiments.population import PopulationConfig, run_population
from repro.experiments.runner import SCHEMES
from repro.comm.wire import available_wire_formats, get_wire_format
from repro.metrics import ascii_plot, comparison_table, series_from_results
from repro.nn.models import available_models
from repro.sim.executor import EXECUTOR_NAMES
from repro.sim.rounds import AGGREGATION_MODES


def _parse_ratio(text: str) -> tuple:
    try:
        ratio = tuple(float(part) for part in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"ratio must be comma-separated numbers, got {text!r}"
        ) from exc
    if not ratio or any(p <= 0 for p in ratio):
        raise argparse.ArgumentTypeError(f"powers must be positive: {text!r}")
    return ratio


def _parse_wire_dtype(text: str) -> str:
    """Validate a wire-format name (registered or a quantiser family)."""
    try:
        get_wire_format(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return text


def _add_config_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--model", default="mlp", help="model zoo name")
    parser.add_argument(
        "--ratio",
        type=_parse_ratio,
        default=(3, 3, 1, 1),
        help="computing-power ratio, e.g. 4,2,2,1",
    )
    parser.add_argument("--epochs", type=float, default=16.0, help="target global epochs")
    parser.add_argument("--train", type=int, default=800, help="training samples")
    parser.add_argument("--test", type=int, default=400, help="test samples")
    parser.add_argument("--image-size", type=int, default=8, help="image side (px)")
    parser.add_argument("--batch-size", type=int, default=16)
    parser.add_argument("--np", dest="num_selected", type=int, default=2,
                        help="devices per partial sync (N_p)")
    parser.add_argument("--selection", default="gaussian_quartile",
                        choices=("gaussian_quartile", "uniform", "latest", "worst"))
    parser.add_argument("--partition", default="iid", choices=("iid", "dirichlet"))
    parser.add_argument("--dirichlet-alpha", type=float, default=0.5)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", default=None, help="directory to save result JSON")
    parser.add_argument(
        "--executor",
        default="serial",
        choices=EXECUTOR_NAMES,
        help="local-training backend (bitwise-identical trajectories; "
        "process uses forked workers + shared memory, fleet batches "
        "replicas through vectorised kernels)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker count for the process executor "
        "(default: one per device, capped at CPU count)",
    )
    parser.add_argument(
        "--wire-dtype",
        default="fp64",
        type=_parse_wire_dtype,
        help="wire format of every simulated transfer: payload cast/"
        "quantisation + byte pricing (fp64 = lossless passthrough at "
        "8 B/scalar).  Registered formats plus the quantiser families: "
        f"{', '.join(available_wire_formats())}, topk<frac> (e.g. "
        "topk0.05), qsgd<bits>",
    )
    parser.add_argument(
        "--accounting",
        default="exact",
        choices=("exact", "aggregate"),
        help="comm accountant mode: exact keeps the per-transfer log, "
        "aggregate keeps only running totals (bounded memory; byte "
        "totals identical)",
    )
    parser.add_argument(
        "--aggregation",
        default="sync",
        choices=AGGREGATION_MODES,
        help="federation mode of the round loop: sync = full-window "
        "barrier (bitwise identical to the pre-event-driven trainer), "
        "buffered_async = fold the first K arrivals with a "
        "(1+staleness)^-a discount",
    )
    parser.add_argument(
        "--async-buffer",
        type=int,
        default=None,
        help="buffer size K of buffered_async (default: N_p)",
    )
    parser.add_argument(
        "--staleness-exponent",
        type=float,
        default=0.5,
        help="exponent a of the (1+staleness)^-a async discount "
        "(0 = uniform mean)",
    )
    chaos = parser.add_argument_group(
        "chaos", "fault injection (all off by default; fixed-seed "
        "deterministic via --chaos-seed)"
    )
    chaos.add_argument(
        "--failure-rate", type=float, default=0.0,
        help="device crashes per virtual second (Poisson)",
    )
    chaos.add_argument(
        "--mean-downtime", type=float, default=5.0,
        help="mean crash duration in virtual seconds (exponential)",
    )
    chaos.add_argument(
        "--slowdown-rate", type=float, default=0.0,
        help="straggler windows per device per virtual second",
    )
    chaos.add_argument(
        "--slowdown-factor", type=float, default=4.0,
        help="compute slowdown inside a straggler window",
    )
    chaos.add_argument(
        "--link-drop", type=float, default=0.0,
        help="per-message drop probability on every link",
    )
    chaos.add_argument(
        "--link-jitter", type=float, default=0.0,
        help="lognormal sigma of per-message latency jitter",
    )
    chaos.add_argument(
        "--retry-attempts", type=int, default=4,
        help="max transmissions per message (1 = no retries)",
    )
    chaos.add_argument(
        "--sync-failure-policy", default="continue",
        choices=("continue", "skip_round", "fallback_dense"),
        help="trainer behaviour when a round's sync has no survivors",
    )
    chaos.add_argument(
        "--chaos-seed", type=int, default=0,
        help="seed of the fault schedule and link RNG streams",
    )
    chaos.add_argument(
        "--verify-accounting", action="store_true",
        help="assert sum(comm_bytes) + initial_dispatch == total bytes "
        "after the run (exits non-zero on violation)",
    )


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    return ExperimentConfig(
        model=args.model,
        power_ratio=args.ratio,
        num_train=args.train,
        num_test=args.test,
        image_size=args.image_size,
        batch_size=args.batch_size,
        num_selected=args.num_selected,
        selection=args.selection,
        partition=args.partition,
        dirichlet_alpha=args.dirichlet_alpha,
        target_epochs=args.epochs,
        seed=args.seed,
        executor=args.executor,
        executor_workers=args.workers,
        wire_dtype=args.wire_dtype,
        accounting=args.accounting,
        aggregation=args.aggregation,
        async_buffer=args.async_buffer,
        staleness_exponent=args.staleness_exponent,
        failure_rate=args.failure_rate,
        mean_downtime=args.mean_downtime,
        slowdown_rate=args.slowdown_rate,
        slowdown_factor=args.slowdown_factor,
        link_drop_prob=args.link_drop,
        link_jitter=args.link_jitter,
        retry_attempts=args.retry_attempts,
        sync_failure_policy=args.sync_failure_policy,
        chaos_seed=args.chaos_seed,
    )


def _check_accounting(result) -> str:
    """Re-derive the conservation invariant from a finished run.

    ``sum(per-round comm_bytes) + initial dispatch == accountant total``
    — every byte the accountant saw is attributed to exactly one round
    (or to the pre-training dispatch), including retries, handshakes,
    re-syncs and fallback dispatches.  Raises ``SystemExit`` on
    violation so CI smoke runs fail loudly.
    """
    accounting = result.config.get("accounting")
    if accounting is None:
        raise SystemExit("no accounting snapshot in result")
    total = accounting["total_bytes"]
    initial = accounting["bytes_by_kind"].get("initial_dispatch", 0)
    per_round = sum(record.comm_bytes for record in result.rounds)
    if per_round + initial != total:
        raise SystemExit(
            f"accounting invariant violated: rounds={per_round:,} + "
            f"initial={initial:,} != total={total:,}"
        )
    return (
        f"accounting ok: {per_round:,} round bytes + {initial:,} dispatch "
        f"== {total:,} total"
    )


def _cmd_info(args: argparse.Namespace) -> int:
    import repro

    print(f"repro {repro.__version__} — HADFL reproduction (DAC 2021)")
    print(f"models    : {', '.join(available_models())}")
    print(f"schemes   : {', '.join(SCHEMES)}")
    print("selection : gaussian_quartile, uniform, latest, worst")
    print(f"executors : {', '.join(EXECUTOR_NAMES)}")
    print(
        f"wire      : {', '.join(available_wire_formats())} "
        "(+ topk<frac> / qsgd<bits> families)"
    )
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    print(f"scheme={args.scheme} | {config.describe()}")
    result = run_scheme(args.scheme, config)
    print(result.summary())
    robustness = result.robustness_summary()
    if any(robustness.values()):
        print(
            "robustness : "
            + ", ".join(f"{key}={value}" for key, value in robustness.items())
        )
    if args.verify_accounting:
        print(_check_accounting(result))
    if args.out:
        path = io.save_result(result, f"{args.out}/{args.scheme}.json")
        print(f"saved: {path}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    print(config.describe())
    results = run_all_schemes(config)
    print()
    print(comparison_table(results))
    print()
    print(
        ascii_plot(
            series_from_results(results, x_axis="time", y_axis="accuracy"),
            title="test accuracy vs virtual time",
            xlabel="virtual seconds",
        )
    )
    if args.out:
        directory = io.save_results(results, args.out)
        print(f"saved: {directory}/")
    return 0


def _cmd_population(args: argparse.Namespace) -> int:
    config = PopulationConfig(
        population=args.population,
        participants=args.participants,
        rounds=args.rounds,
        round_window=args.round_window,
        shard_size=args.shard_size,
        power_levels=args.ratio,
        availability=args.availability,
        model=args.model,
        image_size=args.image_size,
        num_train=args.train,
        num_test=args.test,
        batch_size=args.batch_size,
        wire_dtype=args.wire_dtype,
        accounting=args.accounting,
        aggregation=args.aggregation,
        async_buffer=args.async_buffer,
        local_steps=args.local_steps,
        staleness_exponent=args.staleness_exponent,
        eval_every=args.eval_every,
        executor=args.executor,
        executor_workers=args.workers,
        seed=args.seed,
    )
    print(config.describe())
    result = run_population(config)
    print(result.summary())
    pool = result.config["pool"]
    print(
        f"pool       : created={pool['created']} "
        f"max_resident={pool['max_resident']} recycled={pool['recycled']}"
    )
    if pool["max_resident"] > config.participants:
        raise SystemExit(
            f"bounded-memory invariant violated: {pool['max_resident']} "
            f"resident arenas for {config.participants} participants"
        )
    if args.verify_accounting:
        print(_check_accounting(result))
    if args.out:
        path = io.save_result(result, f"{args.out}/population.json")
        print(f"saved: {path}")
    return 0


def _cmd_table1(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    cells = run_table1(config, repeats=args.repeats)
    print(format_table1(cells))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="HADFL (DAC 2021) reproduction command-line interface",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    info = subparsers.add_parser("info", help="show versions and registries")
    info.set_defaults(handler=_cmd_info)

    run = subparsers.add_parser("run", help="train one scheme")
    run.add_argument("--scheme", default="hadfl", choices=SCHEMES)
    _add_config_arguments(run)
    run.set_defaults(handler=_cmd_run)

    compare = subparsers.add_parser("compare", help="run all three schemes")
    _add_config_arguments(compare)
    compare.set_defaults(handler=_cmd_compare)

    population = subparsers.add_parser(
        "population",
        help="train over a virtual device population "
        "(memory bounded by --participants, not --population)",
    )
    population.add_argument(
        "--population", type=int, default=10_000,
        help="virtual devices in the population",
    )
    population.add_argument(
        "--participants", type=int, default=100,
        help="devices materialised per round (bounds peak arena memory)",
    )
    population.add_argument("--rounds", type=int, default=10)
    population.add_argument(
        "--round-window", type=float, default=1.0,
        help="virtual seconds of local training per round",
    )
    population.add_argument(
        "--shard-size", type=int, default=64,
        help="samples in each device's lazily-sampled shard",
    )
    population.add_argument(
        "--ratio", type=_parse_ratio, default=(3, 3, 1, 1),
        help="power levels dealt round-robin over device ids",
    )
    population.add_argument(
        "--availability", default="always", choices=("always", "diurnal"),
        help="availability model gating per-round eligibility",
    )
    population.add_argument(
        "--accounting", default="aggregate", choices=("aggregate", "exact"),
        help="comm accountant mode (aggregate = bounded memory)",
    )
    population.add_argument(
        "--aggregation", default="sync",
        choices=AGGREGATION_MODES,
        help="federation mode: sync window barrier or buffered_async "
        "first-K arrival folding",
    )
    population.add_argument(
        "--async-buffer", type=int, default=None,
        help="buffer size K of buffered_async (default: participants/2)",
    )
    population.add_argument(
        "--local-steps", type=int, default=None,
        help="per-dispatch step budget of buffered_async "
        "(default: round_window / base_step_time)",
    )
    population.add_argument(
        "--staleness-exponent", type=float, default=0.5,
        help="exponent a of the (1+staleness)^-a async discount",
    )
    population.add_argument("--model", default="mlp", help="model zoo name")
    population.add_argument("--train", type=int, default=800)
    population.add_argument("--test", type=int, default=400)
    population.add_argument("--image-size", type=int, default=8)
    population.add_argument("--batch-size", type=int, default=16)
    population.add_argument(
        "--eval-every", type=int, default=0,
        help="evaluate the global model every N rounds (0: final only)",
    )
    population.add_argument(
        "--executor", default="serial",
        choices=tuple(name for name in EXECUTOR_NAMES if name != "process"),
        help="local-training backend (process needs a full device list "
        "and is not supported for virtual populations)",
    )
    population.add_argument("--workers", type=int, default=None)
    population.add_argument(
        "--wire-dtype", default="fp64", type=_parse_wire_dtype,
        help="wire format of every simulated transfer",
    )
    population.add_argument("--seed", type=int, default=1)
    population.add_argument("--out", default=None)
    population.add_argument(
        "--verify-accounting", action="store_true",
        help="assert sum(comm_bytes) == accountant total after the run",
    )
    population.set_defaults(handler=_cmd_population)

    table1 = subparsers.add_parser("table1", help="regenerate the paper's Table I")
    table1.add_argument("--repeats", type=int, default=1)
    _add_config_arguments(table1)
    table1.set_defaults(handler=_cmd_table1)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
