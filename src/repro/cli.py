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

Each training flag stores into the field of the sub-command's config
dataclass named by its ``dest`` and defaults to that field's default,
so this module holds only flag spellings and help text.

Examples::

    python -m repro run --scheme hadfl --model resnet_mini --ratio 4,2,2,1
    python -m repro compare --model mlp --epochs 20 --out /tmp/runs
    python -m repro table1 --epochs 10
    python -m repro population --population 100000 --participants 64
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import MISSING, fields
from typing import Optional, Sequence

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
from repro.comm.volume import ACCOUNTING_MODES
from repro.comm.wire import available_wire_formats, get_wire_format
from repro.core.config import SYNC_FAILURE_POLICIES
from repro.core.selection import SELECTION_POLICIES
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
    if not ratio or not all(p > 0 for p in ratio):
        raise argparse.ArgumentTypeError(f"powers must be positive: {text!r}")
    return ratio


def _parse_wire_dtype(text: str) -> str:
    """Validate a wire-format name (registered or a quantiser family)."""
    try:
        get_wire_format(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return text


def _config(config_cls, args: argparse.Namespace):
    """The config the parsed flags describe: each flag stores into the
    field named by its ``dest``; unset fields keep their defaults."""
    given = vars(args)
    return config_cls(
        **{f.name: given[f.name] for f in fields(config_cls) if f.name in given}
    )


def _add_training_arguments(parser: argparse.ArgumentParser, config_cls) -> None:
    """Flags every training sub-command takes.

    Each flag's ``dest`` is a field of ``config_cls`` and, unless given
    here, its default is that field's dataclass default: argparse reads
    the defaults registered on the parser before an argument is added.
    """
    population = config_cls is PopulationConfig
    parser.set_defaults(
        **{f.name: f.default for f in fields(config_cls) if f.default is not MISSING}
    )
    add = parser.add_argument
    add("--model", help="model zoo name")
    add("--ratio", dest="power_levels" if population else "power_ratio",
        type=_parse_ratio, help="computing-power ratio, e.g. 4,2,2,1"
        + (", dealt round-robin over device ids" if population else ""))
    add("--train", dest="num_train", type=int, help="training samples")
    add("--test", dest="num_test", type=int, help="test samples")
    add("--image-size", type=int, help="image side (px)")
    add("--batch-size", type=int, help="per-device batch size")
    add("--seed", type=int, default=1, help="run seed")
    add("--out", help="directory to save result JSON")
    add("--executor",
        choices=[n for n in EXECUTOR_NAMES if not (population and n == "process")],
        help="local-training backend (bitwise-identical trajectories; process "
        "uses forked workers + shared memory"
        + (" and is not supported for virtual populations" if population else "")
        + ", fleet batches replicas through vectorised kernels)")
    add("--workers", dest="executor_workers", type=int,
        help="process-executor workers (None: one per device, capped at CPU count)")
    add("--wire-dtype", type=_parse_wire_dtype,
        help="wire format of every simulated transfer: payload cast/quantisation "
        "+ byte pricing (fp64 = lossless passthrough at 8 B/scalar); one of "
        f"{', '.join(available_wire_formats())}, topk<frac> (e.g. topk0.05), "
        "qsgd<bits>")
    add("--accounting", choices=ACCOUNTING_MODES,
        help="comm accountant mode: exact keeps the per-transfer log, aggregate "
        "only running totals (bounded memory; byte totals identical)")
    add("--aggregation", choices=AGGREGATION_MODES,
        help="federation mode: sync = full-window barrier, buffered_async = fold "
        "the first K arrivals with a (1+staleness)^-a discount")
    add("--async-buffer", type=int, help="buffer size K of buffered_async (None: "
        + ("participants/2)" if population else "N_p)"))
    add("--staleness-exponent", type=float,
        help="exponent a of the (1+staleness)^-a async discount (0 = uniform mean)")
    add("--verify-accounting", action="store_true",
        help="assert round bytes + initial dispatch == accountant total after "
        "the run (exits non-zero on violation)")


def _add_config_arguments(parser: argparse.ArgumentParser) -> None:
    """The ``run`` / ``compare`` / ``table1`` flags (an ExperimentConfig)."""
    _add_training_arguments(parser, ExperimentConfig)
    add = parser.add_argument
    add("--epochs", dest="target_epochs", type=float, default=16.0,
        help="target global epochs")
    add("--np", dest="num_selected", type=int, help="devices per partial sync (N_p)")
    add("--selection", choices=SELECTION_POLICIES, help="selection policy")
    add("--partition", choices=("iid", "dirichlet"), help="data split")
    add("--dirichlet-alpha", type=float, help="concentration of the dirichlet split")
    add = parser.add_argument_group(
        "chaos", "fault injection (all off by default; fixed-seed "
        "deterministic via --chaos-seed)"
    ).add_argument
    add("--failure-rate", type=float,
        help="device crashes per virtual second (Poisson)")
    add("--mean-downtime", type=float,
        help="mean crash duration in virtual seconds (exponential)")
    add("--slowdown-rate", type=float,
        help="straggler windows per device per virtual second")
    add("--slowdown-factor", type=float,
        help="compute slowdown inside a straggler window")
    add("--link-drop", dest="link_drop_prob", type=float,
        help="per-message drop probability on every link")
    add("--link-jitter", type=float,
        help="lognormal sigma of per-message latency jitter")
    add("--retry-attempts", type=int,
        help="max transmissions per message (1 = no retries)")
    add("--sync-failure-policy", choices=SYNC_FAILURE_POLICIES,
        help="trainer behaviour when a round's sync has no survivors")
    add("--chaos-seed", type=int,
        help="seed of the fault schedule and link RNG streams")


def _add_population_arguments(parser: argparse.ArgumentParser) -> None:
    """The ``population`` flags (a PopulationConfig)."""
    _add_training_arguments(parser, PopulationConfig)
    add = parser.add_argument
    add("--population", type=int, help="virtual devices in the population")
    add("--participants", type=int,
        help="devices materialised per round (bounds peak arena memory)")
    add("--rounds", type=int, help="rounds to train")
    add("--round-window", type=float,
        help="virtual seconds of local training per round")
    add("--shard-size", type=int, help="samples in each device's lazily-sampled shard")
    add("--availability", choices=("always", "diurnal"),
        help="availability model gating per-round eligibility")
    add("--local-steps", type=int, help="per-dispatch step budget of buffered_async "
        "(None: round_window / base_step_time)")
    add("--eval-every", type=int,
        help="evaluate the global model every N rounds (0: final only)")


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
    print(f"selection : {', '.join(SELECTION_POLICIES)}")
    print(f"executors : {', '.join(EXECUTOR_NAMES)}")
    print(
        f"wire      : {', '.join(available_wire_formats())} "
        "(+ topk<frac> / qsgd<bits> families)"
    )
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    config = _config(ExperimentConfig, args)
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
    config = _config(ExperimentConfig, args)
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
    config = _config(PopulationConfig, args)
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
    config = _config(ExperimentConfig, args)
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
    for name, handler, add_arguments, summary in (
        ("run", _cmd_run, _add_config_arguments, "train one scheme"),
        ("compare", _cmd_compare, _add_config_arguments, "run all three schemes"),
        ("population", _cmd_population, _add_population_arguments,
         "train over a virtual device population "
         "(memory bounded by --participants, not --population)"),
        ("table1", _cmd_table1, _add_config_arguments,
         "regenerate the paper's Table I"),
    ):
        sub = subparsers.add_parser(
            name, help=summary,
            formatter_class=argparse.ArgumentDefaultsHelpFormatter,
        )
        add_arguments(sub)
        sub.set_defaults(handler=handler)
    subparsers.choices["run"].add_argument(
        "--scheme", default="hadfl", choices=SCHEMES, help="scheme to train"
    )
    subparsers.choices["table1"].add_argument(
        "--repeats", type=int, default=1, help="seeds averaged per cell"
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
