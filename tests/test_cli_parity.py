"""Golden CLI configs: every sub-command builds exactly the config it built.

``tests/golden/cli_parity.json`` records, for six argument vectors, the
config dataclass each training sub-command hands its runner (plus the
runner's other arguments: ``run``'s scheme, ``table1``'s repeats).  The
fixture was recorded while ``repro.cli`` still copied every flag into
its config field by field, so a green run proves that deriving the flags
from the config dataclasses changed no spelling, no default and no
destination.  Configs are compared by value, so ``(3, 3, 1, 1)`` equals
``(3.0, 3.0, 1.0, 1.0)``.

Re-record (only when a CLI change is intended) with
``PYTHONPATH=src python tests/test_cli_parity.py``.
"""

import dataclasses
import json
from pathlib import Path

import pytest

from repro import cli

GOLDEN_PATH = Path(__file__).parent / "golden" / "cli_parity.json"

RUN_EVERY_FLAG = [
    "run", "--scheme", "distributed", "--model", "simple_cnn",
    "--ratio", "4,2,2,1", "--epochs", "3.5", "--train", "320",
    "--test", "160", "--image-size", "16", "--batch-size", "8",
    "--np", "3", "--selection", "uniform", "--partition", "dirichlet",
    "--dirichlet-alpha", "0.3", "--seed", "7", "--out", "results",
    "--executor", "fleet", "--workers", "2", "--wire-dtype", "topk0.2",
    "--accounting", "aggregate", "--aggregation", "buffered_async",
    "--async-buffer", "2", "--staleness-exponent", "1.5",
    "--failure-rate", "0.01", "--mean-downtime", "3", "--slowdown-rate",
    "0.02", "--slowdown-factor", "2.5", "--link-drop", "0.1",
    "--link-jitter", "0.2", "--retry-attempts", "3",
    "--sync-failure-policy", "skip_round", "--chaos-seed", "9",
    "--verify-accounting",
]

POPULATION_EVERY_FLAG = [
    "population", "--population", "5000", "--participants", "20",
    "--rounds", "3", "--round-window", "0.5", "--shard-size", "32",
    "--ratio", "2,1", "--availability", "diurnal", "--accounting",
    "exact", "--aggregation", "buffered_async", "--async-buffer", "4",
    "--local-steps", "2", "--staleness-exponent", "0.25", "--model",
    "simple_cnn", "--train", "256", "--test", "128", "--image-size", "16",
    "--batch-size", "8", "--eval-every", "2", "--executor", "fleet",
    "--workers", "2", "--wire-dtype", "int8_sr", "--seed", "5",
    "--out", "results", "--verify-accounting",
]

CASES = {
    "run": ["run"],
    "compare": ["compare"],
    "table1": ["table1"],
    "population": ["population"],
    "run_every_flag": RUN_EVERY_FLAG,
    "population_every_flag": POPULATION_EVERY_FLAG,
}

# The runner each sub-command calls, patched on ``repro.cli``.
RUNNERS = ("run_scheme", "run_all_schemes", "run_table1", "run_population")


class _Captured(Exception):
    pass


def built_config(argv, monkeypatch) -> dict:
    """What the sub-command of ``argv`` hands its runner, as JSON values."""

    def capture(runner):
        def patched(*args, **kwargs):
            config = next(
                a for a in args if dataclasses.is_dataclass(a)
            )
            rest = [a for a in args if a is not config]
            raise _Captured(
                {
                    "runner": runner,
                    "class": type(config).__name__,
                    "config": dataclasses.asdict(config),
                    "args": rest,
                    "kwargs": kwargs,
                }
            )

        return patched

    for runner in RUNNERS:
        monkeypatch.setattr(cli, runner, capture(runner))
    with pytest.raises(_Captured) as captured:
        cli.main(argv)
    return json.loads(json.dumps(captured.value.args[0]))


def record() -> dict:
    with pytest.MonkeyPatch.context() as monkeypatch:
        return {case: built_config(argv, monkeypatch) for case, argv in CASES.items()}


GOLDEN = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else None


def test_fixture_present():
    assert GOLDEN is not None, f"missing {GOLDEN_PATH}"
    assert set(GOLDEN) == set(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_builds_golden_config(case, monkeypatch, capsys):
    assert built_config(CASES[case], monkeypatch) == GOLDEN[case]


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
