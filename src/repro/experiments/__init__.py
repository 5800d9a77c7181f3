"""Experiment harness: canonical configs and runners for every table/figure.

The CLI (``python -m repro table1`` / ``compare``), the examples and the
paper-claims tests (``tests/integration/test_paper_claims.py``, indexed
in the README's "Tests" section) drive each experiment through
:func:`run_scheme` / :func:`run_all_schemes` with an
:class:`ExperimentConfig`.
"""

from repro.experiments.configs import (
    ExperimentConfig,
    HETEROGENEITY_3311,
    HETEROGENEITY_4221,
    specs_from_power_ratio,
)
from repro.experiments.runner import (
    SCHEMES,
    average_results,
    run_all_schemes,
    run_scheme,
)
from repro.experiments.table1 import Table1Cell, format_table1, run_table1
from repro.experiments.wire_sweep import (
    WireSweepCell,
    format_wire_sweep,
    run_wire_sweep,
)
from repro.experiments.fig3 import format_fig3, run_fig3
from repro.experiments.population import (
    PopulationConfig,
    make_population,
    run_population,
)

__all__ = [
    "ExperimentConfig",
    "HETEROGENEITY_3311",
    "HETEROGENEITY_4221",
    "specs_from_power_ratio",
    "SCHEMES",
    "run_scheme",
    "run_all_schemes",
    "average_results",
    "Table1Cell",
    "run_table1",
    "format_table1",
    "WireSweepCell",
    "run_wire_sweep",
    "format_wire_sweep",
    "run_fig3",
    "format_fig3",
    "PopulationConfig",
    "make_population",
    "run_population",
]
