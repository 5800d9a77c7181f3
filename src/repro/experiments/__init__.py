"""Experiment harness: canonical configs and runners for every table/figure.

Each benchmark file in ``benchmarks/`` (indexed in the README's
"Benchmarks" section) drives one experiment through :func:`run_scheme` /
:func:`run_all_schemes` with a :class:`ExperimentConfig`.
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
from repro.experiments.worstcase import WorstCaseReport, run_worstcase
from repro.experiments.ablations import (
    ablate_mix_weight,
    ablate_num_selected,
    ablate_predictor_alpha,
    ablate_selection_policy,
    ablate_tsync,
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
    "run_worstcase",
    "WorstCaseReport",
    "ablate_selection_policy",
    "ablate_num_selected",
    "ablate_predictor_alpha",
    "ablate_tsync",
    "ablate_mix_weight",
]
