"""Unit tests for metrics: records, convergence, reports, plotting."""

import json

import numpy as np
import pytest

from repro.metrics import (
    RoundRecord,
    RunResult,
    ascii_plot,
    comparison_table,
    render_table,
    results_to_csv,
    series_from_results,
    speedup,
    time_to_accuracy,
    time_to_max_accuracy,
)


def _run(accs, times=None, scheme="test"):
    """Build a RunResult with the given accuracy trajectory."""
    result = RunResult(scheme=scheme)
    for index, acc in enumerate(accs):
        result.append(
            RoundRecord(
                round_index=index,
                sim_time=times[index] if times else float(index + 1),
                global_epoch=float(index + 1),
                train_loss=1.0 / (index + 1),
                test_loss=0.5,
                test_accuracy=acc,
                comm_bytes=100,
            )
        )
    return result


class TestRunResult:
    def test_series_extraction(self):
        run = _run([0.1, 0.5, 0.9])
        np.testing.assert_allclose(run.test_accuracies(), [0.1, 0.5, 0.9])
        np.testing.assert_allclose(run.times(), [1.0, 2.0, 3.0])
        np.testing.assert_allclose(run.train_losses(), [1.0, 0.5, 1 / 3])

    def test_unevaluated_rounds_excluded(self):
        run = _run([0.1, 0.5])
        run.append(
            RoundRecord(round_index=2, sim_time=3.0, global_epoch=3.0, train_loss=0.2)
        )
        assert run.test_accuracies().size == 2
        assert run.times(evaluated_only=True).size == 2
        assert run.times().size == 3

    def test_each_series_filters_by_its_own_attribute(self):
        """A round that recorded only a test loss must still appear in
        the loss series, and a round with accuracy but no loss must not
        inject NaN into it (the old filter keyed both on accuracy)."""
        run = RunResult(scheme="mixed")
        run.append(
            RoundRecord(
                round_index=0, sim_time=1.0, global_epoch=1.0, train_loss=1.0,
                test_loss=0.8, test_accuracy=None,  # loss-only round
            )
        )
        run.append(
            RoundRecord(
                round_index=1, sim_time=2.0, global_epoch=2.0, train_loss=0.9,
                test_loss=None, test_accuracy=0.5,  # accuracy-only round
            )
        )
        run.append(
            RoundRecord(
                round_index=2, sim_time=3.0, global_epoch=3.0, train_loss=0.8,
                test_loss=0.6, test_accuracy=0.7,
            )
        )
        np.testing.assert_allclose(run.test_losses(), [0.8, 0.6])
        np.testing.assert_allclose(run.test_accuracies(), [0.5, 0.7])
        assert not np.isnan(run.test_losses()).any()
        # Times align per-metric via filter_attr.
        np.testing.assert_allclose(
            run.times(evaluated_only=True, filter_attr="test_loss"), [1.0, 3.0]
        )
        np.testing.assert_allclose(run.times(evaluated_only=True), [2.0, 3.0])
        np.testing.assert_allclose(
            run.epochs(evaluated_only=True, filter_attr="test_loss"), [1.0, 3.0]
        )

    def test_aggregates(self):
        run = _run([0.1, 0.9, 0.7])
        assert run.best_accuracy() == 0.9
        assert run.final_accuracy() == 0.7
        assert run.total_time == 3.0
        assert run.total_comm_bytes == 300

    def test_empty_run_raises_on_accuracy(self):
        with pytest.raises(ValueError):
            RunResult(scheme="x").best_accuracy()

    def test_summary_mentions_scheme(self):
        assert "test" in _run([0.5]).summary()

    def test_to_dict_json_roundtrip(self):
        run = _run([0.5, 0.6])
        payload = json.loads(json.dumps(run.to_dict()))
        assert payload["scheme"] == "test"
        assert len(payload["rounds"]) == 2

    def test_to_dict_preserves_detail(self):
        """Quantisation-error telemetry must survive serialisation."""
        run = _run([0.5])
        run.rounds[0].detail = {"wire_dtype": "fp32", "wire_cast_error": 3e-8}
        payload = json.loads(json.dumps(run.to_dict()))
        assert payload["rounds"][0]["detail"] == {
            "wire_dtype": "fp32",
            "wire_cast_error": 3e-8,
        }


class TestConvergence:
    def test_time_to_accuracy_first_crossing(self):
        run = _run([0.2, 0.6, 0.9], times=[5.0, 10.0, 15.0])
        assert time_to_accuracy(run, 0.5) == 10.0
        assert time_to_accuracy(run, 0.9) == 15.0

    def test_time_to_accuracy_unreached(self):
        assert time_to_accuracy(_run([0.1, 0.2]), 0.9) is None

    def test_time_to_max_accuracy_first_attainment(self):
        """Table I's metric takes the FIRST time the max was hit."""
        run = _run([0.2, 0.9, 0.8, 0.9], times=[1.0, 2.0, 3.0, 4.0])
        best, t = time_to_max_accuracy(run)
        assert best == 0.9
        assert t == 2.0

    def test_speedup_explicit_target(self):
        fast = _run([0.5, 0.9], times=[1.0, 2.0])
        slow = _run([0.5, 0.9], times=[4.0, 8.0])
        assert speedup(slow, fast, target=0.9) == pytest.approx(4.0)

    def test_speedup_default_target_uses_common_max(self):
        weak = _run([0.5, 0.8], times=[2.0, 4.0])
        strong = _run([0.8, 0.95], times=[1.0, 2.0])
        # Common target = 0.8: weak reaches at 4.0, strong at 1.0.
        assert speedup(weak, strong) == pytest.approx(4.0)

    def test_time_to_accuracy_no_evaluated_rounds(self):
        """A run whose rounds were never evaluated has empty accuracy
        series: the target is simply never reached."""
        run = RunResult(scheme="bare")
        run.append(
            RoundRecord(round_index=0, sim_time=1.0, global_epoch=1.0, train_loss=0.5)
        )
        assert time_to_accuracy(run, 0.1) is None
        assert time_to_accuracy(RunResult(scheme="empty"), 0.1) is None

    def test_speedup_no_evaluated_rounds_raises(self):
        evaluated = _run([0.5, 0.9])
        bare = RunResult(scheme="bare")
        bare.append(
            RoundRecord(round_index=0, sim_time=1.0, global_epoch=1.0, train_loss=0.5)
        )
        # Default target needs both runs' best accuracies.
        with pytest.raises(ValueError):
            speedup(evaluated, bare)
        with pytest.raises(ValueError):
            speedup(bare, evaluated)
        # An explicit target is unreachable for the unevaluated run.
        with pytest.raises(ValueError):
            speedup(evaluated, bare, target=0.5)

    def test_speedup_unreachable_raises(self):
        with pytest.raises(ValueError):
            speedup(_run([0.5]), _run([0.9]), target=0.8)


class TestReport:
    def test_render_table_alignment(self):
        table = render_table(["a", "bb"], [[1, 22], [333, 4]])
        lines = table.splitlines()
        assert len(lines) == 4  # header, rule, 2 rows
        assert "---" in lines[1]

    def test_comparison_table_contents(self):
        table = comparison_table({"hadfl": _run([0.5, 0.9])})
        assert "hadfl" in table
        assert "90.0%" in table

    def test_results_to_csv_rows(self):
        csv_text = results_to_csv(_run([0.5, 0.6]))
        lines = csv_text.strip().splitlines()
        assert len(lines) == 3  # header + 2 rounds
        assert lines[0].startswith("round_index")


class TestPlotting:
    def test_ascii_plot_renders(self):
        plot = ascii_plot(
            {"a": ([0, 1, 2], [0.0, 0.5, 1.0]), "b": ([0, 1, 2], [1.0, 0.5, 0.0])},
            width=40,
            height=10,
            title="demo",
            xlabel="x",
        )
        assert "demo" in plot
        assert "o=a" in plot and "x=b" in plot
        # Canvas rows + frame lines present.
        assert len(plot.splitlines()) >= 12

    def test_ascii_plot_constant_series(self):
        # Zero-span axes must not divide by zero.
        plot = ascii_plot({"flat": ([1, 2, 3], [5.0, 5.0, 5.0])})
        assert "flat" in plot

    def test_ascii_plot_empty_raises(self):
        with pytest.raises(ValueError):
            ascii_plot({})

    def test_series_from_results_axes(self):
        runs = {"r": _run([0.2, 0.4])}
        x, y = series_from_results(runs, x_axis="time", y_axis="accuracy")["r"]
        np.testing.assert_allclose(x, [1.0, 2.0])
        np.testing.assert_allclose(y, [0.2, 0.4])
        x, y = series_from_results(runs, x_axis="epoch", y_axis="train_loss")["r"]
        np.testing.assert_allclose(y, [1.0, 0.5])

    def test_series_unknown_axis_raises(self):
        with pytest.raises(ValueError):
            series_from_results({"r": _run([0.1])}, y_axis="f1_score")
