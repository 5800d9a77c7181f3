"""Self-tests of the end-to-end benchmark harness (tier-1, a few seconds).

The benchmark judges every later performance PR, so its own arithmetic
is pinned here: self-time attribution, re-entrancy, patch restoration,
tracing that cannot change a trajectory, the manifest's shape, and a
smoke run of the whole command.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import hostspeed
import layers
import workloads
from tracer import END, NAME, PARENT, START, Tracer, self_times_ns, summarise

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _span(name, start, end, parent, pass_id=0):
    return (name, start, end, parent, pass_id)


class TestSelfTime:
    def test_nested_tree_arithmetic(self):
        # root [0,100] > a [10,40] > b [20,30]; root > a [50,90]
        spans = [
            _span("root", 0, 100, -1),
            _span("a", 10, 40, 0),
            _span("b", 20, 30, 1),
            _span("a", 50, 90, 0),
        ]
        assert self_times_ns(spans) == [30, 20, 10, 40]
        totals = summarise(spans)
        assert totals["a"][1] == 2 and totals["b"][1] == 1
        assert abs(totals["a"][0] - 60e-9) < 1e-15
        # Self times partition the root interval exactly.
        assert sum(self_times_ns(spans)) == 100

    def test_summarise_filters_by_pass(self):
        spans = [_span("x", 0, 10, -1, 0), _span("x", 0, 30, -1, 1)]
        seconds, count = summarise(spans, pass_id=1)["x"]
        assert count == 1 and abs(seconds - 30e-9) < 1e-15

    def test_wrap_records_parents(self):
        tracer = Tracer()
        inner = tracer.wrap("inner", lambda: 1)
        outer = tracer.wrap("outer", lambda: inner() + inner())
        assert outer() == 2
        assert [s[NAME] for s in tracer.spans] == ["outer", "inner", "inner"]
        assert [s[PARENT] for s in tracer.spans] == [-1, 0, 0]
        assert all(s[END] >= s[START] for s in tracer.spans)

    def test_span_closed_when_call_raises(self):
        tracer = Tracer()

        def boom():
            raise ValueError("x")

        wrapped = tracer.wrap("boom", boom)
        try:
            wrapped()
        except ValueError:
            pass
        after = tracer.wrap("after", lambda: None)
        after()
        assert tracer.spans[0][END] > 0
        assert tracer.spans[1][PARENT] == -1


class TestReentrancy:
    def test_exclusive_counts_outermost_only(self):
        tracer = Tracer()

        def descend(n):
            return 0 if n == 0 else 1 + wrapped(n - 1)

        wrapped = tracer.wrap("call", descend, exclusive=True)
        assert wrapped(5) == 5
        assert wrapped(2) == 2
        assert [s[NAME] for s in tracer.spans] == ["call", "call"]

    def test_exclusive_is_shared_by_name(self):
        tracer = Tracer()
        inner = tracer.wrap("step", lambda: 1, exclusive=True)
        outer = tracer.wrap("step", lambda: inner(), exclusive=True)
        outer()
        assert len(tracer.spans) == 1

    def test_leaf_mutes_everything_beneath(self):
        tracer = Tracer()
        forward = tracer.wrap("nn.forward", lambda: 1)
        evaluate = tracer.wrap("sim.eval", lambda: forward(), leaf=True)
        evaluate()
        forward()
        assert [s[NAME] for s in tracer.spans] == ["sim.eval", "nn.forward"]


def _boundary_attributes():
    """Every (owner, attr) ``layers.install`` replaces, subclasses included."""
    found = []

    def walk(owner, attr):
        if attr in vars(owner):
            found.append((owner, attr))
        for sub in owner.__subclasses__():
            walk(sub, attr)

    for owner, attr, _, _ in layers.BOUNDARIES:
        if isinstance(owner, type):
            walk(owner, attr)
        else:
            found.append((owner, attr))
    return found


class TestTracedPass:
    def test_patches_restored_and_digest_unchanged(self):
        workload = workloads.BY_NAME["chaos_topk_ring"]
        before = [(o, a, vars(o)[a]) for o, a in _boundary_attributes()]
        plain = workloads.run_pass(workload, seed=1, member=0, smoke=True)

        tracer = Tracer()
        installed = []

        class tracing:
            def __enter__(self):
                layers.install(tracer)
                installed.append(
                    all(vars(o)[a] is not orig for o, a, orig in before)
                )

            def __exit__(self, *exc):
                tracer.restore()

        traced = workloads.run_pass(
            workload, seed=1, member=0, smoke=True, around_run=tracing
        )
        assert installed == [True]
        assert all(vars(o)[a] is orig for o, a, orig in before)
        assert traced.digest == plain.digest
        names = {s[NAME] for s in tracer.spans}
        assert {"core.trainer_self", "comm.wire_transmit", "nn.forward"} <= names
        # Nothing is recorded once the patches are gone.
        count = len(tracer.spans)
        workloads.run_pass(workload, seed=1, member=0, smoke=True)
        assert len(tracer.spans) == count

    def test_every_span_name_yields_a_time_metric(self):
        metrics = layers.span_metrics([], 0)
        assert {f"{n}_s" for n in layers.SPAN_NAMES} <= set(metrics)
        assert set(layers.COUNT_METRICS) <= set(metrics)
        assert all(v == 0 for v in metrics.values())


class TestCurves:
    def test_interpolated_crossing(self):
        curve = [(0.0, 0.0), (10.0, 0.5), (20.0, 1.0)]
        assert workloads.interpolated_time_to(curve, 0.75) == 15.0
        assert workloads.interpolated_time_to(curve, 0.25) == 5.0
        assert workloads.interpolated_time_to(curve[:2], 0.75) is None


class TestHostSpeed:
    def test_a_pass_takes_the_readings_either_side_of_it(self):
        assert hostspeed.between([1.0, 2.0, 4.0]) == [1.5, 3.0]

    def test_reading_is_a_ratio_to_nominal(self):
        reading = hostspeed.Reference().slowdown()
        assert 0.1 < reading < 50.0


class TestManifest:
    manifest = json.loads((REPO / "BENCHMARK.json").read_text())

    def test_shape(self):
        m = self.manifest
        assert set(m) == {
            "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
        }
        assert m["paths"] == ["benchmarks/e2e"]
        assert m["command"] == ["python3", "benchmarks/e2e/run.py"]
        assert isinstance(m["run_seconds"], int) and 1 <= m["run_seconds"] <= 60
        assert 2 <= len(m["workloads"]) <= 8
        assert 1 <= len(m["end_to_end"]) <= 16
        assert 1 <= len(m["per_layer"]) <= 128

    def test_names_units_bounds(self):
        m = self.manifest
        names = [x["name"] for k in ("workloads", "end_to_end", "per_layer") for x in m[k]]
        assert len(names) == len(set(names))
        assert all(NAME_RE.fullmatch(n) for n in names)
        for w in m["workloads"]:
            assert set(w) == {"name", "why"} and len(w["why"]) <= 200
            assert "\n" not in w["why"]
        for e in m["end_to_end"]:
            assert set(e) == {"name", "unit", "better", "bound"}
            assert 0 < e["bound"] <= 0.25
        for e in m["per_layer"]:
            assert set(e) == {"name", "unit", "better"}
        for e in m["end_to_end"] + m["per_layer"]:
            assert UNIT_RE.fullmatch(e["unit"]) and e["better"] in ("lower", "higher")
        setup = next(e for e in m["end_to_end"] if e["name"] == "setup_s")
        assert setup["unit"] == "s" and setup["better"] == "lower"
        assert setup["bound"] == max(e["bound"] for e in m["end_to_end"])

    def test_manifest_matches_harness(self):
        m = self.manifest
        assert [w["name"] for w in m["workloads"]] == [w.name for w in workloads.WORKLOADS]
        assert [w["why"] for w in m["workloads"]] == [w.why for w in workloads.WORKLOADS]
        produced = (
            {f"{n}_s" for n in layers.SPAN_NAMES}
            | set(layers.COUNT_METRICS)
            | set(layers.counter_metrics([]))
            | {"experiments.build_s", "trace.covered_share", "trace.overhead_share"}
        )
        assert {e["name"] for e in m["per_layer"]} == produced
        units = {e["name"]: e["unit"] for e in m["per_layer"]}
        assert all(
            units[n] == layers.unit_of(n)
            for n in produced
            if not n.startswith(("trace.", "experiments."))
        )


    def test_readme_defines_every_name(self):
        readme = (HERE / "README.md").read_text()
        m = self.manifest
        for key in ("workloads", "end_to_end", "per_layer"):
            missing = [x["name"] for x in m[key] if f"`{x['name']}`" not in readme]
            assert not missing, f"README.md does not define {key}: {missing}"


def test_smoke_run_of_the_whole_command(tmp_path):
    out = tmp_path / "smoke.json"
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--out", str(out)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    document = json.loads(out.read_text())
    manifest = TestManifest.manifest
    for w in manifest["workloads"]:
        entry = document["workloads"][w["name"]]["timed"]
        assert entry["correct"], entry["problems"]
        assert set(entry["metrics"]) == {e["name"] for e in manifest["end_to_end"]}
        assert all(m["value"] != 0 for m in entry["metrics"].values())
