"""Contract-linter tests: the zero-violation gate plus per-rule fixtures.

The gate test is the PR's acceptance criterion made permanent: running
``repro.analysis`` over the live tree must report zero unsuppressed
violations — every intentional exception is either allowlisted
(wire_allowlist.txt) or carries an inline ``# repro: allow[...]`` pragma
with a reason.  The fixture tests exercise each rule class on minimal
positive/negative snippets through :func:`repro.analysis.check_source`;
each class filters to the rule ids under test so fixtures stay minimal
(an unannotated one-liner should not have to satisfy the hygiene rule to
test the determinism rule).
"""

import json
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from repro.analysis import check_source, main, run_analysis
from repro.analysis.typecheck import MYPY_SUBSET, mypy_available, run_mypy

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC_REPRO = os.path.join(REPO_ROOT, "src", "repro")

DET_IDS = ["det-global-rng", "det-wallclock", "det-unseeded-rng", "det-set-order"]
ARENA_IDS = ["arena-rebind", "arena-dtype"]
FORK_IDS = ["fork-module-state", "fork-lambda", "fork-nested-def",
            "fork-open-handle"]


def _violations(source, rel="repro/sim/fixture.py", rules=None):
    kept, suppressed = check_source(
        textwrap.dedent(source), rel=rel, rule_filter=rules
    )
    return kept, suppressed


def _ids(violations):
    return [v.rule for v in violations]


# ---------------------------------------------------------------------- #
# The gate: the live tree is clean.
# ---------------------------------------------------------------------- #
class TestTreeIsClean:
    def test_zero_unsuppressed_violations(self):
        report = run_analysis([SRC_REPRO])
        rendered = "\n".join(v.render() for v in report.violations)
        assert report.ok, f"contract violations in src/repro:\n{rendered}"

    def test_every_suppression_carries_a_reason(self):
        report = run_analysis([SRC_REPRO])
        assert report.suppressed, "expected the known pragma inventory"
        for violation in report.suppressed:
            assert violation.suppressed and violation.reason

    @pytest.mark.skipif(not mypy_available(), reason="mypy not installed")
    def test_mypy_subset_fully_annotated(self):
        status, violations = run_mypy(os.path.join(REPO_ROOT, "src"))
        assert status == "ok", status
        rendered = "\n".join(v.render() for v in violations)
        assert not violations, f"untyped defs in {MYPY_SUBSET}:\n{rendered}"


# ---------------------------------------------------------------------- #
# Rule 1 — determinism
# ---------------------------------------------------------------------- #
class TestDeterminismRule:
    def check(self, source, rel="repro/sim/fixture.py"):
        return _violations(source, rel=rel, rules=DET_IDS)

    def test_global_numpy_rng_flagged(self):
        kept, _ = self.check(
            """
            import numpy as np
            def f():
                return np.random.rand(3)
            """
        )
        assert _ids(kept) == ["det-global-rng"]

    def test_stdlib_random_flagged(self):
        kept, _ = self.check(
            """
            import random
            def f():
                return random.random()
            """
        )
        assert _ids(kept) == ["det-global-rng"]

    def test_from_import_of_stdlib_random_flagged(self):
        kept, _ = self.check(
            """
            from random import shuffle
            def f(xs):
                shuffle(xs)
            """
        )
        assert _ids(kept) == ["det-global-rng"]

    def test_seeded_generator_clean(self):
        kept, _ = self.check(
            """
            import numpy as np
            def f(seed):
                rng = np.random.default_rng(seed)
                return rng.normal(size=3)
            """
        )
        assert kept == []

    def test_unseeded_default_rng_flagged(self):
        kept, _ = self.check(
            """
            import numpy as np
            def f():
                return np.random.default_rng()
            """
        )
        assert _ids(kept) == ["det-unseeded-rng"]

    def test_seed_sequence_with_entropy_clean(self):
        kept, _ = self.check(
            """
            import numpy as np
            def f(seed):
                return np.random.default_rng(np.random.SeedSequence([seed, 7]))
            """
        )
        assert kept == []

    def test_wallclock_read_flagged(self):
        kept, _ = self.check(
            """
            import time
            def f():
                return time.perf_counter()
            """
        )
        assert _ids(kept) == ["det-wallclock"]

    def test_datetime_now_flagged(self):
        kept, _ = self.check(
            """
            from datetime import datetime
            def f():
                return datetime.now()
            """
        )
        assert _ids(kept) == ["det-wallclock"]

    def test_simulated_time_parameter_clean(self):
        kept, _ = self.check(
            """
            def f(time):
                return time + 1.0
            """
        )
        assert kept == []

    def test_sum_over_set_flagged(self):
        kept, _ = self.check(
            """
            def f(xs):
                return sum(set(xs))
            """
        )
        assert _ids(kept) == ["det-set-order"]

    def test_iteration_over_set_display_flagged(self):
        kept, _ = self.check(
            """
            def f(a, b):
                for x in {a, b}:
                    print(x)
            """
        )
        assert _ids(kept) == ["det-set-order"]

    def test_sum_over_sorted_set_clean(self):
        kept, _ = self.check(
            """
            def f(xs):
                return sum(sorted(set(xs)))
            """
        )
        assert kept == []

    def test_rule_skips_non_runtime_subpackages(self):
        kept, _ = self.check(
            """
            import time
            def f():
                return time.time()
            """,
            rel="repro/experiments/fixture.py",
        )
        assert kept == []


# ---------------------------------------------------------------------- #
# Rule 2 — arena aliasing
# ---------------------------------------------------------------------- #
class TestArenaAliasingRule:
    def check(self, source, rel="repro/sim/fixture.py"):
        return _violations(source, rel=rel, rules=ARENA_IDS)

    def test_data_rebind_flagged(self):
        kept, _ = self.check(
            """
            import numpy as np
            def f(param):
                param.data = np.zeros(3)
            """
        )
        assert _ids(kept) == ["arena-rebind"]

    def test_grad_rebind_flagged(self):
        kept, _ = self.check(
            """
            def f(param, g):
                param.grad = g
            """
        )
        assert _ids(kept) == ["arena-rebind"]

    def test_grad_drop_to_none_clean(self):
        kept, _ = self.check(
            """
            def f(param):
                param.grad = None
            """
        )
        assert kept == []

    def test_in_place_write_clean(self):
        kept, _ = self.check(
            """
            def f(param, incoming):
                param.data[...] = incoming
                param.data += 1.0
            """
        )
        assert kept == []

    def test_constructor_initial_binding_clean(self):
        kept, _ = self.check(
            """
            class Tensor:
                def __init__(self, data):
                    self.data = data
                    self.grad = None
            """
        )
        assert kept == []

    def test_rebind_outside_constructor_flagged_even_on_self(self):
        kept, _ = self.check(
            """
            class Tensor:
                def reset(self, data):
                    self.data = data
            """
        )
        assert _ids(kept) == ["arena-rebind"]

    def test_narrowed_store_flagged(self):
        kept, _ = self.check(
            """
            import numpy as np
            def f(param, x):
                param.data[...] = x.astype(np.float32)
            """
        )
        assert _ids(kept) == ["arena-dtype"]

    def test_fp64_store_clean(self):
        kept, _ = self.check(
            """
            import numpy as np
            def f(param, x):
                param.data[...] = x.astype(np.float64)
            """
        )
        assert kept == []

    def test_applies_outside_runtime_subpackages_too(self):
        kept, _ = self.check(
            """
            def f(param, g):
                param.grad = g
            """,
            rel="repro/experiments/fixture.py",
        )
        assert _ids(kept) == ["arena-rebind"]


# ---------------------------------------------------------------------- #
# Rule 3 — wire boundary
# ---------------------------------------------------------------------- #
class TestWireBoundaryRule:
    def check(self, source, rel="repro/sim/fixture.py"):
        return _violations(source, rel=rel, rules=["wire-boundary"])

    def test_direct_pricing_call_flagged(self):
        kept, _ = self.check(
            """
            class Trainer:
                def round_time(self, network, nbytes):
                    return network.p2p_time_between(0, 1, nbytes)
            """
        )
        assert _ids(kept) == ["wire-boundary"]
        assert "Trainer.round_time" in kept[0].message

    def test_allowlisted_module_clean(self):
        kept, _ = self.check(
            """
            class NetworkModel:
                def broadcast_time(self, n, nbytes):
                    return sum(self.p2p_time(nbytes) for _ in range(n))
            """,
            rel="repro/sim/network.py",
        )
        assert kept == []

    def test_allowlisted_class_prefix_scopes_to_that_class(self):
        source = """
        class ReliableDelivery:
            def attempt(self, network, nbytes):
                return network.degraded_p2p_time(0, 1, nbytes, 1.0)

        class Rogue:
            def price(self, network, nbytes):
                return network.degraded_p2p_time(0, 1, nbytes, 1.0)
        """
        kept, _ = self.check(source, rel="repro/sim/linkfaults.py")
        assert _ids(kept) == ["wire-boundary"]
        assert "Rogue.price" in kept[0].message

    def test_bare_name_of_same_spelling_clean(self):
        kept, _ = self.check(
            """
            def p2p_time(nbytes):
                return nbytes / 8e9
            def f(nbytes):
                return p2p_time(nbytes)
            """
        )
        assert kept == []


# ---------------------------------------------------------------------- #
# Rule 4 — fork safety
# ---------------------------------------------------------------------- #
class TestForkSafetyRule:
    def check(self, source, rel="repro/parallel/fixture.py"):
        return _violations(source, rel=rel, rules=FORK_IDS)

    def test_module_level_mutable_state_flagged(self):
        kept, _ = self.check(
            """
            CACHE = {}
            """
        )
        assert _ids(kept) == ["fork-module-state"]

    def test_immutable_module_state_clean(self):
        kept, _ = self.check(
            """
            NAMES = ("serial", "thread", "process")
            LIMIT = 16
            """
        )
        assert kept == []

    def test_dunder_all_clean(self):
        kept, _ = self.check(
            """
            __all__ = ["f"]
            def f():
                pass
            """
        )
        assert kept == []

    def test_rule_scoped_to_fork_shipped_modules(self):
        kept, _ = self.check(
            """
            CACHE = {}
            """,
            rel="repro/comm/fixture.py",
        )
        assert kept == []

    def test_lambda_on_shipped_object_flagged(self):
        kept, _ = self.check(
            """
            class Task:
                def __init__(self):
                    self.fn = lambda x: x
            """
        )
        assert _ids(kept) == ["fork-lambda"]

    def test_nested_def_on_shipped_object_flagged(self):
        kept, _ = self.check(
            """
            class Task:
                def __init__(self):
                    def helper(x):
                        return x
                    self.fn = helper
            """
        )
        assert _ids(kept) == ["fork-nested-def"]

    def test_module_level_function_reference_clean(self):
        kept, _ = self.check(
            """
            def helper(x):
                return x

            class Task:
                def __init__(self):
                    self.fn = helper
            """
        )
        assert kept == []

    def test_open_handle_on_shipped_object_flagged(self):
        kept, _ = self.check(
            """
            class Loader:
                def __init__(self, path):
                    self.fh = open(path, "rb")
            """
        )
        assert _ids(kept) == ["fork-open-handle"]


# ---------------------------------------------------------------------- #
# Rule 5 — accounting kinds
# ---------------------------------------------------------------------- #
class TestAccountingRule:
    def check(self, source, rel="repro/core/fixture.py"):
        return _violations(source, rel=rel, rules=["acct-kind"])

    def test_known_kind_clean(self):
        kept, _ = self.check(
            """
            class T:
                def sync(self, t, n):
                    self.volume.record(t, n, "partial_sync", src=0, dst=1)
            """
        )
        assert kept == []

    def test_missing_kind_flagged(self):
        kept, _ = self.check(
            """
            class T:
                def sync(self, t, n):
                    self.volume.record(t, n)
            """
        )
        assert _ids(kept) == ["acct-kind"]

    def test_unknown_kind_flagged(self):
        kept, _ = self.check(
            """
            class T:
                def sync(self, t, n):
                    self.volume.record(t, n, kind="bcast")
            """
        )
        assert _ids(kept) == ["acct-kind"]
        assert "bcast" in kept[0].message

    def test_dynamic_kind_flagged(self):
        kept, _ = self.check(
            """
            class T:
                def sync(self, t, n, kind):
                    self.accountant.record(t, n, kind)
            """
        )
        assert _ids(kept) == ["acct-kind"]

    def test_trace_record_is_not_an_accountant(self):
        kept, _ = self.check(
            """
            class T:
                def sync(self, t):
                    self.trace.record("round_start", t)
            """
        )
        assert kept == []


# ---------------------------------------------------------------------- #
# Rule 6 — API hygiene (AST half; the mypy half is gated above)
# ---------------------------------------------------------------------- #
class TestApiHygieneRule:
    def check(self, source, rel="repro/comm/fixture.py"):
        return _violations(source, rel=rel, rules=["api-annotations"])

    def test_unannotated_public_function_flagged(self):
        kept, _ = self.check(
            """
            def exchange(vectors, wire=None):
                return vectors
            """
        )
        assert _ids(kept) == ["api-annotations"]
        assert "vectors" in kept[0].message

    def test_annotated_public_function_clean(self):
        kept, _ = self.check(
            """
            from typing import Optional
            def exchange(vectors: list, wire: Optional[str] = None) -> list:
                return vectors
            """
        )
        assert kept == []

    def test_private_function_not_flagged(self):
        kept, _ = self.check(
            """
            def _helper(x):
                return x
            """
        )
        assert kept == []

    def test_public_method_of_public_class_flagged(self):
        kept, _ = self.check(
            """
            class Executor:
                def run_tasks(self, cluster, tasks):
                    return {}
            """
        )
        assert _ids(kept) == ["api-annotations"]
        assert "Executor.run_tasks" in kept[0].message

    def test_rule_scoped_to_comm_and_sim(self):
        kept, _ = self.check(
            """
            def exchange(vectors):
                return vectors
            """,
            rel="repro/core/fixture.py",
        )
        assert kept == []


# ---------------------------------------------------------------------- #
# Pragma machinery
# ---------------------------------------------------------------------- #
class TestPragmas:
    def check(self, source, rules=DET_IDS + ARENA_IDS):
        return _violations(source, rules=rules)

    def test_inline_pragma_suppresses(self):
        kept, suppressed = self.check(
            """
            import numpy as np
            def f():
                return np.random.default_rng()  # repro: allow[det-unseeded-rng] fixture
            """
        )
        assert kept == []
        assert _ids(suppressed) == ["det-unseeded-rng"]
        assert suppressed[0].reason == "fixture"

    def test_pragma_on_line_above_suppresses(self):
        kept, suppressed = self.check(
            """
            import numpy as np
            def f():
                # repro: allow[det-unseeded-rng] fixture
                return np.random.default_rng()
            """
        )
        assert kept == []
        assert _ids(suppressed) == ["det-unseeded-rng"]

    def test_pragma_two_lines_above_does_not_suppress(self):
        kept, suppressed = self.check(
            """
            import numpy as np
            def f():
                # repro: allow[det-unseeded-rng] fixture
                x = 1
                return np.random.default_rng()
            """
        )
        assert "det-unseeded-rng" in _ids(kept)
        assert "stale-pragma" in _ids(kept)
        assert suppressed == []

    def test_pragma_suppresses_only_named_rule(self):
        kept, suppressed = self.check(
            """
            import numpy as np
            def f(param):
                param.data = np.random.default_rng()  # repro: allow[det-unseeded-rng] fixture
            """
        )
        assert _ids(kept) == ["arena-rebind"]
        assert _ids(suppressed) == ["det-unseeded-rng"]

    def test_stale_pragma_reported(self):
        kept, suppressed = self.check(
            """
            def f(x):
                # repro: allow[det-unseeded-rng] nothing here anymore
                return x
            """
        )
        assert _ids(kept) == ["stale-pragma"]
        assert suppressed == []

    def test_missing_reason_is_a_syntax_violation(self):
        kept, _ = self.check(
            """
            import numpy as np
            def f():
                return np.random.default_rng()  # repro: allow[det-unseeded-rng]
            """
        )
        # A reasonless pragma suppresses nothing: both the syntax
        # violation and the original violation are reported.
        assert "pragma-syntax" in _ids(kept)
        assert "det-unseeded-rng" in _ids(kept)

    def test_unknown_rule_id_is_a_syntax_violation(self):
        kept, _ = self.check(
            """
            def f(x):
                return x  # repro: allow[no-such-rule] typo'd id
            """
        )
        assert _ids(kept) == ["pragma-syntax"]
        assert "no-such-rule" in kept[0].message

    def test_filtered_run_does_not_misreport_stale(self):
        # A pragma for a rule excluded by --rules must not read as stale.
        kept, _ = self.check(
            """
            import numpy as np
            def f():
                return np.random.default_rng()  # repro: allow[det-unseeded-rng] fixture
            """,
            rules=["arena-rebind"],
        )
        assert kept == []


# ---------------------------------------------------------------------- #
# CLI: exit codes and the JSON artefact
# ---------------------------------------------------------------------- #
class TestCli:
    def _write_pkg(self, tmp_path, body):
        pkg = tmp_path / "repro" / "sim"
        pkg.mkdir(parents=True)
        (tmp_path / "repro" / "__init__.py").write_text("")
        (pkg / "__init__.py").write_text("")
        (pkg / "mod.py").write_text(textwrap.dedent(body))
        return str(tmp_path / "repro")

    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        target = self._write_pkg(
            tmp_path,
            """
            def f(x: float) -> float:
                return x
            """,
        )
        assert main([target, "--no-mypy"]) == 0

    def test_injected_violation_exits_nonzero(self, tmp_path, capsys):
        target = self._write_pkg(
            tmp_path,
            """
            import time
            def f() -> float:
                return time.time()
            """,
        )
        assert main([target, "--no-mypy"]) == 1
        out = capsys.readouterr().out
        assert "det-wallclock" in out

    def test_json_report_shape(self, tmp_path, capsys):
        target = self._write_pkg(
            tmp_path,
            """
            import time
            def f() -> float:
                return time.time()
            """,
        )
        assert main([target, "--format", "json", "--no-mypy"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        assert payload["files_scanned"] == 3
        rules = {v["rule"] for v in payload["violations"]}
        assert rules == {"det-wallclock"}
        entry = payload["violations"][0]
        assert entry["line"] == 4 and entry["path"].endswith("mod.py")

    def test_rules_filter(self, tmp_path, capsys):
        target = self._write_pkg(
            tmp_path,
            """
            import time
            def f() -> float:
                return time.time()
            """,
        )
        assert main([target, "--rules", "arena-rebind", "--no-mypy"]) == 0

    def test_missing_path_is_usage_error(self, capsys):
        assert main(["/no/such/path", "--no-mypy"]) == 2

    def test_module_entry_point_runs(self):
        # The acceptance-criterion invocation, end to end.
        env = dict(os.environ, PYTHONPATH=os.path.join(REPO_ROOT, "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "repro.analysis", SRC_REPRO, "--no-mypy"],
            capture_output=True, text=True, env=env, cwd=REPO_ROOT,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "0 unsuppressed violations" in proc.stdout

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in (
            "det-global-rng", "arena-rebind", "wire-boundary",
            "fork-module-state", "acct-kind", "api-annotations",
        ):
            assert rule_id in out


# ---------------------------------------------------------------------- #
# Regression: the true positives this linter found, fixed.
# ---------------------------------------------------------------------- #
class TestLinterFoundFixes:
    def test_directed_ring_unseeded_is_deterministic(self):
        """It was OS-entropy shuffled before the linter fix; now there is
        no unseeded call at all — the generator is required."""
        from repro.comm.topology import directed_ring

        with pytest.raises(TypeError):
            directed_ring(range(8))

    def test_failure_injector_unseeded_is_deterministic(self):
        from repro.sim.failures import FailureInjector

        kwargs = dict(
            device_ids=range(4), horizon=50.0,
            failure_rate=0.1, mean_downtime=3.0,
        )
        a = FailureInjector.random(**kwargs)
        b = FailureInjector.random(**kwargs)
        for device in range(4):
            assert a.windows_for(device) == b.windows_for(device)

    def test_explicit_rng_still_varies_draws(self):
        from repro.comm.topology import directed_ring

        rng = np.random.default_rng(0)
        orders = {tuple(directed_ring(range(8), rng)) for _ in range(6)}
        assert len(orders) > 1
