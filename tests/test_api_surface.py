"""The package's surface: every public name has a caller, NumPy is the only
third-party import, and every script a user can run still imports.

1. Every public ``def`` / ``class`` under ``src/repro`` (module level and
   class bodies) is read somewhere in ``src/``, ``benchmarks/`` or
   ``examples/``: a module-level name as a loaded name or attribute, a
   class member only as a loaded attribute (``obj.member``) — a local
   variable that shares its name does not reach it.  Its own definition
   and package re-exports (import lines) do not count: a name only tests
   reach is cold code, and goes unless :data:`TEST_ONLY` says why it
   stays.  Its frozen kind is generated: every public definition the
   frozen surface names (``tests/test_frozen_surface.py``) stays whether
   or not anything under ``src/`` calls it.
2. Every ``import`` under ``src/repro`` is the standard library, NumPy or
   ``repro`` itself, without exception.
3. Every ``benchmarks/bench_*.py`` script is one that
   ``benchmarks/run_bench.py`` imports, so a script nothing runs cannot
   come back (the paper's claims live in
   ``tests/integration/test_paper_claims.py``); every bench script and
   every example imports cleanly.
4. Devices, the evaluation replica, the initial dispatch and network
   alignment each have one construction site under ``src/repro`` (the
   device substrate in ``repro/sim/cluster.py``); so do a trainer's byte
   accountant and round engine (the trainer skeleton,
   ``repro/sim/rounds.py::Federation``), and a round record is built
   only there and where a saved or averaged result is read back.
5. Every class the e2e tracer cuts carries the traced attribute in its
   own namespace: the tracer skips an inherited attribute, so a method
   moved into a base class would silently record zero calls.
6. A burst's timeline has one planner: exactly one function under
   ``src/repro`` calls ``step_time`` (``Device.plan``).
"""

import ast
import fnmatch
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CALLER_DIRS = (SRC, ROOT / "benchmarks", ROOT / "examples")

sys.path.insert(0, str(ROOT / "tests"))
from test_frozen_surface import (  # noqa: E402
    frozen_definitions,
    import_harness_module,
)

#: Public names only tests reach, each kept for a stated reason.  Keys
#: are ``module:Qualified.name`` patterns (``fnmatch``).
HAND_WRITTEN: Dict[str, str] = {
    "repro.autograd.gradcheck:gradcheck": (
        "the autograd package's own verification tool"
    ),
    "repro.sim.linkfaults:LinkFaultModel.flap": (
        "the tests' deterministic route into the ring repair's "
        "link-gave-up branch"
    ),
    "repro.core.coordinator:ModelManager.latest": (
        "reads the model manager's backups (paper workflow step 9)"
    ),
    "repro.core.coordinator:ModelManager.snapshot_at_round": (
        "reads the model manager's backups (paper workflow step 9)"
    ),
    "repro.sim.failures:DiurnalAvailability.available_mask": (
        "the per-id form of population_mask (one band routine): the "
        "subset-invariance and reference tests ask for explicit ids"
    ),
    "repro.io:load_result": (
        "reads back the result file `python -m repro run --out` writes"
    ),
    "repro.nn.module:Module.state_dict": (
        "the module state round trip; arena tests pin it writes in place"
    ),
    "repro.nn.module:Module.load_state_dict": (
        "the module state round trip; arena tests pin it writes in place"
    ),
    "repro.comm.params:ParamArena.mark_grads_written": (
        "the public way to declare a gradient written by hand after a "
        "zero_grad (Tensor.bind_grad's known-zero contract)"
    ),
    "repro.sim.engine:Simulator.pending": (
        "the event queue's live depth: the engine and ring-repair tests "
        "check with it which cancelled or caller events stay queued"
    ),
}

#: The frozen kind: public definitions the e2e harness names.
FROZEN: Dict[str, str] = {
    key: "frozen: benchmarks/e2e names it (tests/test_frozen_surface.py)"
    for key in frozen_definitions()
    if not key.rpartition(":")[2].rpartition(".")[2].startswith("_")
}

TEST_ONLY: Dict[str, str] = {**FROZEN, **HAND_WRITTEN}

def _trees(root: Path) -> Iterator[Tuple[Path, ast.Module]]:
    for path in sorted(root.rglob("*.py")):
        yield path, ast.parse(path.read_text(), filename=str(path))


def _module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _public_defs(tree: ast.Module, module: str) -> Iterator[str]:
    """``module:Qualified.name`` of every public def / class at module
    level or in a class body (closures are not surface)."""

    def walk(body, prefix):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not node.name.startswith("_"):
                    yield f"{module}:{prefix}{node.name}"
                if isinstance(node, ast.ClassDef):
                    yield from walk(node.body, f"{prefix}{node.name}.")

    yield from walk(tree.body, "")


def _defined() -> List[str]:
    return [
        qualified
        for path, tree in _trees(SRC / "repro")
        for qualified in _public_defs(tree, _module_name(path))
    ]


def _name(qualified: str) -> str:
    return qualified.rpartition(":")[2].rpartition(".")[2]


def _read_identifiers(roots=CALLER_DIRS) -> Tuple[Set[str], Set[str]]:
    """``(names, attributes)`` the callers under ``roots`` read: every
    loaded bare name, and every loaded ``obj.attribute``."""
    names: Set[str] = set()
    attributes: Set[str] = set()
    for root in roots:
        for _, tree in _trees(root):
            for node in ast.walk(tree):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    attributes.add(node.attr)
    return names, attributes


def _is_read(qualified: str, read: Tuple[Set[str], Set[str]]) -> bool:
    """A class member is reached only through an attribute read; a
    module-level name through either kind of read."""
    names, attributes = read
    name = _name(qualified)
    member = "." in qualified.partition(":")[2]
    return name in attributes or (not member and name in names)


def _cold(defined: List[str], read: Tuple[Set[str], Set[str]]) -> List[str]:
    return [
        qualified
        for qualified in defined
        if not _is_read(qualified, read)
        and not any(fnmatch.fnmatchcase(qualified, key) for key in TEST_ONLY)
    ]


def test_every_public_name_has_a_caller():
    cold = _cold(_defined(), _read_identifiers())
    assert not cold, "public names no entry point reaches:\n  " + "\n  ".join(cold)


def test_a_same_named_local_does_not_keep_a_member_alive(tmp_path):
    """A method whose only "caller" is a local variable of its name is
    cold; an attribute read reaches it, and a bare name still reaches a
    module-level function."""
    (tmp_path / "caller.py").write_text(
        "def use(spec, helper):\n"
        "    shard_sizes = [1, 2]\n"
        "    return shard_sizes, helper\n"
    )
    defined = [
        "repro.fake:Spec.shard_sizes",
        "repro.fake:Spec.weights",
        "repro.fake:helper",
    ]
    read = _read_identifiers([tmp_path])
    assert _cold(defined, read) == [
        "repro.fake:Spec.shard_sizes",
        "repro.fake:Spec.weights",
    ]
    (tmp_path / "caller.py").write_text("def use(spec):\n    return spec.shard_sizes\n")
    read = _read_identifiers([tmp_path])
    assert _cold(defined, read) == ["repro.fake:Spec.weights", "repro.fake:helper"]


def test_every_allowlisted_name_exists_and_is_still_cold():
    """A hand-written entry goes once a caller appears; a frozen one stays
    as long as the harness names it."""
    read = _read_identifiers()
    defined = _defined()
    for key in TEST_ONLY:
        assert fnmatch.filter(defined, key), f"allowlist entry {key!r} matches nothing"
    for key in HAND_WRITTEN:
        if "*" not in key:
            assert not _is_read(key, read), f"{key} has a caller now; drop its entry"
    assert "repro.sim.device:Device.train_steps" in FROZEN


def test_src_imports_only_stdlib_numpy_and_repro():
    allowed = set(sys.stdlib_module_names) | {"numpy", "repro"}
    package = SRC / "repro"
    offenders = []
    for path, tree in _trees(package):
        relative = path.relative_to(package).as_posix()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                roots = [alias.name.partition(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                roots = [node.module.partition(".")[0]]
            else:
                continue
            for root in roots:
                if root not in allowed:
                    offenders.append(f"{relative}:{node.lineno} imports {root}")
    assert not offenders, "\n".join(offenders)


def test_every_bench_script_is_wired_into_run_bench():
    tree = ast.parse((ROOT / "benchmarks" / "run_bench.py").read_text())
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
    }
    scripts = {path.stem for path in (ROOT / "benchmarks").glob("bench_*.py")}
    assert scripts
    unwired = sorted(scripts - imported)
    assert not unwired, f"bench scripts run_bench.py does not run: {unwired}"


def test_every_bench_script_and_example_imports():
    scripts = sorted((ROOT / "benchmarks").glob("bench_*.py")) + sorted(
        (ROOT / "examples").glob("*.py")
    )
    assert scripts
    # One child process: the scripts pin BLAS threads and extend sys.path
    # at import, which must not leak into the test process.
    probe = (
        "import importlib.util, json, sys, traceback\n"
        "failed = {}\n"
        "for path in sys.argv[1:]:\n"
        "    name = 'surface_probe_' + path.replace('/', '_').replace('.', '_')\n"
        "    spec = importlib.util.spec_from_file_location(name, path)\n"
        "    try:\n"
        "        spec.loader.exec_module(importlib.util.module_from_spec(spec))\n"
        "    except Exception:\n"
        "        failed[path] = traceback.format_exc(limit=3)\n"
        "print(json.dumps(failed))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(ROOT)] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    out = subprocess.run(
        [sys.executable, "-c", probe, *map(str, scripts)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    failed = json.loads(out.stdout.strip().splitlines()[-1])
    assert not failed, "\n".join(f"{k}:\n{v}" for k, v in failed.items())


def _call_sites(name: str, match=lambda call: True) -> List[str]:
    """``path:line`` of every call to ``name`` under ``src/repro`` that
    ``match`` accepts (a plain name or an attribute call)."""
    sites = []
    for path, tree in _trees(SRC / "repro"):
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            called = getattr(func, "id", None) or getattr(func, "attr", None)
            if called == name and match(node):
                sites.append(f"{path.relative_to(SRC).as_posix()}:{node.lineno}")
    return sites


def _without_grads(call: ast.Call) -> bool:
    """``ParamArena(..., bind_grads=False)``: an evaluation replica."""
    return any(
        kw.arg == "bind_grads" and getattr(kw.value, "value", None) is False
        for kw in call.keywords
    )


def _against_itself(call: ast.Call) -> bool:
    """A delta transfer whose reference is its payload: the initial dispatch."""
    args = [ast.dump(arg) for arg in call.args]
    return len(args) == 2 and args[0] == args[1]


def test_one_construction_site_per_substrate_piece():
    sites = {
        "Device": _call_sites("Device"),
        "evaluation replica": _call_sites("ParamArena", _without_grads),
        "initial dispatch": _call_sites(
            "transmit_delta_with_error", _against_itself
        ),
        "network alignment": _call_sites("align_network_granularity"),
    }
    for piece, found in sites.items():
        assert len(found) == 1, f"{piece} built at {found or 'no site'}"
        assert found[0].startswith("repro/sim/cluster.py:"), (piece, found)


def _calling_functions(name: str) -> List[str]:
    """``path::function`` of every call to ``name`` under ``src/repro``:
    the innermost enclosing function, ``<module>`` at module level."""
    sites = []
    for path, tree in _trees(SRC / "repro"):
        # ast.walk is breadth-first: an inner function re-claims its body
        # after the function around it.
        owner = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for inner in ast.walk(node):
                    if inner is not node:
                        owner[inner] = node.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and name in (
                getattr(node.func, "id", None),
                getattr(node.func, "attr", None),
            ):
                where = owner.get(node, "<module>")
                sites.append(f"{path.relative_to(SRC).as_posix()}::{where}")
    return sites


def test_one_construction_site_per_trainer_piece():
    for piece in ("CommVolumeAccountant", "RoundEngine", "FaultTolerantRingSync"):
        assert _calling_functions(piece) == ["repro/sim/rounds.py::__init__"], piece
    # Every crash-bounded burst is launched by the federation; the
    # baselines' fixed-count lockstep bursts are the one other caller.
    assert sorted(_calling_functions("launch")) == [
        "repro/baselines/base.py::_train_all",
        "repro/sim/rounds.py::_launch",
    ]
    assert sorted(_calling_functions("RoundRecord")) == [
        "repro/experiments/runner.py::average_results",
        "repro/io.py::load_result",
        "repro/sim/rounds.py::_record",
    ]


def test_every_traced_class_attribute_is_in_its_own_namespace():
    layers = import_harness_module("layers")
    rows = [row[:2] for row in layers.BOUNDARIES if isinstance(row[0], type)]
    assert rows
    inherited = [
        f"{owner.__name__}.{attr}" for owner, attr in rows if attr not in vars(owner)
    ]
    assert not inherited, f"traced attributes only inherited: {inherited}"


def test_one_timeline_planner():
    assert _calling_functions("step_time") == ["repro/sim/device.py::plan"]
