"""The package's surface: every public name has a caller, NumPy is the only
third-party import, and every script a user can run still imports.

1. Every public ``def`` / ``class`` under ``src/repro`` (module level and
   class bodies) is read as an identifier — a loaded name or attribute —
   somewhere in ``src/``, ``benchmarks/`` or ``examples/``.  Its own
   definition and package re-exports (import lines) do not count: a name
   only tests reach is cold code, and goes unless :data:`TEST_ONLY` says
   why it stays.
2. Every ``import`` under ``src/repro`` is the standard library, NumPy or
   ``repro`` itself — except the lazy, gated ``mypy`` import of the
   optional type-check engine.
3. Every ``benchmarks/bench_*.py`` script and every example imports
   cleanly (nothing else imports the unwired paper-figure scripts, so
   without this they could rot unseen).
4. Devices, the evaluation replica, the initial dispatch and network
   alignment each have one construction site under ``src/repro`` (the
   device substrate in ``repro/sim/cluster.py``).
5. Every class the e2e tracer cuts carries the traced attribute in its
   own namespace: the tracer skips an inherited attribute, so a method
   moved into a base class would silently record zero calls.
"""

import ast
import fnmatch
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CALLER_DIRS = (SRC, ROOT / "benchmarks", ROOT / "examples")

#: Public names only tests reach, each kept for a stated reason.  Keys
#: are ``module:Qualified.name`` patterns (``fnmatch``).
TEST_ONLY: Dict[str, str] = {
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
    "repro.analysis.*:*.visit_*": (
        "ast.NodeVisitor dispatches visitor methods by name"
    ),
    "repro.analysis.engine:check_source": (
        "lints an in-memory snippet under a virtual path — how every "
        "linter rule is pinned"
    ),
    "repro.comm.volume:CommVolumeAccountant.records": (
        "the reader of the per-transfer log that accounting='exact' keeps"
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
    "repro.experiments.ablations:ablate_tsync": (
        "a design-choice sweep in the module the unwired paper-figure "
        "scripts use; it is settled together with them"
    ),
    "repro.experiments.ablations:ablate_mix_weight": (
        "a design-choice sweep in the module the unwired paper-figure "
        "scripts use; it is settled together with them"
    ),
}

#: Third-party module -> the one file (relative to ``src/repro``) allowed
#: to import it, lazily and behind an availability check.
GATED_IMPORTS = {"mypy": "analysis/typecheck.py"}


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


def _read_identifiers() -> Set[str]:
    """Every identifier read as a name or an attribute by the callers."""
    names: Set[str] = set()
    for root in CALLER_DIRS:
        for _, tree in _trees(root):
            for node in ast.walk(tree):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    names.add(node.attr)
    return names


def test_every_public_name_has_a_caller():
    read = _read_identifiers()
    cold = [
        qualified
        for qualified in _defined()
        if _name(qualified) not in read
        and not any(fnmatch.fnmatchcase(qualified, key) for key in TEST_ONLY)
    ]
    assert not cold, "public names no entry point reaches:\n  " + "\n  ".join(cold)


def test_every_allowlisted_name_exists_and_is_still_cold():
    read = _read_identifiers()
    defined = _defined()
    for key in TEST_ONLY:
        assert fnmatch.filter(defined, key), f"allowlist entry {key!r} matches nothing"
        if "*" not in key:
            assert _name(key) not in read, f"{key} has a caller now; drop its entry"


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
                # A gated import must sit inside a function, so importing
                # its module never needs the package.
                gated = GATED_IMPORTS.get(root) == relative and node not in tree.body
                if root not in allowed and not gated:
                    offenders.append(f"{relative}:{node.lineno} imports {root}")
    assert not offenders, "\n".join(offenders)


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


def test_every_traced_class_attribute_is_in_its_own_namespace():
    e2e = str(ROOT / "benchmarks" / "e2e")
    names = ("layers", "tracer")
    saved = {name: sys.modules.pop(name) for name in names if name in sys.modules}
    sys.path.insert(0, e2e)
    try:
        layers = importlib.import_module("layers")
    finally:
        sys.path.remove(e2e)
        for name in names:
            sys.modules.pop(name, None)
        sys.modules.update(saved)
    rows = [row[:2] for row in layers.BOUNDARIES if isinstance(row[0], type)]
    assert rows
    inherited = [
        f"{owner.__name__}.{attr}" for owner, attr in rows if attr not in vars(owner)
    ]
    assert not inherited, f"traced attributes only inherited: {inherited}"
