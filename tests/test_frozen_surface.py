"""The frozen surface: every program name the e2e benchmark and two goldens
use, derived as a table and checked to resolve.

``benchmarks/e2e/`` and ``BENCHMARK.json`` never change, so every name
the harness uses must stay importable and call-compatible; the goldens
``tests/golden/cli_parity.json`` and ``tests/golden/records_parity.json``
pin config fields and record keys the same way.  :func:`frozen_surface`
reads those files only (the harness by AST, plus ``layers.BOUNDARIES``,
imported as the tracer uses it) and returns one :class:`Entry` per name:

``import``       every ``repro`` import of the harness;
``keyword``      every keyword passed to an imported ``repro`` callable,
                 or to a method of a harness ``trainer``;
``config``       every ``config.<field>`` read, on the harness's config
                 classes (the return types of its ``make_config``
                 functions);
``traced``       every ``(owner, attr)`` row of ``layers.BOUNDARIES``;
``attribute``    every ``trainer.<attr>`` / ``substrate.<attr>`` read;
``field``        every config key ``cli_parity.json`` pins, on the
                 config class it names;
``record``       every ``config`` / ``detail`` key ``records_parity.json``
                 pins or the harness reads off a result;
``robustness``   every ``robustness_summary()`` key the harness reads.

Each test below asserts that one kind resolves.  A knob that changes
nothing stays accepted only where this table names it
(:func:`~repro.sim.population.check_inert_knobs`), and
``tests/test_api_surface.py`` keeps every public definition the table
reaches (its frozen kind of ``TEST_ONLY``).
"""

import ast
import dataclasses
import importlib
import inspect
import json
import sys
from functools import lru_cache
from pathlib import Path
from typing import Dict, Iterator, List, NamedTuple, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
E2E = ROOT / "benchmarks" / "e2e"
GOLDEN = ROOT / "tests" / "golden"
SRC = ROOT / "src" / "repro"

#: Harness variables whose attribute reads are surface: the built
#: trainer of a leg and its substrate (a cluster or a population).
ROLES = ("trainer", "substrate")

#: The knobs that change nothing, and the one check that validates them
#: (with the population check that calls it).
INERT_KNOBS = ("executor_workers", "accounting")
INERT_CHECKS = ("check_inert_knobs", "check_population_options")


class Entry(NamedTuple):
    kind: str
    owner: str
    """``module`` or ``module:Qualified.name`` of what is named, or a
    role (``trainer``, ``substrate``, ``config``), or a record part."""
    name: str
    where: str


def _relative(path: Path) -> str:
    return path.relative_to(ROOT).as_posix()


def _harness_trees() -> Iterator[Tuple[str, ast.Module]]:
    for path in sorted(E2E.glob("*.py")):
        yield _relative(path), ast.parse(path.read_text(), filename=str(path))


def import_harness_module(name: str):
    """Import one ``benchmarks/e2e`` module as the tracer does (its
    directory on ``sys.path``), without leaving it or the siblings it
    imports (``tracer``, ``hostspeed``) behind in ``sys.modules``."""
    names = [path.stem for path in E2E.glob("*.py")]
    saved = {n: sys.modules.pop(n) for n in names if n in sys.modules}
    sys.path.insert(0, str(E2E))
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(str(E2E))
        for n in names:
            sys.modules.pop(n, None)
        sys.modules.update(saved)


def _key(obj) -> str:
    return f"{obj.__module__}:{obj.__qualname__}"


def _loop_keys(tree: ast.Module, variables: Set[str]) -> Iterator[str]:
    """Constant keys subscripted off ``variables``: ``v["k"]`` directly,
    or ``v[k]`` inside ``for k in ("a", "b")``."""
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Subscript)
            and getattr(node.value, "id", None) in variables
            and isinstance(node.slice, ast.Constant)
        ):
            yield node.slice.value
        if isinstance(node, ast.For) and isinstance(node.iter, ast.Tuple):
            names = [getattr(item, "value", None) for item in node.iter.elts]
            for inner in ast.walk(node):
                if (
                    isinstance(inner, ast.Subscript)
                    and getattr(inner.value, "id", None) in variables
                    and getattr(inner.slice, "id", None) == getattr(node.target, "id", 0)
                ):
                    yield from names


def _harness_entries() -> Iterator[Entry]:
    for path, tree in _harness_trees():
        bound: Dict[str, str] = {}  # local name -> "module:name"
        returns = {
            node.name: node.returns
            for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef)
        }
        for node in ast.walk(tree):
            where = f"{path}:{getattr(node, 'lineno', 0)}"
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("repro"):
                for alias in node.names:
                    yield Entry("import", node.module, alias.name, where)
                    bound[alias.asname or alias.name] = f"{node.module}:{alias.name}"
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.startswith("repro"):
                        yield Entry("import", alias.name, "", where)
        summaries: Set[str] = set()
        for node in ast.walk(tree):
            where = f"{path}:{getattr(node, 'lineno', 0)}"
            if isinstance(node, ast.Call):
                func = node.func
                if getattr(func, "id", None) in bound:
                    owner = bound[func.id]
                elif getattr(getattr(func, "value", None), "id", None) in ROLES:
                    owner = f"{func.value.id}.{func.attr}"
                else:
                    owner = None
                for keyword in node.keywords:
                    if owner and keyword.arg is not None:
                        yield Entry("keyword", owner, keyword.arg, where)
                    if keyword.arg == "make_config":
                        annotation = returns[keyword.value.id]
                        yield Entry("config_class", bound[annotation.id], "", where)
                if (
                    getattr(func, "attr", None) == "get"
                    and getattr(func.value, "attr", None) in ("config", "detail")
                    and isinstance(node.args[0], ast.Constant)
                ):
                    yield Entry("record", func.value.attr, node.args[0].value, where)
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                if node.value.id == "config":
                    yield Entry("config", "config", node.attr, where)
                elif node.value.id in ROLES:
                    yield Entry("attribute", node.value.id, node.attr, where)
            elif (
                isinstance(node, ast.Assign)
                and getattr(node.value, "func", None) is not None
                and getattr(node.value.func, "attr", None) == "robustness_summary"
            ):
                summaries.update(t.id for t in node.targets)
        for key in _loop_keys(tree, summaries):
            yield Entry("robustness", "RunResult", key, path)


def _traced_entries() -> Iterator[Entry]:
    layers = import_harness_module("layers")
    where = _relative(E2E / "layers.py")
    for owner, attr, *_ in layers.BOUNDARIES:
        key = _key(owner) if isinstance(owner, type) else owner.__name__
        yield Entry("traced", key, attr, where)


def _golden_entries() -> Iterator[Entry]:
    cli = json.loads((GOLDEN / "cli_parity.json").read_text())
    for case, pinned in cli.items():
        for key in pinned["config"]:
            yield Entry("field", pinned["class"], key, f"cli_parity.json:{case}")
    records = json.loads((GOLDEN / "records_parity.json").read_text())
    for case, pinned in records.items():
        if case == "numpy":
            continue
        where = f"records_parity.json:{case}"
        for key in pinned["config"]:
            yield Entry("record", "config", key, where)
        for record in pinned["rounds"]:
            for key in record["detail"]:
                yield Entry("record", "detail", key, where)


@lru_cache(maxsize=None)
def frozen_surface() -> Tuple[Entry, ...]:
    """The table: one entry per ``(kind, owner, name)``, first site kept."""
    table: Dict[Tuple[str, str, str], Entry] = {}
    for entry in (*_harness_entries(), *_traced_entries(), *_golden_entries()):
        table.setdefault(entry[:3], entry)
    return tuple(table.values())


def _entries(kind: str) -> List[Entry]:
    found = [entry for entry in frozen_surface() if entry.kind == kind]
    assert found, f"the table has no {kind} entry: the derivation broke"
    return found


def resolve(target: str):
    """The object ``module`` or ``module:Qualified.name`` names."""
    module, _, qualname = target.partition(":")
    obj = importlib.import_module(module)
    for part in filter(None, qualname.split(".")):
        obj = getattr(obj, part)
    return obj


def config_classes() -> Tuple[type, ...]:
    return tuple(resolve(entry.owner) for entry in _entries("config_class"))


def frozen_definitions() -> Set[str]:
    """``module:Qualified.name`` of every callable the table names by
    import, call, config read or trace cut (properties by their getter)."""
    objects = []
    for entry in frozen_surface():
        if entry.kind == "keyword" and ":" in entry.owner:
            objects.append(resolve(entry.owner))
        elif entry.kind == "import" and entry.name:
            objects.append(resolve(f"{entry.owner}:{entry.name}"))
        elif entry.kind == "traced":
            objects.append(getattr(resolve(entry.owner), entry.name))
        elif entry.kind == "config":
            objects += [getattr(c, entry.name, None) for c in config_classes()]
    return {
        _key(obj)
        for obj in objects
        if inspect.isfunction(obj) or inspect.isclass(obj)
    }


def _assert_resolve(problem: str, entries, resolves) -> None:
    """Every entry for which ``resolves`` is true and raises nothing."""
    failed = []
    for entry in entries:
        try:
            ok = resolves(entry)
        except (AttributeError, ImportError):
            ok = False
        if not ok:
            failed.append(f"{entry.owner} {entry.name!r} ({entry.where})")
    assert not failed, f"{problem}:\n  " + "\n  ".join(failed)


def _instances() -> Dict[str, list]:
    """One of every trainer and substrate the harness builds, tiny."""
    from repro.baselines import DecentralizedFedAvgTrainer, DistributedTrainer
    from repro.core import HADFLTrainer
    from repro.experiments.configs import ExperimentConfig
    from repro.experiments.population import PopulationConfig, make_population
    from repro.sim.population import PopulationTrainer

    config = ExperimentConfig(num_train=32, num_test=16)
    cluster = config.make_cluster()
    population = make_population(
        PopulationConfig(population=8, participants=2, num_train=32, num_test=16)
    )
    return {
        "trainer": [
            HADFLTrainer(cluster, params=config.hadfl_params()),
            DistributedTrainer(cluster),
            DecentralizedFedAvgTrainer(cluster),
            PopulationTrainer(population, participants=2),
        ],
        "substrate": [cluster, population],
    }


def _written_keys() -> Set[str]:
    """Every string literal and keyword name under ``src/repro``: where a
    record key is written (``detail["k"]``, ``{"k": ...}``, ``k=...``)."""
    written: Set[str] = set()
    for path in SRC.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                written.add(node.value)
            elif isinstance(node, ast.keyword) and node.arg is not None:
                written.add(node.arg)
    return written


# ---------------------------------------------------------------------- #
def test_every_import_resolves():
    _assert_resolve(
        "harness imports that no longer resolve",
        _entries("import"),
        lambda e: hasattr(resolve(e.owner), e.name or "__name__"),
    )


def test_every_keyword_is_a_parameter():
    _assert_resolve(
        "keywords the callable no longer takes",
        [e for e in _entries("keyword") if ":" in e.owner],
        lambda e: e.name in inspect.signature(resolve(e.owner)).parameters,
    )


def test_every_config_read_is_a_config_attribute():
    classes = config_classes()
    assert {c.__name__ for c in classes} == {"ExperimentConfig", "PopulationConfig"}

    def has(cls, name):
        return name in {f.name for f in dataclasses.fields(cls)} or hasattr(cls, name)

    _assert_resolve(
        "config reads no config class answers",
        _entries("config"),
        lambda e: any(has(c, e.name) for c in classes),
    )


def test_every_traced_boundary_resolves():
    _assert_resolve(
        "tracer cuts with nothing to patch",
        _entries("traced"),
        lambda e: callable(getattr(resolve(e.owner), e.name)),
    )


def test_every_instance_read_resolves():
    """``trainer.<attr>`` / ``substrate.<attr>`` reads and the keywords
    of ``trainer.<method>(...)`` calls, on one built object of each kind
    the harness builds."""
    instances = _instances()

    def resolves(entry):
        if entry.kind == "attribute":
            return any(hasattr(o, entry.name) for o in instances[entry.owner])
        role, _, method = entry.owner.partition(".")
        return any(
            entry.name in inspect.signature(getattr(o, method)).parameters
            for o in instances[role]
        )

    methods = [e for e in _entries("keyword") if ":" not in e.owner]
    _assert_resolve(
        "trainer/substrate reads that fail", _entries("attribute") + methods, resolves
    )


def test_every_pinned_config_key_is_a_field():
    classes = {c.__name__: c for c in config_classes()}
    _assert_resolve(
        "pinned config keys that are no field",
        _entries("field"),
        lambda e: e.name in {f.name for f in dataclasses.fields(classes[e.owner])},
    )


def test_every_record_key_is_written_under_src():
    written = _written_keys()
    _assert_resolve(
        "record keys nothing writes", _entries("record"), lambda e: e.name in written
    )


def test_every_robustness_key_is_summarised():
    from repro.metrics.records import RunResult

    summary = RunResult(scheme="probe").robustness_summary()
    _assert_resolve(
        "robustness keys the summary lacks",
        _entries("robustness"),
        lambda e: e.name in summary,
    )


def _parameters(tree: ast.Module) -> Iterator[Tuple[str, List[str]]]:
    """``(qualified name, names)``: the annotated fields of every class
    and the parameters of every function, nested ones included."""

    def walk(body, prefix):
        for node in body:
            if isinstance(node, ast.ClassDef):
                yield prefix + node.name, [
                    n.target.id for n in node.body
                    if isinstance(n, ast.AnnAssign) and isinstance(n.target, ast.Name)
                ]
            elif isinstance(node, ast.FunctionDef):
                args = node.args
                yield prefix + node.name, [
                    a.arg for a in args.posonlyargs + args.args + args.kwonlyargs
                ]
            else:
                continue
            yield from walk(node.body, f"{prefix}{node.name}.")

    yield from walk(tree.body, "")


def test_the_inert_knobs_stop_at_the_table():
    """``executor_workers`` and ``accounting`` are accepted because the
    table names them on the two configs and the population trainer;
    nowhere else under ``src/repro`` is either (or ``workers``) a field
    or a parameter, bar the one check and the population check that
    calls it."""
    named = {
        entry.owner.rpartition(":")[2]
        for entry in frozen_surface()
        if entry.name in INERT_KNOBS and entry.kind in ("keyword", "field")
    }
    assert named == {"ExperimentConfig", "PopulationConfig", "PopulationTrainer"}
    allowed = {
        "ExperimentConfig", "PopulationConfig", "PopulationTrainer.__init__",
        *INERT_CHECKS,
    }
    takers = [
        f"{_relative(path)}::{owner} takes {name}"
        for path in sorted(SRC.rglob("*.py"))
        for owner, names in _parameters(ast.parse(path.read_text()))
        for name in sorted(set(names) & {*INERT_KNOBS, "workers"})
        if owner not in allowed
    ]
    assert not takers, "\n".join(takers)
