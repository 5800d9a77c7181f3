"""Structural contracts that no behaviour test can see, each a plain test.

Every rule here was kept because a seeded violation of it passed the rest
of tier-1 (the witness table in CHANGES.md): a host-clock
read, a loop over a set or an unannotated ``sim`` signature changes no
fixed-seed trajectory, so no golden or parity test fails on it.
Each rule test scans ``src/repro``; the tables of snippets above them
pin what each finder flags, each rule's scope and how a pragma excuses.

An intentional exception carries ``# repro: allow[rule-id] reason`` on the
finding's line or the line directly above it; the reason is mandatory, and
:func:`test_pragmas_are_well_formed_and_live` fails a pragma that names an
unknown rule or excuses nothing.

The second half replaces a tombstone grep: each retired twin is kept out
by a structural check that states the contract it would break (one
executor class per backend name, one ``_kernel`` per optimizer, one
normalisation node, one window unfold, no per-image roll), and only
names no structure can state are listed by name.
"""

import ast
import io
import re
import tokenize
from functools import lru_cache
from typing import Callable, Dict, Iterable, Iterator, List, Set, Tuple

import pytest

from test_api_surface import ROOT, SRC, _calling_functions, _trees

PACKAGE = SRC / "repro"

#: Subpackages whose code runs inside a simulated trajectory.
RUNTIME = ("sim/", "core/", "comm/", "autograd/", "optim/", "nn/", "baselines/")

Finding = Tuple[int, str]


@lru_cache(maxsize=None)
def _package() -> Tuple[Tuple[str, ast.Module], ...]:
    return tuple(
        (path.relative_to(PACKAGE).as_posix(), tree) for path, tree in _trees(PACKAGE)
    )


def _chain(node: ast.AST) -> List[str]:
    """``np.random.default_rng`` -> ``["np", "random", "default_rng"]``;
    ``[]`` for anything but a plain dotted name."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return []
    return [node.id] + parts[::-1]


def _lines(finder: Callable[[ast.Module], Iterator[Finding]], source: str) -> List[int]:
    return sorted(line for line, _ in finder(ast.parse(source)))


# ---------------------------------------------------------------------- #
# Finders
# ---------------------------------------------------------------------- #
CLOCKS = {
    "time", "time_ns", "perf_counter", "perf_counter_ns", "monotonic",
    "monotonic_ns", "process_time", "process_time_ns",
}


def _wallclock_reads(tree: ast.Module) -> Iterator[Finding]:
    modules: Set[str] = set()  # names bound to the time module
    clocks: Set[str] = set()  # names bound to one of its clocks
    dates: Set[str] = set()  # names bound to datetime / datetime.datetime / date
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name in ("time", "datetime"):
                    (modules if alias.name == "time" else dates).add(alias.asname or alias.name)
        elif isinstance(node, ast.ImportFrom) and node.module in ("time", "datetime"):
            for alias in node.names:
                if node.module == "time" and alias.name in CLOCKS:
                    clocks.add(alias.asname or alias.name)
                elif node.module == "datetime" and alias.name in ("datetime", "date"):
                    dates.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        chain = _chain(node.func)
        if (
            (len(chain) == 2 and chain[0] in modules and chain[1] in CLOCKS)
            or (len(chain) == 1 and chain[0] in clocks)
            or (len(chain) >= 2 and chain[0] in dates and chain[-1] in ("now", "utcnow", "today"))
        ):
            yield node.lineno, f"{'.'.join(chain)}() reads the host clock"


def _is_set(node: ast.AST) -> bool:
    """Whether an expression is evidently a set (no type inference)."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        chain = _chain(node.func)
        return chain in (["set"], ["frozenset"]) or bool(chain) and chain[-1] in (
            "intersection", "union", "difference", "symmetric_difference"
        )
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitAnd, ast.BitOr, ast.BitXor, ast.Sub)
    ):
        return _is_set(node.left) or _is_set(node.right)
    return False


REDUCTIONS = {"sum", "prod", "cumsum", "cumprod", "fsum", "reduce"}


def _set_ordered(tree: ast.Module) -> Iterator[Finding]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.For, ast.AsyncFor)) and _is_set(node.iter):
            yield node.lineno, "loop over a set runs in hash order"
        elif (
            isinstance(node, ast.Call)
            and node.args
            and _chain(node.func)[-1:] in ([name] for name in REDUCTIONS)
            and _is_set(node.args[0])
        ):
            yield node.lineno, "reduction over a set accumulates in hash order"


def _unannotated(tree: ast.Module) -> Iterator[Finding]:
    """Defs missing an annotation, under mypy's ``--disallow-untyped-defs
    --disallow-incomplete-defs``: a method's ``self``/``cls`` is exempt,
    and so is an ``__init__``'s return when one argument is annotated."""
    methods = {
        id(item)
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        for item in node.body
    }
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        spec = func.args
        positional = spec.posonlyargs + spec.args
        static = any(_chain(d) == ["staticmethod"] for d in func.decorator_list)
        if id(func) in methods and not static and positional[:1] and positional[0].arg in ("self", "cls"):
            positional = positional[1:]
        arguments = positional + spec.kwonlyargs + [a for a in (spec.vararg, spec.kwarg) if a]
        missing = [a.arg for a in arguments if a.annotation is None]
        if func.returns is None and not (func.name == "__init__" and arguments and not missing):
            missing.append("return")
        if missing:
            yield func.lineno, f"{func.name} lacks annotations for {', '.join(missing)}"


#: Rule id -> (finder, package-relative scope prefixes).  The ids are the
#: names a pragma may use.
RULES: Dict[str, Tuple[Callable[[ast.Module], Iterator[Finding]], Tuple[str, ...]]] = {
    "det-wallclock": (_wallclock_reads, RUNTIME),
    "det-set-order": (_set_ordered, RUNTIME),
}

#: The surface the annotation test covers (it takes no pragma).
ANNOTATED = ("comm/", "sim/")

PRAGMA = re.compile(r"#\s*repro:\s*allow\[(?P<rules>[^\]]*)\]\s*(?P<reason>.*)$")

Pragma = Tuple[str, int, Tuple[str, ...], str]
Located = Tuple[str, int, str]


def _parse_pragmas(rel: str, source: str) -> List[Pragma]:
    """``(module, line, rule ids, reason)`` of every pragma in ``source``."""
    found = []
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        match = PRAGMA.search(token.string) if token.type == tokenize.COMMENT else None
        if match:
            rules = tuple(r.strip() for r in match["rules"].split(",") if r.strip())
            found.append((rel, token.start[0], rules, match["reason"].strip()))
    return found


@lru_cache(maxsize=None)
def _pragmas() -> Tuple[Pragma, ...]:
    return tuple(
        pragma
        for path in sorted(PACKAGE.rglob("*.py"))
        for pragma in _parse_pragmas(path.relative_to(PACKAGE).as_posix(), path.read_text())
    )


def _scan(finder: Callable[[ast.Module], Iterator[Finding]], scope: Tuple[str, ...],
          package: Iterable[Tuple[str, ast.Module]]) -> List[Located]:
    return [
        (rel, line, message)
        for rel, tree in package
        if rel.startswith(scope)
        for line, message in finder(tree)
    ]


def _findings(rule: str) -> List[Located]:
    finder, scope = RULES[rule]
    return _scan(finder, scope, _package())


def _unexcused(rule: str, findings: List[Located], pragmas: Iterable[Pragma]) -> List[str]:
    """Findings of ``rule`` that no pragma on or above their line excuses."""
    excused = {(rel, line) for rel, line, rules, _ in pragmas if rule in rules}
    return [
        f"repro/{rel}:{line}: {message}"
        for rel, line, message in findings
        if (rel, line) not in excused and (rel, line - 1) not in excused
    ]


def _offenders(rule: str) -> str:
    return "\n".join(_unexcused(rule, _findings(rule), _pragmas()))


def _pragma_problems(pragmas: Iterable[Pragma], findings: Dict[str, List[Located]]) -> List[str]:
    problems = []
    for rel, line, rules, reason in pragmas:
        where = f"repro/{rel}:{line}"
        if not rules or not reason:
            problems.append(f"{where}: a pragma names rule ids and gives a reason")
        for rule in rules:
            if rule not in RULES:
                problems.append(f"{where}: unknown rule id {rule!r}")
            elif not any(
                found == rel and hit in (line, line + 1) for found, hit, _ in findings[rule]
            ):
                problems.append(f"{where}: allow[{rule}] excuses nothing; remove it")
    return problems


# ---------------------------------------------------------------------- #
# Each finder, scope and pragma on snippets
# ---------------------------------------------------------------------- #
#: Case -> (finder, source, lines it must flag).
FINDER_CASES = {
    "wallclock_read_flagged": (
        _wallclock_reads, "import time\ndef f():\n    return time.perf_counter()\n", [3],
    ),
    "aliased_clock_flagged": (_wallclock_reads, "from time import monotonic as m\nx = m()\n", [2]),
    "datetime_now_flagged": (
        _wallclock_reads, "from datetime import datetime\nx = datetime.now()\n", [2],
    ),
    "simulated_time_parameter_clean": (
        _wallclock_reads, "def f(time):\n    return time + 1.0\n", [],
    ),
    "sleep_is_no_clock_read": (_wallclock_reads, "import time\ntime.sleep(0)\n", []),
    "sum_over_set_flagged": (_set_ordered, "def f(xs):\n    return sum(set(xs))\n", [2]),
    "iteration_over_set_display_flagged": (
        _set_ordered, "def f(a, b):\n    for x in {a, b}:\n        print(x)\n", [2],
    ),
    "iteration_over_set_union_flagged": (
        _set_ordered, "def f(a, b):\n    for x in a | {b}:\n        print(x)\n", [2],
    ),
    "sum_over_sorted_set_clean": (
        _set_ordered, "def f(xs):\n    return sum(sorted(set(xs)))\n", [],
    ),
    "len_of_set_clean": (_set_ordered, "def f(xs):\n    return len(set(xs))\n", []),
    "annotated_public_function_clean": (_unannotated, "def f(x: int) -> int:\n    return x\n", []),
    "unannotated_public_function_flagged": (_unannotated, "def f(x):\n    return x\n", [1]),
    "public_method_of_public_class_flagged": (
        _unannotated, "class A:\n    def g(self, x) -> None:\n        pass\n", [2],
    ),
    "init_with_annotated_argument_clean": (
        _unannotated, "class A:\n    def __init__(self, x: int):\n        pass\n", [],
    ),
    "incomplete_init_flagged": (
        _unannotated, "class A:\n    def __init__(self, sim: int, executor):\n        pass\n", [2],
    ),
    "bare_init_flagged": (_unannotated, "class A:\n    def __init__(self):\n        pass\n", [2]),
    "private_and_nested_defs_flagged": (
        _unannotated, "def _f(x: int):\n    def g(y: int) -> int:\n        return y\n", [1],
    ),
    "unannotated_kwargs_flagged": (
        _unannotated, "def f(*args: int, **kw) -> None:\n    pass\n", [1],
    ),
}


@pytest.mark.parametrize("case", FINDER_CASES)
def test_finder(case: str) -> None:
    finder, source, lines = FINDER_CASES[case]
    assert _lines(finder, source) == lines


#: Case -> (finder, scope, source, module outside the scope, module inside).
SCOPE_CASES = {
    "skips_non_runtime_subpackages": (
        _wallclock_reads, RUNTIME, "import time\nx = time.time()\n", "data/x.py", "sim/x.py",
    ),
    "scoped_to_comm_and_sim": (
        _unannotated, ANNOTATED, "def f(x):\n    return x\n", "core/x.py", "comm/x.py",
    ),
}


@pytest.mark.parametrize("case", SCOPE_CASES)
def test_rule_scope(case: str) -> None:
    finder, scope, source, outside, inside = SCOPE_CASES[case]
    tree = ast.parse(source)
    found = _scan(finder, scope, [(outside, tree), (inside, tree)])
    assert [rel for rel, _, _ in found] == [inside]


#: Case -> (source, findings left unexcused, fragment of the one pragma
#: problem reported, or "" for none).
PRAGMA_CASES = {
    "inline_pragma_suppresses": (
        "import time\nX = time.time()  # repro: allow[det-wallclock] a log stamp\n", 0, "",
    ),
    "pragma_on_line_above_suppresses": (
        "import time\n# repro: allow[det-wallclock] a log stamp\nX = time.time()\n", 0, "",
    ),
    "pragma_two_lines_above_does_not_suppress": (
        "# repro: allow[det-wallclock] a log stamp\nimport time\nX = time.time()\n",
        1, "excuses nothing",
    ),
    "pragma_suppresses_only_named_rule": (
        "import time\nX = time.time()  # repro: allow[det-set-order] a log stamp\n",
        1, "excuses nothing",
    ),
    "stale_pragma_reported": (
        "X = ()  # repro: allow[det-wallclock] a log stamp\n", 0, "excuses nothing",
    ),
    "unknown_rule_id_is_a_syntax_violation": (
        "X = ()  # repro: allow[no-such-rule] why\n", 0, "unknown rule id",
    ),
    "missing_reason_is_a_syntax_violation": (
        "import time\nX = time.time()  # repro: allow[det-wallclock]\n", 0, "gives a reason",
    ),
}


@pytest.mark.parametrize("case", PRAGMA_CASES)
def test_pragma(case: str) -> None:
    source, unexcused, problem = PRAGMA_CASES[case]
    package = [("m.py", ast.parse(source))]
    findings = {rule: _scan(finder, ("m.py",), package) for rule, (finder, _) in RULES.items()}
    pragmas = _parse_pragmas("m.py", source)
    assert sum(len(_unexcused(rule, findings[rule], pragmas)) for rule in RULES) == unexcused
    assert [problem in p for p in _pragma_problems(pragmas, findings)] == [True] * bool(problem)


# ---------------------------------------------------------------------- #
# Determinism the goldens cannot see
# ---------------------------------------------------------------------- #
def test_no_wall_clock_in_a_trajectory():
    """Simulated time comes from the event engine (``sim.now``), never the
    host: a clock read that feeds nothing today is one edit away from a
    trajectory that differs run to run, and no fixed-seed test sees it."""
    assert not _offenders("det-wallclock"), _offenders("det-wallclock")


def test_no_loop_or_reduction_over_a_set():
    """A set iterates in hash order, which ``PYTHONHASHSEED`` varies for
    strings: a float reduction over one differs between processes, while
    a test process only ever sees its own order.  Iterate ``sorted(...)``."""
    assert not _offenders("det-set-order"), _offenders("det-set-order")


# ---------------------------------------------------------------------- #
# Annotations and pragmas
# ---------------------------------------------------------------------- #
def test_comm_and_sim_defs_are_fully_annotated():
    """``repro.comm`` and ``repro.sim`` are the surface other layers extend
    (wire formats, executors, networks, failure models); every def there,
    private and nested ones included, is fully annotated, so an untyped
    one cannot drop out of type checking as ``Any``."""
    offenders = [
        f"repro/{rel}:{line}: {message}"
        for rel, line, message in _scan(_unannotated, ANNOTATED, _package())
    ]
    assert not offenders, "\n".join(offenders)


def test_pragmas_are_well_formed_and_live():
    """``# repro: allow[rule-id] reason``: every pragma names rules this
    suite knows, says why, and excuses a finding on its own line or the
    line below — a pragma whose violation is gone goes with it."""
    problems = _pragma_problems(_pragmas(), {rule: _findings(rule) for rule in RULES})
    assert not problems, "\n".join(problems)
    assert len(_pragmas()) <= 15, "the pragma inventory outgrew its bound"


# ---------------------------------------------------------------------- #
# One of each: retired twins stay retired
# ---------------------------------------------------------------------- #
def test_one_executor_class_per_backend_name():
    """One in-process executor batches by default; ``fleet`` is a second
    name for it, not a separate class."""
    from repro.sim.executor import _EXECUTORS

    assert {name: cls.name for name, cls in _EXECUTORS.items()} == {
        "serial": "serial",
        "fleet": "serial",
    }
    executors = {"LocalExecutor"}
    grew = True
    while grew:
        found = {
            node.name
            for _, tree in _package()
            for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef)
            and any(_chain(base)[-1:] in ([e] for e in executors) for base in node.bases)
        }
        grew = not found <= executors
        executors |= found
    assert executors - {"LocalExecutor"} == {cls.__name__ for cls in _EXECUTORS.values()}


def test_one_kernel_per_optimizer_class():
    """An optimizer's update is its one ``_kernel(w, g, state, scratch)``
    over the arena it is built on, called only by ``Optimizer.step``.  The
    optimizer API is the base class's closed method set, which subclasses
    only override, and ``optim/`` has no free functions: no second update
    path, gradient gather or parameter binder can grow beside the kernel."""
    from repro.optim.base import Optimizer

    assert {name for name, value in vars(Optimizer).items() if callable(value)} == {
        "__init__", "_scratch_vectors", "share_scratch", "zero_grad", "step",
        "_kernel", "flat_state", "scalar_state", "load_scalar_state",
    }
    optim = [(rel, tree) for rel, tree in _package() if rel.startswith("optim/")]
    free = [
        f"repro/{rel}:{node.name}"
        for rel, tree in optim
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    assert not free, free
    optimizers = [
        node
        for _, tree in optim
        for node in tree.body
        if isinstance(node, ast.ClassDef)
        and any(_chain(base)[-1:] == ["Optimizer"] for base in node.bases)
    ]
    assert {node.name for node in optimizers} == {"SGD", "Adam"}
    for node in optimizers:
        methods = [item.name for item in node.body if isinstance(item, ast.FunctionDef)]
        assert methods.count("_kernel") == 1, node.name
        assert set(methods) <= set(vars(Optimizer)), (node.name, methods)
    assert _calling_functions("_kernel") == ["repro/optim/base.py::step"]


def _square_roots(tree: ast.Module) -> Iterator[ast.AST]:
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and _chain(node.func)[-1:] == ["sqrt"]:
            yield node
        elif (
            isinstance(node, ast.BinOp)
            and isinstance(node.op, ast.Pow)
            and getattr(node.right, "value", None) == 0.5
        ):
            yield node


def test_one_normalisation_node():
    """A norm layer is one ``normalize`` autograd node: both norm layers
    call it, and it is the only training-time code under ``autograd/`` and
    ``nn/`` that divides by a standard deviation (the others are the
    tensor op itself, the fan-in init scales and BatchNorm's eval path on
    running statistics) — no second normaliser."""
    assert _calling_functions("normalize") == ["repro/nn/norm.py::forward"] * 2
    roots = []
    for path, tree in _trees(PACKAGE):
        rel = path.relative_to(SRC).as_posix()
        if not rel.startswith(("repro/autograd/", "repro/nn/")):
            continue
        # ast.walk is breadth-first: an inner function re-claims its body.
        owner = {}
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update((inner, func.name) for inner in ast.walk(func) if inner is not func)
        roots += [f"{rel}::{owner.get(node, '<module>')}" for node in _square_roots(tree)]
    assert sorted(roots) == [
        "repro/autograd/ops.py::normalize",
        "repro/autograd/tensor.py::sqrt",
        "repro/nn/init.py::kaiming_normal",
        "repro/nn/init.py::kaiming_uniform",
        "repro/nn/norm.py::forward",
    ]


def test_im2col_builds_its_window_view_directly():
    """``im2col`` builds the ``(C, kh, kw, out_h, out_w, N)`` window view
    itself, as one ``np.ndarray`` over the padded buffer with explicit
    strides — no per-call window wrapper — and only ``conv2d`` unfolds
    windows and only the ``Conv2d`` layer calls ``conv2d``, so there is one
    convolution (no batched or per-replica twin); likewise only
    ``softmax_cross_entropy`` takes a log-softmax, so there is one loss."""
    (ops,) = [tree for rel, tree in _package() if rel == "autograd/ops.py"]
    (im2col,) = [n for n in ops.body if isinstance(n, ast.FunctionDef) and n.name == "im2col"]
    views = [
        call
        for call in ast.walk(im2col)
        if isinstance(call, ast.Call)
        and _chain(call.func) == ["np", "ndarray"]
        and {kw.arg for kw in call.keywords} >= {"buffer", "strides"}
    ]
    assert len(views) == 1
    wrappers = [
        f"repro/{rel}:{node.lineno}"
        for rel, tree in _package()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and _chain(node.func)[-1:] in (["sliding_window_view"], ["as_strided"])
    ]
    assert not wrappers, wrappers
    assert _calling_functions("im2col") == ["repro/autograd/ops.py::conv2d"]
    assert _calling_functions("conv2d") == ["repro/nn/conv.py::forward"]
    assert _calling_functions("_log_softmax_data") == [
        "repro/autograd/ops.py::softmax_cross_entropy"
    ]


def test_no_per_image_roll_in_data():
    """The synthetic render gathers shifted templates in one indexing
    pass; a per-image ``np.roll`` is the loop it replaced."""
    rolls = [
        f"repro/{rel}:{node.lineno}"
        for rel, tree in _package()
        if rel.startswith("data/")
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and _chain(node.func)[-1:] == ["roll"]
    ]
    assert not rolls, rolls


#: Retired names whose contract no structure above states: each names a
#: removed twin or a second ledger that could come back under its old name.
RETIRED = {
    "_arrange": "the fleet's row-arranging step: a burst trains the rows its devices sit on",
    "permute": "the pool's row permutation that step drove",
    "load_grad_state": "moving a device's gradient state between pool rows",
    "use_replica": "re-pointing a device at another pool block",
    "_per_replica": "a per-replica loop around a kernel: conv and norm run per device",
    "fused": "the flag that chose between a fused and a per-parameter optimizer step",
    "_inflight_meta": "a trainer-side in-flight ledger: round bookkeeping lives on Federation",
    "note_aggregation": "a trainer-side staleness ledger: round bookkeeping lives on Federation",
    # Spelled in two pieces so a repo-wide grep for the deleted name stays empty.
    "advance" "_to": "a clock jump over queued events: time moves only in Simulator.step and run",
}


def test_retired_names_stay_retired():
    """No definition, attribute or name under ``src``, ``benchmarks`` or
    ``examples`` uses a name in :data:`RETIRED`."""
    uses = []
    for root in (SRC, ROOT / "benchmarks", ROOT / "examples"):
        for path, tree in _trees(root):
            for node in ast.walk(tree):
                name = (
                    getattr(node, "name", None)
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    else getattr(node, "attr", None) or getattr(node, "id", None)
                )
                if name in RETIRED:
                    uses.append(f"{path.relative_to(ROOT)}:{node.lineno}: {name}")
    assert not uses, "\n".join(uses)
