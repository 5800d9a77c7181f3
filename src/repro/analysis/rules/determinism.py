"""Rule 1 — determinism: no hidden entropy inside a trajectory.

The repo's headline contract is fixed-seed bitwise determinism across
serial/process/fleet executors (ROADMAP "Execution backends").  Any
read of ambient entropy — the numpy *global* RNG, the stdlib ``random``
module, the wall clock, or the OS-entropy seeding of an argument-less
``default_rng()`` — silently breaks it for every caller downstream, so
none of them may appear in runtime code.  Explicit generator *plumbing*
(``np.random.Generator`` parameters, ``default_rng(seed)``,
``SeedSequence([...])``) is exactly how the contract is met and is never
flagged.

Ids
---
``det-global-rng``
    Call into the numpy global RNG (``np.random.rand`` & co.) or the
    stdlib ``random`` module.
``det-wallclock``
    Wall-clock read: ``time.time``/``perf_counter``/``monotonic``,
    ``datetime.now``/``utcnow``/``today``.
``det-unseeded-rng``
    ``default_rng()`` / ``SeedSequence()`` with no arguments — seeded
    from OS entropy, different every process.
``det-set-order``
    Order-sensitive numeric reduction (``sum`` and friends) over, or
    iteration of, a syntactic ``set`` — element order varies with
    ``PYTHONHASHSEED``.  Wrap in ``sorted(...)`` instead.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Set

from repro.analysis.base import (
    ModuleInfo,
    Rule,
    RUNTIME_SUBPACKAGES,
    Violation,
    call_name_chain,
)

# np.random members that *construct explicit generators* rather than
# drawing from the hidden global stream.
ALLOWED_NP_RANDOM = {
    "default_rng",
    "SeedSequence",
    "Generator",
    "BitGenerator",
    "PCG64",
    "PCG64DXSM",
    "Philox",
    "MT19937",
    "SFC64",
}

WALLCLOCK_TIME_FNS = {
    "time",
    "time_ns",
    "perf_counter",
    "perf_counter_ns",
    "monotonic",
    "monotonic_ns",
    "process_time",
    "process_time_ns",
}
WALLCLOCK_DATETIME_FNS = {"now", "utcnow", "today"}

# Order-sensitive numeric reductions (float addition/multiplication is
# not associative; min/max are order-free and deliberately not listed).
ORDER_SENSITIVE_REDUCTIONS = {"sum", "prod", "cumsum", "cumprod", "fsum", "reduce"}


class DeterminismRule(Rule):
    name = "determinism"
    ids = (
        "det-global-rng",
        "det-wallclock",
        "det-unseeded-rng",
        "det-set-order",
    )
    subpackages = RUNTIME_SUBPACKAGES

    # ------------------------------------------------------------------ #
    def check(self, module: ModuleInfo) -> Iterator[Violation]:
        imports = _ImportTracker()
        imports.visit(module.tree)
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                yield from self._check_call(module, node, imports)
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                if _is_syntactic_set(node.iter):
                    yield Violation(
                        module.path, node.lineno, node.col_offset,
                        "det-set-order",
                        "iteration over a set is PYTHONHASHSEED-ordered; "
                        "iterate sorted(...) for a reproducible order",
                    )

    # ------------------------------------------------------------------ #
    def _check_call(
        self, module: ModuleInfo, node: ast.Call, imports: "_ImportTracker"
    ) -> Iterator[Violation]:
        chain = call_name_chain(node.func)
        if not chain:
            return

        # --- global numpy RNG / stdlib random ------------------------- #
        if len(chain) >= 3 and chain[0] in imports.numpy_aliases and chain[1] == "random":
            fn = chain[2]
            if fn not in ALLOWED_NP_RANDOM:
                yield Violation(
                    module.path, node.lineno, node.col_offset,
                    "det-global-rng",
                    f"np.random.{fn} draws from the hidden global RNG; "
                    "thread an explicit np.random.Generator instead",
                )
            elif fn in {"default_rng", "SeedSequence"} and not node.args and not node.keywords:
                yield Violation(
                    module.path, node.lineno, node.col_offset,
                    "det-unseeded-rng",
                    f"np.random.{fn}() with no seed draws OS entropy; "
                    "derive the seed from the caller's seed/SeedSequence",
                )
            return
        if len(chain) >= 2 and chain[0] in imports.np_random_module_aliases:
            fn = chain[1]
            if fn not in ALLOWED_NP_RANDOM:
                yield Violation(
                    module.path, node.lineno, node.col_offset,
                    "det-global-rng",
                    f"numpy.random.{fn} draws from the hidden global RNG; "
                    "thread an explicit np.random.Generator instead",
                )
            elif fn in {"default_rng", "SeedSequence"} and not node.args and not node.keywords:
                yield Violation(
                    module.path, node.lineno, node.col_offset,
                    "det-unseeded-rng",
                    f"numpy.random.{fn}() with no seed draws OS entropy; "
                    "derive the seed from the caller's seed/SeedSequence",
                )
            return
        if len(chain) >= 2 and chain[0] in imports.stdlib_random_aliases:
            yield Violation(
                module.path, node.lineno, node.col_offset,
                "det-global-rng",
                f"stdlib random.{chain[1]} is globally seeded state; "
                "use an explicit np.random.Generator",
            )
            return
        if len(chain) == 1 and chain[0] in imports.stdlib_random_names:
            yield Violation(
                module.path, node.lineno, node.col_offset,
                "det-global-rng",
                f"{chain[0]} (from stdlib random) is globally seeded state; "
                "use an explicit np.random.Generator",
            )
            return
        if len(chain) == 1 and chain[0] in imports.np_random_names:
            fn = chain[0]
            if fn in {"default_rng", "SeedSequence"}:
                if not node.args and not node.keywords:
                    yield Violation(
                        module.path, node.lineno, node.col_offset,
                        "det-unseeded-rng",
                        f"{fn}() with no seed draws OS entropy; "
                        "derive the seed from the caller's seed/SeedSequence",
                    )
            elif fn not in ALLOWED_NP_RANDOM:
                yield Violation(
                    module.path, node.lineno, node.col_offset,
                    "det-global-rng",
                    f"{fn} (from numpy.random) draws from the hidden global "
                    "RNG; thread an explicit np.random.Generator instead",
                )
            return

        # --- wall clock ----------------------------------------------- #
        if len(chain) >= 2 and chain[0] in imports.time_aliases:
            if chain[1] in WALLCLOCK_TIME_FNS:
                yield Violation(
                    module.path, node.lineno, node.col_offset,
                    "det-wallclock",
                    f"time.{chain[1]} reads the wall clock; simulated time "
                    "comes from the engine (sim.now), never the host",
                )
                return
        if len(chain) == 1 and chain[0] in imports.time_names:
            yield Violation(
                module.path, node.lineno, node.col_offset,
                "det-wallclock",
                f"{chain[0]} (from time) reads the wall clock; simulated "
                "time comes from the engine (sim.now), never the host",
            )
            return
        if chain[-1] in WALLCLOCK_DATETIME_FNS:
            root = chain[0]
            if root in imports.datetime_aliases or root in imports.datetime_names:
                yield Violation(
                    module.path, node.lineno, node.col_offset,
                    "det-wallclock",
                    f"{'.'.join(chain)} reads the wall clock; simulated "
                    "time comes from the engine (sim.now), never the host",
                )
                return

        # --- reductions over sets ------------------------------------- #
        tail = chain[-1]
        if tail in ORDER_SENSITIVE_REDUCTIONS and node.args:
            if _is_syntactic_set(node.args[0]):
                yield Violation(
                    module.path, node.lineno, node.col_offset,
                    "det-set-order",
                    f"{tail}() over a set accumulates in PYTHONHASHSEED "
                    "order (float reduction is order-sensitive); reduce "
                    "over sorted(...) instead",
                )


def _is_syntactic_set(node: ast.AST) -> bool:
    """Whether an expression is evidently a ``set`` (no type inference)."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        chain = call_name_chain(node.func)
        if chain == ["set"] or chain == ["frozenset"]:
            return True
        if chain and chain[-1] in {"intersection", "union", "difference",
                                   "symmetric_difference"}:
            return True
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitAnd, ast.BitOr, ast.BitXor, ast.Sub)
    ):
        # `a & b` over sets — only evident when one side is a set display.
        return _is_syntactic_set(node.left) or _is_syntactic_set(node.right)
    return False


class _ImportTracker(ast.NodeVisitor):
    """Collects the local names numpy/random/time/datetime are bound to."""

    def __init__(self) -> None:
        self.numpy_aliases: Set[str] = set()
        self.np_random_module_aliases: Set[str] = set()
        self.stdlib_random_aliases: Set[str] = set()
        self.stdlib_random_names: Set[str] = set()
        self.np_random_names: Set[str] = set()
        self.time_aliases: Set[str] = set()
        self.time_names: Set[str] = set()
        self.datetime_aliases: Set[str] = set()
        self.datetime_names: Set[str] = set()

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if alias.name == "numpy.random" and alias.asname:
                self.np_random_module_aliases.add(alias.asname)
            elif alias.name == "numpy" or alias.name.startswith("numpy."):
                self.numpy_aliases.add(bound)
            elif alias.name == "random":
                self.stdlib_random_aliases.add(bound)
            elif alias.name == "time":
                self.time_aliases.add(bound)
            elif alias.name == "datetime":
                self.datetime_aliases.add(bound)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        mod = node.module or ""
        names: List[str] = [a.asname or a.name for a in node.names]
        if mod == "random":
            self.stdlib_random_names.update(names)
        elif mod in {"numpy.random", "numpy.random.mtrand"}:
            self.np_random_names.update(names)
        elif mod == "numpy":
            for alias in node.names:
                if alias.name == "random":
                    self.np_random_module_aliases.add(alias.asname or "random")
        elif mod == "time":
            for alias in node.names:
                if alias.name in WALLCLOCK_TIME_FNS:
                    self.time_names.add(alias.asname or alias.name)
        elif mod == "datetime":
            for alias in node.names:
                if alias.name in {"datetime", "date"}:
                    self.datetime_names.add(alias.asname or alias.name)
