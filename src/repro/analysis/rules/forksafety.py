"""Rule 4 — fork safety: worker-visible state must survive the fork.

``ForkedDevicePool`` (PR 2) forks workers that inherit full device
replicas and then round-trips state through shared memory and pickled
pipe messages (ROADMAP "Execution backends").  Three things break that
contract silently:

* **Mutable module/class state** in code that runs inside a burst —
  a cache or registry mutated in a worker diverges from the parent's
  copy (fork snapshots at pool construction), so serial and process
  executors stop being bitwise-equal.
* **Lambdas / nested-function closures stored on shipped objects** —
  the pipe messages (tasks, results, exported train state) are pickled,
  and closures are not picklable.
* **Open handles stored on shipped objects** — a file descriptor
  position is shared across the fork; two processes pulling one handle
  corrupt both streams.

Ids: ``fork-module-state``, ``fork-lambda``, ``fork-nested-def``,
``fork-open-handle``.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Set

from repro.analysis.base import ModuleInfo, Rule, Violation, call_name_chain

#: Module prefixes whose classes/state are visible inside a forked
#: worker's burst: the device and everything its training loop touches,
#: plus the shipping layer itself.
FORK_SHIPPED_PREFIXES = (
    "repro/parallel/",
    "repro/sim/device.py",
    "repro/sim/failures.py",
    # The fleet burst runner mutates the same device state the process
    # pool ships (arenas, optimizers, cyclers, RNG streams); its module
    # state must stay fork-safe or serial/process/fleet parity breaks.
    "repro/sim/fleet.py",
    # Virtual populations hand executor backends the same device state
    # (arena blocks, optimizers, cyclers) the fleet runner batches;
    # keeping the module fork-safe keeps that door open for pools.
    "repro/sim/population.py",
    "repro/optim/",
    "repro/nn/",
    "repro/autograd/",
    "repro/data/loader.py",
)

MUTABLE_FACTORIES = {"list", "dict", "set", "defaultdict", "OrderedDict", "deque"}


class ForkSafetyRule(Rule):
    name = "fork-safety"
    ids = (
        "fork-module-state",
        "fork-lambda",
        "fork-nested-def",
        "fork-open-handle",
    )
    subpackages = None  # scoped by module path prefix instead

    def applies_to(self, module: ModuleInfo) -> bool:
        return any(module.rel.startswith(p) for p in FORK_SHIPPED_PREFIXES)

    def check(self, module: ModuleInfo) -> Iterator[Violation]:
        # Module- and class-level mutable state.
        yield from self._check_body(module, module.tree.body, "module")
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef):
                yield from self._check_body(module, node.body, f"class {node.name}")
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_function(module, node)

    # ------------------------------------------------------------------ #
    def _check_body(self, module: ModuleInfo, body, where: str) -> Iterator[Violation]:
        for stmt in body:
            if isinstance(stmt, ast.Assign):
                targets, value = stmt.targets, stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets, value = [stmt.target], stmt.value
            else:
                continue
            names = [t.id for t in targets if isinstance(t, ast.Name)]
            if not names or all(n.startswith("__") and n.endswith("__") for n in names):
                continue  # __all__ & co: written once, read-only
            if _is_mutable_display(value):
                yield Violation(
                    module.path, stmt.lineno, stmt.col_offset,
                    "fork-module-state",
                    f"mutable {where}-level state {names[0]!r} diverges "
                    "between parent and forked workers (fork snapshots at "
                    "pool construction); make it immutable, per-instance, "
                    "or populate it only at import time",
                )
            elif _contains_open(value):
                yield Violation(
                    module.path, stmt.lineno, stmt.col_offset,
                    "fork-open-handle",
                    f"{where}-level open() handle {names[0]!r} shares its "
                    "file position across the fork; open lazily per use",
                )

    # ------------------------------------------------------------------ #
    def _check_function(self, module, func) -> Iterator[Violation]:
        local_defs: Set[str] = {
            stmt.name
            for stmt in ast.walk(func)
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
            and stmt is not func
        }
        for node in ast.walk(func):
            if not isinstance(node, ast.Assign):
                continue
            attr_targets = [
                t for t in node.targets
                if isinstance(t, ast.Attribute)
                and isinstance(t.value, ast.Name)
                and t.value.id == "self"
            ]
            if not attr_targets:
                continue
            target = attr_targets[0]
            if isinstance(node.value, ast.Lambda):
                yield Violation(
                    module.path, node.lineno, node.col_offset,
                    "fork-lambda",
                    f"self.{target.attr} holds a lambda; it cannot cross "
                    "the pickled pipe boundary to a forked worker — use a "
                    "module-level function or a bound method",
                )
            elif isinstance(node.value, ast.Name) and node.value.id in local_defs:
                yield Violation(
                    module.path, node.lineno, node.col_offset,
                    "fork-nested-def",
                    f"self.{target.attr} holds the nested function "
                    f"{node.value.id!r}; closures cannot cross the pickled "
                    "pipe boundary to a forked worker — hoist it to module "
                    "level",
                )
            elif _contains_open(node.value):
                yield Violation(
                    module.path, node.lineno, node.col_offset,
                    "fork-open-handle",
                    f"self.{target.attr} stores an open() handle; its file "
                    "position is shared across the fork — open lazily per "
                    "use",
                )


def _is_mutable_display(node: ast.AST) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                         ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        chain = call_name_chain(node.func)
        if chain and chain[-1] in MUTABLE_FACTORIES:
            return True
    return False


def _contains_open(node: ast.AST) -> bool:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Call) and call_name_chain(sub.func) == ["open"]:
            return True
    return False
