"""Rule 3 — wire boundary: transfers are priced only through the stack.

Since PR 3 every simulated transfer crosses a ``WireFormat`` and every
byte is priced off ``WireFormat.payload_nbytes`` (ROADMAP "Wire-format
contract"); since PR 6 unreliable links add the ``ReliableDelivery``
envelope on top.  The network cost model's raw timing primitives
(``p2p_time_between`` & co.) are the *bottom* of that stack: calling one
directly from feature code bypasses retries, link faults, payload-aware
pricing and the accounting invariant — the exact class of bug PRs 2/3
fixed.  Every legitimate caller is enumerated in the allowlist file
(``wire_allowlist.txt``), which doubles as the inventory of the
sanctioned pricing sites.

Id: ``wire-boundary``.
"""

from __future__ import annotations

import ast
import os
from typing import Iterator, List, Optional, Tuple

from repro.analysis.base import (
    ModuleInfo,
    QualnameVisitor,
    Rule,
    RUNTIME_SUBPACKAGES,
    Violation,
    call_name_chain,
)

#: NetworkModel's raw pricing primitives — the names whose call sites
#: must be allowlisted.
PRICING_PRIMITIVES = {
    "p2p_time",
    "p2p_time_between",
    "degraded_p2p_time",
    "sequential_sends_time",
    "ring_allreduce_time",
    "gossip_ring_time",
    "ring_time_for",
}

DEFAULT_ALLOWLIST = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "wire_allowlist.txt",
)


def load_allowlist(path: str) -> List[Tuple[str, str]]:
    """Parse ``module-rel-path::qualname-prefix`` entries (# comments)."""
    entries: List[Tuple[str, str]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "::" in line:
                rel, qual = line.split("::", 1)
            else:
                rel, qual = line, "*"
            entries.append((rel.strip(), qual.strip()))
    return entries


class WireBoundaryRule(Rule):
    name = "wire-boundary"
    ids = ("wire-boundary",)
    subpackages = RUNTIME_SUBPACKAGES

    def __init__(self, allowlist_path: Optional[str] = None) -> None:
        self.allowlist_path = allowlist_path or DEFAULT_ALLOWLIST
        self._entries: Optional[List[Tuple[str, str]]] = None

    @property
    def entries(self) -> List[Tuple[str, str]]:
        if self._entries is None:
            if os.path.exists(self.allowlist_path):
                self._entries = load_allowlist(self.allowlist_path)
            else:
                self._entries = []
        return self._entries

    # ------------------------------------------------------------------ #
    def _allowed(self, rel: str, qualname: str) -> bool:
        for entry_rel, entry_qual in self.entries:
            if entry_rel != rel:
                continue
            if entry_qual == "*":
                return True
            if qualname == entry_qual or qualname.startswith(entry_qual + "."):
                return True
        return False

    def check(self, module: ModuleInfo) -> Iterator[Violation]:
        visitor = _Visitor()
        visitor.visit(module.tree)
        for lineno, col, fn, qualname in visitor.sites:
            if self._allowed(module.rel, qualname):
                continue
            where = qualname or "<module>"
            yield Violation(
                module.path, lineno, col, "wire-boundary",
                f"direct call to network pricing primitive {fn}() in "
                f"{where} bypasses the WireFormat/ReliableDelivery/"
                "CommVolumeAccountant stack; route the transfer through "
                "the delivery envelope or add an allowlist entry "
                "(analysis/wire_allowlist.txt) with a reason",
            )


class _Visitor(QualnameVisitor):
    def __init__(self) -> None:
        super().__init__()
        self.sites: List[Tuple[int, int, str, str]] = []

    def visit_Call(self, node: ast.Call) -> None:
        chain = call_name_chain(node.func)
        # Only attribute calls (network.p2p_time...) count: a bare name
        # of the same spelling is a local helper, not the cost model.
        if len(chain) >= 2 and chain[-1] in PRICING_PRIMITIVES:
            self.sites.append(
                (node.lineno, node.col_offset, chain[-1], self.qualname)
            )
        self.generic_visit(node)
