"""Hot-path rules: keep the per-packet path allocation-light and handle-free.

History: PR 5's overhaul got its ~2.3× by making exactly these changes —
``slots=True`` on per-packet dataclasses, replacing ``dataclasses.replace``
with direct construction, and a no-handle ``schedule_fast`` for events that
are never cancelled.  These rules stop the wins from eroding one innocent
edit at a time.
"""

from __future__ import annotations

import ast
from typing import Optional, Set

from repro.lint.context import FileContext
from repro.lint.registry import LintRule, register

#: Modules whose dataclass instances are created or mutated per packet.
_SLOTS_MODULES = (
    "repro/core/header.py",
    "repro/core/feedback.py",
    "repro/simulator/packet.py",
    "repro/simulator/queues.py",
)

#: Modules on the per-packet path, where a hidden O(fields) copy or a
#: recursive deepcopy is a measurable regression.  Setup-time modules
#: (params, deployment, domain, topology) are deliberately not listed —
#: dataclasses.replace is fine when it runs once per scenario.
_HOT_PATH_MODULES = (
    "repro/core/header.py",
    "repro/core/feedback.py",
    "repro/core/access.py",
    "repro/core/bottleneck.py",
    "repro/core/endhost.py",
    "repro/core/multibottleneck.py",
    "repro/core/quota.py",
    "repro/core/ratelimiter.py",
    "repro/core/aslevel.py",
    "repro/crypto/mac.py",
    "repro/runtime/codec.py",
    "repro/runtime/serve.py",
    "repro/simulator/engine.py",
    "repro/simulator/link.py",
    "repro/simulator/node.py",
    "repro/simulator/packet.py",
    "repro/simulator/queues.py",
    "repro/simulator/fairqueue.py",
    "repro/transport/*",
)


def _dataclass_decorator(node: ast.ClassDef) -> Optional[ast.expr]:
    """Return the ``@dataclass`` decorator node, or ``None``."""
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = target.attr if isinstance(target, ast.Attribute) else (
            target.id if isinstance(target, ast.Name) else None
        )
        if name == "dataclass":
            return dec
    return None


@register
class SlotsDataclassRule(LintRule):
    """NF005: per-packet dataclasses must declare ``slots=True``."""

    code = "NF005"
    name = "hot-path-dataclass-slots"
    rationale = (
        "Instances of these dataclasses exist per packet; without slots each "
        "one carries a dict and every field access is a dict lookup — the "
        "exact overhead PR 5 measured and removed."
    )
    history = "PR 5 (slots=True on Packet/Feedback/NetFenceHeader)"
    paths = _SLOTS_MODULES

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        dec = _dataclass_decorator(node)
        if dec is not None:
            has_slots = isinstance(dec, ast.Call) and any(
                kw.arg == "slots"
                and isinstance(kw.value, ast.Constant)
                and kw.value.value is True
                for kw in dec.keywords
            )
            if not has_slots:
                self.report(
                    node,
                    f"dataclass {node.name} in a per-packet module must "
                    "declare @dataclass(slots=True)",
                )
        self.generic_visit(node)


@register
class NoHotPathCopyRule(LintRule):
    """NF006: no ``dataclasses.replace`` / ``copy.deepcopy`` on the packet path."""

    code = "NF006"
    name = "no-hot-path-copies"
    rationale = (
        "dataclasses.replace re-inspects fields on every call and deepcopy "
        "walks the object graph; both were measured hot-spots. Construct the "
        "new value directly (see Feedback.copy) or alias immutable values."
    )
    history = "PR 5 (Feedback.copy direct construction; endhost aliasing)"
    paths = _HOT_PATH_MODULES

    def __init__(self, ctx: FileContext) -> None:
        super().__init__(ctx)
        self._bad_names: Set[str] = set()

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "dataclasses":
            for alias in node.names:
                if alias.name == "replace":
                    self._bad_names.add(alias.asname or alias.name)
        elif node.module == "copy":
            for alias in node.names:
                if alias.name == "deepcopy":
                    self._bad_names.add(alias.asname or alias.name)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        qualified = (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and (
                (func.value.id == "dataclasses" and func.attr == "replace")
                or (func.value.id == "copy" and func.attr == "deepcopy")
            )
        )
        bare = isinstance(func, ast.Name) and func.id in self._bad_names
        if qualified or bare:
            self.report(
                node,
                "dataclasses.replace/copy.deepcopy on a hot-path module; "
                "construct the value directly instead",
            )
        self.generic_visit(node)


@register
class ScheduleFastHandleRule(LintRule):
    """NF007: ``schedule_fast`` results must never be kept (or cancelled)."""

    code = "NF007"
    name = "schedule-fast-no-handle"
    rationale = (
        "schedule_fast allocates no Event and returns None by contract; "
        "storing or returning its result means the caller intends to cancel "
        "it later, which silently never works. Use schedule() when a handle "
        "is needed."
    )
    history = "PR 5 (no-handle fast path for link transmit/deliver events)"
    paths = ("repro/*",)

    @staticmethod
    def _is_schedule_fast_call(node: Optional[ast.AST]) -> bool:
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "schedule_fast"
        )

    def _check_value(self, node: ast.AST, value: Optional[ast.expr]) -> None:
        if self._is_schedule_fast_call(value):
            self.report(
                node,
                "schedule_fast returns no handle (None); do not store or "
                "return its result — use schedule() if cancellation is needed",
            )

    def visit_Assign(self, node: ast.Assign) -> None:
        self._check_value(node, node.value)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self._check_value(node, node.value)
        self.generic_visit(node)

    def visit_NamedExpr(self, node: ast.NamedExpr) -> None:
        self._check_value(node, node.value)
        self.generic_visit(node)

    def visit_Return(self, node: ast.Return) -> None:
        self._check_value(node, node.value)
        self.generic_visit(node)
