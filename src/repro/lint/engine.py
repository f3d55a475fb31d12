"""Lint engine: walk files, run every in-scope rule, apply suppressions."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple, Type

from repro.lint.baseline import Baseline
from repro.lint.context import FileContext, logical_path
from repro.lint.registry import LintRule, select_rules
from repro.lint.suppress import SuppressionIndex
from repro.lint.violations import Violation

if TYPE_CHECKING:  # pragma: no cover
    from repro.lint.flow.callgraph import CallGraph

#: Directories never descended into when expanding path arguments.
_SKIP_DIRS = {"__pycache__", ".git"}


@dataclass
class LintResult:
    """Outcome of one lint run."""

    #: Violations that gate the run (not suppressed, not baselined).
    violations: List[Violation] = field(default_factory=list)
    #: Violations waived by inline ``# nf: disable=`` comments.
    suppressed: List[Violation] = field(default_factory=list)
    #: Violations absorbed by the committed baseline.
    baselined: List[Violation] = field(default_factory=list)
    #: Files parsed and checked.
    files_checked: int = 0
    #: ``(path, error)`` pairs for files that failed to parse.
    parse_errors: List[Tuple[str, str]] = field(default_factory=list)
    #: Call graph built by the flow phase (``flow=True`` runs only).
    flow_graph: Optional["CallGraph"] = None

    @property
    def ok(self) -> bool:
        return not self.violations and not self.parse_errors


def iter_python_files(paths: Sequence[str]) -> List[Path]:
    """Expand files/directories into a sorted, de-duplicated .py file list."""
    seen = set()
    out: List[Path] = []
    for raw in paths:
        root = Path(raw)
        if root.is_dir():
            candidates = sorted(
                p for p in root.rglob("*.py")
                if not (set(p.parts) & _SKIP_DIRS)
            )
        else:
            candidates = [root]
        for path in candidates:
            key = str(path)
            if key not in seen:
                seen.add(key)
                out.append(path)
    return out


def _rules_for(
    logical: str, rules: Sequence[Type[LintRule]]
) -> List[Type[LintRule]]:
    return [rule for rule in rules if rule.applies_to(logical)]


def check_source(
    source: str,
    path: str,
    rules: Sequence[Type[LintRule]],
) -> Tuple[List[Violation], List[Violation]]:
    """Lint one source blob; returns ``(active, suppressed)`` violations.

    Raises :class:`SyntaxError` when the source does not parse.
    """
    return check_context(FileContext(source, path), rules)


def check_context(
    ctx: FileContext,
    rules: Sequence[Type[LintRule]],
) -> Tuple[List[Violation], List[Violation]]:
    """Run the per-file rules over an already-parsed :class:`FileContext`."""
    suppressions = SuppressionIndex(ctx.lines)
    active: List[Violation] = []
    suppressed: List[Violation] = []
    for rule_cls in _rules_for(ctx.logical, rules):
        for violation in rule_cls(ctx).run():
            if suppressions.is_suppressed(violation.code, violation.line):
                suppressed.append(violation)
            else:
                active.append(violation)
    key = (lambda v: (v.line, v.col, v.code))
    active.sort(key=key)
    suppressed.sort(key=key)
    return active, suppressed


def lint_source(
    source: str,
    path: str = "<string>",
    select: Optional[Sequence[str]] = None,
    ignore: Optional[Sequence[str]] = None,
) -> List[Violation]:
    """Convenience wrapper used heavily by the fixture tests."""
    active, _ = check_source(source, path, select_rules(select, ignore))
    return active


def lint_paths(
    paths: Sequence[str],
    select: Optional[Sequence[str]] = None,
    ignore: Optional[Sequence[str]] = None,
    baseline: Optional[Baseline] = None,
    flow: bool = False,
) -> LintResult:
    """Lint every Python file under ``paths``.

    With ``flow=True`` the whole-program phase also runs: a call graph is
    built over every file that parsed and the selected :class:`FlowRule`\\ s
    (NF101+) analyze it.  Flow findings go through the same inline
    suppression and baseline machinery as per-file findings.
    """
    rules = select_rules(select, ignore)
    result = LintResult()
    collected: List[Violation] = []
    contexts: List[FileContext] = []
    for path in iter_python_files(paths):
        try:
            source = path.read_text(encoding="utf-8")
        except OSError as exc:
            result.parse_errors.append((str(path), f"unreadable: {exc}"))
            continue
        try:
            ctx = FileContext(source, str(path))
        except SyntaxError as exc:
            result.parse_errors.append((str(path), f"syntax error: {exc}"))
            continue
        contexts.append(ctx)
        active, suppressed = check_context(ctx, rules)
        result.files_checked += 1
        collected.extend(active)
        result.suppressed.extend(suppressed)
    if flow:
        from repro.lint.flow import build_callgraph, flow_rules, run_flow_rules

        result.flow_graph = build_callgraph(contexts)
        suppressions = {
            ctx.path: SuppressionIndex(ctx.lines) for ctx in contexts
        }
        for violation in run_flow_rules(result.flow_graph, contexts,
                                        flow_rules(rules)):
            index = suppressions.get(violation.path)
            if index is not None and index.is_suppressed(
                    violation.code, violation.line):
                result.suppressed.append(violation)
            else:
                collected.append(violation)
    if baseline is not None:
        result.violations, result.baselined = baseline.partition(collected)
    else:
        result.violations = collected
    return result


__all__ = [
    "Baseline",
    "LintResult",
    "Violation",
    "check_context",
    "check_source",
    "iter_python_files",
    "lint_paths",
    "lint_source",
    "logical_path",
]
