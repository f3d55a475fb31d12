"""Rule base class and the registry of stable rule codes.

Every rule is one :class:`ast.NodeVisitor` subclass registered under a
stable ``NFxxx`` code.  Rules declare their own *scope* — fnmatch patterns
over the logical path (see :mod:`repro.lint.context`) — so invariants that
only hold for specific layers (hot-path modules, the clock seam, the live
runtime) are enforced exactly there and nowhere else.
"""

from __future__ import annotations

import ast
import re
from fnmatch import fnmatch
from typing import ClassVar, Dict, List, Optional, Sequence, Tuple, Type

from repro.lint.context import FileContext
from repro.lint.violations import Violation

_CODE_RE = re.compile(r"^NF\d{3}$")


class LintRule(ast.NodeVisitor):
    """Base class for one lint rule.

    Subclasses set the class attributes below and implement ``visit_*``
    methods that call :meth:`report`.  A fresh instance is created per file,
    so per-file state can live on ``self``.
    """

    #: Stable rule code (``NF001``…); never renumber a shipped rule.
    code: ClassVar[str] = ""
    #: Short kebab-case rule name.
    name: ClassVar[str] = ""
    #: One-line invariant statement shown in ``--list-rules`` and docs.
    rationale: ClassVar[str] = ""
    #: The historical bug/PR in this repo that the rule encodes.
    history: ClassVar[str] = ""
    #: fnmatch patterns over the logical path the rule applies to.
    paths: ClassVar[Tuple[str, ...]] = ("repro/*",)
    #: fnmatch patterns carved out of ``paths`` (checked first).
    exclude: ClassVar[Tuple[str, ...]] = ()

    def __init__(self, ctx: FileContext) -> None:
        self.ctx = ctx
        self.violations: List[Violation] = []

    @classmethod
    def applies_to(cls, logical: str) -> bool:
        if any(fnmatch(logical, pattern) for pattern in cls.exclude):
            return False
        return any(fnmatch(logical, pattern) for pattern in cls.paths)

    def run(self) -> List[Violation]:
        self.visit(self.ctx.tree)
        return self.violations

    def report(self, node: ast.AST, message: str) -> None:
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        self.violations.append(
            Violation(
                code=self.code,
                rule=self.name,
                path=self.ctx.path,
                line=line,
                col=col,
                message=message,
                source_line=self.ctx.line_text(line),
            )
        )


_REGISTRY: Dict[str, Type[LintRule]] = {}


def register(rule_cls: Type[LintRule]) -> Type[LintRule]:
    """Class decorator: add a rule to the registry under its code."""
    if not _CODE_RE.match(rule_cls.code):
        raise ValueError(f"{rule_cls.__name__}: invalid rule code {rule_cls.code!r}")
    if not rule_cls.name or not rule_cls.rationale:
        raise ValueError(f"{rule_cls.__name__}: rules must declare name and rationale")
    existing = _REGISTRY.get(rule_cls.code)
    if existing is not None and existing is not rule_cls:
        raise ValueError(
            f"duplicate rule code {rule_cls.code}: "
            f"{existing.__name__} vs {rule_cls.__name__}"
        )
    _REGISTRY[rule_cls.code] = rule_cls
    return rule_cls


def all_rules() -> List[Type[LintRule]]:
    """Every registered rule, ordered by code."""
    _ensure_loaded()
    return [_REGISTRY[code] for code in sorted(_REGISTRY)]


def _expand_codes(codes: Sequence[str], known: Sequence[str]) -> List[str]:
    """Expand exact codes and fnmatch globs (``NF1*``) against the registry.

    Raises :class:`KeyError` for an unknown exact code or a glob that matches
    nothing — a pattern that silently selects zero rules is a typo, not a
    request.
    """
    out: List[str] = []
    for code in codes:
        if any(ch in code for ch in "*?["):
            matched = [k for k in known if fnmatch(k, code)]
            if not matched:
                raise KeyError(
                    f"rule pattern {code!r} matches nothing "
                    f"(known: {', '.join(sorted(known))})"
                )
            out.extend(matched)
        elif code in known:
            out.append(code)
        else:
            raise KeyError(
                f"unknown rule code {code!r} (known: {', '.join(sorted(known))})"
            )
    return out


def select_rules(
    select: Optional[Sequence[str]] = None,
    ignore: Optional[Sequence[str]] = None,
) -> List[Type[LintRule]]:
    """Filter the registry by code lists or globs (``--select`` / ``--ignore``)."""
    _ensure_loaded()
    rules = all_rules()
    known = [rule.code for rule in rules]
    if select:
        wanted = set(_expand_codes(select, known))
        rules = [rule for rule in rules if rule.code in wanted]
    if ignore:
        unwanted = set(_expand_codes(ignore, known))
        rules = [rule for rule in rules if rule.code not in unwanted]
    return rules


_loaded = False


def _ensure_loaded() -> None:
    global _loaded
    if not _loaded:
        # Import the bundled rule modules exactly once; their ``@register``
        # decorators populate the registry as a side effect.
        from repro.lint import rules as _rules  # noqa: F401
        from repro.lint.flow import rules as _flow_rules  # noqa: F401

        _loaded = True
