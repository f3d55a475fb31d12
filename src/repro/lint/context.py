"""Per-file lint context: parsed AST, source lines, and logical path.

The *logical path* is the path a rule's scope patterns match against.  Files
under a ``repro`` package directory are canonicalized to start at ``repro/``
(``src/repro/core/access.py`` → ``repro/core/access.py``) so the same rule
scopes apply no matter where the tree is checked out or how the CLI was
invoked; anything else (examples, tests, fixtures) keeps its relative path.
"""

from __future__ import annotations

import ast
from pathlib import PurePosixPath
from typing import List


def logical_path(path: str) -> str:
    """Canonicalize ``path`` for rule scoping (posix separators)."""
    posix = path.replace("\\", "/")
    parts = PurePosixPath(posix).parts
    # Anchor at the *last* `repro` package segment so nested checkouts and
    # fixture paths like `tests/fixtures/repro/core/x.py` scope like source.
    for idx in range(len(parts) - 1, -1, -1):
        if parts[idx] == "repro":
            return "/".join(parts[idx:])
    return posix.lstrip("./")


class FileContext:
    """Everything a rule needs to check one file."""

    def __init__(self, source: str, path: str) -> None:
        self.source = source
        self.path = path
        self.logical = logical_path(path)
        self.lines: List[str] = source.splitlines()
        self.tree: ast.AST = ast.parse(source, filename=path)

    def line_text(self, lineno: int) -> str:
        """1-indexed source line (empty string when out of range)."""
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1]
        return ""

