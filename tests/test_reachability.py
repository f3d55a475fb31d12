"""Dead-code gate: ``src`` may only shrink.

Two censuses over the source tree, by static analysis alone (stdlib ``ast``,
nothing is imported or run):

* *Modules* — a ``src`` module is reachable when the static import closure
  of ``repro.experiments.runner``, ``bench/*.py`` and ``examples/*.py``
  reaches it.  Imports inside functions count, and so does any string
  constant that names a module (``sweep.EXPERIMENT_MODULES``).
* *Names* — a function, class or method defined in ``src`` is used when its
  name occurs outside its own definition anywhere in ``src``, ``bench``,
  ``examples``, ``tests`` or ``benchmarks``: as a name, an attribute, an
  import, or an identifier inside a string constant.  Dunders, ``visit_*``
  methods and defs under a registering decorator are skipped.

``tests/data/unreachable.json`` lists what is left, each with a reason.  A
new entry fails the test, and so does a listed entry that has become
reachable: the list only shrinks.  Names that only tests use are printed
for review, not failed.
"""

import ast
import functools
import json
import re
import warnings
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
ALLOW_LIST = Path(__file__).with_name("data") / "unreachable.json"
IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


@functools.lru_cache(maxsize=None)
def _parse(path):
    with warnings.catch_warnings():  # invalid escapes in docstrings are not ours to judge
        warnings.simplefilter("ignore")
        return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _module_name(path):
    parts = list(path.relative_to(SRC).with_suffix("").parts)
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _imported(tree, modules):
    """Module names a file's imports and dotted string constants pull in
    (``src`` uses absolute imports only)."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            found.add(node.module)
            found.update(f"{node.module}.{alias.name}" for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
    # Importing a.b.c also runs a/__init__ and a/b/__init__.
    return {".".join(n.split(".")[:i]) for n in found if n in modules
            for i in range(1, n.count(".") + 2)} & set(modules)


def unreachable_modules():
    paths = {_module_name(p): p for p in SRC.rglob("*.py")}
    roots = sorted(ROOT.glob("bench/*.py")) + sorted(ROOT.glob("examples/*.py"))
    seen = {"repro", "repro.experiments", "repro.experiments.runner"}
    for path in roots:
        seen |= _imported(_parse(path), paths)
    todo = list(seen)
    while todo:
        for found in _imported(_parse(paths[todo.pop()]), paths) - seen:
            seen.add(found)
            todo.append(found)
    return set(paths) - seen


def _uses(tree):
    used = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used[node.id] += 1
        elif isinstance(node, ast.Attribute):
            used[node.attr] += 1
        elif isinstance(node, ast.alias):
            used.update(node.name.split(".") + ([node.asname] if node.asname else []))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            used.update(IDENT.findall(node.value))
    return used


def _registered(node):
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
        if "register" in name:
            return True
    return False


def _defs(tree, prefix):
    """(qualified name, short name, def node) for every def in a module."""
    stack = [(prefix, node) for node in tree.body]
    while stack:
        scope, node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            qualname = f"{scope}.{node.name}"
            yield qualname, node.name, node
            stack.extend((qualname, child) for child in node.body)
        elif isinstance(node, (ast.If, ast.Try)):
            stack.extend((scope, child) for child in ast.iter_child_nodes(node))


def unused_names():
    """(names nothing uses, names only tests use), as qualified names."""
    trees = {p: _parse(p) for d in ("src", "bench", "examples", "tests", "benchmarks")
             for p in (ROOT / d).rglob("*.py")}
    uses = {path: _uses(tree) for path, tree in trees.items()}
    in_tests = Counter()
    outside = Counter()
    for path, used in uses.items():
        test_file = path.relative_to(ROOT).parts[0] in ("tests", "benchmarks")
        (in_tests if test_file else outside).update(used)
    dead, test_only = set(), set()
    for path, tree in trees.items():
        if path.relative_to(ROOT).parts[0] != "src":
            continue
        for qualname, name, node in _defs(tree, _module_name(path)):
            if (name.startswith("__") and name.endswith("__")) or name.startswith("visit_") \
                    or _registered(node):
                continue
            # Uses in other files settle it without walking the def itself.
            if outside[name] > uses[path][name] or outside[name] > _uses(node)[name]:
                continue
            (test_only if in_tests[name] > 0 else dead).add(qualname)
    return dead, test_only


def test_src_only_shrinks():
    allowed = json.loads(ALLOW_LIST.read_text(encoding="utf-8"))
    dead, test_only = unused_names()
    print("\nnames used only by tests:", *sorted(test_only), sep="\n  ")
    found = {"modules": unreachable_modules(), "names": dead}
    for kind, current in found.items():
        listed = {entry["id"] for entry in allowed[kind]}
        assert all(entry["reason"] for entry in allowed[kind]), kind
        assert not current - listed, f"new unreachable {kind}: {sorted(current - listed)}"
        assert not listed - current, (
            f"allow-listed {kind} now reachable, drop them from {ALLOW_LIST.name}: "
            f"{sorted(listed - current)}")
