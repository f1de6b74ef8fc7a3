#!/usr/bin/env python
"""List the functions and methods in src/ that nothing but the tests reaches.

A census over the package source: every function or method whose name is
defined exactly once under ``src/`` and appears nowhere else there (not in
a call, an attribute lookup, a string or a comment), nor in README.md,
``docs/``, ``examples/``, ``benchmarks/``, ``tools/`` or ``perfbench/``, is
surface that only ``tests/`` can call. Each one must either go or be named
in :data:`KEEP` below with its reason to stay.

The census matches names, so a method that shares its name with any other
definition or mention is never flagged: the list is a lower bound.
Dunder methods are skipped (the interpreter calls them).

The check also fails when a :data:`KEEP` entry is no longer flagged (it
gained a caller or was deleted), so the list stays true.

Usage (it checks the tree it sits in, one level above ``tools/``)::

    python tools/check_surface.py
"""

from __future__ import annotations

import ast
import re
import sys
from collections import Counter
from pathlib import Path

#: Names kept on purpose, by qualified name, each with its reason to stay.
KEEP: dict[str, str] = {
    "SimulationController.set_speed": (
        "the GUI's speed dial (paper §3); the controller has one method per "
        "GUI control, and the dial is the one that validates its input"
    ),
}

#: Where a mention outside src/ counts as a caller.
OTHER_DIRS = ("docs", "examples", "benchmarks", "tools", "perfbench")

WORD_RE = re.compile(r"\w+")


def definitions(src: Path) -> list[tuple[str, str, Path, int]]:
    """(name, qualified name, file, line) of every function and method."""
    found = []

    def walk(node: ast.AST, prefix: str, path: Path) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found.append((child.name, prefix + child.name, path, child.lineno))
            elif isinstance(child, ast.ClassDef):
                walk(child, f"{prefix}{child.name}.", path)

    for path in sorted(src.rglob("*.py")):
        walk(ast.parse(path.read_text(encoding="utf-8")), "", path)
    return found


def other_text(root: Path) -> str:
    """Everything outside src/ whose mention of a name counts as a caller."""
    paths = [root / "README.md"]
    for name in OTHER_DIRS:
        for suffix in ("*.py", "*.md"):
            paths += sorted((root / name).rglob(suffix))
    this = Path(__file__).resolve()
    return "\n".join(
        p.read_text(encoding="utf-8")
        for p in paths
        if p.is_file() and p.resolve() != this
    )


def census(root: Path) -> list[tuple[str, Path, int]]:
    """(qualified name, file, line) of each name only tests/ can reach."""
    src = root / "src"
    defs = definitions(src)
    in_src = Counter(
        WORD_RE.findall(
            "\n".join(p.read_text(encoding="utf-8") for p in src.rglob("*.py"))
        )
    )
    outside = set(WORD_RE.findall(other_text(root)))
    defined = Counter(name for name, *_ in defs)
    return [
        (qualname, path.relative_to(root), line)
        for name, qualname, path, line in defs
        if defined[name] == 1
        and not (name.startswith("__") and name.endswith("__"))
        and in_src[name] == 1
        and name not in outside
    ]


def main() -> int:
    flagged = census(Path(__file__).resolve().parents[1])
    names = {qualname for qualname, _, _ in flagged}
    errors = [
        f"{path}:{line}: {qualname} is reached only by tests; delete it "
        "or add it to KEEP with its reason"
        for qualname, path, line in flagged
        if qualname not in KEEP
    ]
    errors += [
        f"KEEP names {qualname}, which the census no longer flags"
        for qualname in KEEP
        if qualname not in names
    ]
    if errors:
        print(f"FAIL: {len(errors)} surface problem(s):")
        for error in errors:
            print(f"  - {error}")
        return 1
    print(f"OK: no test-only surface in src/ beyond {len(KEEP)} kept name(s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
