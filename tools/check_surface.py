#!/usr/bin/env python
"""List the functions, methods and classes in src/ that nothing but the tests reaches.

A census over the package source: every function or method, and every
undecorated class, whose name is defined exactly once under ``src/`` and is
never referenced by code there, nor by code in README.md, ``docs/``,
``examples/``, ``benchmarks/``, ``tools/`` or ``perfbench/``, is surface
that only ``tests/`` can call. Each one must either go or be named in
:data:`KEEP` below with its reason to stay.

A reference is code, not a word. In Python source it is a name or an
attribute (``foo``, ``x.foo``), a keyword argument (``f(foo=1)``), or a
string constant that is a whole identifier (``getattr(x, "foo")``), and
doctest lines inside docstrings count as Python source. In Markdown it is
a doctest, or the code of a fenced block: parsed the same way when it is
Python or a doctest, word by word otherwise. Docstrings, comments,
``__all__`` entries and import statements (re-exports) are not references.
A decorated class is reached through its decorator (a registry), so only
undecorated classes are censused.

The census matches names, so a definition whose name any other code uses
is never flagged: the list is a lower bound. Dunder methods are skipped
(the interpreter calls them).

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
    "SimulationController.pause": (
        "the GUI's Play/Pause toggle (paper §3); the controller has one "
        "method per GUI control"
    ),
    "SimulationController.set_speed": (
        "the GUI's speed dial (paper §3); the controller has one method per "
        "GUI control, and the dial is the one that validates its input"
    ),
    "EventLog": (
        "the GUI's event log (paper §3: a trace of every event of the "
        "simulation), attached as an observer"
    ),
    "md1_mean_wait": (
        "a reference formula: the queueing-validation tests compare the "
        "engine's M/D/1 waits against it"
    ),
    "mm1_mean_wait": (
        "a reference formula: the queueing-validation tests compare the "
        "engine's M/M/1 waits against it"
    ),
}

#: Where code outside src/ counts as a caller.
OTHER_DIRS = ("docs", "examples", "benchmarks", "tools", "perfbench")

WORD_RE = re.compile(r"\w+")
FENCE_RE = re.compile(r"^```[^\n]*\n(.*?)^```", re.MULTILINE | re.DOTALL)
PROMPT_RE = re.compile(r"^\s*(?:>>>|\.\.\.)(?: |$)")


def definitions(src: Path) -> list[tuple[str, str, Path, int]]:
    """(name, qualified name, file, line) of every function, method and
    undecorated class."""
    found = []

    def walk(node: ast.AST, prefix: str, path: Path) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found.append((child.name, prefix + child.name, path, child.lineno))
            elif isinstance(child, ast.ClassDef):
                if not child.decorator_list:
                    found.append((child.name, prefix + child.name, path, child.lineno))
                walk(child, f"{prefix}{child.name}.", path)

    for path in sorted(src.rglob("*.py")):
        walk(ast.parse(path.read_text(encoding="utf-8")), "", path)
    return found


def doctest_source(text: str) -> str:
    """The code of the doctest lines in *text*, prompts stripped."""
    return "\n".join(
        PROMPT_RE.sub("", line, count=1)
        for line in text.splitlines()
        if PROMPT_RE.match(line)
    )


def python_references(source: str) -> set[str]:
    """Names Python *source* refers to as code (see the module docstring)."""
    tree = ast.parse(source)
    skipped: set[int] = set()
    doctests: list[str] = []
    for node in ast.walk(tree):
        if isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            body = node.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                skipped.add(id(body[0].value))
                doctests.append(doctest_source(body[0].value.value))
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
                skipped.update(id(n) for n in ast.walk(node.value))
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.keyword) and node.arg is not None:
            names.add(node.arg)
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and node.value.isidentifier()
            and id(node) not in skipped
        ):
            names.add(node.value)
    for doctest in doctests:
        if doctest:
            names |= code_references(doctest)
    return names


def code_references(code: str) -> set[str]:
    """Names a snippet refers to: parsed as Python (a doctest's prompts
    stripped first) when it parses, word by word when it does not."""
    source = doctest_source(code) if PROMPT_RE.search(code) else code
    try:
        return python_references(source)
    except SyntaxError:
        return set(WORD_RE.findall(code))


def markdown_references(text: str) -> set[str]:
    """Names the fenced code blocks and the doctests of a Markdown
    document refer to."""
    names = code_references(doctest_source(FENCE_RE.sub("", text)))
    for block in FENCE_RE.findall(text):
        names |= code_references(block)
    return names


def references(root: Path) -> set[str]:
    """Every name code in src/ or in a non-test caller refers to."""
    this = Path(__file__).resolve()
    paths = sorted((root / "src").rglob("*.py")) + [root / "README.md"]
    for name in OTHER_DIRS:
        for suffix in ("*.py", "*.md"):
            paths += sorted((root / name).rglob(suffix))
    names: set[str] = set()
    for path in paths:
        if not path.is_file() or path.resolve() == this:
            continue
        text = path.read_text(encoding="utf-8")
        if path.suffix == ".md":
            names |= markdown_references(text)
        else:
            names |= python_references(text)
    return names


def census(root: Path) -> list[tuple[str, Path, int]]:
    """(qualified name, file, line) of each definition only tests/ can reach."""
    defs = definitions(root / "src")
    reached = references(root)
    defined = Counter(name for name, *_ in defs)
    return [
        (qualname, path.relative_to(root), line)
        for name, qualname, path, line in defs
        if defined[name] == 1
        and not (name.startswith("__") and name.endswith("__"))
        and name not in reached
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
