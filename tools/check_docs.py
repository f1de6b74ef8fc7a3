#!/usr/bin/env python
"""Link-check the Markdown docs and syntax-check their fenced Python.

Teaching docs rot in two ways: cross-references break when files move, and
code blocks drift from the API they demonstrate. This checker catches both
cheaply, and CI runs it (plus ``python -m doctest`` over README.md and the
docs/ guides for the ``>>>`` snippets, whose *outputs* must match):

1. Every relative Markdown link ``[text](target)`` in the repo's root and
   ``docs/`` Markdown files must point at an existing file or directory
   (``http(s):``/``mailto:`` links are not checked — no network in CI).
2. Every ``#fragment`` on a relative or same-file link must name a real
   heading anchor (GitHub slug rules: lowercase, punctuation stripped,
   spaces to hyphens, ``-N`` suffixes for duplicates) in the target
   Markdown file, so section cross-references cannot rot when headings
   are renamed or renumbered.
3. Every fenced ```` ```python ```` block must at least *compile*. Blocks
   written as interactive sessions (``>>>``) are skipped here; doctest
   executes those for real.
4. Every backticked dotted name ``repro.…`` in README.md and ``docs/``
   must resolve: the longest importable module prefix is imported and the
   rest looked up with ``getattr``, so a doc cannot name a module, class
   or function the code no longer has.

Usage::

    python tools/check_docs.py            # check the repo it lives in
    python tools/check_docs.py --root DIR # check another tree
"""

from __future__ import annotations

import argparse
import doctest
import importlib
import re
import sys
from pathlib import Path

LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
FENCE_RE = re.compile(r"```python\n(.*?)```", re.DOTALL)
HEADING_RE = re.compile(r"^#{1,6}\s+(.+?)\s*$")
MD_LINK_IN_HEADING_RE = re.compile(r"\[([^\]]*)\]\([^)]*\)")
REPRO_NAME_RE = re.compile(r"`(repro(?:\.[A-Za-z_]\w*)+)`")

SKIP_SCHEMES = ("http://", "https://", "mailto:")


def github_slug(title: str) -> str:
    """GitHub's heading → anchor transformation (the common subset).

    Inline code/link markup is reduced to its text, then: lowercase, drop
    everything but word characters, spaces and hyphens, spaces become
    hyphens (one each — consecutive spaces yield consecutive hyphens).
    """
    title = MD_LINK_IN_HEADING_RE.sub(r"\1", title).replace("`", "")
    title = re.sub(r"[^\w\- ]", "", title.lower())
    return title.replace(" ", "-")


def heading_anchors(text: str) -> set[str]:
    """Every anchor the rendered page exposes (``-N`` suffixed duplicates).

    Headings inside fenced code blocks are not headings and expose nothing.
    """
    anchors: set[str] = set()
    counts: dict[str, int] = {}
    in_fence = False
    for line in text.splitlines():
        if line.lstrip().startswith("```"):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        match = HEADING_RE.match(line)
        if match is None:
            continue
        slug = github_slug(match.group(1))
        seen = counts.get(slug, 0)
        counts[slug] = seen + 1
        anchors.add(slug if seen == 0 else f"{slug}-{seen}")
    return anchors


def markdown_files(root: Path) -> list[Path]:
    """The docs we gate: root-level *.md plus everything under docs/."""
    files = sorted(root.glob("*.md"))
    files += sorted((root / "docs").glob("**/*.md"))
    return [f for f in files if f.is_file()]


def check_links(
    path: Path, root: Path, anchor_cache: dict[Path, set[str]] | None = None
) -> list[str]:
    """Broken relative links (and dead ``#anchors``) in one Markdown file."""
    if anchor_cache is None:
        anchor_cache = {}

    def anchors_of(target: Path) -> set[str]:
        if target not in anchor_cache:
            anchor_cache[target] = heading_anchors(
                target.read_text(encoding="utf-8")
            )
        return anchor_cache[target]

    errors = []
    text = path.read_text(encoding="utf-8")
    for match in LINK_RE.finditer(text):
        target = match.group(1)
        if target.startswith(SKIP_SCHEMES):
            continue
        relative, _, fragment = target.partition("#")
        if relative:
            resolved = (path.parent / relative).resolve()
            if not resolved.exists():
                errors.append(
                    f"{path.relative_to(root)}: broken link '{target}' "
                    f"(no such file: {relative})"
                )
                continue
        else:
            resolved = path  # bare '#fragment': a same-page section link
        if not fragment:
            continue
        if resolved.is_file() and resolved.suffix == ".md":
            if fragment not in anchors_of(resolved):
                errors.append(
                    f"{path.relative_to(root)}: broken anchor '{target}' "
                    f"(no heading slugs to '#{fragment}' in "
                    f"{resolved.name})"
                )
    return errors


def check_python_fences(path: Path, root: Path) -> list[str]:
    """Fenced python blocks that do not even compile."""
    errors = []
    text = path.read_text(encoding="utf-8")
    for i, match in enumerate(FENCE_RE.finditer(text), start=1):
        block = match.group(1)
        if ">>>" in block:
            continue  # interactive session: doctest executes it for real
        try:
            compile(block, f"<{path.name} python block {i}>", "exec")
        except SyntaxError as exc:
            errors.append(
                f"{path.relative_to(root)}: python block {i} does not "
                f"compile: {exc}"
            )
    return errors


def resolves(dotted: str) -> bool:
    """Whether *dotted* names a module, or an attribute chain inside one."""
    parts = dotted.split(".")
    for k in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:k]))
        except ModuleNotFoundError:
            continue
        for attr in parts[k:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


def check_repro_names(path: Path, root: Path) -> list[str]:
    """Backticked ``repro.…`` names in one Markdown file that do not resolve."""
    text = path.read_text(encoding="utf-8")
    return [
        f"{path.relative_to(root)}: `{name}` does not resolve"
        for name in sorted(set(REPRO_NAME_RE.findall(text)))
        if not resolves(name)
    ]


def count_doctests(path: Path) -> int:
    """Number of ``>>>`` examples doctest would run over this file."""
    parser = doctest.DocTestParser()
    examples = parser.get_examples(path.read_text(encoding="utf-8"))
    return len(examples)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--root",
        type=Path,
        default=Path(__file__).resolve().parents[1],
        help="repository root to check (default: this repo)",
    )
    args = parser.parse_args(argv)
    root = args.root.resolve()

    # Resolve names against the checked tree's package when it has one.
    src = root / "src"
    if not src.is_dir():
        src = Path(__file__).resolve().parents[1] / "src"
    sys.path.insert(0, str(src))

    errors: list[str] = []
    checked_links = 0
    anchor_cache: dict[Path, set[str]] = {}
    for path in markdown_files(root):
        errors += check_links(path, root, anchor_cache)
        errors += check_python_fences(path, root)
        if path.name == "README.md" or path.parent != root:
            errors += check_repro_names(path, root)
        checked_links += len(LINK_RE.findall(path.read_text(encoding="utf-8")))

    # The doctest gate only bites if the snippets exist: losing them all to
    # an over-eager edit should fail loudly, not pass vacuously. Minimums
    # track the guide's growth (the migration chapter §6 added its own).
    for doc, minimum in (
        ("README.md", 3),
        (Path("docs") / "FEDERATION.md", 12),
        (Path("docs") / "PERFORMANCE.md", 8),
        (Path("docs") / "POLICIES.md", 12),
        (Path("docs") / "SERVICE.md", 12),
        (Path("docs") / "WORKLOADS.md", 12),
    ):
        path = root / doc
        if not path.exists():
            errors.append(f"{doc}: missing (doctest-gated document)")
        elif count_doctests(path) < minimum:
            errors.append(
                f"{doc}: expected at least {minimum} doctest example(s); "
                "the runnable snippets have been removed"
            )

    if errors:
        print(f"FAIL: {len(errors)} documentation problem(s):")
        for error in errors:
            print(f"  - {error}")
        return 1
    files = markdown_files(root)
    print(
        f"OK: {len(files)} Markdown files, {checked_links} links checked "
        "(files and #anchors), all python fences compile, repro names "
        "resolve, doctest snippets present"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
