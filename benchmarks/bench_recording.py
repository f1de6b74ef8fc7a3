"""Keyed result-file recording shared by the benchmark modules."""

from __future__ import annotations

from pathlib import Path


def record_result_line(path: Path, key: str, line: str) -> None:
    """Write ``key: line`` into *path*, replacing any previous entry for *key*.

    Blind appending made every local benchmark run accumulate duplicate
    lines. Keying each line by its benchmark id keeps exactly one (the
    latest) measurement per benchmark while preserving first-seen ordering
    for unrelated keys.
    """
    prefix = f"{key}: "
    lines = []
    if path.exists():
        lines = path.read_text(encoding="utf-8").splitlines()
    replaced = False
    for i, existing in enumerate(lines):
        if existing.startswith(prefix):
            lines[i] = prefix + line
            replaced = True
            break
    if not replaced:
        lines.append(prefix + line)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")

