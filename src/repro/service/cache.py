"""Content-addressed result cache: one simulation per canonical hash, ever.

Results are stored as deterministic JSON documents under
``root/<key[:2]>/<key>.json`` — the two-level fan-out keeps directories
small under classroom-scale churn. Writes are atomic (tempfile + ``rename``
in the same directory), so a crashed or killed worker can never leave a
half-written entry for a later reader to trust; readers treat a corrupt
entry as a miss and the next run overwrites it.

Serialisation is canonical (sorted keys, fixed separators): the *bytes* of a
cache entry are a pure function of the payload, which is what lets tests
assert that a served-from-cache result is bit-identical to a fresh run.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Any

__all__ = ["ResultCache"]


def _dumps(payload: dict[str, Any]) -> str:
    # Deterministic but *not* numerically folded: unlike the hash key,
    # result payloads keep float-typed metrics as floats so a round-trip
    # reconstructs SummaryMetrics exactly.
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


class ResultCache:
    """Filesystem-backed content-addressed store of result payloads."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def path(self, key: str) -> Path:
        """Where the entry for *key* lives (whether or not it exists)."""
        return self.root / key[:2] / f"{key}.json"

    def __contains__(self, key: str) -> bool:
        return self.path(key).is_file()

    def get(self, key: str) -> dict[str, Any] | None:
        """The cached payload for *key*, or ``None`` on a miss.

        A present-but-unreadable entry (torn by an unclean shutdown of a
        non-atomic writer, hand-edited, ...) counts as a miss: correctness
        comes from re-running the deterministic engine, never from trusting
        bad bytes.
        """
        try:
            text = self.path(key).read_text(encoding="utf-8")
        except OSError:
            return None
        try:
            payload = json.loads(text)
        except json.JSONDecodeError:
            return None
        return payload if isinstance(payload, dict) else None

    def put(self, key: str, payload: dict[str, Any]) -> Path:
        """Atomically store *payload* under *key*; returns the entry path.

        Concurrent writers of the same key are harmless: the engine is
        deterministic, so every writer renames identical bytes into place.
        """
        target = self.path(key)
        target.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(
            dir=target.parent, prefix=f".{key[:8]}-", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(_dumps(payload))
            os.replace(tmp_name, target)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        return target

    def keys(self) -> list[str]:
        """Every key with a stored entry, sorted."""
        return sorted(p.stem for p in self.root.glob("*/*.json"))

    def __len__(self) -> int:
        return len(self.keys())
