"""Shared JSON-source loading for declarative artifacts.

Scenario files and campaign specs both accept "a JSON file path or a JSON
string" in their ``from_json`` constructors. This helper owns that sniffing
plus the error wrapping, so a missing file or malformed JSON surfaces as a
:class:`~repro.core.errors.ConfigurationError` (a clean CLI ``error:`` line)
rather than a raw traceback, uniformly for every artifact kind.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Mapping

from .errors import ConfigurationError

__all__ = ["load_json_source"]


def load_json_source(
    source: str | Path | Mapping[str, Any], *, what: str = "document"
) -> Any:
    """Parse *source* — a JSON file path, a literal JSON string, or a mapping.

    A string that does not start with ``{`` is treated as a path; an
    already-parsed mapping passes through unchanged (so service callers can
    hand over dicts and strings through one door). *what* names the artifact
    in error messages ("scenario", "campaign spec", "submission").
    """
    if isinstance(source, Mapping):
        return source
    if isinstance(source, Path) or (
        isinstance(source, str) and not source.lstrip().startswith("{")
    ):
        try:
            text = Path(source).read_text(encoding="utf-8")
        except (OSError, ValueError) as exc:  # ValueError: a NUL in the path
            raise ConfigurationError(
                f"cannot read {what} {source!s}: {exc}"
            ) from exc
    else:
        text = source
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # ValueError: also over-long ints
        raise ConfigurationError(f"{what} is not valid JSON: {exc}") from exc
