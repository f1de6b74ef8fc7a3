"""Field checks shared by every loader of the scenario and campaign documents.

Each check takes a value and the path of the field it came from, and returns
the accepted value or raises a :class:`~repro.core.errors.ConfigurationError`
naming that path, e.g. ``power_profiles['M0'].idle_watts``. Loaders compose
them, so a field is refused the same way, with the same wording, wherever it
appears. JSON ``true``/``false`` are never numbers here: Python treats
``bool`` as an ``int``, a document author does not.
"""

from __future__ import annotations

import math
from collections.abc import Collection, Mapping, Sequence
from numbers import Integral, Real
from typing import Any

from .errors import ConfigurationError

__all__ = ["real", "integer", "flag", "text", "pair", "array", "record"]


def real(
    value: Any,
    path: str,
    *,
    lo: float | None = None,
    above: float | None = None,
    hi: float | None = None,
) -> float:
    """*value* as a float, if it is a finite number within the bounds.

    ``lo`` and ``hi`` are inclusive bounds, ``above`` an exclusive lower one.
    """
    # Exact float first: model constructors run these checks per machine and
    # per task type, and the ABC isinstance test costs more than the rest.
    number: float
    if type(value) is float:
        number = value
    elif isinstance(value, Real) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:
            number = math.nan
    else:
        number = math.nan
    if not math.isfinite(number):
        raise ConfigurationError(f"{path} must be a finite number, got {value!r}")
    if lo is not None and number < lo:
        raise ConfigurationError(f"{path} must be >= {lo}, got {value!r}")
    if above is not None and number <= above:
        raise ConfigurationError(f"{path} must be > {above}, got {value!r}")
    if hi is not None and number > hi:
        raise ConfigurationError(f"{path} must be <= {hi}, got {value!r}")
    return number


def integer(
    value: Any, path: str, *, lo: int = 0, unbounded: bool = False
) -> int:
    """*value* as an int, if it is an integer >= *lo*.

    An integral float (``2.0``) is accepted and returned as ``2``. With
    ``unbounded`` the value ``math.inf`` is accepted too (a queue's "no limit").
    """
    number: int | None = None
    if type(value) is int:  # exact int first, as in real()
        number = value
    elif isinstance(value, bool):
        pass
    elif unbounded and value == math.inf:
        return math.inf  # type: ignore[return-value]
    elif isinstance(value, Integral):
        number = int(value)
    elif isinstance(value, Real) and math.isfinite(value) and float(value).is_integer():
        number = int(float(value))
    if number is not None and number >= lo:
        return number
    want = "a non-negative integer" if lo == 0 else f"an integer >= {lo}"
    if unbounded:
        want += " or unbounded"
    raise ConfigurationError(f"{path} must be {want}, got {value!r}")


def flag(value: Any, path: str) -> bool:
    """*value*, if it is ``True`` or ``False``."""
    if not isinstance(value, bool):
        raise ConfigurationError(f"{path} must be true or false, got {value!r}")
    return value


def text(value: Any, path: str) -> str:
    """*value*, if it is a non-empty string."""
    if not isinstance(value, str) or not value:
        raise ConfigurationError(
            f"{path} must be a non-empty string, got {value!r}"
        )
    return value


def array(value: Any, path: str) -> list[Any]:
    """*value* as a list, if it is a JSON array (any sequence but a string)."""
    if not isinstance(value, Sequence) or isinstance(value, (str, bytes)):
        raise ConfigurationError(
            f"{path} must be a JSON array, got {type(value).__name__}"
        )
    return list(value)


def pair(value: Any, path: str) -> tuple[float, float]:
    """*value* as a 2-tuple of floats, if it is an array of two numbers."""
    items = array(value, path)
    if len(items) != 2:
        raise ConfigurationError(
            f"{path} must be a list of two numbers, got {value!r}"
        )
    return real(items[0], f"{path}[0]"), real(items[1], f"{path}[1]")


def record(
    value: Any,
    path: str,
    keys: Collection[str] | None = None,
    required: Collection[str] = (),
) -> dict[str, Any]:
    """*value* as a new dict, if it is a JSON object whose keys are all known.

    ``keys=None`` accepts any string keys (a table keyed by name, such as
    ``machine_counts``); ``required`` keys must be present.
    """
    if not isinstance(value, Mapping):
        known = "" if keys is None else f" with keys from {sorted(keys)}"
        raise ConfigurationError(
            f"{path} must be a JSON object{known}, got {type(value).__name__}"
        )
    out = dict(value)
    if keys is None:
        for key in out:
            text(key, f"{path} key")
    else:
        unknown = set(out) - set(keys)
        if unknown:
            raise ConfigurationError(
                f"{path} has unknown keys {sorted(map(str, unknown))}; "
                f"known: {sorted(keys)}"
            )
    for key in required:
        if key not in out:
            raise ConfigurationError(f"{path} is missing required key {key!r}")
    return out
