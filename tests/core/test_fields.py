"""The field checks: accepted values come back normalised, the rest name the path."""

import math

import numpy as np
import pytest

from repro.core.errors import ConfigurationError
from repro.core.fields import array, flag, integer, pair, real, record, text


@pytest.mark.parametrize(
    "value,kwargs,expected",
    [
        (2, {}, 2.0),
        (2.5, {"lo": 2.5}, 2.5),
        (np.float32(0.5), {"above": 0}, 0.5),
        (1, {"hi": 1}, 1.0),
    ],
)
def test_real_accepts(value, kwargs, expected):
    out = real(value, "p", **kwargs)
    assert out == expected and type(out) is float


@pytest.mark.parametrize(
    "value,kwargs,message",
    [
        (True, {}, "finite number"),
        ("1", {}, "finite number"),
        (math.nan, {}, "finite number"),
        (-math.inf, {}, "finite number"),
        (10**400, {}, "finite number"),
        (-0.1, {"lo": 0}, ">= 0"),
        (0, {"above": 0}, "> 0"),
        (1.5, {"hi": 1}, "<= 1"),
    ],
)
def test_real_refuses(value, kwargs, message):
    with pytest.raises(ConfigurationError, match=rf"^a\.b must be (a )?{message}"):
        real(value, "a.b", **kwargs)


@pytest.mark.parametrize(
    "value,kwargs,expected",
    [(3, {}, 3), (2.0, {}, 2), (np.int64(4), {}, 4), (math.inf, {"unbounded": True}, math.inf)],
)
def test_integer_accepts(value, kwargs, expected):
    out = integer(value, "p", **kwargs)
    assert out == expected and (out == math.inf or type(out) is int)


@pytest.mark.parametrize(
    "value,kwargs",
    [(True, {}), (1.5, {}), ("2", {}), (-1, {}), (0, {"lo": 1}), (math.inf, {}), (math.nan, {"unbounded": True})],
)
def test_integer_refuses(value, kwargs):
    with pytest.raises(ConfigurationError, match=r"^n\[0\] must be"):
        integer(value, "n[0]", **kwargs)


def test_flag_text_array_pair():
    assert flag(False, "f") is False
    assert text("x", "t") == "x"
    assert array((1, 2), "a") == [1, 2]
    assert pair([1, 2.5], "p") == (1.0, 2.5)
    for check, value in [(flag, "no"), (text, ""), (text, 3), (array, "ab"), (pair, [1]), (pair, [1, "x"])]:
        with pytest.raises(ConfigurationError, match=r"^q"):
            check(value, "q")


def test_record():
    assert record({"a": 1}, "r", ("a", "b"), ("a",)) == {"a": 1}
    with pytest.raises(ConfigurationError, match=r"r has unknown keys \['c'\]; known: \['a', 'b'\]"):
        record({"a": 1, "c": 2}, "r", ("a", "b"))
    with pytest.raises(ConfigurationError, match="r is missing required key 'a'"):
        record({}, "r", ("a", "b"), ("a",))
    with pytest.raises(ConfigurationError, match=r"r must be a JSON object with keys from \['a'\], got list"):
        record([], "r", ("a",))
    with pytest.raises(ConfigurationError, match="r key must be a non-empty string"):
        record({"": 1}, "r")
