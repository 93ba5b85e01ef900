"""The JSON emitter against a plain isinstance-chain reference."""

import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bosonreg.jsonio import dumps, fmt_float


def _reference(obj) -> str:
    """One isinstance test per kind, in the order bool, None, int, float, str,
    list/tuple, dict."""
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return fmt_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_reference(v) for v in obj) + "]"
    if isinstance(obj, dict):
        items = (json.dumps(str(k)) + ":" + _reference(v) for k, v in obj.items())
        return "{" + ",".join(items) + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


_TEXT = st.text(st.one_of(st.characters(), st.sampled_from('\x00\x1f\x7f"\\/ é😀')))
_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_SCALARS = st.one_of(
    _TEXT,
    st.integers(),
    st.integers(2**64, 2**200).flatmap(lambda n: st.sampled_from((n, -n))),
    _FINITE,
    st.just(-0.0),
    st.booleans(),
    st.none(),
    _FINITE.map(np.float64),
)
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=5).map(tuple),
        st.dictionaries(st.one_of(_TEXT, st.integers()), inner, max_size=5),
    ),
    max_leaves=30,
)


@given(_VALUES)
def test_dumps_matches_reference(obj):
    text = dumps(obj)
    assert text == _reference(obj)
    assert text.isascii()


def _error_type(fn, obj):
    try:
        fn(obj)
    except (TypeError, ValueError) as exc:
        return type(exc)
    return None


@pytest.mark.parametrize(
    "bad, expected",
    [
        (math.nan, ValueError),
        (math.inf, ValueError),
        (-math.inf, ValueError),
        (np.float64("nan"), ValueError),
        (object(), TypeError),
        ({1, 2}, TypeError),
        (1 + 2j, TypeError),
        (b"bytes", TypeError),
        (np.int64(3), TypeError),
    ],
)
def test_dumps_refuses_what_the_reference_refuses(bad, expected):
    for obj in (bad, [1, bad], ("a", {"k": bad}), {"k": [bad]}):
        assert _error_type(dumps, obj) is expected
        assert _error_type(_reference, obj) is expected

