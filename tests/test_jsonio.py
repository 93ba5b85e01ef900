"""The JSON emitter against a plain isinstance-chain reference."""

import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bosonreg.jsonio import Text, dumps, fmt_float, integer, number, required_fields


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


@st.composite
def _shared_documents(draw):
    """Lists whose items are a few containers, each recurring, some nested in
    later ones, so one dict, list or tuple object appears several times."""
    pool: list = []
    for _ in range(draw(st.integers(1, 4))):
        part = st.one_of(_VALUES, st.sampled_from(pool)) if pool else _VALUES
        parts = draw(st.lists(part, max_size=4))
        shape = draw(st.sampled_from(("list", "tuple", "dict")))
        if shape == "dict":
            pool.append({str(i): v for i, v in enumerate(parts)})
        else:
            pool.append(parts if shape == "list" else tuple(parts))
    return draw(st.lists(st.sampled_from(pool), min_size=2, max_size=6))


@given(st.one_of(_VALUES, _shared_documents()))
def test_dumps_matches_reference(obj):
    text = dumps(obj)
    assert text == _reference(obj)
    assert text.isascii()


class _FreshItems(list):
    """Yields a new list per item, each freed once the next is made."""

    def __iter__(self):
        return ([i] for i in range(6))


def test_containers_made_while_writing_keep_their_own_text():
    doc = [_FreshItems(), {"k": _FreshItems()}]
    fresh = "[[0],[1],[2],[3],[4],[5]]"
    assert dumps(doc) == _reference(doc) == f'[{fresh},{{"k":{fresh}}}]'


class _OtherStr(str):
    pass


def test_text_is_written_as_it_is_and_other_strings_are_quoted():
    raw = '{"a":[1,-0],"b":"x"}'
    assert dumps(Text(raw)) == raw and type(dumps(Text(raw))) is str
    assert dumps([Text(raw), 1]) == f"[{raw},1]"
    assert dumps({"k": Text(raw)}) == f'{{"k":{raw}}}'
    quoted = json.dumps(raw)
    for s in (raw, _OtherStr(raw)):
        assert dumps(s) == quoted
        assert dumps([s, 1]) == f"[{quoted},1]"
        assert dumps({"k": s}) == f'{{"k":{quoted}}}'


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



def test_integer_and_number_refuse_rather_than_coerce():
    assert integer(7, "n") == 7 and integer(-2**70, "n") == -2**70
    for bad in (7.0, 2.5, True, "7", None):
        with pytest.raises(ValueError, match=r"^n must be an integer, got "):
            integer(bad, "n")
    assert number(3, "x") == 3.0 and type(number(3, "x")) is float
    assert number(-0.25, "x") == -0.25
    for bad in (True, False, "0.5", None, [1.0]):
        with pytest.raises(ValueError, match=r"^x must be a number, got "):
            number(bad, "x")
    with pytest.raises(ValueError, match=r"^x is out of the float range$"):
        number(-10**400, "x")


def test_required_fields_names_the_missing_field():
    with pytest.raises(ValueError, match="^missing field 'terms'$"):
        with required_fields():
            {"rank": 2}["terms"]
    with required_fields():
        assert {"rank": 2}["rank"] == 2
