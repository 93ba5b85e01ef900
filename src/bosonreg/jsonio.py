"""Minimal JSON emitter with a fixed float format.

Every float is written with 17 significant digits so output is reproducible
across runs and machines.  Parsing it back gives an equal value, but a whole
float comes back as an int (``-0.0`` is written ``-0``, losing its sign).
Strings and keys are quoted by the standard library's ASCII encoder, as
``json.dumps`` quotes them; a `Text` (JSON text written elsewhere, such as a
circuit's) is emitted as it is.  Parsing is delegated to the standard
library; the parsers of this package read fields through `required_fields`,
`integer` and `number`, which refuse a missing or mistyped value rather than
coerce it.
"""

from __future__ import annotations

import contextlib
import json
import math
from json.encoder import encode_basestring_ascii as _quote
from typing import Any, Iterator

__all__ = ["Text", "dumps", "loads", "fmt_float", "required_fields", "integer", "number"]


def fmt_float(x: float) -> str:
    """Render one finite double with 17 significant digits."""
    x = float(x)
    if not math.isfinite(x):
        raise ValueError("non-finite value has no JSON form")
    return format(x, ".17g")


_EXACT = frozenset((str, dict, list, tuple, int, float))


def _kind(obj: Any) -> type:
    """The JSON kind of a value whose type is not one of the exact built-ins."""
    if isinstance(obj, bool):
        return bool
    if obj is None:
        return type(None)
    for kind in (int, float, str, list, tuple, dict):
        if isinstance(obj, kind):
            return kind
    raise TypeError(f"cannot serialize {type(obj).__name__}")


class Text(str):
    """JSON text already written, which `dumps` emits as it is."""


def dumps(obj: Any) -> str:
    """Compact JSON text of nested dicts, lists, tuples, strings and numbers.

    Values of the exact built-in types dispatch on ``type(obj)``; bool, None
    and subclasses (``np.float64``, say) are first mapped to their kind.  A
    `Text` is written as it is, and any other string is quoted.  Each nesting
    level is joined on its own, so no list of the whole document's pieces is
    ever held; an object that recurs is written at every place it occurs.
    """
    return _dumps(obj)


def _dumps(obj: Any) -> str:
    # the recursion lives here, so wrapping dumps sees one call per document
    kind = type(obj)
    if kind not in _EXACT:
        if kind is Text:
            return str(obj)
        kind = _kind(obj)
    if kind is dict:
        return "{" + ",".join([_quote(str(k)) + ":" + _dumps(v) for k, v in obj.items()]) + "}"
    if kind is list or kind is tuple:
        return "[" + ",".join([_dumps(v) for v in obj]) + "]"
    if kind is str:
        return _quote(obj)
    if kind is int:
        return str(obj)
    if kind is float:
        return fmt_float(obj)
    if kind is bool:
        return "true" if obj else "false"
    return "null"


def loads(text: str) -> Any:
    return json.loads(text)


@contextlib.contextmanager
def required_fields() -> Iterator[None]:
    """Within the block, a KeyError (a field missing from a parsed object) is
    a ValueError that names the field, and a TypeError (a value of the wrong
    JSON kind: a list where an object or a number belongs, say) is one too."""
    try:
        yield
    except KeyError as exc:
        raise ValueError(f"missing field {exc.args[0]!r}") from None
    except TypeError as exc:
        raise ValueError(f"a value of the wrong JSON kind: {exc}") from None


def integer(value: Any, name: str) -> int:
    """A JSON integer; a float, bool or string is refused, not truncated."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


def number(value: Any, name: str) -> float:
    """A JSON number as a float.  Ints are numbers, since a whole float is
    written as one; a bool or string is refused, not coerced."""
    if type(value) is not float and type(value) is not int:
        raise ValueError(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an int past the largest float
        raise ValueError(f"{name} is out of the float range") from None
