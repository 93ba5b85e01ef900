"""Index maps, bit-sequence classification, and sparse register states.

A register of rank R is a row of R qubit sites.  A classical configuration
assigns every site a yes/no answer; we encode it as a bit tuple and identify
it with the integer key sum(bits[n] * 2**n), site 0 being the least
significant bit.  Quantum states are sparse maps from integer keys to complex
amplitudes.  The all-zero configuration (key 0) is a legitimate basis state,
distinct from the zero vector, which stores no amplitudes at all.

Bit sequences that are eventually periodic get two numeric readings: the
computational one above (defined only when the sequence terminates) and a
continuum one, sum(bits[n] * 2**-n), an exact rational in [0, 2].  The two
readings collide on different sequences, e.g. 0111... and 1000... both read
1 in the continuum; such values are kept as exact fractions so collisions
are decidable.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import reduce
from operator import add
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import jsonio
from .errors import RankMismatchError

__all__ = [
    "MAX_RANK",
    "DENSE_MAX_RANK",
    "computational_map",
    "SequenceClass",
    "EventuallyPeriodicSequence",
    "continuum_map",
    "RegisterState",
]

#: Keys are manipulated as plain machine integers, so ranks stop at 64 bits.
MAX_RANK = 64

#: Dense 2**R conversions are refused above this rank.
DENSE_MAX_RANK = 12


def _check_rank(rank: int) -> int:
    if type(rank) is not int or not 1 <= rank <= MAX_RANK:
        raise ValueError(f"rank must be an integer in [1, {MAX_RANK}], got {rank!r}")
    return rank


def _check_bits(bits: Sequence[int]) -> tuple[int, ...]:
    out = tuple(int(b) for b in bits)
    if any(b not in (0, 1) for b in out):
        raise ValueError("bits must all be 0 or 1")
    return out


def computational_map(bits: Sequence[int]) -> int:
    """Integer key of a finite bit sequence, site 0 least significant."""
    bits = _check_bits(bits)
    return sum(b << n for n, b in enumerate(bits))


class SequenceClass(Enum):
    FINITE_COUNTABLE = "FiniteCountable"
    RECURRING = "RecurringSequence"


@dataclass(frozen=True)
class EventuallyPeriodicSequence:
    """Bit sequence prefix + period, normalized so an all-zero period is empty."""

    prefix: tuple[int, ...] = ()
    period: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        prefix = _check_bits(self.prefix)
        period = _check_bits(self.period)
        if not any(period):
            period = ()
        object.__setattr__(self, "prefix", prefix)
        object.__setattr__(self, "period", period)

    def classify(self) -> SequenceClass:
        if self.period:
            return SequenceClass.RECURRING
        return SequenceClass.FINITE_COUNTABLE


def continuum_map(seq: EventuallyPeriodicSequence) -> Fraction:
    """Exact value of sum(bits[n] / 2**n) over the whole infinite sequence."""
    value = Fraction(0)
    for n, b in enumerate(seq.prefix):
        if b:
            value += Fraction(1, 1 << n)
    if seq.period:
        j, p = len(seq.prefix), len(seq.period)
        block = sum(Fraction(b, 1 << k) for k, b in enumerate(seq.period))
        value += Fraction(1, 1 << j) * block / (1 - Fraction(1, 1 << p))
    return value


class RegisterState:
    """Sparse complex amplitudes over the 2**R classical keys.

    Instances are value objects: every operation returns a new state and the
    stored map must not be mutated.  States combine by +, - and scale, as
    operators do.  Amplitudes of modulus exactly zero (and NaN, whose modulus
    compares false) are never stored, so the zero vector is the state with an
    empty map.
    """

    __slots__ = ("rank", "_amp")

    def __init__(
        self,
        rank: int,
        amplitudes: Mapping[int, complex] | Iterable[tuple[int, complex]] = (),
    ) -> None:
        self.rank = _check_rank(rank)
        items = amplitudes.items() if isinstance(amplitudes, Mapping) else amplitudes
        amp: dict[int, complex] = {}
        top = 1 << rank
        for key, value in items:
            key = int(key)
            if not 0 <= key < top:
                raise ValueError(f"key {key} out of range for rank {rank}")
            value = complex(value)
            if abs(value) > 0.0:
                amp[key] = value
        self._amp = amp

    @classmethod
    def basis(cls, rank: int, key: int) -> "RegisterState":
        return cls(rank, {key: 1.0 + 0j})

    @classmethod
    def void(cls, rank: int) -> "RegisterState":
        """The all-no configuration |0...0), a unit vector, not the zero vector."""
        return cls.basis(rank, 0)

    @classmethod
    def zero(cls, rank: int) -> "RegisterState":
        return cls(rank)

    @property
    def amplitudes(self) -> dict[int, complex]:
        """The internal key -> amplitude map.  Treat as read-only."""
        return self._amp

    def amplitude(self, key: int) -> complex:
        return self._amp.get(int(key), 0j)

    def items(self) -> Iterator[tuple[int, complex]]:
        return iter(self._amp.items())

    def __len__(self) -> int:
        return len(self._amp)

    @property
    def is_zero(self) -> bool:
        return not self._amp

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RegisterState):
            return NotImplemented
        return self.rank == other.rank and self._amp == other._amp

    __hash__ = None  # mutable value semantics, keep out of sets and dict keys

    def __repr__(self) -> str:
        body = ", ".join(f"{k}: {v:.6g}" for k, v in sorted(self._amp.items()))
        return f"RegisterState(rank={self.rank}, {{{body}}})"

    def _require_same_rank(self, other: "RegisterState") -> None:
        if self.rank != other.rank:
            raise RankMismatchError(f"rank {self.rank} vs {other.rank}")

    def inner_product(self, other: "RegisterState") -> complex:
        """(self | other), antilinear in self: conj(self) * other summed from
        0j over self's keys, in self's order, skipping a key other does not
        store."""
        self._require_same_rank(other)
        ket = other._amp
        total = 0j
        for key, value in self._amp.items():
            mate = ket.get(key)
            if mate is not None:
                total += value.conjugate() * mate
        return total

    def norm(self) -> float:
        # left to right, as builtin sum does before Python 3.12 compensates it
        squares = (abs(v) ** 2 for v in self._amp.values())
        return float(np.sqrt(reduce(add, squares, 0.0)))

    def __add__(self, other: "RegisterState") -> "RegisterState":
        self._require_same_rank(other)
        out = dict(self._amp)
        for key, value in other._amp.items():
            out[key] = out.get(key, 0j) + value
        return RegisterState(self.rank, out)

    def __sub__(self, other: "RegisterState") -> "RegisterState":
        return self + other.scale(-1)

    def scale(self, factor: complex) -> "RegisterState":
        factor = complex(factor)
        return RegisterState(self.rank, {k: factor * v for k, v in self._amp.items()})

    def to_json_obj(self, **extra: float) -> dict:
        rows = [
            [key, float(value.real), float(value.imag)]
            for key, value in sorted(self._amp.items())
        ]
        obj: dict = {"rank": self.rank, "amplitudes": rows}
        obj.update(extra)
        return obj

    @classmethod
    def from_json_obj(cls, obj: Mapping) -> "RegisterState":
        """Refuses, rather than truncates, a rank or key that is not a JSON
        integer and an amplitude part that is not a JSON number."""
        number = jsonio.number
        with jsonio.required_fields():
            rank = jsonio.integer(obj["rank"], "rank")
            rows = [
                (jsonio.integer(k, "key"), complex(number(re, "re"), number(im, "im")))
                for k, re, im in obj["amplitudes"]
            ]
        return cls(rank, rows)
