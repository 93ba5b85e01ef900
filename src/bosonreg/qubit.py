"""Exact single-site operator algebra.

Each register site carries one qubit with basis kets |0) (site empty, "no")
and |1) (site occupied, "yes").  Eight nonzero operators act on a site:

    projectors   P0 = |0)(0|      P1 = |1)(1|
    shifts       A  = |0)(1|      A+ = |1)(0|
    unit, sign   S0 = P1 + P0     S3 = P1 - P0
    exchange     S1 = A+ + A      S2 = i A - i A+

together with the zero operator.  The product of any two of these is again
one of them times a coefficient in {0, 1, -1, i, -i}, so multiplication is
tabulated exactly and no floating-point tolerance enters this layer.  The
lookup table is the authoritative product rule; the 2x2 matrices are a
derived view used for cross-checks and for phase conjugation.

Matrix layout convention used throughout: the first vector component is the
|1) amplitude and the second is the |0) amplitude, so P1 = diag(1, 0) and
S3 = diag(1, -1).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "SiteOp",
    "ScaledSiteOp",
    "COEFFICIENTS",
    "PRODUCT_TABLE",
    "op_product",
    "op_matrix",
    "op_bit_matrix",
    "PhaseTransform",
    "phase_conjugate",
]


class SiteOp(Enum):
    """Symbols for the nine single-site operators."""

    ZERO = "0"
    P0 = "P0"
    P1 = "P1"
    A = "A"
    APLUS = "A+"
    S0 = "S0"
    S1 = "S1"
    S2 = "S2"
    S3 = "S3"


#: The only scalar coefficients the closed algebra ever produces.
COEFFICIENTS = (0j, 1 + 0j, -1 + 0j, 1j, -1j)


@dataclass(frozen=True)
class ScaledSiteOp:
    """A site operator with an exact scalar prefactor.

    The zero element is canonical: coefficient 0 forces the symbol ZERO and
    vice versa, so equality is plain field equality.
    """

    coeff: complex
    op: SiteOp

    def __post_init__(self) -> None:
        coeff = complex(self.coeff)
        if coeff == 0 or self.op is SiteOp.ZERO:
            coeff, op = 0j, SiteOp.ZERO
        else:
            op = self.op
        # +0.0 normalizes negative zero components so hashing is stable
        coeff = complex(coeff.real + 0.0, coeff.imag + 0.0)
        if coeff not in COEFFICIENTS:
            raise ValueError(f"coefficient {coeff!r} is outside {{0, +-1, +-i}}")
        object.__setattr__(self, "coeff", coeff)
        object.__setattr__(self, "op", op)


# Each (coefficient, symbol) as built; a complex key finds -0.0 parts as well
_CANONICAL = {(c, op): ScaledSiteOp(c, op) for c in COEFFICIENTS for op in SiteOp}


def _as_scaled(op: ScaledSiteOp | SiteOp) -> ScaledSiteOp:
    if isinstance(op, SiteOp):
        return _CANONICAL[(1 + 0j, op)]
    return op


_P0 = SiteOp.P0
_P1 = SiteOp.P1
_A = SiteOp.A
_AP = SiteOp.APLUS
_S0 = SiteOp.S0
_S1 = SiteOp.S1
_S2 = SiteOp.S2
_S3 = SiteOp.S3
_ZERO = SiteOp.ZERO

# Row operator times column operator for the seven operators that are neither
# the unit nor zero.  Entries are (coefficient, symbol); (0, ZERO) marks a
# vanishing product.
_CORE: dict[tuple[SiteOp, SiteOp], tuple[complex, SiteOp]] = {
    (_P0, _P0): (1, _P0), (_P0, _P1): (0, _ZERO), (_P0, _A): (1, _A),
    (_P0, _AP): (0, _ZERO), (_P0, _S1): (1, _A), (_P0, _S2): (1j, _A),
    (_P0, _S3): (-1, _P0),

    (_P1, _P0): (0, _ZERO), (_P1, _P1): (1, _P1), (_P1, _A): (0, _ZERO),
    (_P1, _AP): (1, _AP), (_P1, _S1): (1, _AP), (_P1, _S2): (-1j, _AP),
    (_P1, _S3): (1, _P1),

    (_A, _P0): (0, _ZERO), (_A, _P1): (1, _A), (_A, _A): (0, _ZERO),
    (_A, _AP): (1, _P0), (_A, _S1): (1, _P0), (_A, _S2): (-1j, _P0),
    (_A, _S3): (1, _A),

    (_AP, _P0): (1, _AP), (_AP, _P1): (0, _ZERO), (_AP, _A): (1, _P1),
    (_AP, _AP): (0, _ZERO), (_AP, _S1): (1, _P1), (_AP, _S2): (1j, _P1),
    (_AP, _S3): (-1, _AP),

    (_S1, _P0): (1, _AP), (_S1, _P1): (1, _A), (_S1, _A): (1, _P1),
    (_S1, _AP): (1, _P0), (_S1, _S1): (1, _S0), (_S1, _S2): (1j, _S3),
    (_S1, _S3): (-1j, _S2),

    (_S2, _P0): (-1j, _AP), (_S2, _P1): (1j, _A), (_S2, _A): (-1j, _P1),
    (_S2, _AP): (1j, _P0), (_S2, _S1): (-1j, _S3), (_S2, _S2): (1, _S0),
    (_S2, _S3): (1j, _S1),

    (_S3, _P0): (-1, _P0), (_S3, _P1): (1, _P1), (_S3, _A): (-1, _A),
    (_S3, _AP): (1, _AP), (_S3, _S1): (1j, _S2), (_S3, _S2): (-1j, _S1),
    (_S3, _S3): (1, _S0),
}


def _build_table() -> dict[tuple[SiteOp, SiteOp], ScaledSiteOp]:
    table = {}
    for a in SiteOp:
        for b in SiteOp:
            if a is _ZERO or b is _ZERO:
                entry: tuple[complex, SiteOp] = (0, _ZERO)
            elif a is _S0:
                entry = (1, b)
            elif b is _S0:
                entry = (1, a)
            else:
                entry = _CORE[(a, b)]
            table[(a, b)] = ScaledSiteOp(complex(entry[0]), entry[1])
    return table


#: Full 9x9 product table, symbol x symbol -> scaled symbol.
PRODUCT_TABLE = _build_table()


def op_product(a: ScaledSiteOp | SiteOp, b: ScaledSiteOp | SiteOp) -> ScaledSiteOp:
    """Exact product of two scaled site operators, as a prebuilt canonical one."""
    a, b = _as_scaled(a), _as_scaled(b)
    entry = PRODUCT_TABLE[(a.op, b.op)]
    key = (a.coeff * b.coeff * entry.coeff, entry.op)
    # only an operator forged past __post_init__ misses the table; building its key refuses it
    return _CANONICAL.get(key) or ScaledSiteOp(*key)


# Per-bit action of each symbol: index by the incoming bit value, get either
# None (the operator kills that branch) or (outgoing bit, coefficient).
_ACTION: dict[SiteOp, tuple[tuple[int, complex] | None, tuple[int, complex] | None]] = {
    _ZERO: (None, None),
    _P0: ((0, 1 + 0j), None),
    _P1: (None, (1, 1 + 0j)),
    _A: (None, (0, 1 + 0j)),
    _AP: ((1, 1 + 0j), None),
    _S0: ((0, 1 + 0j), (1, 1 + 0j)),
    _S1: ((1, 1 + 0j), (0, 1 + 0j)),
    _S2: ((1, -1j), (0, 1j)),
    _S3: ((0, -1 + 0j), (1, 1 + 0j)),
}


def op_action(op: SiteOp) -> tuple[tuple[int, complex] | None, tuple[int, complex] | None]:
    """Sparse per-bit action of a symbol, indexed by the incoming bit."""
    return _ACTION[op]


def op_bit_matrix(op: ScaledSiteOp | SiteOp) -> np.ndarray:
    """2x2 matrix indexed by bit value (row = outgoing bit, column = incoming)."""
    scaled = _as_scaled(op)
    mat = np.zeros((2, 2), dtype=complex)
    for bit_in, entry in enumerate(_ACTION[scaled.op]):
        if entry is not None:
            bit_out, coeff = entry
            mat[bit_out, bit_in] = coeff
    return scaled.coeff * mat


def op_matrix(op: ScaledSiteOp | SiteOp) -> np.ndarray:
    """2x2 matrix in the display layout (first component = |1) amplitude)."""
    return op_bit_matrix(op)[::-1, ::-1].copy()


@dataclass(frozen=True)
class PhaseTransform:
    """Diagonal basis rephasing |1) -> e^{-i alpha}|1), |0) -> e^{-i beta}|0).

    Angle arrays of one shape stand for one rephasing per position.
    """

    alpha: float | np.ndarray
    beta: float | np.ndarray

    @property
    def matrix(self) -> np.ndarray:
        """The 2x2 matrix, or a stack of them in front for angle arrays."""
        u = np.zeros((*np.shape(self.alpha), 2, 2), dtype=complex)
        u[..., 0, 0], u[..., 1, 1] = np.exp(-1j * self.alpha), np.exp(-1j * self.beta)
        return u


def phase_conjugate(op: ScaledSiteOp | SiteOp, transform: PhaseTransform) -> np.ndarray:
    """Matrix of U op U+ for the given rephasing, in the display layout.

    Diagonal symbols are invariant; the shifts pick up opposite phases
    e^{+-i(alpha-beta)} and S1, S2 rotate into each other by the same angle.
    """
    u = transform.matrix
    return u @ op_matrix(op) @ u.conj().swapaxes(-1, -2)
