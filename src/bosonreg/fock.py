"""Dense truncated oscillator, kept independent of the register build.

The R-level lowering matrix is written down directly from its matrix
elements, a[n, n+1] = sqrt((n+1) * 2 eps), and the observables follow from
it by the defining formulas:

    x = (a+ + a) / (2 beta)
    p = i (a+ - a) / (2 alpha)
    h = a+ a / 2 + eps/2 * 1

Nothing here touches the key-rewrite machinery, so matching these matrices
against the register operators is a genuine cross-check rather than the same
code run twice.  Truncation leaves one blemish: [a, a+] equals 2 eps on
every level except the top one, where it reads -2 eps (R - 1) instead, a
total defect of -2 eps R times the top-level projector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bosonic import PhysParams, RegisterOperator, register_block

__all__ = [
    "FOCK_MAX_RANK",
    "FockOperatorSet",
    "build_fock",
    "intertwine_check",
]

#: Dense R x R matrices stay cheap well past any register rank.
FOCK_MAX_RANK = 512


@dataclass(frozen=True)
class FockOperatorSet:
    """The five dense level-space operators."""

    a: np.ndarray
    a_plus: np.ndarray
    x: np.ndarray
    p: np.ndarray
    h: np.ndarray


def build_fock(params: PhysParams, rank: int) -> FockOperatorSet:
    if not 1 <= rank <= FOCK_MAX_RANK:
        raise ValueError(f"rank must be in [1, {FOCK_MAX_RANK}], got {rank}")
    eps = params.epsilon
    a = np.zeros((rank, rank), dtype=complex)
    for n in range(rank - 1):
        a[n, n + 1] = np.sqrt((n + 1) * 2.0 * eps)
    a_plus = a.conj().T
    x = (a_plus + a) / (2.0 * params.beta)
    p = 1j * (a_plus - a) / (2.0 * params.alpha)
    h = 0.5 * (a_plus @ a) + 0.5 * eps * np.eye(rank, dtype=complex)
    return FockOperatorSet(a=a, a_plus=a_plus, x=x, p=p, h=h)


def intertwine_check(op: RegisterOperator, fock_matrix: np.ndarray) -> float:
    """Largest entry of |bosonic block - oracle|; the caller judges it."""
    fock_matrix = np.asarray(fock_matrix, dtype=complex)
    if fock_matrix.shape != (op.rank, op.rank):
        raise ValueError(
            f"oracle shape {fock_matrix.shape} does not match rank {op.rank}"
        )
    return float(np.max(np.abs(register_block(op) - fock_matrix)))
