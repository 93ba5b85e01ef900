"""Bosonic structure on the qubit register.

The register key 2**n (exactly one site occupied, at site n) plays the role
of the n-th oscillator level; the span of these R keys is the bosonic
subspace.  Everything outside it, the all-empty configuration included, is
transbosonic and is annihilated by every operator built here.

Operators are lists of monomial branches (see gates).  In the paper each
hop and level projector is a product of site operators with the empty
projector P0 on every other site.  As a one-term circuit of local
placements that product compiles to one branch, the matrix unit between two
power-of-two keys; the functions below write that branch directly (the
tests check it against the compiled circuit):

  * bosonic_projector(n)   keeps exactly the key 2**n
  * bosonic_identity       the sum of all R projectors, the subspace filter
  * b_lower(n) / b_raise(n)  adjacent-site hops moving the single occupied
    site from n+1 down to n and back up; each annihilates every basis key
    other than its source key
  * ladder(...)            weighted hop sums: the register lowering operator
    sum(sqrt((n+1) 2 eps) b_lower(n)) and its raising mirror
  * hamiltonian, position, momentum  the oscillator observables built from
    the ladders, with energy (n + 1/2) eps on level n

where eps = alpha beta hbar is the energy quantum.  Truncation at finite
rank shows up only at the top level: the raising sum simply has no term
mapping level R-1 up, so canonical commutation relations hold exactly on
states with no top-level support.

The bosonic block is a plain length-R complex array, level n at index n.
project(state) reads it off the keys 2**n, embed(coeffs) writes it back as
a state of rank len(coeffs), and register_block(op) is the R x R matrix of
op between those keys, one projected column per level.

position and momentum also come as explicit gate decompositions: weighted
sums of phased transposes T(n, n+1, theta) with projector counterterms,
theta = 0 for position and pi/2 for momentum.  Dropping the counterterms
gives a shorter circuit valid on bosonic states only.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    EnergyScaleError,
    NotBosonicError,
    RankMismatchError,
    ZeroVectorError,
)
from .gates import (
    Branch,
    BranchIndex,
    Circuit,
    CircuitPair,
    CircuitTerm,
    apply_circuit,  # noqa: F401  re-exported; benchmarks/selftest.py reads bosonic.apply_circuit
    apply_index,
    branch_matrix,
    circuit_branches,
    compose,
    index_branches,
    local,
    transpose_theta,
)
from .qubit import SiteOp
from .register import RegisterState, _check_rank

__all__ = [
    "PhysParams",
    "RegisterOperator",
    "circuit_as_operator",
    "bosonic_projector",
    "bosonic_identity",
    "is_bosonic_state",
    "b_lower",
    "b_raise",
    "ladder",
    "hamiltonian",
    "position",
    "momentum",
    "decomposition_terms",
    "gate_decomposition",
    "number_state",
    "check_transbosonic",
    "embed",
    "project",
    "register_block",
]


@dataclass(frozen=True)
class PhysParams:
    """Oscillator constants.  eps = alpha * beta * hbar is the level spacing."""

    alpha: float = 1.0
    beta: float = 1.0
    hbar: float = 1.0

    def __post_init__(self) -> None:
        for name in ("alpha", "beta", "hbar"):
            value = float(getattr(self, name))
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be positive and finite")
            object.__setattr__(self, name, value)
        # eps must be a normal float.  eps, the squared position and momentum
        # scales alpha hbar / beta and beta hbar / alpha, and 1 / omega stay
        # below 2**500, so every sum of squares verify takes and 2 pi / omega are finite
        low, high = sys.float_info.min, 2.0**500
        if not low <= self.epsilon <= high:
            raise EnergyScaleError(
                f"epsilon = alpha * beta * hbar = {self.epsilon:.3g}"
                f" is outside [{low:.3g}, {high:.3g}]"
            )
        for name, value in (
            ("alpha * hbar / beta", self.alpha * self.hbar / self.beta),
            ("beta * hbar / alpha", self.beta * self.hbar / self.alpha),
            ("1 / (alpha * beta)", 1.0 / self.omega),
        ):
            if not value <= high:
                raise EnergyScaleError(f"{name} = {value:.3g} exceeds {high:.3g}")

    @property
    def omega(self) -> float:
        return self.alpha * self.beta

    @property
    def epsilon(self) -> float:
        return self.alpha * self.beta * self.hbar


class RegisterOperator:
    """A linear map on register states, held as a tuple of monomial branches.

    The first application groups the branches by cond_mask and keeps that
    index; every application then costs one lookup per stored amplitude and
    mask, so cost scales with the occupation of the state, not with 2**R or
    the branch count.  Operators combine by +, -, scale and @
    (composition, right factor first); each combination concatenates,
    rescales or composes branches once, when the operator is built.
    """

    __slots__ = ("rank", "branches", "_index")

    def __init__(self, rank: int, branches: Iterable[Branch]) -> None:
        self.rank = _check_rank(rank)
        self.branches = tuple(branches)
        self._index: BranchIndex | None = None

    def _indexed(self) -> BranchIndex:
        if self._index is None:
            self._index = index_branches(self.branches)
        return self._index

    def apply(self, state: RegisterState) -> RegisterState:
        return apply_index(self.rank, self._indexed(), state)

    def __add__(self, other: "RegisterOperator") -> "RegisterOperator":
        return RegisterOperator.weighted_sum(self.rank, ((1 + 0j, self), (1 + 0j, other)))

    def __sub__(self, other: "RegisterOperator") -> "RegisterOperator":
        return RegisterOperator.weighted_sum(self.rank, ((1 + 0j, self), (-1 + 0j, other)))

    def scale(self, factor: complex) -> "RegisterOperator":
        return RegisterOperator.weighted_sum(self.rank, ((factor, self),))

    def __matmul__(self, other: "RegisterOperator") -> "RegisterOperator":
        """Composition self after other."""
        if self.rank != other.rank:
            raise RankMismatchError(f"rank {self.rank} vs {other.rank}")
        return RegisterOperator(self.rank, compose(self.branches, other.branches))

    @classmethod
    def weighted_sum(cls, rank: int, pairs: Iterable[tuple[complex, "RegisterOperator"]],
                     factor: complex | None = None) -> "RegisterOperator":
        """Sum of weight * op over the pairs, every op of rank ``rank``; a ``factor``
        scales it in the same pass, each coeff factor * (weight * c) as scale rounds it."""
        pairs = [(complex(weight), op) for weight, op in pairs]
        for _, op in pairs:
            if op.rank != rank:
                raise RankMismatchError(f"rank {rank} vs {op.rank}")
        factor = None if factor is None else complex(factor)
        return cls(rank, (
            (mask, value, flip, w * c if factor is None else factor * (w * c))
            for w, op in pairs
            for mask, value, flip, c in op.branches
        ))

    def to_matrix(self) -> np.ndarray:
        """Dense 2**R matrix, columns indexed by integer key."""
        return branch_matrix(self.rank, self.branches)


def circuit_as_operator(circuit: Circuit) -> RegisterOperator:
    """The gate circuit compiled to branches, one block per term in term order."""
    return RegisterOperator(circuit.rank, circuit_branches(circuit))


def _level_units(rank: int, terms: Iterable[tuple[complex, int, int]]) -> RegisterOperator:
    """Sum of w |2**t)(2**s| over (w, s, t): each unit is the one branch its
    P0-guarded site product compiles to, weighted as in ``weighted_sum``."""
    full = (1 << rank) - 1
    units = ((full, 1 << s, (1 << s) ^ (1 << t), complex(w) * (1 + 0j)) for w, s, t in terms)
    return RegisterOperator(rank, units)


def bosonic_projector(n: int, rank: int) -> RegisterOperator:
    """Projector onto the single key 2**n (site n occupied, all others empty)."""
    if not 0 <= n < rank:
        raise ValueError(f"level {n} out of range for rank {rank}")
    return _level_units(rank, ((1, n, n),))


def bosonic_identity(rank: int) -> RegisterOperator:
    """Sum of all level projectors: the filter onto the bosonic subspace.

    Keeps every power-of-two key unchanged and annihilates all other keys,
    hence idempotent.
    """
    return _level_units(rank, ((1, n, n) for n in range(rank)))


def is_bosonic_state(state: RegisterState) -> bool:
    """True when the bosonic filter leaves the state unchanged, to 1e-12 of its norm.

    The zero vector carries no usable answer and is rejected.
    """
    if state.is_zero:
        raise ZeroVectorError("the zero vector is neither bosonic nor transbosonic")
    residual = bosonic_identity(state.rank).apply(state) - state
    return residual.norm() <= 1e-12 * state.norm()


def b_lower(n: int, rank: int) -> RegisterOperator:
    """Hop the single occupied site from n+1 down to n.

    Equals |2**n)(2**(n+1)| as a map: every basis key other than 2**(n+1)
    is annihilated; as site operators it is APLUS at n, A at n+1, P0 elsewhere.
    """
    if not 0 <= n <= rank - 2:
        raise ValueError(f"hop ({n}, {n + 1}) out of range for rank {rank}")
    return _level_units(rank, ((1, n + 1, n),))


def b_raise(n: int, rank: int) -> RegisterOperator:
    """Hop the single occupied site from n up to n+1; adjoint of b_lower(n)."""
    if not 0 <= n <= rank - 2:
        raise ValueError(f"hop ({n}, {n + 1}) out of range for rank {rank}")
    return _level_units(rank, ((1, n, n + 1),))


def _level_weight(n: int, params: PhysParams) -> float:
    # sqrt((n+1) * 2 eps): the oscillator matrix element between levels n, n+1
    return math.sqrt((n + 1) * 2.0 * params.epsilon)


def _hops(direction: str, weights: Sequence[complex], rank: int) -> RegisterOperator:
    """The ladder ``direction`` whose hop between levels n, n+1 has weight weights[n]."""
    if direction == "lower":
        return _level_units(rank, ((w, n + 1, n) for n, w in enumerate(weights)))
    if direction == "raise":
        return _level_units(rank, ((w, n, n + 1) for n, w in enumerate(weights)))
    raise ValueError("direction must be 'lower' or 'raise'")


def ladder(direction: str, params: PhysParams, rank: int) -> RegisterOperator:
    """The register lowering or raising operator, a weighted sum of hops.

    Lowering annihilates level 0 (the key 2**0 = 1) and every transbosonic
    key; raising annihilates the top level R-1 because the truncated sum has
    no hop leaving it.
    """
    return _hops(direction, [_level_weight(n, params) + 0j for n in range(rank - 1)], rank)


def hamiltonian(params: PhysParams, rank: int) -> RegisterOperator:
    """Oscillator energy: (n + 1/2) eps on level n, zero off the subspace.

    Agrees exactly with the ladder form (raise @ lower) / 2 + eps/2 * filter
    at every finite rank, including the top level.
    """
    eps = params.epsilon
    return _level_units(rank, (((n + 0.5) * eps + 0j, n, n) for n in range(rank)))


LadderPair = tuple[RegisterOperator, RegisterOperator]


def _ladder_pair(params: PhysParams, rank: int) -> LadderPair:
    """(raise, lower), from one list of the R-1 level weights."""
    weights = [_level_weight(n, params) + 0j for n in range(rank - 1)]
    return _hops("raise", weights, rank), _hops("lower", weights, rank)


def position(
    params: PhysParams, rank: int, ladders: LadderPair | None = None
) -> RegisterOperator:
    """x = (raise + lower) / (2 beta), from ``ladders`` = (raise, lower) if
    given, in one weighted_sum pass with the bits of the sum's scale."""
    up, down = ladders or _ladder_pair(params, rank)
    return RegisterOperator.weighted_sum(
        up.rank, ((1 + 0j, up), (1 + 0j, down)), 1.0 / (2.0 * params.beta)
    )


def momentum(
    params: PhysParams, rank: int, ladders: LadderPair | None = None
) -> RegisterOperator:
    """p = i (raise - lower) / (2 alpha), from ``ladders`` = (raise, lower) if
    given, in one weighted_sum pass with the bits of the difference's scale:
    a lowering coeff is q * ((-1+0j) * c), as (-q) * c flips a zero's sign."""
    up, down = ladders or _ladder_pair(params, rank)
    return RegisterOperator.weighted_sum(
        up.rank, ((1 + 0j, up), (-1 + 0j, down)), 1j / (2.0 * params.alpha)
    )


def decomposition_terms(rank: int, weights: Sequence[complex], theta: float) -> CircuitPair:
    """The one builder of the observable and displacement-generator circuits.

    For each adjacent pair (n, n+1) with weight w_n the full form contributes
    w_n {T(n, n+1, theta) - P0 P0 - P1 P1} conjugated by empty projectors on
    all other sites; the reduced form keeps only the T part (no weights, no
    terms).  theta enters only here: verify's theta-sign fault passes -theta.
    The 2R projector placements are local()'s shared ones, used by every term.
    """
    p0 = [local(j, SiteOp.P0) for j in range(rank)]
    p1 = [local(j, SiteOp.P1) for j in range(rank)]
    full: list[CircuitTerm] = []
    reduced: list[CircuitTerm] = []
    for n, w in enumerate(weights):
        guards = p0[:n] + p0[n + 2:]
        t_factors = tuple(guards + [transpose_theta(n, n + 1, theta)])
        p0_factors = tuple(guards + p0[n:n + 2])
        p1_factors = tuple(guards + p1[n:n + 2])
        full.append(CircuitTerm(w, t_factors))
        full.append(CircuitTerm(-w, p0_factors))
        full.append(CircuitTerm(-w, p1_factors))
        reduced.append(CircuitTerm(w, t_factors))
    return CircuitPair(Circuit._trusted(rank, tuple(full)), Circuit._trusted(rank, tuple(reduced)))


def _observable_weights(kind: str, params: PhysParams, rank: int) -> tuple[list[complex], float]:
    """The weights and theta of position (theta = 0) or momentum (theta = pi/2)."""
    if kind == "position":
        theta, prefactor = 0.0, 1.0 / (2.0 * params.beta)
    elif kind == "momentum":
        theta, prefactor = math.pi / 2.0, 1.0 / (2.0 * params.alpha)
    else:
        raise ValueError("kind must be 'position' or 'momentum'")
    return [prefactor * _level_weight(n, params) + 0j for n in range(rank - 1)], theta


def gate_decomposition(kind: str, params: PhysParams, rank: int) -> CircuitPair:
    """Position or momentum as explicit gate circuits.

    The full circuit reproduces the operator on every state; the reduced one
    (T terms only) matches it on bosonic states but not off the subspace.
    """
    return decomposition_terms(rank, *_observable_weights(kind, params, rank))


def number_state(n: int, params: PhysParams, rank: int) -> RegisterState:
    """Level n built the hard way: n raisings of the ground key, renormalized.

    Each raising from level k is divided by its matrix element right away,
    so no intermediate amplitude overflows or underflows.  The result must
    coincide with the basis state at key 2**n; the construction is checked
    against that and a drift raises an error.
    """
    if not 0 <= n < rank:
        raise ValueError(f"level {n} out of range for rank {rank}")
    state = RegisterState.basis(rank, 1)
    up = ladder("raise", params, rank)
    for level in range(n):
        state = up.apply(state).scale(1.0 / _level_weight(level, params))
    amp = state.amplitude(1 << n)
    if len(state) != 1 or abs(amp - 1.0) > 1e-10:
        raise ArithmeticError("ladder construction drifted off the basis state")
    return state


def embed(coeffs: Sequence[complex]) -> RegisterState:
    """The register state with level-n coefficient at key 2**n; the rank is len(coeffs)."""
    return RegisterState(len(coeffs), {1 << n: c for n, c in enumerate(coeffs)})


def project(state: RegisterState) -> np.ndarray:
    """The length-R complex array of the amplitudes at keys 2**n; the rest is discarded."""
    amps = state.amplitudes
    return np.array([amps.get(1 << n, 0j) for n in range(state.rank)], dtype=complex)


def check_transbosonic(state: RegisterState) -> None:
    """Raise NotBosonicError if any stored key lies off the bosonic basis."""
    for key in state.amplitudes:
        if key <= 0 or key & (key - 1):
            raise NotBosonicError(f"key {key} is outside the bosonic subspace")


def register_block(op: RegisterOperator) -> np.ndarray:
    """R x R block of a register operator between the power-of-two keys.

    Column n is project of the operator applied to the basis state at key
    2**n.  Anything the operator sends off the bosonic basis is invisible
    here and must be checked separately.
    """
    basis = (RegisterState.basis(op.rank, 1 << n) for n in range(op.rank))
    return np.stack([project(op.apply(b)) for b in basis], axis=1)
