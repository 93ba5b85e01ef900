"""Coherent states on the register and their free evolution.

A coherent amplitude z populates the levels with the usual series
coefficients e^{-|z|^2/2} z^n / sqrt(n!), placed at the keys 2**n.  At
finite rank the series is cut at level R-1; the discarded probability is a
Poisson tail and travels with the state as an explicit tail_mass.  The same
state is reachable a second way, by exponentiating the displacement
generator (z a+ - z* a)/sqrt(2 eps) on the R-dimensional bosonic block, and
the two constructions agreeing is one of the standing cross-checks.

The generator also has a gate form.  Writing z = i r e^{i theta}, it is the
weighted transpose sum

    i r sum_n sqrt(n+1) {T(n, n+1, theta) - P0 P0 - P1 P1}

conjugated by empty-site projectors, mirroring the position and momentum
decompositions; dropping the counterterms again gives a reduced circuit
valid on bosonic states only.

Free evolution is diagonal: the amplitude at key 2**n turns by
e^{-i (n + 1/2) eps t / hbar}.  Expectation values of x and p then trace the
classical phase-space circle of angular frequency omega = alpha beta, which
is what trajectory() tabulates.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Sequence

import numpy as np

from .bosonic import (
    PhysParams,
    RegisterOperator,
    _ladder_pair,
    check_transbosonic,
    decomposition_terms,
    embed,
    hamiltonian,
    is_bosonic_state,
    momentum,
    position,
    project,
    register_block,
)
from .errors import NotBosonicError, PhaseOverflowError, TruncationRiskError, ZeroVectorError
from .gates import CircuitPair, apply_plan, index_branches, plan_index
from .jsonio import fmt_float
from .register import RegisterState, _check_rank

__all__ = [
    "CoherentSpec",
    "CoherentState",
    "coherent_series",
    "number_distribution",
    "expm_antihermitian",
    "displacement_generator_block",
    "displacement_apply",
    "displacement_generator_gateform",
    "expectation",
    "evolve",
    "tabulate",
    "Trajectory",
    "trajectory",
]


@dataclass(frozen=True)
class CoherentSpec:
    """A coherent amplitude pinned to a rank and parameter set.

    The guard |z|^2 <= R/4 keeps the Poisson mean far enough below the top
    level for the truncated series to be trustworthy; allow_truncation_risk=True
    lifts it to study the degradation, but an overflowing |z|^2 is refused.
    """

    z: complex
    params: PhysParams
    rank: int
    allow_truncation_risk: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "z", complex(self.z))
        _check_rank(self.rank)
        try:
            mean = abs(self.z) ** 2
        except OverflowError:
            raise TruncationRiskError(f"|z|^2 overflows a float for z = {self.z}") from None
        if mean > self.rank / 4.0 and not self.allow_truncation_risk:
            raise TruncationRiskError(
                f"|z|^2 = {mean:.3g} exceeds rank/4 = {self.rank / 4.0:.3g}"
            )

    @property
    def r(self) -> float:
        return abs(self.z)

    @property
    def theta(self) -> float:
        """Rotation angle with z = i r e^{i theta}, wrapped to [-pi, pi); 0 at z = 0."""
        if self.z == 0:
            return 0.0
        # cmath.phase's atan2, without its OverflowError when the angle underflows
        raw = math.atan2(self.z.imag, self.z.real) - math.pi / 2.0
        return (raw + math.pi) % (2.0 * math.pi) - math.pi


@dataclass(frozen=True)
class CoherentState:
    """A truncated coherent state plus the probability it had to drop."""

    state: RegisterState
    tail_mass: float


def coherent_series(spec: CoherentSpec) -> CoherentState:
    """Truncated series construction; amplitudes are the exact coefficients."""
    mean = abs(spec.z) ** 2
    amp = complex(math.exp(-0.5 * mean))
    if amp == 0:  # past |z|^2 of about 1490
        raise TruncationRiskError(
            f"exp(-|z|^2/2) underflows to 0 at |z|^2 = {mean:.3g}, so every amplitude would be 0"
        )
    kept = 0.0
    coeffs = []
    for n in range(spec.rank):
        coeffs.append(amp)
        kept += abs(amp) ** 2
        amp = amp * spec.z / math.sqrt(n + 1)
    tail = _poisson_tail(mean, spec.rank, abs(amp) ** 2, kept)
    return CoherentState(embed(coeffs), tail)


def _poisson_tail(mean: float, rank: int, first: float, kept: float) -> float:
    """Probability of the levels n >= rank, whose first term (n = rank) is ``first``.

    Up to mean = rank the terms fall from the first on and are summed
    directly, so a tiny tail keeps its relative accuracy.  Past that the kept
    mass is at most about one half and 1 - kept loses no digits.
    """
    if mean > rank:
        return max(0.0, 1.0 - kept)
    tail, term, n = 0.0, first, rank
    while tail + term != tail:
        tail += term
        n += 1
        term *= mean / n
    return tail


def number_distribution(state: RegisterState) -> np.ndarray:
    """Raw level probabilities |amplitude at key 2**n|^2, unnormalized."""
    # a scalar abs per level: np.abs(z)**2 can differ from it in the last bit
    return np.array([abs(c) ** 2 for c in project(state).tolist()], dtype=float)


def expm_antihermitian(g: np.ndarray) -> np.ndarray:
    """Exponential of an anti-Hermitian matrix through its eigensystem.

    g = i h with h Hermitian, so exp(g) = U diag(e^{i w}) U+ exactly; no
    scaling-and-squaring error model to worry about.
    """
    return _expm_i(_hermitian_of(g))


# The two steps of expm_antihermitian call numpy only, so a worker thread
# can run them without entering any public function of the package.


def _hermitian_of(g: np.ndarray) -> np.ndarray:
    """h = g / i, once g is checked to be anti-Hermitian to 1e-10 relative to 1 + max|g|."""
    g = np.asarray(g, dtype=complex)
    scale = 1.0 + float(np.max(np.abs(g))) if g.size else 1.0
    if float(np.max(np.abs(g + g.conj().T))) > 1e-10 * scale:
        raise ValueError("generator is not anti-Hermitian")
    return g / 1j


# the width of the column blocks _expm_i multiplies when it is given keys
_COLUMN_BLOCK = 8


def _expm_i(h: np.ndarray, keys: list[int] | None = None) -> np.ndarray:
    """exp(i h) = U diag(e^{i w}) U+ for Hermitian h; drops h once eigh returns.

    With ``keys``, only the principal submatrix exp(i h)[keys][:, keys].  Each
    of its columns comes from the product of all of U diag(e^{i w}) with the
    block of _COLUMN_BLOCK columns of U+ that holds it and starts at a multiple
    of _COLUMN_BLOCK.  BLAS groups those columns as the full product does, so
    the block has the full product's bits; the full U+ copy and the full
    product are never built.  A block clipped to one column at the matrix edge
    would go through gemv, so it is widened by the block before it.  A subset
    of rows, or an unaligned block, would not keep the bits.  One caveat: under
    the Haswell and Zen OpenBLAS kernels, the last 4 rows of a BLAS thread's
    row range can round otherwise than in the full product (rows 1020-1023
    from column 192 on, for a 1024 x 1024 h on one thread).  The power-of-two
    keys of verify's bosonic block never fall in them.
    """
    w, u = np.linalg.eigh(h)
    del h
    phased = u * np.exp(1j * w)
    if keys is None:
        return phased @ u.conj().T
    size = len(u)
    block = np.empty((len(keys), len(keys)), dtype=complex)
    columns: dict[int, np.ndarray] = {}
    for j, key in enumerate(keys):
        start = key - key % _COLUMN_BLOCK
        if start and start == size - 1:
            start -= _COLUMN_BLOCK
        if start not in columns:
            stop = start + _COLUMN_BLOCK
            columns[start] = phased @ u[start : size if stop == size - 1 else stop].conj().T
        block[:, j] = columns[start][keys, key - start]
    return block


def displacement_generator_block(spec: CoherentSpec) -> np.ndarray:
    """R x R block of (z raise - z* lower)/sqrt(2 eps) from the register ladders."""
    upper, lower = map(register_block, _ladder_pair(spec.params, spec.rank))
    return (spec.z * upper - spec.z.conjugate() * lower) / math.sqrt(
        2.0 * spec.params.epsilon
    )


def displacement_apply(spec: CoherentSpec, state: RegisterState) -> RegisterState:
    """Displace a bosonic state: project, exponentiate the block, embed back.

    The exponential only ever sees the R x R block, never the 2**R space.
    Transbosonic input is refused rather than silently projected.
    """
    if not is_bosonic_state(state):
        raise NotBosonicError("displacement is defined on the bosonic subspace only")
    u = expm_antihermitian(displacement_generator_block(spec))
    return embed(u @ project(state))


def _generator_weights(spec: CoherentSpec) -> tuple[list[complex], float]:
    """The weights i r sqrt(n+1) and theta of the generator; none at z = 0."""
    r = spec.r
    weights = [1j * r * math.sqrt(n + 1) for n in range(spec.rank - 1)] if r else []
    return weights, spec.theta


def displacement_generator_gateform(spec: CoherentSpec) -> CircuitPair:
    """The displacement generator as transpose circuits, full and reduced.

    z = 0 yields the empty sum, whose exponential is the identity.
    """
    return decomposition_terms(spec.rank, *_generator_weights(spec))


def _nonzero(norm_sq: float, state: RegisterState) -> float:
    """(state | state), which an expectation value divides by, refused when
    zero; a state that stores any amplitude got there by underflow."""
    if norm_sq == 0.0:
        if not state.is_zero:
            raise ZeroVectorError(
                "the state's squared norm underflows to 0, so its expectation values are undefined"
            )
        raise ZeroVectorError("expectation value of the zero vector is undefined")
    return norm_sq


def expectation(op: RegisterOperator, state: RegisterState) -> complex:
    """(state | op state) / (state | state)."""
    norm_sq = _nonzero(state.inner_product(state).real, state)
    return state.inner_product(op.apply(state)) / norm_sq


# The largest top-level phase |(R - 1/2) eps t / hbar| evolve accepts, in rad.
# A double of that size is rounded by at most 2**-27 rad (about 7.5e-9), still
# below the 1e-8 to which x and p are checked; past it the digits run out.
_MAX_PHASE = 2.0**26


def _phase_rate(rank: int, t: float, params: PhysParams) -> float:
    """eps t / hbar, refused when the top level's phase (R - 1/2) times it
    exceeds _MAX_PHASE in magnitude or is not a number."""
    rate = params.epsilon * t / params.hbar
    top = (rank - 0.5) * rate
    if not abs(top) <= _MAX_PHASE:
        bound = f"; its top phase {top:.3g} rad exceeds 2**26" if math.isfinite(top) else ""
        raise PhaseOverflowError(
            f"evolution phase overflows: epsilon * t / hbar = {rate:.3g}"
            f" at t = {t:.6g}, rank {rank}{bound}"
        )
    return rate


def evolve(state: RegisterState, t: float, params: PhysParams) -> RegisterState:
    """Free evolution: turn the level-n amplitude by e^{-i (n+1/2) eps t / hbar}.

    Defined on the bosonic subspace only; any transbosonic key is an error
    because no level phase is assigned to it.  A top-level phase past
    2**26 rad is refused: it would carry too few correct digits, and one
    that overflows a float would turn its amplitude into NaN.
    """
    check_transbosonic(state)
    rate = _phase_rate(state.rank, t, params)
    out = {
        key: amp * cmath.exp(-1j * (key.bit_length() - 0.5) * rate)
        for key, amp in state.items()
    }
    return RegisterState(state.rank, out)


def _level_phases(rates: Sequence[float], keys: Iterable[int]) -> tuple[np.ndarray, np.ndarray]:
    """cos and sin of the phase e^{-i (n + 1/2) rate} of each key 2**n, one row per rate.

    The angle is 0.0 + rate * -(n + 1/2).  That is exactly the imaginary part
    of turn * rate, turn = -1j * (n + 1/2), as CPython 3.10-3.13 multiplies a
    complex by a float: as complex(rate, 0.0), which leaves the real part 0.0
    and turns an angle of -0.0 into 0.0.  cmath.exp at real part 0.0 is
    (cos, sin) of the imaginary part, and numpy's float64 cos and sin give
    libm's bits, so each phase has the bits of cmath.exp(turn * rate).
    """
    turns = np.array([-(key.bit_length() - 0.5) for key in keys])
    angle = 0.0 + np.multiply.outer(np.asarray(rates, dtype=float), turns)
    return np.cos(angle), np.sin(angle)


def _real_quotients(re: np.ndarray, im: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """(complex(re, im) / norm).real for a norm > 0, inf or NaN, as CPython
    3.10-3.13 divides a complex by a float: (re + im * 0.0) / norm, signed
    zeros included."""
    return (re + im * 0.0) / norms


def _running_sum(terms: np.ndarray) -> np.ndarray:
    """reduce(add, terms, 0.0) along the last axis, in order; np.sum may pair terms."""
    zero = np.zeros(terms.shape[:-1] + (1,))
    return np.add.accumulate(np.concatenate((zero, terms), axis=-1), axis=-1)[..., -1]


def tabulate(
    state: RegisterState,
    ops: Sequence[RegisterOperator],
    times: Iterable[float],
    params: PhysParams,
) -> list[list[float]]:
    """expectation(op, evolve(state, t, params)).real for each op and time.

    One column per op, in the order of ``ops``, one value per time, bit for
    bit the values of that loop.  All ops share one plan over the state's
    key order, which every snapshot keeps: a nonzero amplitude times a unit
    phase never rounds to 0, because cos or sin exceeds 1/2 in magnitude.
    Times run in blocks of up to 1024.  A block's phase factors are one
    _level_phases pass, with the bits of evolve's cmath.exp; its snapshots
    and norms are float64 array passes of CPython's complex products, the
    norms summed left to right from 0.  Each time is refused in turn, its
    phase past the bound before its zero norm.  Then the plan runs once on
    the whole block on the state's keys, and inner_product's sum of
    conj(state) * image from 0j over the state's keys, in their order, is
    one pass for every op.  A key the image does not store adds +0.0, even
    where its product is NaN, and that changes no sum: one that starts from
    +0.0 never holds -0.0.  Each sum's real quotient by its norm is one
    _real_quotients pass.
    """
    check_transbosonic(state)
    keys = list(state.amplitudes)
    start = np.array(list(state.amplitudes.values()))
    plan = plan_index([index_branches(op.branches) for op in ops], keys)
    columns: list[list[float]] = [[] for _ in ops]
    times = iter(times)
    while block := list(islice(times, 1024)):  # blocks bound the arrays' memory
        rates: list[float] = []
        refused = None
        for t in block:
            try:
                rates.append(_phase_rate(state.rank, float(t), params))
            except PhaseOverflowError as error:
                refused = error
                break
        cos, sin = _level_phases(rates, keys)
        # the snapshots start * phase, one row per time, then the zero the plan's padding reads
        amps = np.zeros((2, len(rates), len(keys) + 1))
        with np.errstate(all="ignore"):  # an inf or nan arises as silently as in Python
            amps[0, :, :-1] = start.real * cos - start.imag * sin
            amps[1, :, :-1] = start.real * sin + start.imag * cos
            amp_re, amp_im = snapshots = amps[..., :-1]
            # conj(amp) * x as CPython multiplies it, with (-a) * b written as -(a * b)
            squares = snapshots * snapshots
            norms = _running_sum(squares[0] + squares[1])
            for norm in norms.tolist():
                _nonzero(norm, state)
            if refused is not None:
                raise refused
            image = apply_plan(plan, amps)  # (2, op, time, slot)
            # abs(value) > 0.0: hypot is inf with an infinite part, else NaN with a
            # NaN part, else nonzero exactly when a part is
            parts = np.abs(image)
            stored = (parts.max(axis=0) > 0.0) | np.isinf(parts).any(axis=0)
            turned = np.stack((amp_im, -amp_im))[:, None]  # meets the (im, re) rows
            products = amp_re * image + turned * image[::-1]
            sums = _running_sum(np.where(stored, products, 0.0))
            for column, values in zip(columns, _real_quotients(*sums, norms).tolist()):
                column += values
    return columns


@dataclass(frozen=True)
class Trajectory:
    """Sampled expectation values of x, p, and energy along free evolution."""

    times: np.ndarray
    x: np.ndarray
    p: np.ndarray
    h: np.ndarray

    def to_csv(self) -> str:
        """One row per time, each value written as fmt_float writes it: "%.17g"
        formats a float as format(value, ".17g") does, and a value that is not
        finite is refused with fmt_float's error."""
        values = np.array([self.times, self.x, self.p, self.h], dtype=float).T
        finite = np.isfinite(values)
        if not finite.all():
            fmt_float(values[~finite][0])
        rows = "%.17g,%.17g,%.17g,%.17g\n" * len(values) % tuple(values.ravel().tolist())
        return "t,x,p,h\n" + rows


def trajectory(spec: CoherentSpec, times: np.ndarray) -> Trajectory:
    """Evolve the coherent state and tabulate <x>, <p>, <h> at each time."""
    times = np.asarray(times, dtype=float)
    params, rank = spec.params, spec.rank
    ladders = _ladder_pair(params, rank)  # one (raise, lower) pair serves x and p
    ops = (position(params, rank, ladders), momentum(params, rank, ladders),
           hamiltonian(params, rank))
    x, p, h = tabulate(coherent_series(spec).state, ops, times, params)
    return Trajectory(times, np.array(x), np.array(p), np.array(h))
