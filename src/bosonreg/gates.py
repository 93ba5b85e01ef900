"""Monomial branches, two-site gates, and weighted gate circuits.

Every factor in this package is a key rewrite: once the values of a few
bits are fixed, it sends one basis key to one key times a coefficient.  One
record describes such a rewrite, the branch

    (cond_mask, cond_value, xor_mask, coeff)

which sends a key k with k & cond_mask == cond_value to k ^ xor_mask times
coeff and annihilates every other key.  A linear map is a sequence of
branches whose images add.  Site operators, gates, hops, projectors and whole
circuits all compile to branches, and compose, apply_index (with
plan_index) and branch_matrix are the only code that rewrites keys.  Sparse
application first cuts the branch list into runs of adjacent branches that
share a cond_mask (index_branches); each stored key then finds the branches
it meets by one lookup of key & cond_mask per run, in branch order.
Applying any number of operators to many states that store the same keys in
the same order, and reading each image on those keys alone, can be compiled
once into one plan (plan_index, which shares apply_index's lookup) and then
run on all of them at once, as a few float64 array passes over one row of
amplitudes per state and operator (apply_plan).

CNOT with control a and target b flips bit b exactly on branches where bit a
is 1; its transpose is the same gate with the roles swapped, written
cnot(b, a).  The bit transpose T(a, b) exchanges the two bits.  Its
one-parameter extension T(a, b, theta) phases the two exchange branches
oppositely:

    (bit a, bit b) = (1, 0)  ->  (0, 1)  times e^{+i theta}
    (bit a, bit b) = (0, 1)  ->  (1, 0)  times e^{-i theta}

while equal-bit branches pass through unchanged; theta = 0 is the plain
swap.  Sparse application costs stored amplitudes times runs plus the
images produced, never 2**R; every operator the package builds is at most
one run.

A Circuit is a complex-weighted sum of factor products, each factor being a
single-site operator placement, a CNOT, or a phased transpose; each placement
object compiles to branches and writes its JSON text once, at first use.
local() hands out one shared placement per (site, op) for int sites below
MAX_RANK, so those compile and write once per process; the JSON parser
hands out the same objects.  That table is the only sharing: CNOT and T
placements are made anew each time, by the parser too, since theta is
unbounded and a patched _placement_branches must reach those built after
the patch.
Within a product the rightmost factor acts first.  Circuits are linear maps
rather than unitaries and serve as the exchange format for decompositions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, count, repeat
from typing import Collection, Iterable, Iterator, Mapping, Sequence

import numpy as np

from . import jsonio
from .errors import RankMismatchError, RankTooLargeError
from .qubit import PhaseTransform, SiteOp, op_action
from .register import DENSE_MAX_RANK, MAX_RANK, RegisterState, _check_rank

__all__ = [
    "Branch",
    "IDENTITY",
    "compose",
    "BranchIndex",
    "index_branches",
    "apply_index",
    "ApplyPlan",
    "plan_index",
    "apply_plan",
    "branch_matrix",
    "site_branches",
    "circuit_branches",
    "GatePlacement",
    "local",
    "cnot",
    "transpose_theta",
    "CircuitTerm",
    "Circuit",
    "CircuitPair",
    "apply_circuit",
    "circuit_to_matrix",
    "circuit_to_json_text",
    "circuit_from_json_obj",
    "cnot_matrix",
    "transpose_theta_matrix",
    "conjugated_cnot_matrix",
]

#: (cond_mask, cond_value, xor_mask, coeff); cond_value has no bit outside cond_mask.
Branch = tuple[int, int, int, complex]

#: The unit map as a single unconditioned branch.
IDENTITY: tuple[Branch, ...] = ((0, 0, 0, 1 + 0j),)


def compose(left: Iterable[Branch], right: Iterable[Branch]) -> tuple[Branch, ...]:
    """Branches of ``left`` after ``right``, in right-major order.

    A pair is dropped when ``left``'s condition, read back through
    ``right``'s flip, disagrees with ``right``'s condition on a shared bit.
    """
    left = tuple(left)
    out = []
    for mask_r, value_r, flip_r, coeff_r in right:
        for mask_l, value_l, flip_l, coeff_l in left:
            if (value_r ^ value_l ^ flip_r) & mask_r & mask_l:
                continue
            out.append((
                mask_r | mask_l,
                value_r | ((value_l ^ flip_r) & mask_l),
                flip_r ^ flip_l,
                coeff_r * coeff_l,
            ))
    return tuple(out)


#: The branch list cut into runs of adjacent branches that share a cond_mask,
#: each run a {cond_value: hits} table; a hit is (xor_mask, coeff), in branch order.
BranchIndex = tuple[tuple[int, dict[int, list[tuple[int, complex]]]], ...]


def index_branches(branches: Iterable[Branch]) -> BranchIndex:
    """Cut the branches into one-mask runs, appending each hit to its cond_value's list."""
    runs, run_mask, table = [], None, {}
    for mask, value, flip, coeff in branches:
        if mask != run_mask:
            run_mask, table = mask, {}
            runs.append((mask, table))
        table.setdefault(value, []).append((flip, complex(coeff)))
    return tuple(runs)


def _lookup(index: BranchIndex, keys: Collection[int]) -> Iterator[Iterable[tuple[int, complex]]]:
    """The hits each key meets, in branch order: one lookup pass per run,
    each run's hits following those of the runs before it."""
    per_run = [map(table.get, map(mask.__and__, keys), repeat(())) for mask, table in index]
    return map(chain.from_iterable, zip(*per_run))


def apply_index(rank: int, index: BranchIndex, state: RegisterState) -> RegisterState:
    """Sparse action: each stored key looks up ``key & cond_mask`` once per run."""
    if state.rank != rank:
        raise RankMismatchError(f"state rank {state.rank} vs operator rank {rank}")
    acc: dict[int, complex] = {}
    for (key, amp), hits in zip(state.items(), _lookup(index, state.amplitudes)):
        for flip, coeff in hits:
            out_key = key ^ flip
            acc[out_key] = acc.get(out_key, 0j) + amp * coeff
    return RegisterState(rank, acc)


@dataclass(frozen=True)
class ApplyPlan:
    """apply_index compiled, for several operators at once, for states that
    store a fixed key list, in order, and read back on those keys alone.

    Slot s is the s-th source key; what an operator writes to any other key
    is dropped.  Layer k holds every slot's k-th contribution, in the order
    apply_index adds them: ``positions`` and ``re`` hold source positions
    and coeffs' real parts as (layer, operator, slot) arrays, and ``turned``
    their imaginary parts as (layer, 2, 1, operator, slot), stacked as
    (-imag, imag).  A slot with fewer, or one the operator does not write,
    is padded with (number of sources, 0j), a position that holds a zero
    amplitude.  An accumulator built as 0.0 + x never holds -0.0, so
    adding the padding's 0j * 0j leaves it exactly as it was, and a slot the
    operator does not write stays +0.0.
    """

    positions: np.ndarray
    re: np.ndarray
    turned: np.ndarray


def plan_index(indexes: Sequence[BranchIndex], sources: Sequence[int]) -> ApplyPlan:
    """Record what apply_index does with each of ``indexes`` to states that
    store ``sources``, in order, on those keys, taking each coeff from the
    index's hits.  One counter per (operator, slot) gives each contribution
    its layer, and positions and coeffs are scattered into the plan once."""
    slots = {key: slot for slot, key in enumerate(sources)}
    stride = len(indexes) * len(slots)  # flat index (layer, operator, slot)
    layers = [0] * stride  # the contributions each (operator, slot) has so far
    at, positions, coeffs = [], [], []
    for operator, index in enumerate(indexes):
        cells = operator * len(slots)
        for position, key, hits in zip(count(), sources, _lookup(index, sources)):
            for flip, coeff in hits:
                slot = slots.get(key ^ flip)
                if slot is not None:
                    cell = cells + slot
                    at.append(layers[cell] * stride + cell)
                    layers[cell] += 1
                    positions.append(position)
                    coeffs.append(coeff)
    shape = (max(layers, default=0), len(indexes), len(slots))
    at = np.array(at, dtype=np.intp)
    planned = np.full(shape, len(sources), dtype=np.intp)
    planned.put(at, positions)
    weights = np.zeros(shape, dtype=complex)
    weights.put(at, coeffs)
    turned = np.stack((-weights.imag, weights.imag), axis=1)[:, :, None]  # meets (ai, ar) rows
    return ApplyPlan(planned, weights.real.copy(), turned)


def apply_plan(plan: ApplyPlan, amps: np.ndarray) -> np.ndarray:
    """Real and imaginary image accumulators on the source keys, stacked as
    (2, operator, row, slot), exact zeros not yet dropped.

    ``amps`` stacks the real and imaginary parts of one row of source
    amplitudes per state, in the planned order, each row followed by one 0.0
    for the padding.  Each layer is one pass of apply_index's acc + amp *
    coeff from 0j, the product written out as CPython computes it, (ar cr -
    ai ci, ar ci + ai cr), with ai * -ci for -(ai ci); numpy's complex
    multiply may round otherwise.
    """
    acc = np.zeros((2, amps.shape[1], *plan.positions.shape[1:]))
    for positions, c_re, c_im in zip(plan.positions, plan.re, plan.turned):
        a = amps[:, :, positions]  # (2, row, operator, slot)
        acc = acc + (a * c_re + a[::-1] * c_im)
    return acc.swapaxes(1, 2)


def branch_matrix(rank: int, branches: Iterable[Branch]) -> np.ndarray:
    """Dense 2**R matrix, columns indexed by integer key, one scatter per branch."""
    if rank > DENSE_MAX_RANK:
        raise RankTooLargeError(f"dense matrix needs rank <= {DENSE_MAX_RANK}, got {rank}")
    keys = np.arange(1 << rank)
    mat = np.zeros((1 << rank, 1 << rank), dtype=complex)
    for mask, value, flip, coeff in branches:
        cols = keys[(keys & mask) == value]
        mat[cols ^ flip, cols] += coeff
    return mat


def site_branches(site: int, op: SiteOp) -> tuple[Branch, ...]:
    """One named operator at one site, read off its per-bit action.

    An operator that treats both bit values alike (S0, S1) needs no
    condition; the others get one branch per bit value they do not kill.
    """
    bit = 1 << site
    branches = []
    for bit_in, entry in enumerate(op_action(op)):
        if entry is not None:
            bit_out, coeff = entry
            branches.append((bit, bit_in * bit, (bit_in ^ bit_out) * bit, coeff))
    if len(branches) == 2 and branches[0][2:] == branches[1][2:]:
        return ((0, 0) + branches[0][2:],)
    return tuple(branches)


@dataclass(frozen=True)
class GatePlacement:
    """One factor of a circuit term: a local operator, a CNOT, or a T gate,
    which keeps its compiled branches and JSON text from first use on.
    local() and the JSON parser share one per in-range (site, op) across
    the process; CNOT and T placements are per object (see the module
    docstring).  A local op is written by its wire name, its ``SiteOp``
    value."""

    kind: str
    site: int | None = None
    op: SiteOp | None = None
    a: int | None = None
    b: int | None = None
    theta: float | None = None

    def __init__(self, kind, site=None, op=None, a=None, b=None, theta=None) -> None:
        self.__dict__.update(kind=kind, site=site, op=op, a=a, b=b, theta=theta)

    @cached_property
    def compiled(self) -> tuple[tuple[Branch, ...], int, int]:
        """Branches, then the bits a guard (P0, P1: one branch, no flip,
        weight 1) tests for 0 and for 1; both are 0 for any other factor."""
        own = _placement_branches(self)
        if len(own) == 1 and own[0][2:] == (0, 1) and own[0][1] in (0, own[0][0]):
            return own, own[0][0] ^ own[0][1], own[0][1]
        return own, 0, 0

    @cached_property
    def text(self) -> str:
        """The factor dict as ``jsonio.dumps`` writes it."""
        return jsonio.dumps(_placement_to_obj(self))


def _check_placement(rank: int, p: GatePlacement) -> GatePlacement:
    if p.kind == "local":
        if not 0 <= p.site < rank:
            raise ValueError(f"site {p.site} out of range for rank {rank}")
    elif not (0 <= p.a < rank and 0 <= p.b < rank) or p.a == p.b:
        raise ValueError(f"sites ({p.a}, {p.b}) must be distinct and below rank {rank}")
    return p


#: local()'s shared placements, one per (site, op), and the same objects
#: keyed by (site, wire name) for the parser; never changed after import.
#: The zero operator has no placement: a vanishing factor drops its term.
_LOCAL = {(s, op): GatePlacement("local", s, op)
          for s in range(MAX_RANK) for op in SiteOp if op is not SiteOp.ZERO}
_LOCAL_BY_NAME = {(s, op.value): p for (s, op), p in _LOCAL.items()}


def local(site: int, op: SiteOp) -> GatePlacement:
    """The shared (site, op) placement; an int site past the table gets a fresh one."""
    if shared := _LOCAL.get((jsonio.integer(site, "site"), op)):
        return shared
    if site < 0:
        raise ValueError("site must be non-negative")
    if (0, op) not in _LOCAL:
        raise ValueError(f"{op} has no circuit placement")
    return GatePlacement("local", site=site, op=op)


def cnot(a: int, b: int) -> GatePlacement:
    a, b = jsonio.integer(a, "a"), jsonio.integer(b, "b")
    if a < 0 or b < 0 or a == b:
        raise ValueError("need two distinct non-negative sites")
    return GatePlacement("cnot", a=a, b=b)


def transpose_theta(a: int, b: int, theta: float) -> GatePlacement:
    a, b = jsonio.integer(a, "a"), jsonio.integer(b, "b")
    if a < 0 or b < 0 or a == b:
        raise ValueError("need two distinct non-negative sites")
    theta = float(theta)
    if not math.isfinite(theta):
        raise ValueError("theta must be finite")
    return GatePlacement("T", a=a, b=b, theta=theta)


@dataclass(frozen=True)
class CircuitTerm:
    coeff: complex
    factors: tuple[GatePlacement, ...]

    def __init__(self, coeff: complex, factors: Iterable[GatePlacement]) -> None:
        self.__dict__.update(coeff=complex(coeff), factors=tuple(factors))


@dataclass(frozen=True)
class Circuit:
    """Weighted sum of placement products on a fixed-rank register.

    Building one checks the rank and each distinct placement object against
    it; decompositions and the JSON parser check theirs as they make them.
    """

    rank: int
    terms: tuple[CircuitTerm, ...]

    def __post_init__(self) -> None:
        _check_rank(self.rank)
        object.__setattr__(self, "terms", tuple(self.terms))
        for p in {id(p): p for term in self.terms for p in term.factors}.values():
            _check_placement(self.rank, p)

    @classmethod
    def _trusted(cls, rank: int, terms: tuple[CircuitTerm, ...]) -> "Circuit":
        """Internal circuits, whose placements are in range; only the rank is checked."""
        circuit = cls.__new__(cls)
        object.__setattr__(circuit, "rank", _check_rank(rank))
        object.__setattr__(circuit, "terms", terms)
        return circuit


@dataclass(frozen=True)
class CircuitPair:
    """A decomposition in two flavors: exact everywhere, and reduced.

    The reduced circuit drops projector counterterms and therefore agrees
    with the full one only on states inside the bosonic subspace.
    """

    full: Circuit
    reduced: Circuit


def _placement_branches(p: GatePlacement) -> tuple[Branch, ...]:
    if p.kind == "local":
        return site_branches(p.site, p.op)
    a, b = 1 << p.a, 1 << p.b
    if p.kind == "cnot":
        return ((a, 0, 0, 1 + 0j), (a, a, b, 1 + 0j))
    if p.kind == "T":
        up = complex(math.cos(p.theta), math.sin(p.theta))
        both = a | b
        return (
            (both, 0, 0, 1 + 0j),
            (both, both, 0, 1 + 0j),
            (both, a, both, up),
            (both, b, both, up.conjugate()),
        )
    raise ValueError(f"unknown placement kind {p.kind!r}")


def circuit_branches(circuit: Circuit) -> tuple[Branch, ...]:
    """Each term composed rightmost factor first and weighted, in term order.

    Each run of adjacent guards (P0 and P1 factors) is kept as the bits it
    tests for 0 and those it tests for 1, and composed once as one merged
    condition; a run that asks one bit to be both 0 and 1 drops its term.
    """
    out: list[Branch] = []
    for term in circuit.terms:
        branches, zeros, ones = IDENTITY, 0, 0  # zeros, ones: the pending guard run
        for p in reversed(term.factors):
            own, zero_bits, one_bits = p.compiled
            if zero_bits:
                zeros |= zero_bits
            elif one_bits:
                ones |= one_bits
            elif zeros & ones:
                break
            else:
                if zeros or ones:
                    branches = compose(((zeros | ones, ones, 0, 1 + 0j),), branches)
                    zeros = ones = 0
                branches = compose(own, branches)
        else:
            if zeros & ones:
                continue
            if zeros or ones:
                branches = compose(((zeros | ones, ones, 0, 1 + 0j),), branches)
            out.extend((m, v, flip, term.coeff * c) for m, v, flip, c in branches)
    return tuple(out)


def apply_circuit(state: RegisterState, circuit: Circuit) -> RegisterState:
    """Apply the weighted sum; within a term the rightmost factor acts first.

    The circuit is compiled to branches on every call.  Code that applies
    one circuit to many states should build
    ``bosonic.circuit_as_operator(circuit)`` once and apply that.
    """
    return apply_index(circuit.rank, index_branches(circuit_branches(circuit)), state)


def circuit_to_matrix(circuit: Circuit) -> np.ndarray:
    """Dense 2**R matrix of the circuit, columns indexed by integer key."""
    return branch_matrix(circuit.rank, circuit_branches(circuit))


def _placement_to_obj(p: GatePlacement) -> dict:
    if p.kind == "local":
        return {"type": "local", "site": p.site, "op": p.op.value}
    if p.kind == "cnot":
        return {"type": "cnot", "a": p.a, "b": p.b}
    return {"type": "T", "a": p.a, "b": p.b, "theta": float(p.theta)}


def circuit_to_json_text(circuit: Circuit) -> str:
    """The circuit as compact JSON text, numbers written as ``jsonio`` writes
    them; each factor is its placement's ``text``."""
    fmt = jsonio.fmt_float
    terms = []
    for term in circuit.terms:
        re, im = fmt(term.coeff.real), fmt(term.coeff.imag)
        factors = ",".join([p.text for p in term.factors])
        terms.append(f'{{"coeff":{{"re":{re},"im":{im}}},"factors":[{factors}]}}')
    return f'{{"rank":{circuit.rank},"terms":[{",".join(terms)}]}}'


def _placement_from_obj(obj: Mapping) -> GatePlacement:
    kind = obj["type"]
    if kind == "local":
        named = _LOCAL_BY_NAME.get((0, obj["op"]))  # any placement of that op
        if named is None:
            raise ValueError(f"unknown op {obj['op']!r}")
        return local(obj["site"], named.op)
    if kind == "cnot":
        return cnot(obj["a"], obj["b"])
    if kind == "T":
        return transpose_theta(obj["a"], obj["b"], jsonio.number(obj["theta"], "theta"))
    raise ValueError(f"unknown factor type {kind!r}")


def circuit_from_json_obj(obj: Mapping) -> Circuit:
    """Parse a circuit object.

    A local factor with an int site below the rank and a known op name is
    local()'s shared placement, found by one lookup of (site, op name) and
    not checked again.  Every other factor (cnot, T, and any local factor
    that misses) is built and checked against the rank on its own, so equal
    cnot or T factors parse to equal but distinct objects, and a zero theta
    keeps its sign.  The rank and every site must be JSON integers, and
    theta and the coefficients JSON numbers; those, a missing field, a value
    of another JSON kind and an unknown name are refused with a ValueError.
    """
    terms = []
    # fields are indexed directly, the cheapest read in the per-factor loop;
    # the block turns the KeyError of a missing one into a ValueError, and
    # the TypeError of hashing a list site or op into one too
    with jsonio.required_fields():
        rank = _check_rank(jsonio.integer(obj["rank"], "rank"))
        for t in obj["terms"]:
            factors = []
            for p in t["factors"]:
                kind = p["type"]
                placement = _LOCAL_BY_NAME.get((p["site"], p["op"])) if kind == "local" else None
                if placement is None or type(p["site"]) is not int or placement.site >= rank:
                    placement = _check_placement(rank, _placement_from_obj(p))
                factors.append(placement)
            re, im = jsonio.number(t["coeff"]["re"], "re"), jsonio.number(t["coeff"]["im"], "im")
            terms.append(CircuitTerm(complex(re, im), tuple(factors)))
    return Circuit._trusted(rank, tuple(terms))


def cnot_matrix() -> np.ndarray:
    """4x4 CNOT, control site 0, target site 1, key order 0..3."""
    return circuit_to_matrix(Circuit(2, (CircuitTerm(1, (cnot(0, 1),)),)))


def transpose_theta_matrix(theta: float) -> np.ndarray:
    """4x4 phased transpose on sites (0, 1), key order 0..3."""
    return circuit_to_matrix(Circuit(2, (CircuitTerm(1, (transpose_theta(0, 1, theta),)),)))


def conjugated_cnot_matrix(
    alpha: float | np.ndarray,
    beta: float | np.ndarray,
    gamma: float | np.ndarray,
    delta: float | np.ndarray,
) -> np.ndarray:
    """CNOT conjugated by site rephasings, control site 0, target site 1.

    Site 0 phases its |1), |0) by e^{-i alpha}, e^{-i beta}; site 1 uses
    gamma, delta.  The control block is untouched while the target exchange
    rotates by the target's phase difference only, so the result equals
    P0 (x) S0 + P1 (x) (cos(gamma - delta) S1 + sin(gamma - delta) S2).

    Angle arrays of one shape give one 4x4 matrix per position, stacked in
    front; each equals the scalar call's matrix bit for bit.
    """
    shape = np.shape(alpha)
    # each site's rephasing reversed from the display layout into bit order 0, 1
    u_a = PhaseTransform(alpha, beta).matrix[..., ::-1, ::-1]
    u_b = PhaseTransform(gamma, delta).matrix[..., ::-1, ::-1]
    # np.kron(u_b, u_a) as np.kron multiplies it; site 1 is the high bit of the key
    u = (u_b[..., :, None, :, None] * u_a[..., None, :, None, :]).reshape(*shape, 4, 4)
    return u @ cnot_matrix() @ u.conj().swapaxes(-1, -2)
