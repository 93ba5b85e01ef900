"""Index maps, classification, and sparse register states."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bosonreg import jsonio
from bosonreg.bosonic import PhysParams, RegisterOperator, gate_decomposition, ladder
from bosonreg.coherent import CoherentSpec, coherent_series, evolve
from bosonreg.gates import IDENTITY, Circuit, apply_circuit
from bosonreg.register import (
    EventuallyPeriodicSequence,
    RegisterState,
    SequenceClass,
    computational_map,
    continuum_map,
)


@pytest.mark.parametrize(
    "build",
    [
        lambda rank: RegisterState(rank, {1: 1}),
        lambda rank: RegisterOperator(rank, IDENTITY),
        lambda rank: Circuit(rank, ()),
        lambda rank: CoherentSpec(0.1, PhysParams(), rank),
    ],
    ids=["RegisterState", "RegisterOperator", "Circuit", "CoherentSpec"],
)
def test_a_bool_rank_is_refused(build):
    """True is an int subclass; taken as rank 1 it would be written as
    ``true`` or ``True``, which no reader takes back as a rank."""
    with pytest.raises(ValueError, match=r"^rank must be an integer in \[1, 64\], got True$"):
        build(True)
    assert build(1).rank == 1


def test_computational_map_examples():
    assert computational_map((1, 1, 0, 1)) == 11
    assert computational_map((0,)) == 0
    assert computational_map((1,)) == 1
    assert computational_map((0, 0, 0, 1)) == 8


def test_computational_map_bijective_rank_12():
    rank = 12
    seen = set()
    for key in range(1 << rank):
        bits = tuple((key >> n) & 1 for n in range(rank))
        value = computational_map(bits)
        assert value == key
        seen.add(value)
    assert len(seen) == 1 << rank


def test_continuum_collision():
    """Terminating 1 and the repeating tail 0111... hit the same rational."""
    recurring = EventuallyPeriodicSequence((0,), (1,))
    terminating = EventuallyPeriodicSequence((1,))
    assert continuum_map(recurring) == continuum_map(terminating) == Fraction(1)
    assert recurring.classify() is SequenceClass.RECURRING
    assert terminating.classify() is SequenceClass.FINITE_COUNTABLE


def test_continuum_examples():
    assert continuum_map(EventuallyPeriodicSequence((1, 0, 1))) == Fraction(5, 4)
    assert continuum_map(EventuallyPeriodicSequence((), (1,))) == Fraction(2)
    assert continuum_map(EventuallyPeriodicSequence((), (0, 1))) == Fraction(2, 3)
    assert continuum_map(EventuallyPeriodicSequence((1, 1), (1, 0))) == Fraction(11, 6)


@given(
    prefix=st.lists(st.integers(0, 1), max_size=8).map(tuple),
    period=st.lists(st.integers(0, 1), max_size=6).map(tuple),
)
def test_continuum_range(prefix, period):
    value = continuum_map(EventuallyPeriodicSequence(prefix, period))
    assert Fraction(0) <= value <= Fraction(2)


def test_zero_period_normalizes_to_terminating():
    seq = EventuallyPeriodicSequence((1, 0), (0, 0, 0))
    assert seq.period == ()
    assert seq.classify() is SequenceClass.FINITE_COUNTABLE
    assert computational_map(seq.prefix) == 1


def test_void_vs_zero_vector():
    """The all-zeros basis state is a unit vector, not the empty state."""
    void = RegisterState.void(4)
    zero = RegisterState.zero(4)
    assert void.amplitude(0) == 1
    assert len(void) == 1
    assert zero.is_zero and len(zero) == 0
    assert void != zero
    assert abs(void.norm() - 1) == 0


def test_basis_orthonormality():
    states = [RegisterState.basis(3, k) for k in range(8)]
    for i, s in enumerate(states):
        for j, t in enumerate(states):
            expected = 1 if i == j else 0
            assert s.inner_product(t) == expected


def test_inner_product_antilinear_in_first_argument():
    s = RegisterState(2, {0: 1j, 3: 2})
    t = RegisterState(2, {0: 1, 3: 1j})
    assert s.inner_product(t) == 1j
    assert s.inner_product(t) == t.inner_product(s).conjugate()


def test_inner_product_sums_over_the_bra_in_its_order():
    """conj(bra) * ket from 0j, left to right over the bra's keys in the
    bra's order, where the ket stores fewer keys in another order: the
    terms -1e16j, 1e16j, -1j sum to -1j in the bra's order and to 0j in the
    ket's, whose -1j comes first and is lost against -1e16j."""
    bra = RegisterState(4, {1: 1j, 2: 1j, 4: 1j, 8: 1})
    ket = RegisterState(4, {4: 1, 1: 1e16, 2: -1e16})
    total = 0j
    for key, value in bra.items():
        if key in ket.amplitudes:
            total += value.conjugate() * ket.amplitude(key)
    got = bra.inner_product(ket)
    assert got == total == -1j
    assert math.copysign(1, got.real) == math.copysign(1, total.real)


def test_arithmetic_and_normalization():
    s = RegisterState.basis(2, 1) + RegisterState.basis(2, 2)
    assert abs(s.norm() - 2 ** 0.5) < 1e-15
    n = s.scale(1 / s.norm())
    assert abs(n.norm() - 1) < 1e-15
    assert (s - s).is_zero
    assert s.scale(0).is_zero


def test_exact_zero_amplitudes_are_pruned():
    s = RegisterState(2, {1: 1.0, 2: 0.0})
    assert len(s) == 1
    assert s.amplitude(2) == 0


@given(
    amplitudes=st.dictionaries(
        st.integers(0, 15),
        st.complex_numbers(max_magnitude=10, allow_nan=False, allow_infinity=False),
        max_size=6,
    )
)
def test_json_roundtrip_is_exact(amplitudes):
    state = RegisterState(4, amplitudes)
    again = RegisterState.from_json_obj(jsonio.loads(jsonio.dumps(state.to_json_obj())))
    assert again == state


@pytest.mark.parametrize(
    "obj, message",
    [
        ({"rank": 2.7, "amplitudes": [[1.9, 1, 0]]}, "rank must be an integer, got 2.7"),
        ({"rank": "3", "amplitudes": []}, "rank must be an integer, got '3'"),
        ({"rank": True, "amplitudes": []}, "rank must be an integer, got True"),
        ({"rank": 2, "amplitudes": [[1.9, 1, 0]]}, "key must be an integer, got 1.9"),
        ({"rank": 2, "amplitudes": [[1.0, 1, 0]]}, "key must be an integer, got 1.0"),
        ({"rank": 2, "amplitudes": [[1, True, 0]]}, "re must be a number, got True"),
        ({"rank": 2, "amplitudes": [[1, 1, "0"]]}, "im must be a number, got '0'"),
        ({"rank": 2}, "missing field 'amplitudes'"),
        ({"amplitudes": []}, "missing field 'rank'"),
        ({"rank": 2, "amplitudes": [1]},
         "a value of the wrong JSON kind: cannot unpack non-iterable int object"),
    ],
)
def test_json_parse_refuses_what_it_would_truncate_or_coerce(obj, message):
    with pytest.raises(ValueError) as refused:
        RegisterState.from_json_obj(obj)
    assert str(refused.value) == message


def test_json_parse_takes_int_amplitude_parts():
    """A whole float is written as an int, so ints are read as amplitude parts."""
    state = RegisterState.from_json_obj({"rank": 2, "amplitudes": [[1, 1, 0], [2, 0.5, -2]]})
    assert state == RegisterState(2, {1: 1.0, 2: 0.5 - 2j})


def test_json_layout():
    s = RegisterState(2, {2: 0.5 - 1j})
    obj = s.to_json_obj()
    assert obj == {"rank": 2, "amplitudes": [[2, 0.5, -1.0]]}


def test_norm_sums_left_to_right():
    """Builtin sum compensates float sums from Python 3.12 on; norm() adds
    the squares left to right on every version."""
    amplitudes = {1: 1.0 + 0j, **{1 << n: 1e-8 + 0j for n in range(1, 11)}}
    squares = [abs(v) ** 2 for v in amplitudes.values()]
    total = 0.0
    for square in squares:
        total += square
    # the list tells a compensated sum from a left-to-right one
    assert math.sqrt(math.fsum(squares)) != math.sqrt(total)
    assert RegisterState(11, amplitudes).norm() == float(np.sqrt(total))


def test_every_state_is_built_by_init(monkeypatch):
    """Sparse application, circuits, arithmetic and evolution each return one
    new state, built by __init__, so a wrapper of __init__ (such as the layer
    tracer's states_built counter) counts every state."""
    built = []
    init = RegisterState.__init__

    def counting_init(self, *args):
        init(self, *args)
        built.append(self)

    params = PhysParams()
    state = coherent_series(CoherentSpec(0.5 + 0.2j, params, 6)).state
    lower = ladder("lower", params, 6)
    circuit = gate_decomposition("position", params, 6).full
    monkeypatch.setattr(RegisterState, "__init__", counting_init)
    for step in (
        lambda: lower.apply(state),
        lambda: apply_circuit(state, circuit),
        lambda: state + state,
        lambda: state.scale(2j),
        lambda: evolve(state, 0.3, params),
    ):
        before = len(built)
        result = step()
        assert len(built) == before + 1 and built[-1] is result
