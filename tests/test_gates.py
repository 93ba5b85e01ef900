"""CNOT and transpose gates, circuits, and their JSON form."""

import cmath
import dataclasses
import json
import math
import pickle
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bosonreg import gates, jsonio
from bosonreg.bosonic import (
    PhysParams,
    b_lower,
    b_raise,
    bosonic_projector,
    gate_decomposition,
    ladder,
)
from bosonreg.coherent import CoherentSpec, displacement_generator_gateform
from bosonreg.gates import (
    IDENTITY,
    Circuit,
    CircuitTerm,
    GatePlacement,
    apply_circuit,
    apply_index,
    apply_plan,
    circuit_branches,
    circuit_from_json_obj,
    circuit_to_json_text,
    circuit_to_matrix,
    cnot,
    cnot_matrix,
    compose,
    conjugated_cnot_matrix,
    index_branches,
    local,
    plan_index,
    site_branches,
    transpose_theta,
    transpose_theta_matrix,
)
from bosonreg.qubit import SiteOp, op_bit_matrix
from bosonreg.register import RegisterState


def _one_gate(rank: int, placement) -> Circuit:
    """A single placement as a one-term circuit."""
    return Circuit(rank, (CircuitTerm(1, (placement,)),))


def _json_round_trip(circuit: Circuit) -> Circuit:
    """Write the circuit as JSON text and parse it back, as the CLI does."""
    return circuit_from_json_obj(jsonio.loads(circuit_to_json_text(circuit)))


def test_cnot_key_action():
    """Control site a flips bit b; donor bit itself is untouched."""
    flip = _one_gate(2, cnot(0, 1))
    for key in range(4):
        image = apply_circuit(RegisterState.basis(2, key), flip)
        expected = key ^ (((key >> 0) & 1) << 1)
        assert image == RegisterState.basis(2, expected)
    assert apply_circuit(RegisterState.basis(2, 1), flip) == RegisterState.basis(2, 3)
    assert apply_circuit(RegisterState.basis(2, 3), flip) == RegisterState.basis(2, 1)


@given(key=st.integers(0, 15), a=st.integers(0, 3), b=st.integers(0, 3))
def test_cnot_involution(key, a, b):
    if a == b:
        b = (a + 1) % 4
    state = RegisterState.basis(4, key)
    flip = _one_gate(4, cnot(a, b))
    assert apply_circuit(apply_circuit(state, flip), flip) == state


def test_cnot_matrix_is_permutation_oracle():
    expected = np.zeros((4, 4))
    for key in range(4):
        expected[key ^ (((key >> 0) & 1) << 1), key] = 1
    assert np.array_equal(cnot_matrix(), expected)


def test_transpose_from_cnots_exactly():
    c = cnot_matrix()
    ct = circuit_to_matrix(Circuit(2, (CircuitTerm(1, (cnot(1, 0),)),)))
    t = transpose_theta_matrix(0.0)
    assert np.array_equal(t, c @ ct @ c)
    assert np.array_equal(t, ct @ c @ ct)


def test_transpose_swaps_single_occupancy_keys():
    swap = _one_gate(2, transpose_theta(0, 1, 0.0))
    assert apply_circuit(RegisterState.basis(2, 1), swap) == RegisterState.basis(2, 2)
    for key in (0, 3):
        assert apply_circuit(RegisterState.basis(2, key), swap) == RegisterState.basis(2, key)


def test_twisted_transpose_phases():
    """Moving the excitation down-site picks up exp(-i theta)."""
    twisted = _one_gate(2, transpose_theta(0, 1, math.pi / 2))
    up = apply_circuit(RegisterState.basis(2, 1), twisted)
    down = apply_circuit(RegisterState.basis(2, 2), twisted)
    assert abs(up.amplitude(2) - 1j) < 1e-15
    assert abs(down.amplitude(1) - (-1j)) < 1e-15
    equal_bits = apply_circuit(RegisterState.basis(2, 3), twisted)
    assert equal_bits == RegisterState.basis(2, 3)


@given(theta=st.floats(-10, 10, allow_nan=False))
def test_twisted_transpose_is_unitary(theta):
    m = transpose_theta_matrix(theta)
    assert np.max(np.abs(m @ m.conj().T - np.eye(4))) < 1e-14


def test_local_placement_rejects_zero_op():
    with pytest.raises(ValueError):
        local(0, SiteOp.ZERO)


def test_circuit_rightmost_factor_acts_first():
    term = CircuitTerm(1, (cnot(0, 1), local(0, SiteOp.APLUS)))
    circuit = Circuit(2, (term,))
    out = apply_circuit(RegisterState.void(2), circuit)
    assert out == RegisterState.basis(2, 3)
    reversed_term = CircuitTerm(1, (local(0, SiteOp.APLUS), cnot(0, 1)))
    out = apply_circuit(RegisterState.void(2), Circuit(2, (reversed_term,)))
    assert out == RegisterState.basis(2, 1)


def test_circuit_linearity():
    c = Circuit(
        2,
        (
            CircuitTerm(0.5, (local(0, SiteOp.APLUS),)),
            CircuitTerm(-2j, (local(1, SiteOp.APLUS),)),
        ),
    )
    out = apply_circuit(RegisterState.void(2), c)
    assert out == RegisterState(2, {1: 0.5, 2: -2j})


def _single(rank, placement):
    return circuit_to_matrix(Circuit(rank, (CircuitTerm(1, (placement,)),)))


def test_circuit_matrix_matches_kron_oracle():
    c = Circuit(2, (CircuitTerm(1, (local(0, SiteOp.A), local(1, SiteOp.P1))),))
    oracle = np.kron(op_bit_matrix(SiteOp.P1), op_bit_matrix(SiteOp.A))
    assert np.array_equal(circuit_to_matrix(c), oracle)

    eye = np.eye(2, dtype=complex)
    for op in SiteOp:
        if op is SiteOp.ZERO:
            continue
        for site in range(3):
            factors = [op_bit_matrix(op) if s == site else eye for s in range(3)]
            oracle = np.kron(factors[2], np.kron(factors[1], factors[0]))
            assert np.array_equal(_single(3, local(site, op)), oracle), (op, site)

    for a, b in ((0, 1), (1, 0), (0, 2), (2, 1)):
        oracle = np.zeros((8, 8))
        for key in range(8):
            oracle[key ^ (((key >> a) & 1) << b), key] = 1
        assert np.array_equal(_single(3, cnot(a, b)), oracle), (a, b)

    for theta in (0.0, math.pi / 2, 0.7, -2.3):
        up = cmath.exp(1j * theta)
        t01 = np.array(
            [[1, 0, 0, 0], [0, 0, up.conjugate(), 0], [0, up, 0, 0], [0, 0, 0, 1]]
        )
        assert np.array_equal(_single(2, transpose_theta(0, 1, theta)), t01)
        assert np.array_equal(_single(3, transpose_theta(1, 2, theta)), np.kron(t01, eye))
        # T(1, 0) is T(0, 1) with the phases exchanged
        assert np.array_equal(_single(2, transpose_theta(1, 0, theta)), t01.T)


def test_circuit_json_schema():
    c = Circuit(
        2,
        (
            CircuitTerm(
                0.5 - 1j,
                (local(0, SiteOp.APLUS), cnot(0, 1), transpose_theta(0, 1, 0.5)),
            ),
        ),
    )
    assert jsonio.loads(circuit_to_json_text(c)) == {
        "rank": 2,
        "terms": [
            {
                "coeff": {"re": 0.5, "im": -1.0},
                "factors": [
                    {"type": "local", "site": 0, "op": "A+"},
                    {"type": "cnot", "a": 0, "b": 1},
                    {"type": "T", "a": 0, "b": 1, "theta": 0.5},
                ],
            }
        ],
    }


def test_circuit_json_roundtrip():
    c = Circuit(
        3,
        (
            CircuitTerm(1j, (cnot(2, 1), local(0, SiteOp.S2))),
            CircuitTerm(-0.25, (transpose_theta(0, 2, math.pi / 2),)),
        ),
    )
    assert _json_round_trip(c) == c


@pytest.mark.parametrize("kind", ["position", "momentum", "displacement"])
def test_rank64_decompositions_round_trip(kind):
    params = PhysParams(1.3, 0.8, 1.1)
    if kind == "displacement":
        pair = displacement_generator_gateform(CoherentSpec(0.3 + 0.2j, params, 64))
    else:
        pair = gate_decomposition(kind, params, 64)
    for circuit in (pair.full, pair.reduced):
        assert _json_round_trip(circuit) == circuit


def test_parsed_zero_theta_keeps_its_sign():
    """0.0 == -0.0, so equal-looking T factors must not share one parse."""
    text = (
        '{"rank": 2, "terms": [{"coeff": {"re": 1.0, "im": 0.0}, "factors": ['
        '{"type": "T", "a": 0, "b": 1, "theta": 0.0},'
        '{"type": "T", "a": 0, "b": 1, "theta": -0.0}]}]}'
    )
    first, second = circuit_from_json_obj(jsonio.loads(text)).terms[0].factors
    assert math.copysign(1.0, first.theta) == 1.0
    assert math.copysign(1.0, second.theta) == -1.0


def test_parse_keys_each_factor_on_the_fields_its_kind_reads():
    """A local factor is local()'s shared placement whatever stray fields it
    carries; equal cnot factors parse as T factors do, equal but distinct;
    an unknown factor type is still refused."""
    obj = {
        "rank": 3,
        "terms": [
            {
                "coeff": {"re": 1.0, "im": 0.0},
                "factors": [
                    {"type": "local", "site": 1, "op": "A", "a": 0},
                    {"type": "local", "site": 1, "op": "A"},
                    {"type": "cnot", "a": 0, "b": 2, "site": 1},
                    {"type": "cnot", "a": 0, "b": 2},
                ],
            }
        ],
    }
    first, second, third, fourth = circuit_from_json_obj(obj).terms[0].factors
    assert first is second is local(1, SiteOp.A)
    assert third == fourth == cnot(0, 2) and third is not fourth
    obj["terms"][0]["factors"].append({"type": "swap", "a": 0, "b": 1})
    with pytest.raises(ValueError, match="unknown factor type 'swap'"):
        circuit_from_json_obj(obj)


def test_circuit_branches_with_repeated_placements():
    """Shared and equal-but-distinct placements compile as if each factor
    were compiled on its own."""
    pool = [
        local(0, SiteOp.A),
        local(1, SiteOp.APLUS),
        cnot(0, 2),
        transpose_theta(1, 2, 0.7),
        local(0, SiteOp.A),
        transpose_theta(1, 2, -0.4),
        local(2, SiteOp.P1),
    ]
    picks = [(0, 1, 0), (2, 3, 4, 2), (5, 0, 6, 0, 3), (1,), (), (6, 6, 4)]
    circuit = Circuit(
        3,
        tuple(
            CircuitTerm(0.5 - 0.25j * k, tuple(pool[i] for i in pick))
            for k, pick in enumerate(picks)
        ),
    )
    expected = []
    for term in circuit.terms:
        branches = IDENTITY
        for p in reversed(term.factors):
            alone = circuit_branches(Circuit(3, (CircuitTerm(1, (p,)),)))
            branches = compose(alone, branches)
        expected += [(m, v, f, term.coeff * c) for m, v, f, c in branches]
    assert circuit_branches(circuit) == tuple(expected)


def test_circuit_validates_sites():
    with pytest.raises(ValueError):
        Circuit(2, (CircuitTerm(1, (local(2, SiteOp.A),)),))
    with pytest.raises(ValueError):
        Circuit(2, (CircuitTerm(1, (cnot(0, 2),)),))


def test_shared_invalid_placement_is_refused():
    """Each distinct placement is checked once, however often it recurs."""
    guard = local(0, SiteOp.P0)
    for bad, message in ((local(5, SiteOp.P1), "site 5"), (cnot(1, 4), r"sites \(1, 4\)")):
        terms = tuple(CircuitTerm(k, (guard, bad, guard, bad)) for k in range(40))
        with pytest.raises(ValueError, match=message):
            Circuit(3, terms)


def test_circuit_rank_must_be_in_range():
    for rank in (1, 64):
        assert Circuit(rank, ()).rank == rank
    for rank in (0, -1, 65):
        with pytest.raises(ValueError, match="rank must be an integer in"):
            Circuit(rank, ())
        with pytest.raises(ValueError, match="rank must be an integer in"):
            circuit_from_json_obj({"rank": rank, "terms": []})


def _counting_checks(monkeypatch) -> list:
    """Record each placement the gates module checks from here on."""
    calls = []
    check = gates._check_placement

    def counted(rank, p):
        calls.append(p)
        return check(rank, p)

    monkeypatch.setattr(gates, "_check_placement", counted)
    return calls


def test_decompositions_skip_the_placement_walk(monkeypatch):
    """Decompositions build every site from range(rank), so nothing is checked."""
    calls = _counting_checks(monkeypatch)
    params = PhysParams(1.3, 0.8, 1.1)
    gate_decomposition("position", params, 64)
    gate_decomposition("momentum", params, 64)
    displacement_generator_gateform(CoherentSpec(0.3 + 0.2j, params, 64))
    assert calls == []


@pytest.mark.parametrize("half", ["full", "reduced"])
def test_parse_checks_each_placement_once(monkeypatch, half):
    """A parse checks each T factor once and no local factor: those are
    local()'s shared placements, in range by their lookup."""
    circuit = getattr(gate_decomposition("position", PhysParams(1.3, 0.8, 1.1), 64), half)
    obj = jsonio.loads(circuit_to_json_text(circuit))
    factors = [f for t in obj["terms"] for f in t["factors"]]
    t_factors = sum(f["type"] == "T" for f in factors)
    calls = _counting_checks(monkeypatch)
    assert circuit_from_json_obj(obj) == circuit
    assert len(calls) == t_factors < len(factors) / 10


@pytest.mark.parametrize(
    "valid, bad",
    [
        (local(1, SiteOp.P1), local(5, SiteOp.P1)),
        (cnot(0, 1), cnot(1, 4)),
        (transpose_theta(0, 2, 0.5), transpose_theta(4, 1, 0.5)),
    ],
    ids=["local", "cnot", "T"],
)
def test_parsed_out_of_range_factor_is_refused_as_circuit_refuses_it(valid, bad):
    """The parser raises the message Circuit raises, also when the bad factor
    recurs and comes after valid factors of its kind."""
    guard = local(0, SiteOp.P0)
    terms = (CircuitTerm(1, (guard, valid)),) + tuple(
        CircuitTerm(k, (guard, valid, bad, guard, bad)) for k in range(2, 40)
    )
    with pytest.raises(ValueError) as built:
        Circuit(3, terms)
    obj = _fresh_json_obj(Circuit(8, terms))
    obj["rank"] = 3
    with pytest.raises(ValueError) as parsed:
        circuit_from_json_obj(obj)
    assert str(parsed.value) == str(built.value)


@pytest.mark.parametrize(
    "position, field, value",
    [
        (None, "rank", 2.7),
        (None, "rank", 3.0),
        (None, "rank", True),
        (1, "site", 1.9),
        (1, "site", 1.0),
        (1, "site", True),
        (3, "a", 0.5),
        (3, "b", True),
        (4, "a", 0.5),
        (4, "b", "2"),
    ],
)
def test_parse_refuses_non_integer_fields(position, field, value):
    """A float, bool or string where an integer belongs is refused, not
    truncated, even when an equal valid factor came before it."""
    factors = [
        {"type": "local", "site": 1, "op": "P1"},
        {"type": "local", "site": 1, "op": "P1"},
        {"type": "cnot", "a": 0, "b": 1},
        {"type": "cnot", "a": 0, "b": 1},
        {"type": "T", "a": 0, "b": 2, "theta": 0.5},
    ]
    obj = {"rank": 3, "terms": [{"coeff": {"re": 1.0, "im": 0.0}, "factors": factors}]}
    assert len(circuit_from_json_obj(obj).terms[0].factors) == 5
    (obj if position is None else factors[position])[field] = value
    with pytest.raises(ValueError, match=f"{field} must be an integer, got {value!r}"):
        circuit_from_json_obj(obj)


def _parse_one_term(coeff: dict, factors: list) -> Circuit:
    return circuit_from_json_obj({"rank": 3, "terms": [{"coeff": coeff, "factors": factors}]})


_VALID_FACTORS = [
    {"type": "local", "site": 1, "op": "P1"},
    {"type": "cnot", "a": 0, "b": 1},
    {"type": "T", "a": 0, "b": 2, "theta": 0.5},
]


@pytest.mark.parametrize(
    "position, field, message",
    [(0, "type", "missing field 'type'"), (0, "op", "missing field 'op'"),
     (0, "site", "missing field 'site'"), (1, "b", "missing field 'b'"),
     (2, "a", "missing field 'a'"), (2, "theta", "missing field 'theta'")],
)
def test_parse_refuses_a_missing_factor_field(position, field, message):
    factors = [dict(f) for f in _VALID_FACTORS]
    del factors[position][field]
    with pytest.raises(ValueError, match=f"^{message}$"):
        _parse_one_term({"re": 1, "im": 0}, factors)


def test_parse_refuses_missing_fields_and_unknown_names():
    coeff = {"re": 1.0, "im": 0.0}
    with pytest.raises(ValueError, match="^unknown op 'X'$"):
        _parse_one_term(coeff, [{"type": "local", "site": 0, "op": "X"}])
    with pytest.raises(ValueError, match="^unknown factor type 'swap'$"):
        _parse_one_term(coeff, [{"type": "swap", "a": 0, "b": 1}])
    with pytest.raises(ValueError, match="^missing field 'im'$"):
        _parse_one_term({"re": 1.0}, _VALID_FACTORS)
    with pytest.raises(ValueError, match="^missing field 'coeff'$"):
        circuit_from_json_obj({"rank": 3, "terms": [{"factors": []}]})
    with pytest.raises(ValueError, match="^missing field 'factors'$"):
        circuit_from_json_obj({"rank": 3, "terms": [{"coeff": coeff}]})
    for field in ("rank", "terms"):
        obj = {"rank": 3, "terms": []}
        del obj[field]
        with pytest.raises(ValueError, match=f"^missing field '{field}'$"):
            circuit_from_json_obj(obj)


_WRONG_KIND = "^a value of the wrong JSON kind: [^\n]+$"


@pytest.mark.parametrize(
    "obj, message",
    [
        ({"rank": 3, "terms": [{"coeff": {"re": 1, "im": 0},
                                "factors": [{"type": "local", "site": [0], "op": "P1"}]}]},
         _WRONG_KIND),
        ({"rank": 3, "terms": [{"coeff": {"re": 1, "im": 0},
                                "factors": [{"type": "cnot", "a": 0, "b": [1]}]}]},
         r"^b must be an integer, got \[1\]$"),
        ({"rank": 3, "terms": [{"coeff": {"re": 1, "im": 0}, "factors": [["local", 0, "P1"]]}]},
         _WRONG_KIND),
        ({"rank": 3, "terms": [1]}, _WRONG_KIND),
        ({"rank": 3, "terms": [{"coeff": [1, 0], "factors": []}]}, _WRONG_KIND),
        ({"rank": 3, "terms": {"a": 1}}, _WRONG_KIND),
    ],
    ids=["list site", "list cnot site", "list factor", "int term", "list coeff", "terms object"],
)
def test_parse_refuses_a_value_of_the_wrong_json_kind(obj, message):
    """A list, int or object where the layout has another JSON kind is a
    one-line ValueError, not the TypeError of indexing or hashing it; a cnot
    site is read as an integer field, so a list there is refused as one."""
    with pytest.raises(ValueError, match=message):
        circuit_from_json_obj(obj)


@pytest.mark.parametrize(
    "rank, field, value, message",
    [
        (3, "site", 3, "site 3 out of range for rank 3"),
        (64, "site", 64, "site 64 out of range for rank 64"),
        (3, "site", -1, "site must be non-negative"),
        (3, "site", True, "site must be an integer, got True"),
        (3, "site", 1.0, "site must be an integer, got 1.0"),
        (3, "op", "0", "unknown op '0'"),
        (3, "op", "X", "unknown op 'X'"),
        (3, "op", None, "missing field 'op'"),
    ],
    ids=["site rank", "site 64", "site -1", "site True", "site 1.0", "op 0", "op X", "no op"],
)
def test_parse_refuses_a_bad_local_factor_after_an_equal_valid_one(rank, field, value, message):
    """A local factor that misses local()'s shared table is refused with the
    message of the slow path, though an equal valid factor came before it."""
    valid = {"type": "local", "site": 1, "op": "P1"}
    bad = {k: v for k, v in {**valid, field: value}.items() if v is not None}
    obj = {"rank": rank, "terms": [{"coeff": {"re": 1, "im": 0}, "factors": [valid, bad]}]}
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        circuit_from_json_obj(obj)


@pytest.mark.parametrize("value", [True, False, "0.5", None, [0.5]])
def test_parse_refuses_non_number_theta_and_coefficients(value):
    """theta, re and im must be JSON numbers: a bool or string is not coerced."""
    factors = [dict(f) for f in _VALID_FACTORS]
    factors[2]["theta"] = value
    refusal = f"^theta must be a number, got {re.escape(repr(value))}$"
    with pytest.raises(ValueError, match=refusal):
        _parse_one_term({"re": 1, "im": 0}, factors)
    for part in ("re", "im"):
        coeff = {"re": 1.0, "im": 0.0, part: value}
        with pytest.raises(ValueError, match=f"^{part} must be a number, got "):
            _parse_one_term(coeff, _VALID_FACTORS)


def test_parse_takes_whole_numbers_written_as_ints():
    """jsonio writes a whole float as an int, so an int theta or coefficient parses."""
    factors = [dict(f) for f in _VALID_FACTORS]
    factors[2]["theta"] = 2
    circuit = _parse_one_term({"re": 3, "im": -1}, factors)
    assert circuit.terms[0].coeff == 3 - 1j
    assert circuit.terms[0].factors[2] == transpose_theta(0, 2, 2.0)
    assert _json_round_trip(circuit) == circuit


def _factor_obj(p) -> dict:
    """A placement's factor dict, written out independently of gates."""
    if p.kind == "local":
        return {"type": "local", "site": p.site, "op": p.op.name.replace("PLUS", "+")}
    if p.kind == "cnot":
        return {"type": "cnot", "a": p.a, "b": p.b}
    return {"type": "T", "a": p.a, "b": p.b, "theta": p.theta}


def _fresh_json_obj(circuit: Circuit) -> dict:
    """The emitter's form with a new factor dict for every factor."""
    return {
        "rank": circuit.rank,
        "terms": [
            {
                "coeff": {"re": t.coeff.real, "im": t.coeff.imag},
                "factors": [_factor_obj(p) for p in t.factors],
            }
            for t in circuit.terms
        ],
    }


def _reference_text(circuit: Circuit) -> str:
    """The two-pass writer the text writer replaced: JSON values with one
    dict per placement object and one list per factor tuple, then a dumps
    that writes each dict, list or tuple object once per call and reuses
    its text wherever the object recurs."""
    memo: dict = {}
    terms = []
    for term in circuit.terms:
        factors = memo.get(id(term.factors))
        if factors is None:
            factors = memo[id(term.factors)] = [
                memo.get(id(p)) or memo.setdefault(id(p), _factor_obj(p)) for p in term.factors
            ]
        terms.append({"coeff": {"re": term.coeff.real, "im": term.coeff.imag}, "factors": factors})
    return _memo_dumps({"rank": circuit.rank, "terms": terms}, {})


def _memo_dumps(obj, written: dict) -> str:
    if isinstance(obj, (dict, list, tuple)):
        text = written.get(id(obj))
        if text is None:
            if isinstance(obj, dict):
                items = (json.dumps(str(k)) + ":" + _memo_dumps(v, written) for k, v in obj.items())
                text = "{" + ",".join(items) + "}"
            else:
                text = "[" + ",".join(_memo_dumps(v, written) for v in obj) + "]"
            written[id(obj)] = text
        return text
    if isinstance(obj, float):
        return jsonio.fmt_float(obj)
    return json.dumps(obj)


def _assert_writes_as_reference(circuit: Circuit) -> str:
    """The text is the reference's, and parses back to a circuit with the
    original's branches."""
    text = circuit_to_json_text(circuit)
    assert text == _reference_text(circuit) == jsonio.dumps(_fresh_json_obj(circuit))
    assert circuit_branches(circuit_from_json_obj(jsonio.loads(text))) == circuit_branches(circuit)
    return text


@pytest.mark.parametrize("rank", [2, 3, 17, 64])
@pytest.mark.parametrize("kind", ["position", "momentum", "displacement"])
def test_shared_factor_dicts_match_fresh_form(kind, rank):
    """Writing each shared placement and factor tuple once gives the bytes
    of writing a fresh factor dict for every factor."""
    params = PhysParams(1.3, 0.8, 1.1)
    if kind == "displacement":
        spec = CoherentSpec(-0.156 + 0.485j, params, rank, allow_truncation_risk=True)
        pair = displacement_generator_gateform(spec)
    else:
        pair = gate_decomposition(kind, params, rank)
    for circuit in (pair.full, pair.reduced):
        _assert_writes_as_reference(circuit)
        assert _json_round_trip(circuit) == circuit


@pytest.mark.parametrize("rank", [2, 64])
def test_resting_displacement_writes_no_terms(rank):
    pair = displacement_generator_gateform(CoherentSpec(0j, PhysParams(), rank))
    for circuit in (pair.full, pair.reduced):
        assert _assert_writes_as_reference(circuit) == f'{{"rank":{rank},"terms":[]}}'


_PLACED_OPS = [op for op in SiteOp if op is not SiteOp.ZERO]
_EDGE_FLOATS = (-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e300, 0.1)


@pytest.mark.parametrize("theta", [-0.0, 0.0, 5e-324, math.pi / 2, -math.pi / 2])
def test_text_writer_matches_reference_on_hand_built_circuits(theta):
    """Every local op, cnot and T(theta), coefficients with signed zero,
    subnormal and huge parts, and terms that share one factor tuple."""
    ops = tuple(local(site, op) for site, op in enumerate(_PLACED_OPS))
    shared = (cnot(2, 5), transpose_theta(7, 1, theta), *ops, cnot(3, 0))
    terms = [CircuitTerm(complex(re, im), shared) for re in _EDGE_FLOATS for im in _EDGE_FLOATS]
    terms += [
        CircuitTerm(1j, (transpose_theta(0, 1, theta), transpose_theta(0, 1, -theta))),
        CircuitTerm(-0.5, ()),
        CircuitTerm(2, ops[::-1]),
    ]
    circuit = Circuit(8, terms)
    assert all(term.factors is shared for term in circuit.terms[:-3])
    text = _assert_writes_as_reference(circuit)
    assert text.startswith('{"rank":8,"terms":[{"coeff":{"re":-0,"im":-0},"factors":[')
    assert text.count('"type":"T"') == len(_EDGE_FLOATS) ** 2 + 2


def _factor_branches(p) -> tuple:
    """Each placement's branches, written out independently of gates."""
    if p.kind == "local":
        return site_branches(p.site, p.op)
    a, b = 1 << p.a, 1 << p.b
    if p.kind == "cnot":
        return ((a, 0, 0, 1 + 0j), (a, a, b, 1 + 0j))
    up = complex(math.cos(p.theta), math.sin(p.theta))
    return (
        (a | b, 0, 0, 1 + 0j),
        (a | b, a | b, 0, 1 + 0j),
        (a | b, a, a | b, up),
        (a | b, b, a | b, up.conjugate()),
    )


def _per_factor_branches(circuit: Circuit) -> tuple:
    """Reference compile: one compose per factor, no folding."""
    out = []
    for term in circuit.terms:
        branches = IDENTITY
        for p in reversed(term.factors):
            branches = compose(_factor_branches(p), branches)
        out += [(m, v, f, term.coeff * c) for m, v, f, c in branches]
    return tuple(out)


_THETAS = (0.0, -0.0, 0.7, -2.3, math.pi / 2)
_TERM_COEFFS = (1, -1, 0.5j, 1.3 - 0.2j, complex(1, -0.0), complex(-0.0, -0.0), complex(0, -0.0))
_LOCAL_OPS = (SiteOp.S0, SiteOp.S1, SiteOp.S2, SiteOp.S3, SiteOp.A, SiteOp.APLUS)


def _draw_factors(data, rank: int, pool: list) -> list:
    """A term: runs of P0/P1 (sites may repeat, so runs can contradict),
    T(theta), CNOTs and the other local operators, some of them shared."""
    factors = []
    for kind in data.draw(st.lists(st.sampled_from(("run", "T", "cnot", "local")), max_size=5)):
        if kind == "run":
            for _ in range(data.draw(st.integers(1, 5))):
                op = data.draw(st.sampled_from((SiteOp.P0, SiteOp.P1)))
                factors.append(local(data.draw(st.integers(0, rank - 1)), op))
            continue
        if data.draw(st.booleans()) and pool:
            factors.append(data.draw(st.sampled_from(pool)))
            continue
        sites = st.lists(st.integers(0, rank - 1), min_size=2, max_size=2, unique=True)
        if kind == "local":
            p = local(data.draw(sites)[0], data.draw(st.sampled_from(_LOCAL_OPS)))
        elif kind == "cnot":
            p = cnot(*data.draw(sites))
        else:
            p = transpose_theta(*data.draw(sites), data.draw(st.sampled_from(_THETAS)))
        pool.append(p)
        factors.append(p)
    return factors


@given(data=st.data())
def test_folded_guards_match_per_factor_compose(data):
    """Merging guard runs changes no branch, no order, no zero sign."""
    rank = data.draw(st.integers(2, 10))
    pool: list = []
    terms = tuple(
        CircuitTerm(data.draw(st.sampled_from(_TERM_COEFFS)), _draw_factors(data, rank, pool))
        for _ in range(data.draw(st.integers(1, 4)))
    )
    circuit = Circuit(rank, terms)
    _assert_same_signed_branches(circuit_branches(circuit), _per_factor_branches(circuit))


def _assert_same_signed_branches(got, want):
    assert got == want
    for (*_, c), (*_, d) in zip(got, want):
        assert math.copysign(1, c.real) == math.copysign(1, d.real)
        assert math.copysign(1, c.imag) == math.copysign(1, d.imag)


def test_folded_guard_run_still_weighs_once():
    """A guard between other factors still multiplies by 1 + 0j once: that
    product turns a -0.0 part to +0.0, which the term weight 1 - 0.0j keeps
    visible here."""
    factors = (local(0, SiteOp.S2), local(0, SiteOp.P0), local(0, SiteOp.S3), local(0, SiteOp.S3))
    circuit = Circuit(2, (CircuitTerm(complex(1, -0.0), factors),))
    _assert_same_signed_branches(circuit_branches(circuit), _per_factor_branches(circuit))


def _draw_non_guard(data, rank: int):
    sites = data.draw(st.lists(st.integers(0, rank - 1), min_size=2, max_size=2, unique=True))
    kind = data.draw(st.sampled_from(("T", "cnot", "local")))
    if kind == "local":
        return local(sites[0], data.draw(st.sampled_from(_LOCAL_OPS)))
    if kind == "cnot":
        return cnot(*sites)
    return transpose_theta(*sites, data.draw(st.sampled_from(_THETAS)))


@given(data=st.data())
def test_guard_runs_match_per_factor_compose_up_to_rank_64(data):
    """Guard runs on registers up to rank 64, so their 0 and 1 bitsets are
    multi-digit ints: runs that ask a bit for both 0 and 1, repeated guards,
    guard-only and empty terms, and non-guards between runs compile as
    factor by factor, zero signs included."""
    rank = data.draw(st.integers(2, 64))
    # a few sites take most guards, so one run often tests one bit twice
    hot = data.draw(st.lists(st.integers(0, rank - 1), min_size=1, max_size=3, unique=True))
    site = st.sampled_from(hot) | st.integers(0, rank - 1)
    shared = {}
    terms = []
    for _ in range(data.draw(st.integers(1, 4))):
        factors = []
        for _ in range(data.draw(st.integers(0, 3))):
            for _ in range(data.draw(st.integers(0, 6))):
                key = (data.draw(site), data.draw(st.sampled_from((SiteOp.P0, SiteOp.P1))))
                fresh = data.draw(st.booleans())
                factors.append(local(*key) if fresh else shared.setdefault(key, local(*key)))
            if data.draw(st.booleans()):
                factors.append(_draw_non_guard(data, rank))
        terms.append(CircuitTerm(data.draw(st.sampled_from(_TERM_COEFFS)), factors))
    circuit = Circuit(rank, terms)
    _assert_same_signed_branches(circuit_branches(circuit), _per_factor_branches(circuit))


def test_guard_run_edge_cases_at_rank_64():
    p0, p1 = local(63, SiteOp.P0), local(63, SiteOp.P1)
    terms = [
        (p0, p1),  # a bit asked for 0 and 1: dropped
        (local(40, SiteOp.P0), p1, p0),  # the same, not adjacent within one run
        (local(5, SiteOp.S1), p1, p0),  # the same, flushed at a non-guard
        (p0, p0, local(40, SiteOp.P0), local(40, SiteOp.P0)),  # repeated guards
        (),  # the unit
        (p1, local(63, SiteOp.S1), p0, local(2, SiteOp.P1)),  # a flip between runs
        (p1, local(63, SiteOp.S1), p1),  # the flip leaves nothing at bit 63 set
    ]
    circuit = Circuit(64, tuple(CircuitTerm(complex(1, -0.0), f) for f in terms))
    got = circuit_branches(circuit)
    _assert_same_signed_branches(got, _per_factor_branches(circuit))
    high = 1 << 63
    assert [b[:3] for b in got] == [
        (high | 1 << 40, 0, 0),
        (0, 0, 0),
        (high | 1 << 2, 1 << 2, high),
    ]


def test_equal_placements_keep_their_own_zero_sign_text():
    """T(0.0) == T(-0.0), and each writes its own theta, within one circuit
    and in two circuits written one after the other."""
    plus, minus = transpose_theta(0, 1, 0.0), transpose_theta(0, 1, -0.0)
    assert plus == minus and hash(plus) == hash(minus)
    both = circuit_to_json_text(Circuit(2, (CircuitTerm(1, (plus,)), CircuitTerm(1, (minus,)))))
    assert re.findall(r'"theta":(-?0)\b', both) == ["0", "-0"]
    texts = [circuit_to_json_text(_one_gate(2, p)) for p in (plus, minus)]
    assert [re.findall(r'"theta":(-?0)\b', t) for t in texts] == [["0"], ["-0"]]


def test_a_placement_shared_by_two_circuits_is_dumped_once(monkeypatch):
    written = []
    dumps = jsonio.dumps
    monkeypatch.setattr(jsonio, "dumps", lambda obj: written.append(obj) or dumps(obj))
    # local() shares its placements per process, so a fresh copy has no text yet
    shared, other = cnot(0, 1), dataclasses.replace(local(2, SiteOp.S1))
    first = Circuit(2, (CircuitTerm(1, (shared, shared)),))
    second = Circuit(3, (CircuitTerm(2, (other, shared)), CircuitTerm(1j, (shared,))))
    texts = [circuit_to_json_text(c) for c in (first, second, first)]
    assert written == [{"type": "cnot", "a": 0, "b": 1}, {"type": "local", "site": 2, "op": "S1"}]
    monkeypatch.undo()
    assert texts == [_reference_text(c) for c in (first, second, first)]


@pytest.mark.parametrize(
    "placement, change",
    [
        (transpose_theta(3, 1, -0.5), {"theta": 0.25}),
        (cnot(0, 2), {"a": 1}),
        (local(4, SiteOp.S2), {"op": SiteOp.A}),
    ],
    ids=["T", "cnot", "local"],
)
def test_cached_placement_is_still_a_plain_frozen_record(placement, change):
    """Compiling and writing a placement leaves its ==, hash, repr, replace,
    pickle round trip and frozenness those of its fields alone."""
    fresh = dataclasses.replace(placement)
    before = (repr(placement), hash(placement))
    compiled, text = placement.compiled, placement.text
    assert placement == fresh
    assert (repr(placement), hash(placement)) == before == (repr(fresh), hash(fresh))
    fields = {f.name: getattr(placement, f.name) for f in dataclasses.fields(placement)}
    shown = ", ".join(f"{name}={value!r}" for name, value in fields.items())
    assert repr(placement) == f"GatePlacement({shown})"
    changed = dataclasses.replace(placement, **change)
    assert changed == GatePlacement(**{**fields, **change}) != placement
    assert changed.text == jsonio.dumps(gates._placement_to_obj(changed)) != text
    assert changed.compiled[0] == gates._placement_branches(changed) != compiled[0]
    again = pickle.loads(pickle.dumps(placement))
    assert again == placement and repr(again) == repr(placement) and hash(again) == hash(placement)
    assert (again.compiled, again.text) == (compiled, text)
    for name in ("kind", "theta", "compiled", "text"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(placement, name, None)


def test_circuit_term_is_still_a_plain_frozen_record():
    p = cnot(0, 1)
    term = CircuitTerm(2, [p])
    assert type(term.coeff) is complex and term.factors == (p,) and type(term.factors) is tuple
    assert term == CircuitTerm(2 + 0j, (cnot(0, 1),)) and hash(term) == hash(CircuitTerm(2, (p,)))
    assert repr(term) == f"CircuitTerm(coeff=(2+0j), factors=({p!r},))"
    changed = dataclasses.replace(term, coeff=-1)
    assert type(changed.coeff) is complex and changed == CircuitTerm(-1, (p,))
    assert dataclasses.replace(term, factors=[p, p]).factors == (p, p)
    assert pickle.loads(pickle.dumps(term)) == term
    with pytest.raises(dataclasses.FrozenInstanceError):
        term.coeff = 1


def test_a_patched_placement_kernel_reaches_circuits_built_after_it(monkeypatch):
    """cnot and T placements are made anew by each call, so a kernel patched
    after earlier ones compiled still reaches those built after it."""

    def faulty(p):
        if p.kind == "cnot":
            a = 1 << p.a
            return ((a, 0, 0, 1 + 0j), (a, a, a, 1 + 0j))
        return original(transpose_theta(p.a, p.b, -p.theta)) if p.kind == "T" else original(p)

    def t_branches(theta):
        up = complex(math.cos(theta), math.sin(theta))
        return ((3, 0, 0, 1), (3, 3, 0, 1), (3, 1, 3, up), (3, 2, 3, up.conjugate()))

    assert circuit_branches(_one_gate(2, transpose_theta(0, 1, 0.5))) == t_branches(0.5)
    original = gates._placement_branches
    monkeypatch.setattr(gates, "_placement_branches", faulty)
    assert circuit_branches(_one_gate(2, cnot(0, 1))) == ((1, 0, 0, 1), (1, 1, 1, 1))
    assert circuit_branches(_one_gate(2, transpose_theta(0, 1, 0.5))) == t_branches(-0.5)
    monkeypatch.undo()
    assert circuit_branches(_one_gate(2, cnot(0, 1))) == ((1, 0, 0, 1), (1, 1, 2, 1))
    assert circuit_branches(_one_gate(2, transpose_theta(0, 1, 0.5))) == t_branches(0.5)


def test_local_shares_one_placement_per_site_and_op():
    for site in range(64):
        for op in _PLACED_OPS:
            p = local(site, op)
            assert p is local(site, op)
            assert (p.kind, p.site, p.op) == ("local", site, op) and type(p.site) is int


@pytest.mark.parametrize("site", [64, 100], ids=["64", "100"])
def test_local_makes_a_fresh_placement_off_the_shared_table(site):
    """An int site of 64 or more gets a new placement on every call, which
    a Circuit refuses."""
    p = local(site, SiteOp.P0)
    assert p is not local(site, SiteOp.P0) and p == local(site, SiteOp.P0)
    assert type(p.site) is int and p.site == site
    with pytest.raises(ValueError, match=f"site {site} out of range for rank 64"):
        Circuit(64, (CircuitTerm(1, (p,)),))


_NOT_INT_SITES = pytest.mark.parametrize(
    "site", [1.0, 1.5, True, np.int64(1)], ids=["float", "float 1.5", "bool", "np.int64"]
)


@_NOT_INT_SITES
def test_local_refuses_a_site_that_is_not_an_int(site):
    with pytest.raises(ValueError, match=f"^site must be an integer, got {re.escape(repr(site))}$"):
        local(site, SiteOp.P0)


@_NOT_INT_SITES
def test_cnot_and_transpose_refuse_a_site_that_is_not_an_int(site):
    for name, args in (("a", (site, 0)), ("b", (0, site))):
        refusal = f"^{name} must be an integer, got {re.escape(repr(site))}$"
        with pytest.raises(ValueError, match=refusal):
            cnot(*args)
        with pytest.raises(ValueError, match=refusal):
            transpose_theta(*args, 0.5)


def test_local_refusals_are_unchanged():
    with pytest.raises(ValueError, match="site must be non-negative"):
        local(-1, SiteOp.P0)
    for site in (0, 64):
        with pytest.raises(ValueError, match="has no circuit placement"):
            local(site, SiteOp.ZERO)
        with pytest.raises(ValueError, match="has no circuit placement"):
            local(site, "P0")


def test_conjugated_cnot_reduces_to_plain():
    assert np.max(np.abs(conjugated_cnot_matrix(0, 0, 0, 0) - cnot_matrix())) < 1e-15


def test_conjugated_cnot_quarter_turn():
    """gamma - delta = pi/2 turns the conditioned flip into the +/-i form."""
    m = conjugated_cnot_matrix(0.0, 0.0, math.pi / 2, 0.0)
    expected = np.kron(op_bit_matrix(SiteOp.S0), op_bit_matrix(SiteOp.P0)) + np.kron(
        op_bit_matrix(SiteOp.S2), op_bit_matrix(SiteOp.P1)
    )
    assert np.max(np.abs(m - expected)) < 1e-12


def _same_bits(x, y):
    """Equal shapes, equal values and equal signs of every real and imaginary part."""
    return (
        x.shape == y.shape
        and np.array_equal(x.view(float), y.view(float))
        and np.array_equal(np.signbit(x.view(float)), np.signbit(y.view(float)))
    )


def _conjugated_cnot_by_kron(alpha, beta, gamma, delta):
    """The 4x4 conjugated CNOT built with np.diag and np.kron, one sample at a time."""
    u_a = np.diag([np.exp(-1j * beta), np.exp(-1j * alpha)])
    u_b = np.diag([np.exp(-1j * delta), np.exp(-1j * gamma)])
    u = np.kron(u_b, u_a)
    return u @ cnot_matrix() @ u.conj().T


@pytest.mark.parametrize("seed", [0, 1, 60601])
def test_conjugated_cnot_stack_is_the_scalar_calls(seed):
    """A stack of 100 angle quadruples gives each scalar call's matrix bit for
    bit, and each scalar call gives the np.kron-built matrix bit for bit."""
    angles = np.random.default_rng(seed).uniform(0.0, 2.0 * math.pi, size=(100, 4))
    stack = conjugated_cnot_matrix(*angles.T)
    assert stack.shape == (100, 4, 4)
    for row, sample in zip(stack, angles):
        single = conjugated_cnot_matrix(*sample)
        assert single.shape == (4, 4)
        assert _same_bits(row, single)
        assert _same_bits(single, _conjugated_cnot_by_kron(*sample))
    for scalars in ((0, 0, 0, 0), (0.0, 0.0, math.pi / 2, 0.0), (1, 2.5, -3, 0.25)):
        assert _same_bits(conjugated_cnot_matrix(*scalars), _conjugated_cnot_by_kron(*scalars))


def test_cnot_entangles_superposed_control():
    """A rank-2 state is a site product exactly when the 2x2 table of its
    amplitudes, rows site 0 and columns site 1, has zero determinant."""
    def determinant(state):
        a = state.amplitude
        return a(0b00) * a(0b11) - a(0b01) * a(0b10)

    flip = _one_gate(2, cnot(0, 1))
    plus = RegisterState(2, {0: 2 ** -0.5, 1: 2 ** -0.5})
    assert abs(determinant(apply_circuit(plus, flip))) > 1e-12
    assert abs(determinant(apply_circuit(RegisterState.basis(2, 1), flip))) <= 1e-12


def _scan(branches, state: RegisterState) -> dict:
    """Reference action: keys outer, every branch tested in order inside."""
    acc = {}
    for key, amp in state.items():
        for mask, value, flip, coeff in branches:
            if key & mask == value:
                acc[key ^ flip] = acc.get(key ^ flip, 0j) + amp * coeff
    return {key: value for key, value in acc.items() if abs(value) > 0.0}


_KINDS = ("identity", "cnot", "T", "hop", "projector", "ladder", "local")
_WEIGHTS = (1 + 0j, -1 + 0j, 0.5j, 1.3 - 0.2j)
_AMPS = st.builds(complex, st.floats(-2, 2), st.floats(-2, 2))


def _draw_piece(data, kind: str, rank: int) -> tuple:
    n = data.draw(st.integers(0, rank - 2))
    if kind == "identity":
        return IDENTITY
    if kind in ("cnot", "T"):
        a, b = data.draw(st.permutations((n, n + 1)))
        if kind == "cnot":
            gate = cnot(a, b)
        else:
            gate = transpose_theta(a, b, data.draw(st.floats(-4, 4)))
        return circuit_branches(Circuit(rank, (CircuitTerm(1, (gate,)),)))
    if kind == "hop":
        return data.draw(st.sampled_from((b_lower, b_raise)))(n, rank).branches
    if kind == "projector":
        return bosonic_projector(n, rank).branches
    if kind == "ladder":
        direction = data.draw(st.sampled_from(("lower", "raise")))
        return ladder(direction, PhysParams(1.3, 0.8, 1.1), rank).branches
    return site_branches(n, data.draw(st.sampled_from(list(SiteOp))))


@given(data=st.data())
def test_indexed_apply_matches_branch_scan(data):
    """Mixed-mask branch lists give the scan's sums exactly and in its key order."""
    rank = data.draw(st.integers(3, 10))
    branches = []
    for kind in data.draw(st.lists(st.sampled_from(_KINDS), min_size=1, max_size=6)):
        weight = data.draw(st.sampled_from(_WEIGHTS))
        branches += [(m, v, f, weight * c) for m, v, f, c in _draw_piece(data, kind, rank)]
    keys = st.one_of(
        st.integers(0, rank - 1).map(lambda n: 1 << n), st.integers(0, (1 << rank) - 1)
    )
    amplitudes = data.draw(st.dictionaries(keys, _AMPS, min_size=1, max_size=8))
    state = RegisterState(rank, amplitudes)
    expected = _scan(branches, state)
    image = apply_index(rank, index_branches(branches), state)
    assert image.amplitudes == expected
    assert list(image.amplitudes) == list(expected)


def test_python_complex_product_is_unfused():
    """a * b on Python complexes is (ar br - ai bi, ar bi + ai br) with every
    product and sum rounded on its own, the formula apply_plan and tabulate
    evaluate with float64 ufuncs to match evolve + expectation bit for bit.
    That holds where CPython's C compiler fuses no multiply-add into an FMA:
    GCC builds with -std=c11, and x86-64 builds without -mfma."""
    rng = np.random.default_rng(2024)
    scales = 10.0 ** rng.integers(-8, 9, (4, 20000))
    a_re, a_im, b_re, b_im = rng.uniform(-2, 2, (4, 20000)) * scales
    products = [complex(*a) * complex(*b) for a, b in zip(zip(a_re, a_im), zip(b_re, b_im))]
    assert [p.real for p in products] == (a_re * b_re - a_im * b_im).tolist()
    assert [p.imag for p in products] == (a_re * b_im + a_im * b_re).tolist()


_SIGNED_WEIGHTS = _WEIGHTS + (complex(1, -0.0), complex(-0.0, 1), complex(-0.0, -0.0))


@given(data=st.data())
def test_plan_reproduces_indexed_apply(data):
    """One plan over a key order gives apply_index's image of each operator
    on those keys for each row of amplitudes: the same values and zero
    signs, whether the row runs alone or among several.  The operators in
    one plan have different branch shapes: mixed-mask lists whose keys
    gather different numbers of contributions, images that leave the source
    keys, and images that store fewer keys than the state (a zero weight, a
    piece less itself, no branches at all).  Every source key an operator
    does not write holds +0.0."""
    rank = data.draw(st.integers(3, 10))
    ops = []
    for _ in range(data.draw(st.integers(1, 4))):
        branches = []
        for kind in data.draw(st.lists(st.sampled_from(_KINDS), max_size=4)):
            piece = _draw_piece(data, kind, rank)
            weights = st.lists(st.sampled_from(_SIGNED_WEIGHTS), min_size=1, max_size=2)
            for weight in data.draw(weights):
                branches += [(m, v, f, weight * c) for m, v, f, c in piece]
        ops.append(branches)
    keys = data.draw(st.lists(
        st.one_of(st.integers(0, rank - 1).map(lambda n: 1 << n), st.integers(0, (1 << rank) - 1)),
        min_size=1, max_size=8, unique=True,
    ))
    # amplitudes with a zero part make products with a -0.0 part
    amp = st.one_of(_AMPS.filter(bool), st.sampled_from((1 + 0j, -1j, complex(-0.0, 2))))
    row = st.lists(amp, min_size=len(keys), max_size=len(keys))
    rows = data.draw(st.lists(row, min_size=1, max_size=4))
    plan = plan_index([index_branches(branches) for branches in ops], keys)

    def run(rows):
        """Each op's image of each row, as {key: value} over the source keys."""
        amps = np.array([[*row, 0j] for row in rows])
        image_re, image_im = apply_plan(plan, np.stack((amps.real, amps.imag))).tolist()
        return [
            [dict(zip(keys, map(complex, r, i))) for r, i in zip(op_re, op_im)]
            for op_re, op_im in zip(image_re, image_im)
        ]

    for branches, alone, among in zip(ops, zip(*(run([r]) for r in rows)), run(rows)):
        written = {key ^ f for key in keys for m, v, f, _ in branches if key & m == v}
        for amplitudes, (image_alone,), image_among in zip(rows, alone, among):
            state = RegisterState(rank, dict(zip(keys, amplitudes)))
            image = apply_index(rank, index_branches(branches), state).amplitudes
            want = {key: image[key] for key in keys if key in image}
            for got in (image_alone, image_among):
                assert {key: value for key, value in got.items() if abs(value) > 0.0} == want
                for key, value in want.items():
                    assert math.copysign(1, got[key].real) == math.copysign(1, value.real)
                    assert math.copysign(1, got[key].imag) == math.copysign(1, value.imag)
                for key in set(keys) - written:
                    unwritten = got[key]
                    assert unwritten == 0
                    assert math.copysign(1, unwritten.real) == math.copysign(1, unwritten.imag) == 1
