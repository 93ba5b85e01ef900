"""Bosonic filter, hop operators, ladder observables, decompositions."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bosonreg.bosonic import (
    PhysParams,
    RegisterOperator,
    b_lower,
    b_raise,
    bosonic_identity,
    bosonic_projector,
    check_transbosonic,
    circuit_as_operator,
    embed,
    gate_decomposition,
    hamiltonian,
    is_bosonic_state,
    ladder,
    momentum,
    number_state,
    position,
    project,
    register_block,
)
from bosonreg.errors import EnergyScaleError, NotBosonicError, RankMismatchError, ZeroVectorError
from bosonreg.fock import build_fock, intertwine_check
from bosonreg.gates import IDENTITY, Circuit, CircuitTerm, apply_circuit, local
from bosonreg.qubit import SiteOp, op_bit_matrix
from bosonreg.register import RegisterState

PARAMS = PhysParams(1.0, 1.0, 1.0)


def local_product(rank, ops, guarded=False):
    """The paper's product of site operators: a one-term circuit of local
    placements, ``ops`` on the named sites and, if ``guarded``, the empty
    projector P0 on every other site, compiled to branches."""
    factors = [local(j, ops.get(j, SiteOp.P0)) for j in range(rank) if guarded or j in ops]
    return circuit_as_operator(Circuit(rank, [CircuitTerm(1, factors)]))


def test_phys_params_derived_quantities():
    p = PhysParams(0.7, 1.3, 2.0)
    assert abs(p.omega - 0.91) < 1e-15
    assert abs(p.epsilon - 1.82) < 1e-15
    with pytest.raises(ValueError):
        PhysParams(0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        PhysParams(1.0, -2.0, 1.0)
    for scale in (1e200, 1e-200):
        with pytest.raises(EnergyScaleError):
            PhysParams(scale, scale, 1.0)


def test_site_product_matches_kron_oracle():
    op = local_product(3, {0: SiteOp.A, 2: SiteOp.P1})
    oracle = np.kron(
        op_bit_matrix(SiteOp.P1),
        np.kron(op_bit_matrix(SiteOp.S0), op_bit_matrix(SiteOp.A)),
    )
    assert np.array_equal(op.to_matrix(), oracle)


def test_site_product_projector_fill():
    op = local_product(3, {1: SiteOp.P1}, guarded=True)
    oracle = np.kron(
        op_bit_matrix(SiteOp.P0),
        np.kron(op_bit_matrix(SiteOp.P1), op_bit_matrix(SiteOp.P0)),
    )
    assert np.array_equal(op.to_matrix(), oracle)


def test_register_operator_algebra():
    rank = 3
    a = local_product(rank, {0: SiteOp.APLUS})
    b = local_product(rank, {1: SiteOp.APLUS})
    s = RegisterState.void(rank)
    combined = (a + b).apply(s)
    assert combined == a.apply(s) + b.apply(s)
    composed = (a @ b).apply(s)
    assert composed == a.apply(b.apply(s))
    assert a.scale(2j).apply(s) == a.apply(s).scale(2j)
    assert RegisterOperator(rank, IDENTITY).apply(s) == s


@pytest.mark.parametrize("rank", [0, 65])
def test_register_operator_refuses_a_rank_out_of_range(rank):
    with pytest.raises(ValueError, match=r"rank must be an integer in \[1, 64\]"):
        RegisterOperator(rank, IDENTITY)


def test_operator_sums_refuse_an_operand_of_another_rank():
    """A rank-4 ladder summed into a rank-8 operator would map the
    transbosonic key 18 to 1.414·|17), where the rank-8 ladder gives 0."""
    small, large = ladder("lower", PARAMS, 4), ladder("lower", PARAMS, 8)
    with pytest.raises(RankMismatchError, match=r"^rank 8 vs 4$"):
        RegisterOperator.weighted_sum(8, [(1, small)])
    with pytest.raises(RankMismatchError, match=r"^rank 8 vs 4$"):
        RegisterOperator.weighted_sum(8, [(1, large), (2, small)])
    for combine in (lambda a, b: a + b, lambda a, b: a - b):
        with pytest.raises(RankMismatchError, match=r"^rank 4 vs 8$"):
            combine(small, large)
        with pytest.raises(RankMismatchError, match=r"^rank 8 vs 4$"):
            combine(large, small)
    assert large.apply(RegisterState(8, {18: 1})).is_zero


_RANK6_OPS = (
    [b_lower(n, 6) for n in range(5)]
    + [b_raise(n, 6) for n in range(5)]
    + [bosonic_projector(n, 6) for n in range(6)]
    + [ladder(d, PhysParams(1.3, 0.8, 1.1), 6) for d in ("lower", "raise")]
)


@given(a=st.sampled_from(_RANK6_OPS), b=st.sampled_from(_RANK6_OPS))
def test_composition_matches_dense_product_exactly(a, b):
    assert np.array_equal((a @ b).to_matrix(), a.to_matrix() @ b.to_matrix())


def test_filter_keeps_exactly_single_occupancy_keys():
    rank = 6
    f = bosonic_identity(rank)
    for key in range(1 << rank):
        image = f.apply(RegisterState.basis(rank, key))
        if bin(key).count("1") == 1:
            assert image == RegisterState.basis(rank, key)
        else:
            assert image.is_zero


def test_projector_selects_one_level():
    rank = 4
    p2 = bosonic_projector(2, rank)
    assert p2.apply(RegisterState.basis(rank, 4)) == RegisterState.basis(rank, 4)
    for key in (0, 1, 2, 3, 5, 8):
        assert p2.apply(RegisterState.basis(rank, key)).is_zero


def test_hop_operator_is_single_matrix_element():
    rank = 4
    low = b_lower(1, rank).to_matrix()
    expected = np.zeros((16, 16))
    expected[2, 4] = 1  # |2^1)(2^2|
    assert np.array_equal(low, expected)
    assert np.array_equal(b_raise(1, rank).to_matrix(), expected.T)


def test_hops_and_projectors_are_their_site_products():
    """Each hop and projector, written as one branch, is the paper's product
    of site operators guarded by P0 on every other site, down to the sign of
    every zero."""
    for rank in range(2, 65):
        for n in range(rank):
            product = local_product(rank, {n: SiteOp.P1}, guarded=True)
            assert repr(bosonic_projector(n, rank).branches) == repr(product.branches)
        for n in range(rank - 1):
            product = local_product(rank, {n: SiteOp.APLUS, n + 1: SiteOp.A}, guarded=True)
            assert repr(b_lower(n, rank).branches) == repr(product.branches)
            product = local_product(rank, {n: SiteOp.A, n + 1: SiteOp.APLUS}, guarded=True)
            assert repr(b_raise(n, rank).branches) == repr(product.branches)

    def product_ladder(sites, params, rank):
        return RegisterOperator.weighted_sum(rank, [
            (math.sqrt((n + 1) * 2.0 * params.epsilon) + 0j,
             local_product(rank, {n: sites[0], n + 1: sites[1]}, guarded=True))
            for n in range(rank - 1)
        ])

    for rank in (2, 5, 32, 64):
        for params in (
            PhysParams(),
            PhysParams(1.3, 0.8, 1.1),
            PhysParams(1e-12, 3e5, 7.7),
            PhysParams(1e150, 1e150, 1e-300),
        ):
            down = product_ladder((SiteOp.APLUS, SiteOp.A), params, rank)
            up = product_ladder((SiteOp.A, SiteOp.APLUS), params, rank)
            energy = RegisterOperator.weighted_sum(rank, [
                ((n + 0.5) * params.epsilon + 0j,
                 local_product(rank, {n: SiteOp.P1}, guarded=True))
                for n in range(rank)
            ])
            for built, product in (
                (ladder("lower", params, rank), down),
                (ladder("raise", params, rank), up),
                (position(params, rank), (up + down).scale(1.0 / (2.0 * params.beta))),
                (momentum(params, rank), (up - down).scale(1j / (2.0 * params.alpha))),
                (hamiltonian(params, rank), energy),
                # swapped ladders, as verify's b-convention fault hands them over
                (position(params, rank, (down, up)),
                 (down + up).scale(1.0 / (2.0 * params.beta))),
                (momentum(params, rank, (down, up)),
                 (down - up).scale(1j / (2.0 * params.alpha))),
            ):
                assert repr(built.branches) == repr(product.branches)


def test_hop_relations_exact():
    rank = 5
    for n in range(rank - 1):
        for m in range(rank - 1):
            up_down = (b_raise(n, rank) @ b_lower(m, rank)).to_matrix()
            down_up = (b_lower(n, rank) @ b_raise(m, rank)).to_matrix()
            if n == m:
                assert np.array_equal(
                    up_down, bosonic_projector(n + 1, rank).to_matrix()
                )
                assert np.array_equal(down_up, bosonic_projector(n, rank).to_matrix())
            else:
                assert not up_down.any()
                assert not down_up.any()


def test_hop_range_validation():
    with pytest.raises(ValueError):
        b_lower(3, 4)


def test_ladder_block_example():
    block = register_block(ladder("lower", PARAMS, 4))
    expected = np.array(
        [
            [0, math.sqrt(2), 0, 0],
            [0, 0, 2, 0],
            [0, 0, 0, math.sqrt(6)],
            [0, 0, 0, 0],
        ]
    )
    assert np.max(np.abs(block - expected)) == 0


def test_commutator_truncation_defect():
    """[a, a+] equals 2*eps on the kept levels and drops by 2*eps*R on top."""
    rank = 4
    low = ladder("lower", PARAMS, rank)
    high = ladder("raise", PARAMS, rank)
    comm = register_block(low @ high - high @ low)
    eps = PARAMS.epsilon
    expected = np.diag([2 * eps, 2 * eps, 2 * eps, 2 * eps * (1 - rank)])
    assert np.max(np.abs(comm - expected)) < 1e-14


def test_hamiltonian_spectrum_and_forms():
    rank = 4
    h = hamiltonian(PARAMS, rank)
    for n in range(rank):
        image = h.apply(RegisterState.basis(rank, 1 << n))
        assert image == RegisterState.basis(rank, 1 << n).scale((n + 0.5) * PARAMS.epsilon)
    split = (
        ladder("raise", rank=rank, params=PARAMS) @ ladder("lower", rank=rank, params=PARAMS)
    ).scale(0.5) + bosonic_identity(rank).scale(0.5 * PARAMS.epsilon)
    # projector-sum and ladder-split forms agree up to sqrt(k)**2 rounding
    assert np.max(np.abs(h.to_matrix() - split.to_matrix())) < 1e-14


def test_observables_annihilate_transbosonic_keys():
    rank = 4
    ops = [
        ladder("lower", PARAMS, rank),
        hamiltonian(PARAMS, rank),
        position(PARAMS, rank),
        momentum(PARAMS, rank),
    ]
    for key in (0, 3, 5, 6, 15):
        for op in ops:
            assert op.apply(RegisterState.basis(rank, key)).is_zero


def test_lowering_ground_gives_zero_vector_not_void():
    rank = 4
    image = ladder("lower", PARAMS, rank).apply(RegisterState.basis(rank, 1))
    assert image.is_zero
    assert image != RegisterState.void(rank)


def test_number_state_built_by_raising():
    state = number_state(2, PARAMS, 8)
    assert set(state.amplitudes) == {4}
    assert abs(state.amplitude(4) - 1) < 1e-10
    assert number_state(0, PARAMS, 8) == RegisterState.basis(8, 1)
    for n in range(5):
        for m in range(5):
            overlap = number_state(n, PARAMS, 8).inner_product(number_state(m, PARAMS, 8))
            assert abs(overlap - (1 if n == m else 0)) < 1e-10


def test_number_state_keeps_one_key_at_every_level():
    """Each raising maps the one stored key to one key, so the len check holds."""
    params = PhysParams(1.3, 0.8, 1.1)
    for n in range(64):
        state = number_state(n, params, 64)
        assert len(state) == 1 and set(state.amplitudes) == {1 << n}


def test_exact_cancellation_stores_no_zero():
    rank = 6
    hop = b_lower(0, rank)
    assert len((hop - hop).apply(RegisterState.basis(rank, 2))) == 0
    # On the empty key T(n, n+1) and -P0 P0 cancel for every n, and so do
    # T and -P1 P1 on a doubly occupied pair; only the bosonic part survives.
    full = gate_decomposition("position", PARAMS, rank).full
    mixed = RegisterState(rank, {0: 1.0, 0b11: 0.5j, 0b1100: -2.0, 1 << 3: 0.25})
    image = apply_circuit(mixed, full)
    assert len(apply_circuit(RegisterState.basis(rank, 0), full)) == 0
    assert set(image.amplitudes) == {1 << 2, 1 << 4}
    assert all(value != 0 for value in image.amplitudes.values())


def test_number_state_with_scaled_quanta():
    params = PhysParams(0.7, 1.3, 2.0)
    state = number_state(3, params, 8)
    assert abs(state.amplitude(8) - 1) < 1e-10


def test_is_bosonic_state():
    assert is_bosonic_state(RegisterState.basis(4, 2))
    assert not is_bosonic_state(RegisterState.basis(4, 3))
    mixed = RegisterState(4, {1: 1.0, 3: 1e-16})
    assert is_bosonic_state(mixed)
    assert not is_bosonic_state(RegisterState(4, {1: 1.0, 3: 1e-6}))
    with pytest.raises(ZeroVectorError):
        is_bosonic_state(RegisterState.zero(4))


def test_is_bosonic_operator():
    """Ladder and Hamiltonian commute with the bosonic filter; a lone site flip does not."""
    f = bosonic_identity(4).to_matrix()

    def commutator(op):
        a = op.to_matrix()
        return np.max(np.abs(a @ f - f @ a))

    assert commutator(ladder("lower", PARAMS, 4)) <= 1e-10
    assert commutator(hamiltonian(PARAMS, 4)) <= 1e-10
    assert commutator(local_product(4, {0: SiteOp.S1})) > 1e-10


def test_embed_project_roundtrip():
    coeffs = np.array([0.5, 0, -0.25j, 1.0])
    state = embed(coeffs)
    assert state.rank == 4 and state.amplitude(1) == 0.5 and state.amplitude(8) == 1.0
    back = project(state)
    assert np.array_equal(back, coeffs)


def test_project_is_a_complex_array_of_length_rank():
    for state in (RegisterState.zero(5), RegisterState(5, {0: 1.0, 4: 2, 7: 1j})):
        coeffs = project(state)
        assert type(coeffs) is np.ndarray
        assert coeffs.dtype == np.complex128 and coeffs.shape == (5,)


def test_embed_of_project_keeps_exactly_the_power_of_two_keys():
    """A mixed state loses its void key and every key with two or more
    occupied sites, and keeps each power-of-two amplitude as it was."""
    mixed = RegisterState(
        4, {0: 0.5, 1: 1 - 2j, 3: 7.0, 4: -0.25j, 6: 3.0, 8: 1e-300, 15: 2.0}
    )
    assert embed(project(mixed)).amplitudes == {1: 1 - 2j, 4: -0.25j, 8: 1e-300}


def _block_entry_by_entry(op: RegisterOperator) -> np.ndarray:
    """The R x R block read one amplitude at a time, without project."""
    rank = op.rank
    block = np.zeros((rank, rank), dtype=complex)
    for n in range(rank):
        column = op.apply(RegisterState.basis(rank, 1 << n))
        for m in range(rank):
            block[m, n] = column.amplitude(1 << m)
    return block


@pytest.mark.parametrize(
    "op",
    [
        ladder("lower", PARAMS, 5),
        circuit_as_operator(gate_decomposition("momentum", PARAMS, 5).full),
        local_product(4, {0: SiteOp.S1}),
    ],
    ids=["ladder", "momentum circuit", "S1 at site 0"],
)
def test_register_block_equals_the_entry_by_entry_loop(op):
    """S1 at site 0 sends level 0 to the void key and every other level to
    a two-site key, all off the basis, so its block is all zeros."""
    assert np.array_equal(register_block(op), _block_entry_by_entry(op))


def test_project_discards_transbosonic_part_silently():
    state = RegisterState(3, {1: 1.0, 3: 7.0})
    assert np.array_equal(project(state), [1.0, 0, 0])
    with pytest.raises(NotBosonicError):
        check_transbosonic(state)


def test_decomposition_term_counts():
    pair = gate_decomposition("position", PARAMS, 6)
    assert len(pair.full.terms) == 15
    assert len(pair.reduced.terms) == 5
    with pytest.raises(ValueError):
        gate_decomposition("angular", PARAMS, 6)


def test_position_circuit_equals_operator_exactly():
    rank = 5
    pair = gate_decomposition("position", PARAMS, rank)
    circuit_mat = circuit_as_operator(pair.full).to_matrix()
    assert np.array_equal(circuit_mat, position(PARAMS, rank).to_matrix())


def test_momentum_circuit_matches_operator():
    rank = 5
    pair = gate_decomposition("momentum", PARAMS, rank)
    circuit_mat = circuit_as_operator(pair.full).to_matrix()
    dev = np.max(np.abs(circuit_mat - momentum(PARAMS, rank).to_matrix()))
    assert dev < 1e-12


def test_reduced_form_agrees_only_on_bosonic_states():
    rank = 2
    pair = gate_decomposition("momentum", PARAMS, rank)
    doubly_occupied = RegisterState.basis(rank, 3)
    assert apply_circuit(doubly_occupied, pair.full).is_zero
    leaked = apply_circuit(doubly_occupied, pair.reduced)
    w0 = math.sqrt(2 * PARAMS.epsilon) / (2 * PARAMS.alpha)
    assert abs(leaked.amplitude(3) - w0) < 1e-15

    bosonic_state = RegisterState(5, {1: 0.5, 2: -0.5j, 8: 0.5, 16: 0.5})
    pair5 = gate_decomposition("momentum", PARAMS, 5)
    full = apply_circuit(bosonic_state, pair5.full)
    reduced = apply_circuit(bosonic_state, pair5.reduced)
    assert (full - reduced).norm() < 1e-15


def test_intertwining_with_scaled_parameters():
    params = PhysParams(0.7, 1.3, 2.0)
    rank = 6
    oracle = build_fock(params, rank)
    for op, matrix in (
        (ladder("lower", params, rank), oracle.a),
        (hamiltonian(params, rank), oracle.h),
        (position(params, rank), oracle.x),
        (momentum(params, rank), oracle.p),
    ):
        assert intertwine_check(op, matrix) <= 1e-12
