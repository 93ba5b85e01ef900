"""Single-site operator algebra: product table, matrices, phase conjugation."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bosonreg.qubit import (
    COEFFICIENTS,
    PRODUCT_TABLE,
    PhaseTransform,
    ScaledSiteOp,
    SiteOp,
    op_action,
    op_bit_matrix,
    op_matrix,
    op_product,
    phase_conjugate,
)

ALL_OPS = list(SiteOp)


def test_display_layout_matrices():
    """First matrix component is the occupied-site amplitude."""
    assert np.array_equal(op_matrix(SiteOp.P1), [[1, 0], [0, 0]])
    assert np.array_equal(op_matrix(SiteOp.P0), [[0, 0], [0, 1]])
    assert np.array_equal(op_matrix(SiteOp.A), [[0, 0], [1, 0]])
    assert np.array_equal(op_matrix(SiteOp.APLUS), [[0, 1], [0, 0]])
    assert np.array_equal(op_matrix(SiteOp.S1), [[0, 1], [1, 0]])
    assert np.array_equal(op_matrix(SiteOp.S2), [[0, -1j], [1j, 0]])
    assert np.array_equal(op_matrix(SiteOp.S3), [[1, 0], [0, -1]])
    assert np.array_equal(op_matrix(SiteOp.S0), np.eye(2))
    assert np.array_equal(op_matrix(SiteOp.ZERO), np.zeros((2, 2)))


def test_bit_matrix_is_index_reversal():
    for op in ALL_OPS:
        assert np.array_equal(op_bit_matrix(op), op_matrix(op)[::-1, ::-1])


def test_product_examples():
    assert op_product(SiteOp.P1, SiteOp.A) == ScaledSiteOp(0, SiteOp.ZERO)
    assert op_product(SiteOp.A, SiteOp.APLUS) == ScaledSiteOp(1, SiteOp.P0)
    assert op_product(SiteOp.APLUS, SiteOp.A) == ScaledSiteOp(1, SiteOp.P1)
    assert op_product(SiteOp.S1, SiteOp.S2) == ScaledSiteOp(1j, SiteOp.S3)
    assert op_product(SiteOp.S2, SiteOp.S1) == ScaledSiteOp(-1j, SiteOp.S3)
    assert op_product(SiteOp.A, SiteOp.A) == ScaledSiteOp(0, SiteOp.ZERO)
    assert op_product(SiteOp.S2, SiteOp.S2) == ScaledSiteOp(1, SiteOp.S0)
    assert op_product(SiteOp.P0, SiteOp.A) == ScaledSiteOp(1, SiteOp.A)
    assert op_product(SiteOp.A, SiteOp.P0) == ScaledSiteOp(0, SiteOp.ZERO)


def test_product_table_matches_matrices_exactly():
    """All 81 ordered products agree with 2x2 matrix products, zero tolerance."""
    for a in ALL_OPS:
        for b in ALL_OPS:
            entry = op_product(a, b)
            direct = op_matrix(a) @ op_matrix(b)
            assert np.array_equal(op_matrix(entry), direct), (a, b)


def test_product_associativity_exhaustive():
    for a in ALL_OPS:
        for b in ALL_OPS:
            ab = op_product(a, b)
            for c in ALL_OPS:
                assert op_product(ab, c) == op_product(a, op_product(b, c))


def test_scaled_products_are_the_constructors_result():
    """Every scaled pair over the nine symbols and five coefficients gives
    the constructor's result, with the sign of every coefficient part, and
    the same object each time."""
    scaled = [ScaledSiteOp(c, op) for c in COEFFICIENTS for op in ALL_OPS]
    for a in scaled:
        for b in scaled:
            entry = PRODUCT_TABLE[(a.op, b.op)]
            got = op_product(a, b)
            want = ScaledSiteOp(a.coeff * b.coeff * entry.coeff, entry.op)
            assert got == want and got is op_product(a, b), (a, b)
            parts = [got.coeff.real, got.coeff.imag, want.coeff.real, want.coeff.imag]
            assert list(np.signbit(parts[:2])) == list(np.signbit(parts[2:])), (a, b)
    assert op_product(SiteOp.A, SiteOp.A) is op_product(ScaledSiteOp(-1j, SiteOp.P0), SiteOp.P1)


def test_product_outside_the_coefficients_is_refused():
    bad = ScaledSiteOp(1, SiteOp.S1)
    object.__setattr__(bad, "coeff", 2 + 0j)
    with pytest.raises(ValueError, match="outside"):
        op_product(bad, SiteOp.S0)


def test_coefficients_stay_in_closed_set():
    for a in ALL_OPS:
        for b in ALL_OPS:
            assert op_product(a, b).coeff in COEFFICIENTS


def test_scaled_op_canonicalizes_zero():
    assert ScaledSiteOp(0, SiteOp.A) == ScaledSiteOp(0, SiteOp.ZERO)
    assert ScaledSiteOp(1, SiteOp.ZERO).coeff == 0
    with pytest.raises(ValueError):
        ScaledSiteOp(0.5, SiteOp.A)


def test_action_table_matches_bit_matrix():
    """Per-bit action entries are exactly the nonzero bit-matrix columns."""
    for op in ALL_OPS:
        mat = op_bit_matrix(op)
        action = op_action(op)
        for in_bit in (0, 1):
            entry = action[in_bit]
            column = mat[:, in_bit]
            if entry is None:
                assert not column.any()
            else:
                out_bit, coeff = entry
                expected = np.zeros(2, dtype=complex)
                expected[out_bit] = coeff
                assert np.array_equal(column, expected)


@given(
    alpha=st.floats(-10, 10, allow_nan=False),
    beta=st.floats(-10, 10, allow_nan=False),
)
def test_phase_transform_table(alpha, beta):
    u = PhaseTransform(alpha, beta)
    phi = alpha - beta
    cases = {
        SiteOp.A: cmath.exp(1j * phi) * op_matrix(SiteOp.A),
        SiteOp.APLUS: cmath.exp(-1j * phi) * op_matrix(SiteOp.APLUS),
        SiteOp.P0: op_matrix(SiteOp.P0),
        SiteOp.P1: op_matrix(SiteOp.P1),
        SiteOp.S0: op_matrix(SiteOp.S0),
        SiteOp.S3: op_matrix(SiteOp.S3),
        SiteOp.S1: math.cos(phi) * op_matrix(SiteOp.S1)
        + math.sin(phi) * op_matrix(SiteOp.S2),
        SiteOp.S2: -math.sin(phi) * op_matrix(SiteOp.S1)
        + math.cos(phi) * op_matrix(SiteOp.S2),
    }
    for op, expected in cases.items():
        assert np.max(np.abs(phase_conjugate(op, u) - expected)) < 1e-12


@given(
    alpha=st.floats(-10, 10, allow_nan=False),
    beta=st.floats(-10, 10, allow_nan=False),
)
def test_phase_conjugation_preserves_products(alpha, beta):
    """Conjugating then multiplying equals multiplying then conjugating."""
    u = PhaseTransform(alpha, beta)
    for a in (SiteOp.A, SiteOp.APLUS, SiteOp.S1, SiteOp.S2, SiteOp.P1):
        for b in (SiteOp.A, SiteOp.APLUS, SiteOp.S1, SiteOp.S3):
            prod = op_product(a, b)
            lhs = phase_conjugate(a, u) @ phase_conjugate(b, u)
            rhs = prod.coeff * phase_conjugate(prod.op, u)
            assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_phase_transform_matrix_layout():
    u = PhaseTransform(0.5, 1.5)
    assert abs(u.matrix[0, 0] - cmath.exp(-0.5j)) < 1e-15
    assert abs(u.matrix[1, 1] - cmath.exp(-1.5j)) < 1e-15
    assert u.matrix[0, 1] == 0 and u.matrix[1, 0] == 0


def _same_bits(x, y):
    """Equal shapes, equal values and equal signs of every real and imaginary part."""
    return (
        x.shape == y.shape
        and np.array_equal(x.view(float), y.view(float))
        and np.array_equal(np.signbit(x.view(float)), np.signbit(y.view(float)))
    )


def _phase_conjugate_by_literal(op, alpha, beta):
    """U op U+ with U written out as a 2x2 literal, one rephasing at a time."""
    u = np.array([[np.exp(-1j * alpha), 0.0], [0.0, np.exp(-1j * beta)]], dtype=complex)
    return u @ op_matrix(op) @ u.conj().T


@pytest.mark.parametrize("seed", [0, 1, 60601])
def test_phase_conjugate_stack_is_the_scalar_calls(seed):
    """Angle arrays of 100 rephasings give each scalar call's matrices bit for
    bit, and each scalar call gives the literal-built matrices bit for bit."""
    alpha, beta = np.random.default_rng(seed).uniform(0.0, 2.0 * math.pi, size=(2, 100))
    stack = PhaseTransform(alpha, beta)
    assert stack.matrix.shape == (100, 2, 2)
    for op in ALL_OPS:
        conj = phase_conjugate(op, stack)
        assert conj.shape == (100, 2, 2)
        for row, a, b in zip(conj, alpha, beta):
            single = phase_conjugate(op, PhaseTransform(a, b))
            assert single.shape == (2, 2)
            assert _same_bits(row, single)
            assert _same_bits(single, _phase_conjugate_by_literal(op, a, b))
