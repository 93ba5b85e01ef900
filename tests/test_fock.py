"""Independent truncated-oscillator oracle matrices."""

import math

import numpy as np
import pytest

from bosonreg.bosonic import PhysParams, ladder, position
from bosonreg.fock import FOCK_MAX_RANK, build_fock, intertwine_check

PARAMS = PhysParams(1.0, 1.0, 1.0)


def test_lowering_matrix_rank_2():
    oracle = build_fock(PARAMS, 2)
    root = math.sqrt(2 * PARAMS.epsilon)
    assert np.array_equal(oracle.a, [[0, root], [0, 0]])
    assert np.array_equal(oracle.a_plus, [[0, 0], [root, 0]])


def test_commutator_rank_3():
    """Top level absorbs the whole truncation defect."""
    eps = PARAMS.epsilon
    oracle = build_fock(PARAMS, 3)
    comm = oracle.a @ oracle.a_plus - oracle.a_plus @ oracle.a
    assert np.max(np.abs(comm - np.diag([2 * eps, 2 * eps, -4 * eps]))) < 1e-14


def test_h_is_diagonal_ladder_spectrum():
    oracle = build_fock(PARAMS, 6)
    expected = np.diag((np.arange(6) + 0.5) * PARAMS.epsilon)
    assert np.max(np.abs(oracle.h - expected)) < 1e-14


def test_quadratures_from_ladders():
    params = PhysParams(0.7, 1.3, 2.0)
    oracle = build_fock(params, 5)
    assert np.array_equal(oracle.x, (oracle.a_plus + oracle.a) / (2 * params.beta))
    assert np.array_equal(oracle.p, 1j * (oracle.a_plus - oracle.a) / (2 * params.alpha))
    for m in (oracle.x, oracle.p, oracle.h):
        assert np.max(np.abs(m - m.conj().T)) == 0


def test_scaled_quantum_in_entries():
    params = PhysParams(0.7, 1.3, 2.0)
    oracle = build_fock(params, 2)
    assert abs(oracle.a[0, 1] - math.sqrt(2 * params.epsilon)) < 1e-15


def test_rank_bounds():
    build_fock(PARAMS, FOCK_MAX_RANK)
    with pytest.raises(ValueError):
        build_fock(PARAMS, FOCK_MAX_RANK + 1)
    with pytest.raises(ValueError):
        build_fock(PARAMS, 0)


def test_intertwine_report():
    oracle = build_fock(PARAMS, 6)
    assert intertwine_check(ladder("lower", PARAMS, 6), oracle.a) <= 1e-12
    assert intertwine_check(position(PARAMS, 6), oracle.p) > 0.5
