"""Every decomposition equals its operator form on every key, at every rank,
read off branch normal forms rather than sampled states or dense matrices."""

import math

import pytest

from bosonreg.bosonic import (
    PhysParams,
    circuit_as_operator,
    gate_decomposition,
    ladder,
    momentum,
    position,
)
from bosonreg.coherent import CoherentSpec, displacement_generator_gateform
from bosonreg.errors import TruncationRiskError

PARAMS = PhysParams(1.3, 0.8, 1.1)
RANKS = range(2, 65)
REL_TOL = 1e-15


def normal_form(branches):
    """The coeffs of the branches that share (cond_mask, cond_value,
    xor_mask), summed in branch order, with the groups that sum to exactly 0
    dropped.  Regrouping changes no map, so two branch lists with the same
    normal form act alike on every key, up to the rounding of the sums."""
    groups = {}
    for mask, value, flip, coeff in branches:
        groups[mask, value, flip] = groups.get((mask, value, flip), 0j) + coeff
    return {group: coeff for group, coeff in groups.items() if coeff != 0}


def on_bosonic_keys(form, rank):
    """The groups whose condition reads one whole key, and that key a level 2**n."""
    assert all(mask == (1 << rank) - 1 for mask, _, _ in form)
    return {(mask, key, flip): coeff for (mask, key, flip), coeff in form.items()
            if key and not key & (key - 1)}


def assert_same_normal_form(got, want):
    """The same groups, each coeff within REL_TOL of the larger of the two."""
    assert got.keys() == want.keys()
    for group, coeff in want.items():
        assert abs(got[group] - coeff) <= REL_TOL * max(abs(got[group]), abs(coeff)), group


def _observable(kind, rank):
    return (position if kind == "position" else momentum)(PARAMS, rank)


@pytest.mark.parametrize("kind", ["position", "momentum"])
def test_full_observable_circuit_is_its_operator_on_every_key(kind):
    """Each term's P0 guards make every branch read all R sites, so each
    group is one key and the normal form is the operator's sparse matrix."""
    for rank in RANKS:
        circuit = gate_decomposition(kind, PARAMS, rank).full
        want = normal_form(_observable(kind, rank).branches)
        assert len(want) == 2 * (rank - 1)
        assert_same_normal_form(normal_form(circuit_as_operator(circuit).branches), want)


@pytest.mark.parametrize("kind", ["position", "momentum"])
def test_reduced_observable_circuit_is_its_operator_on_bosonic_keys(kind):
    """Without the counterterms the circuit also moves the void key and the
    two-site keys, so only the groups on a level key match."""
    for rank in RANKS:
        circuit = gate_decomposition(kind, PARAMS, rank).reduced
        got = on_bosonic_keys(normal_form(circuit_as_operator(circuit).branches), rank)
        assert_same_normal_form(got, normal_form(_observable(kind, rank).branches))


def _generator(z, rank):
    """(z raise - z* lower) / sqrt(2 eps), the displacement generator from the ladders."""
    raising = ladder("raise", PARAMS, rank).scale(z)
    lowering = ladder("lower", PARAMS, rank).scale(z.conjugate())
    return (raising - lowering).scale(1.0 / math.sqrt(2.0 * PARAMS.epsilon))


@pytest.mark.parametrize("z, accepted", [(0.3 - 0.2j, 63), (0.9 - 1.3j, 54)])
def test_displacement_circuits_are_the_generator_on_every_key(z, accepted):
    """At every rank whose |z|^2 <= R/4 guard CoherentSpec passes: the full
    circuit on every key, the reduced one on the level keys."""
    checked = []
    for rank in RANKS:
        try:
            spec = CoherentSpec(z, PARAMS, rank)
        except TruncationRiskError:
            continue
        pair = displacement_generator_gateform(spec)
        want = normal_form(_generator(z, rank).branches)
        full = normal_form(circuit_as_operator(pair.full).branches)
        reduced = normal_form(circuit_as_operator(pair.reduced).branches)
        assert_same_normal_form(full, want)
        assert_same_normal_form(on_bosonic_keys(reduced, rank), want)
        checked.append(rank)
    assert len(checked) == accepted and checked[-1] == 64
