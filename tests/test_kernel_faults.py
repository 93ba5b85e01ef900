"""Kernel faults: `verify` catches implementation bugs, not only the Toolkit's
convention faults.

Each case replaces one kernel of `gates`, `bosonic` or `coherent` with a
faulty version, in every module that imports the name, runs the full suite
through `run_criteria` (the dense worker and mutation-sensitivity included)
and pins the exact set of criteria that fail.  A change in coverage, either
way, shows up here.

`coherent.evolve` and `coherent.expectation` get no fault: no command and no
criterion calls them.  They stay as the tests' bit-for-bit reference for
`tabulate`.  `tabulate`'s phase pass, `coherent._level_phases`, gets one.
"""

import math

import numpy as np
import pytest

import bosonreg
from bosonreg import bosonic, checks, coherent, fock, gates
from bosonreg.checks import VerifyConfig, run_criteria
from bosonreg.cli import main
from bosonreg.qubit import SiteOp
from bosonreg.register import RegisterState

_MODULES = (bosonreg, bosonic, checks, coherent, fock, gates)


def _faulty_compose(*, drop_contradictions: bool, read_through_flip: bool):
    """gates.compose, optionally without its contradiction test or without
    reading the left condition back through the right factor's flip."""

    def compose(left, right):
        left = tuple(left)
        out = []
        for mask_r, value_r, flip_r, coeff_r in right:
            seen = flip_r if read_through_flip else 0
            for mask_l, value_l, flip_l, coeff_l in left:
                if drop_contradictions and (value_r ^ value_l ^ seen) & mask_r & mask_l:
                    continue
                out.append((
                    mask_r | mask_l,
                    value_r | ((value_l ^ seen) & mask_l),
                    flip_r ^ flip_l,
                    coeff_r * coeff_l,
                ))
        return tuple(out)

    return compose


def _cnot_flipping_control(placement_branches):
    def faulty(p):
        if p.kind == "cnot":
            a = 1 << p.a
            return ((a, 0, 0, 1 + 0j), (a, a, a, 1 + 0j))
        return placement_branches(p)

    return faulty


def _theta_sign_flipped(placement_branches):
    def faulty(p):
        if p.kind == "T":
            return placement_branches(gates.transpose_theta(p.a, p.b, -p.theta))
        return placement_branches(p)

    return faulty


def _series_without_factorial(coherent_series):
    def faulty(spec):
        series = coherent_series(spec)
        amplitudes = {
            key: amp * math.sqrt(math.factorial(key.bit_length() - 1))
            for key, amp in series.state.items()
        }
        return coherent.CoherentState(RegisterState(spec.rank, amplitudes), series.tail_mass)

    return faulty


def _start_conjugated(tabulate):
    def faulty(state, ops, times, params):
        conjugate = {key: amp.conjugate() for key, amp in state.items()}
        return tabulate(RegisterState(state.rank, conjugate), ops, times, params)

    return faulty


def _expm_i_transposed(h, keys=None):
    w, u = np.linalg.eigh(h)
    full = (u * np.exp(1j * w)) @ u.T
    return full if keys is None else full[np.ix_(keys, keys)]


def _sin_negated(level_phases):
    def faulty(rates, keys):
        cos, sin = level_phases(rates, keys)
        return cos, -sin

    return faulty


def _first_index_for_all(plan_index):
    def faulty(indexes, sources):
        indexes = list(indexes)
        return plan_index(indexes[:1] * len(indexes), sources)

    return faulty


# name -> (module, attribute, the faulty attribute from the original one)
FAULTS = {
    "compose-keeps-contradictions": (
        gates, "compose",
        lambda _: _faulty_compose(drop_contradictions=False, read_through_flip=True),
    ),
    "compose-ignores-right-flip": (
        gates, "compose",
        lambda _: _faulty_compose(drop_contradictions=True, read_through_flip=False),
    ),
    "cnot-flips-control": (gates, "_placement_branches", _cnot_flipping_control),
    "transpose-theta-sign": (gates, "_placement_branches", _theta_sign_flipped),
    "level-weight-n-plus-2": (
        bosonic, "_level_weight",
        lambda _: lambda n, params: math.sqrt((n + 2) * 2.0 * params.epsilon),
    ),
    "tabulate-time-reversed": (
        coherent, "tabulate",
        lambda tabulate: lambda state, ops, times, params: tabulate(
            state, ops, list(times)[::-1], params
        ),
    ),
    "apply-plan-drops-last-layer": (
        gates, "apply_plan",
        lambda apply_plan: lambda plan, amps: apply_plan(
            gates.ApplyPlan(plan.positions[:-1], plan.re[:-1], plan.turned[:-1]), amps
        ),
    ),
    "plan-weights-all-as-first": (gates, "plan_index", _first_index_for_all),
    "level-phases-sin-negated": (coherent, "_level_phases", _sin_negated),
    "series-without-factorial": (coherent, "coherent_series", _series_without_factorial),
    "expm-uses-transpose": (coherent, "_expm_i", lambda _: _expm_i_transposed),
    "tabulate-conjugates-start": (coherent, "tabulate", _start_conjugated),
    "tail-mass-reported-as-one": (
        coherent, "_poisson_tail", lambda _: lambda mean, rank, first, kept: 1.0,
    ),
}

FAILING = {
    "compose-keeps-contradictions": {"bosonic-filter", "hop-relations"},
    "compose-ignores-right-flip": {"hop-relations"},
    "cnot-flips-control": {"gate-identities", "phase-covariance"},
    "transpose-theta-sign": {
        "gate-identities", "oracle-intertwining", "coherent-states", "mutation-sensitivity",
    },
    "level-weight-n-plus-2": {
        "oracle-intertwining", "canonical-commutators", "coherent-states", "coherent-dynamics",
    },
    "tabulate-time-reversed": {"coherent-dynamics"},
    "apply-plan-drops-last-layer": {"coherent-dynamics"},
    # every operator is planned from x's index, so p and H are tabulated as x
    "plan-weights-all-as-first": {"coherent-dynamics"},
    # every level turns the wrong way: time runs backwards
    "level-phases-sin-negated": {"coherent-dynamics"},
    "series-without-factorial": {"coherent-states", "coherent-dynamics"},
    # verify's blind spot: both sides of gateform-exponential and
    # dense-exponential share the exponential, and series-vs-displacement reads
    # only the vacuum column, which this fault keeps
    "expm-uses-transpose": {"coherent-states"},
    # verify's blind spot: coherent-dynamics starts from a real z, whose
    # series is its own conjugate
    "tabulate-conjugates-start": {"coherent-dynamics"},
    # verify's blind spot: no criterion reads tail_mass
    "tail-mass-reported-as-one": {"coherent-states"},
}

# the faults verify misses, and why
_BLIND = {
    "expm-uses-transpose": (
        "CHANGES.md FOUND: verify misses a coherent._expm_i that returns U diag U^T"
    ),
    "tabulate-conjugates-start": "verify's coherent-dynamics runs tabulate from a real z only",
    "tail-mass-reported-as-one": "no criterion reads tail_mass",
}


def _inject(monkeypatch, module, name, make_faulty):
    original = getattr(module, name)
    faulty = make_faulty(original)
    for importer in _MODULES:
        if getattr(importer, name, None) is original:
            monkeypatch.setattr(importer, name, faulty)


def test_the_compose_rebuild_is_compose_when_unfaulted():
    """The faulty composes differ from gates.compose only in the switch they turn off."""
    hops = bosonic.ladder("lower", bosonic.PhysParams(), 4).branches
    guards = gates.site_branches(1, SiteOp.P1) + gates.site_branches(2, SiteOp.A)
    rebuilt = _faulty_compose(drop_contradictions=True, read_through_flip=True)
    for left, right in ((hops, hops), (guards, hops), (hops, guards)):
        assert rebuilt(left, right) == gates.compose(left, right)


@pytest.mark.parametrize(
    "fault",
    [
        pytest.param(
            name, marks=pytest.mark.xfail(strict=True, raises=AssertionError, reason=_BLIND[name])
        )
        if name in _BLIND
        else name
        for name in FAULTS
    ],
)
def test_kernel_fault_fails_pinned_criteria(monkeypatch, fault):
    _inject(monkeypatch, *FAULTS[fault])
    failed = {result.name for result in run_criteria(VerifyConfig()) if not result.passed}
    assert failed == FAILING[fault]


@pytest.mark.parametrize(
    "fault, argv",
    [
        (
            "tabulate-conjugates-start",
            ("evolve", "--z", "0.5+0.3i", "--rank", "12", "--t1", "3", "--steps", "5"),
        ),
        ("tail-mass-reported-as-one", ("state", "coherent", "0.5+0.3i", "--rank", "12")),
    ],
)
def test_a_fault_verify_misses_changes_a_command_output(monkeypatch, capsys, fault, argv):
    """These faults verify misses are real: the command writes other bytes under each."""
    assert main(list(argv)) == 0
    clean = capsys.readouterr().out
    _inject(monkeypatch, *FAULTS[fault])
    assert main(list(argv)) == 0
    assert capsys.readouterr().out != clean
