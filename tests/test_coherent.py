"""Coherent states, displacement, free evolution, trajectories."""

import cmath
import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bosonreg.bosonic import PhysParams, ladder, project
from bosonreg.coherent import (
    _level_phases,
    _phase_rate,
    _real_quotients,
    CoherentSpec,
    Trajectory,
    coherent_series,
    displacement_apply,
    displacement_generator_block,
    displacement_generator_gateform,
    evolve,
    expectation,
    expm_antihermitian,
    number_distribution,
    tabulate,
    trajectory,
)
from bosonreg.bosonic import (
    bosonic_projector,
    circuit_as_operator,
    hamiltonian,
    momentum,
    position,
    register_block,
)
from bosonreg.errors import (
    NotBosonicError,
    PhaseOverflowError,
    TruncationRiskError,
    ZeroVectorError,
)
from bosonreg.fock import build_fock
from bosonreg.jsonio import fmt_float
from bosonreg.register import RegisterState

PARAMS = PhysParams(1.0, 1.0, 1.0)


def test_zero_amplitude_is_the_ground_level():
    built = coherent_series(CoherentSpec(0j, PARAMS, 8))
    assert built.state == RegisterState.basis(8, 1)
    assert built.tail_mass == 0.0


def test_series_amplitudes_match_formula():
    z = 0.4 - 0.3j
    built = coherent_series(CoherentSpec(z, PARAMS, 12))
    prefactor = math.exp(-abs(z) ** 2 / 2)
    for n in range(12):
        expected = prefactor * z ** n / math.sqrt(math.factorial(n))
        assert abs(built.state.amplitude(1 << n) - expected) < 1e-15


def test_number_distribution_is_poisson():
    z = 0.6 + 0.2j
    built = coherent_series(CoherentSpec(z, PARAMS, 24))
    dist = number_distribution(built.state)
    mean = abs(z) ** 2
    for n in range(24):
        pmf = math.exp(-mean) * mean ** n / math.factorial(n)
        assert abs(dist[n] - pmf) < 1e-12


def test_lowering_eigenvalue_relation():
    z = 0.5j
    spec = CoherentSpec(z, PARAMS, 32)
    state = coherent_series(spec).state
    lowered = ladder("lower", PARAMS, 32).apply(state)
    residual = (lowered - state.scale(z * math.sqrt(2 * PARAMS.epsilon))).norm()
    assert residual < 1e-8


def test_truncation_guard():
    with pytest.raises(TruncationRiskError):
        CoherentSpec(2.0 + 0j, PARAMS, 8)
    spec = CoherentSpec(2.0 + 0j, PARAMS, 8, allow_truncation_risk=True)
    built = coherent_series(spec)
    assert built.tail_mass > 0.01


@pytest.mark.parametrize("rank", [0, 65, 2.5, "8"])
def test_spec_refuses_a_rank_the_register_refuses(rank):
    with pytest.raises(ValueError, match=rf"^rank must be an integer in \[1, 64\], got {rank!r}$"):
        CoherentSpec(0.1, PARAMS, rank)


def test_underflowing_vacuum_weight_is_refused():
    """Past |z|^2 of about 1490 the series would be the zero vector."""
    def spec(z):
        return CoherentSpec(z, PARAMS, 4, allow_truncation_risk=True)

    assert len(coherent_series(spec(38.0)).state) == 4
    for z in (39.0, 1e100j):
        with pytest.raises(TruncationRiskError, match="underflows"):
            coherent_series(spec(z))


def test_tail_mass_matches_poisson_tail():
    built = coherent_series(CoherentSpec(1.0 + 0j, PARAMS, 4))
    kept = sum(math.exp(-1) / math.factorial(n) for n in range(4))
    assert abs(built.tail_mass - (1 - kept)) < 1e-12


@pytest.mark.parametrize(
    "z, rank", [(0.1, 64), (1e-7, 2), (0.3 - 0.4j, 16), (2.0, 8), (4.0, 8)]
)
def test_tail_mass_keeps_relative_accuracy(z, rank):
    """The tail is its leading term e^{-|z|^2} |z|^{2R} / R! times the ratio
    sum over k of |z|^{2k} R! / (R + k)!, both taken here through lgamma."""
    mean = abs(z) ** 2
    spec = CoherentSpec(z, PARAMS, rank, allow_truncation_risk=True)
    leading = math.exp(-mean + rank * math.log(mean) - math.lgamma(rank + 1))
    ratio = math.fsum(
        math.exp(k * math.log(mean) + math.lgamma(rank + 1) - math.lgamma(rank + k + 1))
        for k in range(120)
    )
    expected = leading * ratio
    assert abs(coherent_series(spec).tail_mass - expected) <= 1e-12 * expected


def test_polar_construction():
    spec = CoherentSpec(0.3j, PARAMS, 8)
    assert abs(spec.r - 0.3) < 1e-15
    assert abs(spec.theta - 0.0) < 1e-15
    assert abs(CoherentSpec(-0.5 + 0j, PARAMS, 8).theta - math.pi / 2) < 1e-15
    zero = CoherentSpec(0j, PARAMS, 8)
    assert zero.r == 0.0 and zero.theta == 0.0


def test_expm_against_taylor_series():
    rng = np.random.default_rng(7)
    raw = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    g = raw - raw.conj().T
    series = np.eye(6, dtype=complex)
    term = np.eye(6, dtype=complex)
    for k in range(1, 40):
        term = term @ g / k
        series = series + term
    assert np.max(np.abs(expm_antihermitian(g) - series)) < 1e-12
    with pytest.raises(ValueError):
        expm_antihermitian(raw)


def test_displacement_of_ground_matches_series():
    z = 0.7 * cmath.exp(0.25j * math.pi)
    spec = CoherentSpec(z, PARAMS, 32)
    displaced = displacement_apply(spec, RegisterState.basis(32, 1))
    series = coherent_series(spec).state
    assert (displaced - series).norm() < 1e-8


def test_displacement_is_unitary_on_the_subspace():
    spec = CoherentSpec(0.4j, PARAMS, 16)
    excited = RegisterState(16, {2: 1.0})
    moved = displacement_apply(spec, excited)
    assert abs(moved.norm() - 1) < 1e-12


def test_displacement_rejects_transbosonic_input():
    spec = CoherentSpec(0.4j, PARAMS, 8)
    with pytest.raises(NotBosonicError):
        displacement_apply(spec, RegisterState.basis(8, 3))


def test_generator_gateform_matches_block():
    spec = CoherentSpec(0.3 - 0.2j, PARAMS, 6)
    pair = displacement_generator_gateform(spec)
    block = register_block(circuit_as_operator(pair.full))
    assert np.max(np.abs(block - displacement_generator_block(spec))) < 1e-12


def test_generator_gateform_empty_at_zero():
    pair = displacement_generator_gateform(CoherentSpec(0j, PARAMS, 6))
    assert pair.full.terms == ()
    assert pair.reduced.terms == ()


def test_evolution_phases_per_level():
    t = 0.8
    for n in (0, 2, 5):
        start = RegisterState.basis(8, 1 << n)
        ended = evolve(start, t, PARAMS)
        phase = cmath.exp(-1j * (n + 0.5) * PARAMS.epsilon * t / PARAMS.hbar)
        assert abs(ended.amplitude(1 << n) - phase) < 1e-15


@given(t1=st.floats(-5, 5), t2=st.floats(-5, 5))
def test_evolution_group_property(t1, t2):
    state = RegisterState(4, {1: 0.5, 2: 0.5j, 4: -0.5, 8: 0.5})
    double = evolve(evolve(state, t1, PARAMS), t2, PARAMS)
    direct = evolve(state, t1 + t2, PARAMS)
    assert (double - direct).norm() < 1e-12


def test_evolution_preserves_norm_and_rejects_transbosonic():
    state = RegisterState(4, {1: 0.6, 4: 0.8})
    assert abs(evolve(state, 2.1, PARAMS).norm() - 1) < 1e-14
    with pytest.raises(NotBosonicError):
        evolve(RegisterState.basis(4, 3), 1.0, PARAMS)


def test_evolution_refuses_an_overflowing_phase():
    top = RegisterState.basis(64, 1 << 63)
    # the rate is finite but the top level's phase, 63.5 times it, is not
    with pytest.raises(PhaseOverflowError, match="overflows"):
        evolve(top, sys.float_info.max / 10, PARAMS)
    # finite, but far past the 2**26 rad bound
    with pytest.raises(PhaseOverflowError, match="rad exceeds 2\\*\\*26"):
        evolve(top, sys.float_info.max / 64, PARAMS)


@pytest.mark.parametrize("rank", [32, 64])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_evolution_phase_bound(rank, sign):
    """A top phase (R - 1/2) eps t / hbar of exactly 2**26 rad is evolved;
    the next float of t is refused, by evolve and by tabulate alike."""
    t = sign * 2.0**26 / (rank - 0.5)
    assert abs((rank - 0.5) * t) == 2.0**26
    state = coherent_series(CoherentSpec(0.5, PARAMS, rank)).state
    h = hamiltonian(PARAMS, rank)
    assert abs(evolve(state, t, PARAMS).norm() - state.norm()) < 1e-15
    [[energy]] = tabulate(state, [h], [t], PARAMS)
    assert abs(energy - 0.75) < 1e-12
    beyond = math.nextafter(t, sign * math.inf)
    with pytest.raises(PhaseOverflowError, match="^evolution phase overflows"):
        evolve(state, beyond, PARAMS)
    with pytest.raises(PhaseOverflowError, match="^evolution phase overflows"):
        tabulate(state, [h], [t, beyond], PARAMS)


def _bits(values):
    """The float64 bit patterns of ``values``, so signed zeros differ."""
    return np.ascontiguousarray(values, dtype=float).view(np.int64)


def test_level_phases_are_cmath_exp_bit_for_bit():
    """cos and sin of 0.0 + rate * -(n + 1/2) are the parts of CPython's
    cmath.exp(-1j * (n + 1/2) * rate) at every rank, for rates up to the
    2**26 rad bound of the top phase, t < 0 and t = +-0.0.  With unit
    parameters the rate is t."""
    rng = np.random.default_rng(2026)
    for rank in range(2, 65):
        keys = [1 << n for n in range(rank)]
        edge = math.nextafter(2.0**26 / (rank - 0.5), 0.0)
        times = [0.0, -0.0, edge, -edge, 5e-324, -1e-300]
        times += list(rng.uniform(-edge, edge, 6)) + list(10.0 ** rng.uniform(-12, 2, 4))
        assert [_phase_rate(rank, t, PARAMS) for t in times] == times
        cos, sin = _level_phases(times, keys)
        want = np.array([[cmath.exp(-1j * (key.bit_length() - 0.5) * t) for key in keys]
                         for t in times])
        assert np.array_equal(_bits(cos), _bits(want.real))
        assert np.array_equal(_bits(sin), _bits(want.imag))


def test_real_quotients_are_cpythons_complex_division():
    """(re + im * 0.0) / norm is (complex(re, im) / norm).real for the norms
    tabulate divides by, on signed zeros, subnormals, infinities and NaN."""
    parts = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.5e-308, 1.5, -2.25, 1e300,
             math.inf, -math.inf, math.nan]
    norms = [1.0, 0.3, 5e-324, 2.5e-310, 1e300, math.inf, math.nan]
    re, im, norm = (np.array(axis).ravel() for axis in np.meshgrid(parts, parts, norms))
    with np.errstate(all="ignore"):  # as in tabulate, an inf or nan arises silently
        got = _real_quotients(re, im, norm).tolist()
    want = [(complex(r, i) / n).real for r, i, n in zip(re.tolist(), im.tolist(), norm.tolist())]
    assert [v.hex() for v in got] == [v.hex() for v in want]


def _assert_same_values(got, want):
    """Equal floats, and equal signs where they are zero."""
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def _expectation_loop(state, ops, times, params):
    """One column per op of expectation(op, evolve(state, t)).real, taken
    time by time, so the first time that is refused raises."""
    rows = []
    for t in times:
        snapshot = evolve(state, float(t), params)
        rows.append([expectation(op, snapshot).real for op in ops])
    return [list(column) for column in zip(*rows)]


_SCALES = st.floats(-3, 3).map(lambda e: 10.0 ** e)
_TIMES = st.lists(
    st.one_of(st.sampled_from((0.0, -0.0, 1e6, -1e6)), st.floats(-50, 50)),
    min_size=1,
    max_size=6,
)


@st.composite
def _trajectory_runs(draw):
    rank = draw(st.integers(2, 64))
    # |z|^2 stays inside the rank/4 guard
    z = draw(st.complex_numbers(max_magnitude=0.99 * math.sqrt(rank / 4.0)))
    params = PhysParams(draw(_SCALES), draw(_SCALES), draw(_SCALES))
    return CoherentSpec(z, params, rank), draw(_TIMES)


@settings(max_examples=60, deadline=None)
@example((CoherentSpec(0.7 - 0.4j, PARAMS, 12), list(np.linspace(0.0, 3.0, 5))))
@given(run=_trajectory_runs())
def test_trajectory_matches_expectation(run):
    """Every value is bit for bit that of evolve + expectation, and a phase
    past the bound is refused by both with one message."""
    spec, times = run
    params, rank = spec.params, spec.rank
    traj = _outcome(lambda: trajectory(spec, times))
    ops = (position(params, rank), momentum(params, rank), hamiltonian(params, rank))
    want = _outcome(lambda: _expectation_loop(coherent_series(spec).state, ops, times, params))
    if isinstance(want, tuple):
        assert traj == want
        return
    for got, column in zip((traj.x, traj.p, traj.h), want):
        _assert_same_values(list(got), column)


def test_trajectory_refuses_an_overflowing_phase_as_evolve_does():
    spec = CoherentSpec(0.5 + 0j, PARAMS, 64)
    t = sys.float_info.max / 10
    message = "evolution phase overflows: epsilon * t / hbar = 1.8e+307 at t = 1.79769e+307, rank 64"
    with pytest.raises(PhaseOverflowError) as caught:
        trajectory(spec, np.array([0.0, t]))
    assert str(caught.value) == message
    with pytest.raises(PhaseOverflowError) as caught:
        evolve(coherent_series(spec).state, t, PARAMS)
    assert str(caught.value) == message


def _outcome(run):
    try:
        return run()
    except (ZeroVectorError, PhaseOverflowError) as error:
        return type(error), str(error)


_TINY = st.sampled_from((5e-324, -5e-324j, complex(5e-324, -5e-324), 1e-310 + 0j))
_NONZERO = st.builds(complex, st.floats(-2, 2), st.floats(-2, 2)).filter(lambda v: v != 0)


def _low_levels_position(params, rank, top):
    """x after the filter onto levels below ``top``: its image, 1, 2, 0, 3, ...,
    is smaller than a state on every level and not in the state's order."""
    low = sum((bosonic_projector(n, rank) for n in range(1, top)), bosonic_projector(0, rank))
    return position(params, rank) @ low


def test_tabulate_sums_in_the_states_key_order():
    """x after the filter onto levels 0..3 stores 5 image keys, in the order
    1, 2, 0, 3, 4, against the state's 8: tabulate sums over the state's
    keys in the state's order, as inner_product does, not in the image's."""
    rng = np.random.default_rng(5)
    coeffs = rng.uniform(-2, 2, 8) + 1j * rng.uniform(-2, 2, 8)
    state = RegisterState(8, {1 << n: complex(c) for n, c in enumerate(coeffs)})
    ops = [_low_levels_position(PARAMS, 8, 4)]
    times = list(rng.uniform(-5, 5, 6))
    assert tabulate(state, ops, times, PARAMS) == _expectation_loop(state, ops, times, PARAMS)


def test_tabulate_adds_left_to_right_over_many_keys():
    """48 random amplitudes: a pairwise sum over a contiguous axis, or a BLAS
    product, would round otherwise than inner_product's left-to-right sum."""
    rng = np.random.default_rng(0)
    rank = 48
    coeffs = rng.uniform(-2, 2, rank) + 1j * rng.uniform(-2, 2, rank)
    state = RegisterState(rank, {1 << n: complex(c) for n, c in enumerate(coeffs)})
    ops = [position(PARAMS, rank), momentum(PARAMS, rank), hamiltonian(PARAMS, rank)]
    times = list(rng.uniform(-5, 5, 8))
    got = tabulate(state, ops, times, PARAMS)
    for column, expected in zip(got, _expectation_loop(state, ops, times, PARAMS)):
        _assert_same_values(column, expected)


def test_tabulate_crosses_a_block_boundary_in_the_callers_op_order():
    """1500 times run as two blocks; x, H and p run in one plan, and the
    columns keep the order of ops."""
    rank = 16
    state = coherent_series(CoherentSpec(0.8 - 0.6j, PARAMS, rank)).state
    ops = [position(PARAMS, rank), hamiltonian(PARAMS, rank), momentum(PARAMS, rank)]
    times = list(np.linspace(-7.0, 11.0, 1500))
    got = tabulate(state, ops, times, PARAMS)
    want = _expectation_loop(state, ops, times, PARAMS)
    assert len(got) == len(want) == 3
    for column, expected in zip(got, want):
        _assert_same_values(column, expected)


def test_tabulate_refuses_a_zero_norm_before_a_later_phase_overflow():
    """Each time is refused in turn: the zero norm at t = 0, whose subnormal
    amplitudes square to 0, before the phase past 2**26 rad at t = 1e6.  The
    refusal names the underflow."""
    state = RegisterState(12, {1 << n: 5e-324 for n in range(4)})
    params = PhysParams(1.0, 10.0, 1.0)
    ops, times = [hamiltonian(params, 12)], [0.0, 1e6]
    want = _outcome(lambda: _expectation_loop(state, ops, times, params))
    assert want == (
        ZeroVectorError,
        "the state's squared norm underflows to 0, so its expectation values are undefined",
    )
    assert _outcome(lambda: tabulate(state, ops, times, params)) == want


def test_tabulate_refuses_the_zero_vector_as_such():
    """A state that stores nothing is the zero vector, not an underflow."""
    state = RegisterState(12)
    ops, times = [hamiltonian(PARAMS, 12)], [0.5]
    want = (ZeroVectorError, "expectation value of the zero vector is undefined")
    assert _outcome(lambda: _expectation_loop(state, ops, times, PARAMS)) == want
    assert _outcome(lambda: tabulate(state, ops, times, PARAMS)) == want


def test_tabulate_skips_a_key_the_image_does_not_store():
    """P0 - P0 sends an infinite amplitude to inf - inf, a NaN the image does
    not store; inner_product skips that key rather than adding its NaN."""
    state = RegisterState(4, {1: complex(math.inf, 0), 2: 1 + 0j})
    ops = [bosonic_projector(0, 4) - bosonic_projector(0, 4) + bosonic_projector(1, 4)]
    times = [0.5, 1.0]
    assert tabulate(state, ops, times, PARAMS) == [[0.0, 0.0]]
    assert _expectation_loop(state, ops, times, PARAMS) == [[0.0, 0.0]]


def test_tabulate_keeps_a_key_whose_image_has_an_infinite_part():
    """(inf + inf j) * (1 - 1j) is inf + nan j, whose abs is inf: the image
    stores that key, and its NaN product makes the value NaN, as in
    evolve + expectation; skipping the key would give 0.0."""
    state = RegisterState(4, {1: complex(math.inf, 0), 2: 1 + 0j})
    ops = [bosonic_projector(0, 4).scale(1 - 1j) + bosonic_projector(1, 4)]
    [[got]] = tabulate(state, ops, [-1.0], PARAMS)
    [[want]] = _expectation_loop(state, ops, [-1.0], PARAMS)
    assert math.isnan(got) and math.isnan(want)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_tabulate_matches_expectation_for_any_operator(data):
    """Images larger or smaller than the state, keys in any order, subnormal
    amplitudes: each value is that of evolve + expectation."""
    rank = data.draw(st.integers(2, 12))
    levels = data.draw(st.permutations(range(rank)))[: data.draw(st.integers(1, rank))]
    amps = data.draw(st.lists(st.one_of(_NONZERO, _TINY), min_size=len(levels), max_size=len(levels)))
    state = RegisterState(rank, {1 << n: a for n, a in zip(levels, amps)})
    params = PhysParams(data.draw(_SCALES), data.draw(_SCALES), data.draw(_SCALES))
    builders = {
        "lower": lambda: ladder("lower", params, rank),
        "raise": lambda: ladder("raise", params, rank),
        "x": lambda: position(params, rank),
        "p": lambda: momentum(params, rank),
        "h": lambda: hamiltonian(params, rank),
        "projector": lambda: bosonic_projector(data.draw(st.integers(0, rank - 1)), rank),
        "low x": lambda: _low_levels_position(params, rank, data.draw(st.integers(1, rank))),
    }
    names = data.draw(st.lists(st.sampled_from(sorted(builders)), min_size=1, max_size=4))
    ops = [builders[name]() for name in names]
    times = data.draw(_TIMES)
    got = _outcome(lambda: tabulate(state, ops, times, params))
    want = _outcome(lambda: _expectation_loop(state, ops, times, params))
    if isinstance(want, tuple):  # a zero norm or a phase past the bound, refused by both
        assert got == want
        return
    assert len(got) == len(want)
    for column, expected in zip(got, want):
        _assert_same_values(column, expected)


def test_trajectory_against_dense_oracle():
    """Evolve the projected coefficients with the oracle matrices directly."""
    z = 0.5 + 0j
    rank = 16
    spec = CoherentSpec(z, PARAMS, rank)
    times = np.linspace(0.0, 4.0, 9)
    traj = trajectory(spec, times)
    oracle = build_fock(PARAMS, rank)
    v0 = project(coherent_series(spec).state)
    levels = np.arange(rank)
    for i, t in enumerate(times):
        v = v0 * np.exp(-1j * (levels + 0.5) * PARAMS.epsilon * t / PARAMS.hbar)
        assert abs(traj.x[i] - (v.conj() @ oracle.x @ v).real) < 1e-12
        assert abs(traj.p[i] - (v.conj() @ oracle.p @ v).real) < 1e-12
        assert abs(traj.h[i] - (v.conj() @ oracle.h @ v).real) < 1e-12


def test_trajectory_closed_forms_and_energy():
    z = 0.5 + 0j
    rank = 32
    spec = CoherentSpec(z, PARAMS, rank)
    omega, eps = PARAMS.omega, PARAMS.epsilon
    times = np.linspace(0.0, 2 * math.pi / omega, 64)
    traj = trajectory(spec, times)
    scale = math.sqrt(2 * eps)
    for i, t in enumerate(times):
        rotating = z * cmath.exp(-1j * omega * t)
        assert abs(traj.x[i] - scale * rotating.real / PARAMS.beta) < 1e-10
        # momentum rotates into +Im, fixing the sign convention
        assert abs(traj.p[i] - scale * rotating.imag / PARAMS.alpha) < 1e-10
        assert abs(traj.h[i] - eps * (abs(z) ** 2 + 0.5)) < 1e-12
    assert abs(traj.x[0] - traj.x[-1]) < 1e-10


def test_trajectory_csv_layout():
    traj = Trajectory(
        times=np.array([0.0, 0.5]),
        x=np.array([1.0, 0.25]),
        p=np.array([0.0, -0.125]),
        h=np.array([0.5, 0.5]),
    )
    lines = traj.to_csv().strip().splitlines()
    assert lines[0] == "t,x,p,h"
    assert lines[1] == "0,1,0,0.5"
    assert lines[2] == "0.5,0.25,-0.125,0.5"


def test_trajectory_csv_writes_each_value_as_fmt_float():
    """The CSV written in one pass has the bytes of fmt_float on every value,
    a signed zero, a subnormal, a large and two inexact values among them;
    a NaN or an infinity in any column is refused with fmt_float's error."""
    columns = [np.array(c) for c in ([-0.0, 1 / 3], [5e-324, -2.5], [1e300, 7.0], [0.1, -1e-300])]
    rows = ("".join((",".join(map(fmt_float, row)), "\n")) for row in zip(*columns))
    assert Trajectory(*columns).to_csv() == "t,x,p,h\n" + "".join(rows)
    for bad in (math.nan, math.inf, -math.inf):
        for j in range(4):
            broken = [c.copy() for c in columns]
            broken[j][1] = bad
            with pytest.raises(ValueError, match="^non-finite value has no JSON form$"):
                Trajectory(*broken).to_csv()


def test_expectation_examples():
    state = RegisterState.basis(8, 2)
    h = expectation(hamiltonian(PARAMS, 8), state)
    assert abs(h - 1.5 * PARAMS.epsilon) < 1e-14
    x = expectation(position(PARAMS, 8), state)
    assert abs(x) < 1e-14
