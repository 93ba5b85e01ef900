"""Named verification criteria with measured deviations.

Criteria build the operators they examine through a small toolkit, so the
suite can be rerun with one deliberate fault (hop direction flipped,
transpose phase negated, energy offset dropped).  The final criterion reruns
each criterion under each fault its toolkit consulted and demands that each
fault breaks something, which guards the suite against being vacuous.

Exact criteria report a tolerance of 0 and must measure a deviation of
exactly 0.0; floating criteria carry the tolerances they were fixed at.
"""

from __future__ import annotations

import cmath
import math
import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import bosonic, coherent, fock, gates, qubit
from .bosonic import PhysParams, RegisterOperator
from .register import RegisterState, _check_rank

__all__ = [
    "VerifyConfig",
    "MUTATIONS",
    "CriterionResult",
    "CRITERION_NAMES",
    "run_criteria",
    "algebra_groups",
]

MUTATIONS = ("none", "b-convention", "theta-sign", "h-offset")


@dataclass(frozen=True)
class VerifyConfig:
    """Knobs the verification suite honors.

    Dense sub-checks run at the smaller of their preferred rank and the
    configured one, so the suite stays runnable at any rank in range; the
    advertised tolerances are guaranteed only at the defaults.
    """

    rank: int = 32
    alpha: float = 1.0
    beta: float = 1.0
    hbar: float = 1.0
    seed: int = 0
    params: PhysParams = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if _check_rank(self.rank) < 2:
            raise ValueError(f"rank must be in [2, 64], got {self.rank}")
        if type(self.seed) is not int or self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")
        object.__setattr__(self, "params", PhysParams(self.alpha, self.beta, self.hbar))


@dataclass(frozen=True)
class CriterionResult:
    name: str
    passed: bool
    max_deviation: float
    tolerance: float
    detail: str
    seconds: float
    parts: tuple[_Part, ...] = ()  # what _combine judged; mutation-sensitivity has none


@dataclass(frozen=True)
class _Part:
    label: str
    dev: float
    tol: float

    @property
    def ok(self) -> bool:
        return self.dev <= self.tol


def _severity(part: _Part) -> float:
    if part.tol > 0.0:
        return part.dev / part.tol
    return math.inf if part.dev > 0.0 else 0.0


def _text(part: _Part) -> str:
    return f"{part.label} {part.dev:.3g}/{part.tol:g}"


def _combine(name: str, parts: Sequence[_Part], seconds: float) -> CriterionResult:
    worst = max(parts, key=_severity)
    return CriterionResult(
        name=name,
        passed=all(p.ok for p in parts),
        max_deviation=worst.dev,
        tolerance=worst.tol,
        detail="; ".join(map(_text, parts)),
        seconds=seconds,
        parts=tuple(parts),
    )


_HOPS = {"lower": bosonic.b_lower, "raise": bosonic.b_raise}


class Toolkit:
    """Builds the operators under test, honoring one injected fault.

    Each test of the fault goes through `_faulty`, which records it in `consulted`.
    """

    def __init__(self, params: PhysParams, mutation: str = "none") -> None:
        if mutation not in MUTATIONS:
            raise ValueError(f"unknown mutation {mutation!r}")
        self.params = params
        self._mutation = mutation
        self.consulted: set[str] = set()

    def _faulty(self, *names: str) -> bool:
        self.consulted.update(names)
        return self._mutation in names

    def theta(self, value: float) -> float:
        return -value if self._faulty("theta-sign") else value

    def _direction(self, direction: str) -> str:
        swapped = self._faulty("b-convention")
        return {"lower": "raise", "raise": "lower"}[direction] if swapped else direction

    def b_lower(self, n: int, rank: int) -> RegisterOperator:
        return _HOPS[self._direction("lower")](n, rank)

    def b_raise(self, n: int, rank: int) -> RegisterOperator:
        return _HOPS[self._direction("raise")](n, rank)

    def ladder(self, direction: str, rank: int) -> RegisterOperator:
        return bosonic.ladder(self._direction(direction), self.params, rank)

    def hamiltonian(self, rank: int) -> RegisterOperator:
        if self._faulty("h-offset"):
            half = self.ladder("raise", rank) @ self.ladder("lower", rank)
            return half.scale(0.5)
        return bosonic.hamiltonian(self.params, rank)

    def _ladders(self, rank: int) -> bosonic.LadderPair:
        return self.ladder("raise", rank), self.ladder("lower", rank)

    def position(self, rank: int) -> RegisterOperator:
        return bosonic.position(self.params, rank, self._ladders(rank))

    def momentum(self, rank: int) -> RegisterOperator:
        return bosonic.momentum(self.params, rank, self._ladders(rank))

    def full_decomposition(self, kind: str, rank: int) -> gates.Circuit:
        weights, theta = bosonic._observable_weights(kind, self.params, rank)
        return bosonic.decomposition_terms(rank, weights, self.theta(theta)).full

    def full_displacement_gateform(self, spec: coherent.CoherentSpec) -> gates.Circuit:
        weights, theta = coherent._generator_weights(spec)
        return bosonic.decomposition_terms(spec.rank, weights, self.theta(theta)).full


def _max_abs(m: np.ndarray) -> float:
    return float(np.abs(m).max()) if m.size else 0.0


def _pair_matrix(op_site0: qubit.SiteOp, op_site1: qubit.SiteOp) -> np.ndarray:
    """Dense 4x4 of a two-site product on sites (0, 1), key order 0..3."""
    return np.kron(qubit.op_bit_matrix(op_site1), qubit.op_bit_matrix(op_site0))


# --- criteria -------------------------------------------------------------


def _product_table_closure(cfg: VerifyConfig, kit: Toolkit) -> list[_Part]:
    ops = list(qubit.SiteOp)
    mats = np.array([qubit.op_matrix(op) for op in ops])
    table = [[qubit.op_product(a, b) for b in ops] for a in ops]
    prods = np.array([[qubit.op_matrix(ab) for ab in row] for row in table])
    closure_dev = _max_abs(prods - mats[:, None] @ mats[None, :])
    assoc_failures = sum(
        qubit.op_product(table[i][j], c) != qubit.op_product(a, table[j][k])
        for i, a in enumerate(ops)
        for j in range(len(ops))
        for k, c in enumerate(ops)
    )
    return [
        _Part("closure(81)", closure_dev, 0.0),
        _Part("associativity(729)", float(assoc_failures), 0.0),
    ]


def _gate_identities(cfg: VerifyConfig, kit: Toolkit) -> list[_Part]:
    c = gates.cnot_matrix()
    ct = gates.circuit_to_matrix(gates.Circuit(2, (gates.CircuitTerm(1, (gates.cnot(1, 0),)),)))
    eye = np.eye(4, dtype=complex)
    t0 = gates.transpose_theta_matrix(0.0)
    pauli_sum = 0.5 * sum(
        _pair_matrix(op, op)
        for op in (qubit.SiteOp.S0, qubit.SiteOp.S1, qubit.SiteOp.S2, qubit.SiteOp.S3)
    )
    hop_sum = _pair_matrix(qubit.SiteOp.A, qubit.SiteOp.APLUS) + _pair_matrix(
        qubit.SiteOp.APLUS, qubit.SiteOp.A
    )
    projector_pairs = _pair_matrix(qubit.SiteOp.P0, qubit.SiteOp.P0) + _pair_matrix(
        qubit.SiteOp.P1, qubit.SiteOp.P1
    )
    twisted = 1j * (
        _pair_matrix(qubit.SiteOp.A, qubit.SiteOp.APLUS)
        - _pair_matrix(qubit.SiteOp.APLUS, qubit.SiteOp.A)
    )
    t_quarter = gates.transpose_theta_matrix(kit.theta(math.pi / 2.0))
    return [
        _Part("cnot-involution", max(_max_abs(c @ c - eye), _max_abs(ct @ ct - eye)), 0.0),
        _Part("swap-conjugation", _max_abs(ct - t0 @ c @ t0), 0.0),
        _Part(
            "swap-construction",
            max(_max_abs(t0 - c @ ct @ c), _max_abs(t0 - ct @ c @ ct)),
            0.0,
        ),
        _Part("pauli-sum", _max_abs(t0 - pauli_sum), 1e-12),
        _Part("hop-sum", _max_abs(hop_sum - (t0 - projector_pairs)), 0.0),
        _Part(
            "twisted-hop",
            _max_abs(twisted - (t_quarter - projector_pairs)),
            1e-12,
        ),
    ]


def _per_sample(f: Callable[[float], complex], xs: np.ndarray) -> np.ndarray:
    """f of each sample's scalar, as a column that scales a stack of matrices."""
    return np.array([f(x) for x in xs])[:, None, None]


def _phase_covariance(cfg: VerifyConfig, kit: Toolkit) -> list[_Part]:
    """100 random site rephasings, stacked one sample per row.  Each sample's
    values are a per-sample loop's, bit for bit: the stack applies the numpy
    calls one sample would, and the cos, sin and cmath.exp of an angle stay
    scalar calls, as numpy's array versions may round otherwise."""
    rng = np.random.default_rng(cfg.seed)
    a, b, g, d = rng.uniform(0.0, 2.0 * math.pi, size=(100, 4)).T
    ops = list(qubit.SiteOp)
    at = {op: i for i, op in enumerate(ops)}
    mats = np.array([qubit.op_matrix(op) for op in ops])
    u = qubit.PhaseTransform(a, b)
    conj = np.stack([qubit.phase_conjugate(op, u) for op in ops], axis=1)  # (100, 9, 2, 2)
    phi = a - b
    cos, sin = _per_sample(math.cos, phi), _per_sample(math.sin, phi)
    s1, s2 = mats[at[qubit.SiteOp.S1]], mats[at[qubit.SiteOp.S2]]
    expected = np.broadcast_to(mats, conj.shape).copy()
    expected[:, at[qubit.SiteOp.A]] *= _per_sample(lambda x: cmath.exp(1j * x), phi)
    expected[:, at[qubit.SiteOp.APLUS]] *= _per_sample(lambda x: cmath.exp(-1j * x), phi)
    expected[:, at[qubit.SiteOp.S1]] = cos * s1 + sin * s2
    expected[:, at[qubit.SiteOp.S2]] = -sin * s1 + cos * s2
    products = [qubit.op_product(x, y) for x in ops for y in ops]
    coeffs = np.array([p.coeff for p in products])[:, None, None]
    xs, ys = np.divmod(np.arange(len(products)), len(ops))
    covariance = conj[:, xs] @ conj[:, ys]  # (100, 81, 2, 2)
    covariance -= coeffs * conj[:, [at[p.op] for p in products]]
    psi = g - d
    formula = (
        _pair_matrix(qubit.SiteOp.P0, qubit.SiteOp.S0)
        + _per_sample(math.cos, psi) * _pair_matrix(qubit.SiteOp.P1, qubit.SiteOp.S1)
        + _per_sample(math.sin, psi) * _pair_matrix(qubit.SiteOp.P1, qubit.SiteOp.S2)
    )
    cnot = gates.conjugated_cnot_matrix(a, b, g, d)  # (100, 4, 4)
    return [
        _Part("transform-table", _max_abs(conj - expected), 1e-12),
        _Part("product-covariance", _max_abs(covariance), 1e-12),
        _Part("conjugated-cnot", _max_abs(cnot - formula), 1e-12),
    ]


def _bosonic_filter(cfg: VerifyConfig, kit: Toolkit) -> list[_Part]:
    rank = min(8, cfg.rank)
    filter_op = bosonic.bosonic_identity(rank)
    f = filter_op.to_matrix()
    idem_dev = _max_abs((filter_op @ filter_op).to_matrix() - f)
    keys = np.arange(1 << rank)
    single = (keys > 0) & (keys & (keys - 1) == 0)
    action_dev = _max_abs(f - np.diag(single.astype(complex)))
    kept = int(single.sum())
    annihilated = single.size - kept
    proj_dev = 0.0
    projectors = [bosonic.bosonic_projector(n, rank) for n in range(rank)]
    mats = [p.to_matrix() for p in projectors]
    for n in range(rank):
        for m in range(rank):
            product = (projectors[n] @ projectors[m]).to_matrix()
            expected = mats[n] if n == m else np.zeros_like(product)
            proj_dev = max(proj_dev, _max_abs(product - expected))
    return [
        _Part("idempotent", idem_dev, 0.0),
        _Part(f"action(keep {kept}, kill {annihilated})", action_dev, 0.0),
        _Part("projector-orthogonality", proj_dev, 0.0),
    ]


def _hop_relations(cfg: VerifyConfig, kit: Toolkit) -> list[_Part]:
    rank = min(8, cfg.rank)
    # the filter is diagonal with entries exactly 0 or 1, so b F and F b
    # scale b's columns and rows by them without rounding
    keep = np.diagonal(bosonic.bosonic_identity(rank).to_matrix())
    up_down_dev = down_up_dev = commute_dev = 0.0
    for n in range(rank - 1):
        bn_low = kit.b_lower(n, rank)
        bn_high = kit.b_raise(n, rank)
        low = bn_low.to_matrix()
        commute_dev = max(commute_dev, _max_abs(low * keep - keep[:, None] * low))
        for m in range(rank - 1):
            bm_low = kit.b_lower(m, rank)
            bm_high = kit.b_raise(m, rank)
            up_down = (bn_high @ bm_low).to_matrix()
            down_up = (bn_low @ bm_high).to_matrix()
            if n == m:
                up_down -= bosonic.bosonic_projector(n + 1, rank).to_matrix()
                down_up -= bosonic.bosonic_projector(n, rank).to_matrix()
            up_down_dev = max(up_down_dev, _max_abs(up_down))
            down_up_dev = max(down_up_dev, _max_abs(down_up))
    return [
        _Part("raise-lower", up_down_dev, 0.0),
        _Part("lower-raise", down_up_dev, 0.0),
        _Part("filter-commutant", commute_dev, 0.0),
    ]


def _oracle_intertwining(cfg: VerifyConfig, kit: Toolkit) -> list[_Part]:
    rank = min(8, cfg.rank)
    oracle = fock.build_fock(cfg.params, rank)
    op_pairs = [
        ("lowering", kit.ladder("lower", rank), oracle.a),
        ("raising", kit.ladder("raise", rank), oracle.a_plus),
        ("energy", kit.hamiltonian(rank), oracle.h),
        ("position", kit.position(rank), oracle.x),
        ("momentum", kit.momentum(rank), oracle.p),
    ]
    parts = [
        _Part(label, fock.intertwine_check(op, matrix), 1e-12)
        for label, op, matrix in op_pairs
    ]
    circuit_rank = min(6, cfg.rank)
    oracle6 = fock.build_fock(cfg.params, circuit_rank)
    for kind, matrix in (("position", oracle6.x), ("momentum", oracle6.p)):
        circuit_op = bosonic.circuit_as_operator(kit.full_decomposition(kind, circuit_rank))
        parts.append(_Part(f"{kind}-circuit", fock.intertwine_check(circuit_op, matrix), 1e-10))
    return parts


def _canonical_commutators(cfg: VerifyConfig, kit: Toolkit) -> list[_Part]:
    rank = min(16, cfg.rank)
    rng = np.random.default_rng(cfg.seed + 1)
    eps, hbar = cfg.params.epsilon, cfg.params.hbar
    upper, lower = kit._ladders(rank)
    x_op = kit.position(rank)
    p_op = kit.momentum(rank)
    filter_op = bosonic.bosonic_identity(rank)
    ladder_dev = xp_dev = 0.0
    for _ in range(100):
        coeffs = rng.normal(size=rank - 1) + 1j * rng.normal(size=rank - 1)
        coeffs /= np.linalg.norm(coeffs)
        state = bosonic.embed(np.append(coeffs, 0))  # no top-level support
        ladder_comm = (
            lower.apply(upper.apply(state))
            - upper.apply(lower.apply(state))
            - filter_op.apply(state).scale(2.0 * eps)
        )
        ladder_dev = max(ladder_dev, ladder_comm.norm())
        xp_comm = (
            x_op.apply(p_op.apply(state))
            - p_op.apply(x_op.apply(state))
            - filter_op.apply(state).scale(1j * hbar)
        )
        xp_dev = max(xp_dev, xp_comm.norm())
    return [
        _Part("ladder-commutator", ladder_dev, 1e-10),
        _Part("xp-commutator", xp_dev, 1e-10),
    ]


def _energy_spectrum(cfg: VerifyConfig, kit: Toolkit) -> list[_Part]:
    rank = cfg.rank
    block = bosonic.register_block(kit.hamiltonian(rank))
    values = np.linalg.eigvalsh(block)
    expected = (np.arange(rank) + 0.5) * cfg.params.epsilon
    return [_Part("spectrum", _max_abs(values - expected), 1e-10)]


def _poisson_pmf(mean: float, count: int) -> np.ndarray:
    pmf = np.zeros(count)
    term = math.exp(-mean)
    for n in range(count):
        pmf[n] = term
        term = term * mean / (n + 1)
    return pmf


_Z_SET = (0.3 + 0j, 0.5j, 0.7 * cmath.exp(1j * math.pi / 4.0))


def _coherent_states(cfg: VerifyConfig, kit: Toolkit) -> list[_Part]:
    params = cfg.params
    rank = cfg.rank
    gate_rank = min(10, cfg.rank)
    lower = kit.ladder("lower", rank)
    scale = math.sqrt(2.0 * params.epsilon)
    parts: list[_Part] = []
    eig_dev = poisson_dev = series_dev = block_dev = structure_dev = 0.0
    for z in _Z_SET:
        spec = coherent.CoherentSpec(z, params, rank)
        series = coherent.coherent_series(spec)
        state = series.state
        eig_dev = max(
            eig_dev, (lower.apply(state) - state.scale(z * scale)).norm()
        )
        pmf = _poisson_pmf(abs(z) ** 2, rank)
        poisson_dev = max(
            poisson_dev,
            _max_abs(coherent.number_distribution(state) - pmf),
        )
        displaced = coherent.displacement_apply(
            spec, RegisterState.basis(rank, 1)
        )
        series_dev = max(series_dev, (displaced - state).norm())

        spec_small = coherent.CoherentSpec(z, params, gate_rank)
        generator = gates.circuit_to_matrix(kit.full_displacement_gateform(spec_small))
        powers = [1 << n for n in range(gate_rank)]
        block = generator[np.ix_(powers, powers)]
        reference = coherent.expm_antihermitian(
            coherent.displacement_generator_block(spec_small)
        )
        block_dev = max(
            block_dev,
            _max_abs(coherent.expm_antihermitian(block) - reference),
        )
        generator[np.ix_(powers, powers)] = 0.0
        structure_dev = max(structure_dev, _max_abs(generator))
    parts.append(_Part("lowering-eigenvalue", eig_dev, 1e-8))
    parts.append(_Part("poisson-distribution", poisson_dev, 1e-12))
    parts.append(_Part("series-vs-displacement", series_dev, 1e-8))
    parts.append(_Part("generator-support", structure_dev, 0.0))
    parts.append(_Part("gateform-exponential", block_dev, 1e-8))
    return parts


def _dense_block(handed: list[np.ndarray], powers: list[int]) -> np.ndarray:
    """The ``powers`` block of the dense exponential of the generator in
    ``handed``, as an end-to-end data point.  It runs on a worker thread and
    pops the generator, so no other reference holds it while eigh runs; it
    calls only the numpy-only steps of expm_antihermitian, so it enters no
    public function.  After eigh it multiplies only the aligned column blocks
    that hold ``powers`` (see _expm_i), and its block has the bits of the
    full exponential's."""
    return coherent._expm_i(coherent._hermitian_of(handed.pop()), powers)


def _coherent_dynamics(cfg: VerifyConfig, kit: Toolkit) -> list[_Part]:
    params = cfg.params
    rank = cfg.rank
    z = 0.5 + 0j
    spec = coherent.CoherentSpec(z, params, rank)
    omega, eps = params.omega, params.epsilon
    times = np.linspace(0.0, 2.0 * math.pi / omega, 256)
    start = coherent.coherent_series(spec).state
    ops = (kit.position(rank), kit.momentum(rank), kit.hamiltonian(rank))
    scale = math.sqrt(2.0 * eps)
    h_expected = eps * (abs(z) ** 2 + 0.5)
    x_dev = p_dev = h_dev = 0.0
    for t, x, p, h in zip(times, *coherent.tabulate(start, ops, times, params)):
        rotating = z * cmath.exp(-1j * omega * t)
        x_dev = max(x_dev, abs(x - scale * rotating.real / params.beta))
        p_dev = max(p_dev, abs(p - scale * rotating.imag / params.alpha))
        h_dev = max(h_dev, abs(h - h_expected) / h_expected)
    return [
        _Part("x-closed-form", x_dev, 1e-8),
        _Part("p-closed-form", p_dev, 1e-8),
        _Part("h-constant-relative", h_dev, 1e-10),
    ]


def _transbosonic_annihilation(cfg: VerifyConfig, kit: Toolkit) -> list[_Part]:
    rank = cfg.rank
    ops = {
        "lowering": kit.ladder("lower", rank),
        "energy": kit.hamiltonian(rank),
        "position": kit.position(rank),
        "momentum": kit.momentum(rank),
    }
    leak = 0.0
    keys = [key for key in (3, 5, 6, 0) if key < (1 << rank)]
    for key in keys:
        state = RegisterState.basis(rank, key)
        for op in ops.values():
            image = op.apply(state)
            if not image.is_zero:
                leak = max(leak, image.norm())
    ground_image = ops["lowering"].apply(RegisterState.basis(rank, 1))
    structural = 0.0 if ground_image.is_zero else 1.0
    if len(RegisterState.void(rank)) != 1 or RegisterState.void(rank).amplitude(0) != 1:
        structural = 1.0
    if RegisterState.zero(rank) == RegisterState.void(rank):
        structural = 1.0
    return [
        _Part("transbosonic-leak", leak, 0.0),
        _Part("ground-kill-vs-void", structural, 0.0),
    ]


_CRITERIA: tuple[tuple[str, Callable[[VerifyConfig, Toolkit], list[_Part]]], ...] = (
    ("product-table-closure", _product_table_closure),
    ("gate-identities", _gate_identities),
    ("phase-covariance", _phase_covariance),
    ("bosonic-filter", _bosonic_filter),
    ("hop-relations", _hop_relations),
    ("oracle-intertwining", _oracle_intertwining),
    ("canonical-commutators", _canonical_commutators),
    ("energy-spectrum", _energy_spectrum),
    ("coherent-states", _coherent_states),
    ("coherent-dynamics", _coherent_dynamics),
    ("transbosonic-annihilation", _transbosonic_annihilation),
)

CRITERION_NAMES = tuple(row[0] for row in _CRITERIA) + ("mutation-sensitivity",)


# algebra-check groups, each reported as the worst of some identity parts
_ALGEBRA_GROUPS = (
    ("product-closure", ("closure(81)",)),
    ("product-associativity", ("associativity(729)",)),
    ("gate-involutions", ("cnot-involution",)),
    ("transpose-construction", ("swap-construction",)),
    ("tensor-identities", ("pauli-sum", "hop-sum", "twisted-hop")),
)


def algebra_groups() -> list[tuple[str, float]]:
    """Worst deviation per algebra-check group, from the unmutated criteria parts."""
    cfg = VerifyConfig()
    kit = Toolkit(cfg.params)
    parts = _product_table_closure(cfg, kit) + _gate_identities(cfg, kit)
    dev = {part.label: part.dev for part in parts}
    return [(name, max(dev[label] for label in labels)) for name, labels in _ALGEBRA_GROUPS]


# a criterion's result and the faults its Toolkit consulted
_Run = tuple[CriterionResult, set[str]]


def _run_base(cfg: VerifyConfig, mutation: str, unmutated: Sequence[_Run] = ()) -> list[_Run]:
    """The criteria under one fault, each through a fresh Toolkit.  Criteria are
    deterministic, so the fault-free run of one that never consulted `mutation` is reused."""
    runs = []
    for i, (name, fn) in enumerate(_CRITERIA):
        if unmutated and mutation not in unmutated[i][1]:
            runs.append(unmutated[i])
            continue
        kit = Toolkit(cfg.params, mutation)
        started = time.perf_counter()
        parts = fn(cfg, kit)
        runs.append((_combine(name, parts, time.perf_counter() - started), kit.consulted))
    return runs


def _mutation_sensitivity(cfg: VerifyConfig, unmutated: Sequence[_Run]) -> CriterionResult:
    started = time.perf_counter()
    blind_spots = []
    notes = []
    for mutation in MUTATIONS[1:]:
        failed = [r.name for r, _ in _run_base(cfg, mutation, unmutated) if not r.passed]
        notes.append(f"{mutation} -> {', '.join(failed) if failed else 'nothing'}")
        if not failed:
            blind_spots.append(mutation)
    return CriterionResult(
        name="mutation-sensitivity",
        passed=not blind_spots,
        max_deviation=float(len(blind_spots)),
        tolerance=0.0,
        detail="; ".join(notes),
        seconds=time.perf_counter() - started,
    )


def run_criteria(cfg: VerifyConfig, mutation: str = "none") -> list[CriterionResult]:
    """Run the named criteria; unmutated runs append the sensitivity check.

    An unmutated run also takes one dense 2**R exponential on a worker thread
    (_dense_block) while the criteria run, and adds its deviation as the last
    part of coherent-states; the time it took to start and to wait for counts
    in that criterion's seconds.  mutation-sensitivity judges coherent-states
    without it, as every faulted run measures it.
    """
    if mutation != "none":
        return [result for result, _ in _run_base(cfg, mutation)]
    # imported here, as only this path starts a worker: importing it loads logging
    from concurrent.futures import ThreadPoolExecutor

    started = time.perf_counter()
    spec = coherent.CoherentSpec(_Z_SET[-1], cfg.params, min(10, cfg.rank))
    powers = [1 << n for n in range(spec.rank)]
    handed = [gates.circuit_to_matrix(coherent.displacement_generator_gateform(spec).full)]
    with ThreadPoolExecutor(1) as pool:
        block = pool.submit(_dense_block, handed, powers)
        lead = time.perf_counter() - started
        runs = _run_base(cfg, mutation)
        sensitivity = _mutation_sensitivity(cfg, runs)
        started = time.perf_counter()
        reference = coherent.expm_antihermitian(coherent.displacement_generator_block(spec))
        dense = _Part("dense-exponential", _max_abs(block.result() - reference), 1e-8)
    waited = lead + time.perf_counter() - started
    results = [result for result, _ in runs]
    at = CRITERION_NAMES.index("coherent-states")
    states = results[at]
    results[at] = _combine(states.name, [*states.parts, dense], states.seconds + waited)
    return results + [sensitivity]
