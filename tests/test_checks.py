"""The mutation harness reruns a criterion only under the faults it consulted,
and a fault-free run takes its dense exponential on one worker thread."""

import cmath
import dataclasses
import functools
import importlib
import inspect
import math
import pkgutil
import threading

import numpy as np
import pytest

import bosonreg
from bosonreg import bosonic, checks, coherent, gates, qubit
from bosonreg.checks import CRITERION_NAMES, MUTATIONS, Toolkit, VerifyConfig, run_criteria
from bosonreg.qubit import SiteOp

CONFIGS = [VerifyConfig(), VerifyConfig(rank=8, alpha=1.3, beta=0.8, hbar=1.1)]
CONFIG_IDS = ["defaults", "rank8"]

# the criteria each fault reaches through the Toolkit, at every config
REACHED = {
    "b-convention": [
        "hop-relations",
        "oracle-intertwining",
        "canonical-commutators",
        "coherent-states",
        "coherent-dynamics",
        "transbosonic-annihilation",
    ],
    "theta-sign": ["gate-identities", "oracle-intertwining", "coherent-states"],
    "h-offset": [
        "oracle-intertwining",
        "energy-spectrum",
        "coherent-dynamics",
        "transbosonic-annihilation",
    ],
}


@functools.cache
def _consulted(cfg):
    return {result.name: consulted for result, consulted in checks._run_base(cfg, "none")}


@pytest.mark.parametrize("cfg", CONFIGS, ids=CONFIG_IDS)
def test_recorded_sets_are_pinned(cfg):
    consulted = _consulted(cfg)
    reached = {
        mutation: [name for name, faults in consulted.items() if mutation in faults]
        for mutation in MUTATIONS[1:]
    }
    assert reached == REACHED
    assert all(faults <= set(MUTATIONS[1:]) for faults in consulted.values())


def test_fault_free_criteria_are_named():
    for cfg in CONFIGS:
        assert [name for name, faults in _consulted(cfg).items() if not faults] == [
            "product-table-closure",
            "phase-covariance",
            "bosonic-filter",
        ]


@pytest.mark.parametrize("cfg", CONFIGS, ids=CONFIG_IDS)
@pytest.mark.parametrize("name,fn", checks._CRITERIA, ids=[name for name, _ in checks._CRITERIA])
def test_fault_free_parts_do_not_depend_on_the_toolkit(cfg, name, fn):
    """Under every fault outside a criterion's recorded set, its parts are the fault-free ones."""
    consulted = _consulted(cfg)[name]
    outside = [mutation for mutation in MUTATIONS[1:] if mutation not in consulted]
    unmutated = fn(cfg, Toolkit(cfg.params)) if outside else None
    for mutation in outside:
        faulted = Toolkit(cfg.params, mutation)
        assert fn(cfg, faulted) == unmutated, mutation
        assert faulted.consulted == consulted, mutation


def _t_negated(circuit):
    """circuit with every T factor rebuilt at -theta: what the theta-sign fault must build."""
    terms = [
        gates.CircuitTerm(term.coeff, tuple(
            gates.transpose_theta(p.a, p.b, -p.theta) if p.kind == "T" else p
            for p in term.factors
        ))
        for term in circuit.terms
    ]
    return gates.Circuit(circuit.rank, tuple(terms))


_CIRCUIT_CASES = [
    *((kind, rank, None) for kind in ("position", "momentum") for rank in range(2, 11)),
    *(
        ("displacement", rank, z)
        for rank in range(2, 11)
        for z in (0j, 0.3 + 0j, 0.5j, 0.7 * cmath.exp(1j * math.pi / 4.0))
    ),
]


@pytest.mark.parametrize("kind,rank,z", _CIRCUIT_CASES)
def test_theta_sign_enters_where_theta_does(kind, rank, z):
    """The Toolkit's circuits are the builders' own, and under theta-sign the
    builders' circuits with every T factor at -theta."""
    params = VerifyConfig().params
    kits = [Toolkit(params), Toolkit(params, "theta-sign")]
    if kind == "displacement":
        spec = coherent.CoherentSpec(z, params, rank)
        built = coherent.displacement_generator_gateform(spec).full
        plain, faulted = (kit.full_displacement_gateform(spec) for kit in kits)
    else:
        built = bosonic.gate_decomposition(kind, params, rank).full
        plain, faulted = (kit.full_decomposition(kind, rank) for kit in kits)
    assert plain == built
    assert np.array_equal(
        gates.circuit_to_matrix(faulted), gates.circuit_to_matrix(_t_negated(built))
    )
    assert [kit.consulted for kit in kits] == [{"theta-sign"}] * 2


def test_negative_seed_is_refused():
    with pytest.raises(ValueError, match="seed must be a non-negative integer, got -1"):
        VerifyConfig(seed=-1)


@pytest.mark.parametrize("knobs, message", [
    ({"rank": 2.5}, r"rank must be an integer in \[1, 64\], got 2.5"),
    ({"rank": np.int64(8)}, r"rank must be an integer in \[1, 64\], got "),
    ({"rank": "8"}, r"rank must be an integer in \[1, 64\], got '8'"),
    ({"rank": 1}, r"rank must be in \[2, 64\], got 1"),
    ({"seed": 1.5}, "seed must be a non-negative integer, got 1.5"),
    ({"alpha": math.nan}, "alpha must be positive and finite"),
])
def test_config_refuses_bad_knobs_when_built(knobs, message):
    """A knob that run_criteria could not use is refused by the constructor,
    with a ValueError, not later by a TypeError deep inside a criterion."""
    with pytest.raises(ValueError, match=message):
        VerifyConfig(**knobs)


def test_config_builds_its_params_once():
    cfg = VerifyConfig(rank=8, alpha=1.3, beta=0.8, hbar=1.1)
    assert cfg.params is cfg.params
    assert cfg.params == bosonic.PhysParams(1.3, 0.8, 1.1)


def _outcome(r):
    return r.name, r.passed, r.max_deviation, r.tolerance, r.detail


def test_sensitivity_detail_matches_full_reruns():
    for cfg in CONFIGS:
        runs = checks._run_base(cfg, "none")
        sensitivity = checks._mutation_sensitivity(cfg, runs)
        notes = []
        for mutation in MUTATIONS[1:]:
            full = run_criteria(cfg, mutation)
            reused = [result for result, _ in checks._run_base(cfg, mutation, runs)]
            assert [_outcome(r) for r in reused] == [_outcome(r) for r in full], mutation
            failed = [r.name for r in full if not r.passed]
            notes.append(f"{mutation} -> {', '.join(failed) if failed else 'nothing'}")
        assert sensitivity.detail == "; ".join(notes)


def test_fault_free_criteria_run_once_per_default_run(monkeypatch):
    calls = {name: 0 for name, _ in checks._CRITERIA}

    def counted(name, fn):
        def wrapper(cfg, kit):
            calls[name] += 1
            return fn(cfg, kit)

        return wrapper

    monkeypatch.setattr(
        checks, "_CRITERIA", tuple((name, counted(name, fn)) for name, fn in checks._CRITERIA)
    )
    results = run_criteria(VerifyConfig())
    assert len(results) == 12
    expected = {
        name: 1 + sum(name in reached for reached in REACHED.values()) for name in calls
    }
    assert calls == expected
    assert sum(calls.values()) == 24


@pytest.mark.parametrize("mutation", ["none", "b-convention"])
def test_hop_filter_broadcast_equals_dense_products(mutation):
    """b F and F b by scaling b's columns and rows equal the dense matmuls exactly."""
    rank = 8
    kit = Toolkit(VerifyConfig().params, mutation)
    filter_mat = bosonic.bosonic_identity(rank).to_matrix()
    keep = np.diagonal(filter_mat)
    assert set(keep.tolist()) == {0, 1}
    for n in range(rank - 1):
        for op in (kit.b_lower(n, rank), kit.b_raise(n, rank)):
            b = op.to_matrix()
            assert np.array_equal(b * keep, b @ filter_mat)
            assert np.array_equal(keep[:, None] * b, filter_mat @ b)


class _LeakyKit(Toolkit):
    """A lowering hop that also creates occupation from the void: not in the filter's commutant."""

    def b_lower(self, n, rank):
        raising = gates.CircuitTerm(1, [gates.local(n, SiteOp.APLUS)])
        return bosonic.circuit_as_operator(gates.Circuit(rank, [raising]))


def test_filter_commutant_measures_what_dense_products_give():
    cfg = VerifyConfig(rank=8)
    kit = _LeakyKit(cfg.params)
    filter_mat = bosonic.bosonic_identity(cfg.rank).to_matrix()
    expected = max(
        np.abs(b @ filter_mat - filter_mat @ b).max()
        for b in (kit.b_lower(n, cfg.rank).to_matrix() for n in range(cfg.rank - 1))
    )
    parts = {part.label: part.dev for part in checks._hop_relations(cfg, kit)}
    assert parts["filter-commutant"] == expected == 1.0


# --- the dense exponential on its worker thread ---------------------------------


@pytest.mark.parametrize("cfg", CONFIGS, ids=CONFIG_IDS)
def test_dense_exponential_is_the_expm_block(cfg):
    """The worker's block is expm_antihermitian's block, bit for bit and signed
    zeros included, and run_criteria appends its deviation to coherent-states
    as its last part."""
    spec = coherent.CoherentSpec(checks._Z_SET[-1], cfg.params, min(10, cfg.rank))
    generator = gates.circuit_to_matrix(coherent.displacement_generator_gateform(spec).full)
    powers = [1 << n for n in range(spec.rank)]
    reference = coherent.expm_antihermitian(coherent.displacement_generator_block(spec))
    full = coherent.expm_antihermitian(generator)[np.ix_(powers, powers)]
    expected = checks._max_abs(full - reference)
    block = checks._dense_block([generator], powers)
    assert block.shape == full.shape
    assert np.array_equal(block.view(np.uint64), full.view(np.uint64))
    assert checks._max_abs(block - reference) == expected
    [states] = [r for r in run_criteria(cfg) if r.name == "coherent-states"]
    assert states.detail.endswith(f"; dense-exponential {expected:.3g}/1e-08")
    assert states.parts[-1] == checks._Part("dense-exponential", expected, 1e-8)


def test_each_result_is_its_parts_combined():
    """Every criterion but mutation-sensitivity carries the parts it was judged
    on, dense-exponential included, and they give back its result."""
    results = run_criteria(CONFIGS[1])
    for result in results[:-1]:
        assert result.parts
        assert checks._combine(result.name, result.parts, result.seconds) == result
    assert results[-1].name == "mutation-sensitivity" and results[-1].parts == ()


def _failing_off_main(fn):
    """fn, except that it raises when called on any thread but the main one."""

    def wrapper(*args):
        if threading.current_thread() is not threading.main_thread():
            raise RuntimeError("failed off the main thread")
        return fn(*args)

    return wrapper


def _failing(*args):
    raise RuntimeError("failed on the main thread")


@pytest.mark.parametrize(
    "target, replacement, message",
    [
        ((coherent, "_expm_i"), _failing_off_main(coherent._expm_i), "off the main"),
        ((checks, "_run_base"), _failing, "on the main"),
    ],
    ids=["worker", "criteria"],
)
def test_a_failure_on_either_thread_propagates_and_joins_the_worker(
    monkeypatch, target, replacement, message
):
    baseline = threading.active_count()
    monkeypatch.setattr(*target, replacement)
    with pytest.raises(RuntimeError, match=message):
        run_criteria(VerifyConfig(rank=4))
    assert threading.active_count() == baseline


def test_faulted_runs_start_no_thread(monkeypatch):
    started = []
    monkeypatch.setattr(threading.Thread, "start", lambda thread: started.append(thread))
    run_criteria(VerifyConfig(rank=4), "b-convention")
    assert started == []


def _public_code():
    """Code of every public function, and of every function of a public class, in the package."""
    names = [m.name for m in pkgutil.iter_modules(bosonreg.__path__) if not m.name.startswith("_")]
    codes = set()
    for module in [bosonreg, *(importlib.import_module(f"bosonreg.{name}") for name in names)]:
        for attr, value in vars(module).items():
            if attr.startswith("_") or not getattr(value, "__module__", "").startswith("bosonreg"):
                continue
            if inspect.isfunction(value):
                codes.add(value.__code__)
            elif inspect.isclass(value):
                for member in vars(value).values():
                    member = getattr(member, "fget", None) or getattr(member, "__func__", member)
                    if inspect.isfunction(member):
                        codes.add(member.__code__)
    return codes


def test_worker_enters_no_public_function():
    """The layer tracer wraps public functions and methods with shared state;
    the worker thread calls none of them."""
    entered = set()

    def hook(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    threading.setprofile(hook)
    try:
        results = run_criteria(VerifyConfig(rank=6))
    finally:
        threading.setprofile(None)
    assert "dense-exponential" in results[CRITERION_NAMES.index("coherent-states")].detail
    assert {coherent._hermitian_of.__code__, coherent._expm_i.__code__} <= entered
    assert not entered & _public_code()


# --- the stacked sweeps against per-sample loops -------------------------------


def _product_table_closure_per_sample():
    """The closure and associativity sweeps, one product at a time."""
    ops = list(SiteOp)
    closure_dev = 0.0
    for a in ops:
        for b in ops:
            prod = qubit.op_matrix(qubit.op_product(a, b))
            direct = qubit.op_matrix(a) @ qubit.op_matrix(b)
            closure_dev = max(closure_dev, checks._max_abs(prod - direct))
    assoc_failures = 0
    for a in ops:
        for b in ops:
            ab = qubit.op_product(a, b)
            for c in ops:
                left = qubit.op_product(ab, c)
                right = qubit.op_product(a, qubit.op_product(b, c))
                if left != right:
                    assoc_failures += 1
    return [
        checks._Part("closure(81)", closure_dev, 0.0),
        checks._Part("associativity(729)", float(assoc_failures), 0.0),
    ]


def _phase_covariance_per_sample(cfg):
    """phase-covariance, one rephasing at a time."""
    rng = np.random.default_rng(cfg.seed)
    table_dev = 0.0
    product_dev = 0.0
    cnot_dev = 0.0
    ops = list(SiteOp)
    mat = {op: qubit.op_matrix(op) for op in ops}
    products = [(x, y, qubit.op_product(x, y)) for x in ops for y in ops]
    for _ in range(100):
        a, b, g, d = rng.uniform(0.0, 2.0 * math.pi, size=4)
        u = qubit.PhaseTransform(a, b)
        phi = a - b
        expected = {
            SiteOp.ZERO: 0 * mat[SiteOp.ZERO],
            SiteOp.P0: mat[SiteOp.P0],
            SiteOp.P1: mat[SiteOp.P1],
            SiteOp.S0: mat[SiteOp.S0],
            SiteOp.S3: mat[SiteOp.S3],
            SiteOp.A: cmath.exp(1j * phi) * mat[SiteOp.A],
            SiteOp.APLUS: cmath.exp(-1j * phi) * mat[SiteOp.APLUS],
            SiteOp.S1: math.cos(phi) * mat[SiteOp.S1] + math.sin(phi) * mat[SiteOp.S2],
            SiteOp.S2: -math.sin(phi) * mat[SiteOp.S1] + math.cos(phi) * mat[SiteOp.S2],
        }
        conj = {op: qubit.phase_conjugate(op, u) for op in ops}
        for op in ops:
            table_dev = max(table_dev, checks._max_abs(conj[op] - expected[op]))
        for x, y, prod in products:
            lhs = conj[x] @ conj[y]
            product_dev = max(product_dev, checks._max_abs(lhs - prod.coeff * conj[prod.op]))
        psi = g - d
        formula = checks._pair_matrix(SiteOp.P0, SiteOp.S0) + np.kron(
            math.cos(psi) * qubit.op_bit_matrix(SiteOp.S1)
            + math.sin(psi) * qubit.op_bit_matrix(SiteOp.S2),
            qubit.op_bit_matrix(SiteOp.P1),
        )
        cnot_dev = max(
            cnot_dev, checks._max_abs(gates.conjugated_cnot_matrix(a, b, g, d) - formula)
        )
    return [
        checks._Part("transform-table", table_dev, 1e-12),
        checks._Part("product-covariance", product_dev, 1e-12),
        checks._Part("conjugated-cnot", cnot_dev, 1e-12),
    ]


def _hex_parts(parts):
    return [(part.label, float.hex(part.dev), float.hex(part.tol)) for part in parts]


_SEEDS = (0, 1, 5, 7, 123, 60601)


@pytest.mark.parametrize("seed", _SEEDS)
@pytest.mark.parametrize("cfg", CONFIGS, ids=CONFIG_IDS)
def test_stacked_phase_covariance_is_the_per_sample_loop(cfg, seed):
    cfg = dataclasses.replace(cfg, seed=seed)
    stacked = checks._phase_covariance(cfg, Toolkit(cfg.params))
    assert _hex_parts(stacked) == _hex_parts(_phase_covariance_per_sample(cfg))


@pytest.mark.parametrize("cfg", CONFIGS, ids=CONFIG_IDS)
def test_stacked_product_table_closure_is_the_per_sample_loop(cfg):
    stacked = checks._product_table_closure(cfg, Toolkit(cfg.params))
    assert _hex_parts(stacked) == _hex_parts(_product_table_closure_per_sample())


def test_phase_covariance_builds_the_cnot_once_per_run(monkeypatch):
    """One stacked conjugated_cnot_matrix call per run, which builds the CNOT
    then and there: a faulty CNOT kernel still reaches phase-covariance."""
    calls = []
    cnot_matrix = gates.cnot_matrix
    monkeypatch.setattr(gates, "cnot_matrix", lambda: calls.append(1) or cnot_matrix())
    cfg = VerifyConfig()
    checks._phase_covariance(cfg, Toolkit(cfg.params))
    assert len(calls) == 1
