"""Self-test of the benchmark's own machinery.

Run from the repository root:

    python3 benchmarks/selftest.py

It shows that each output check rejects a corrupted output and that the
harness counts it as a failed op, that a seed always generates the same
input bytes, that the tracer counts the same work twice and restores every
wrapped name, and that every per-layer metric of ``BENCHMARK.json`` has an
entry in ``layer_map.json``.  It takes a few seconds: the ops it runs are at
the lowest rank stratum, and the ``verify`` check is fed synthetic reports.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import bosonreg  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from bosonreg import gates, register  # noqa: E402

OUT = run.OUT_DIR / "selftest.out"


def _first_op(name: str, seed: int = 7) -> dict:
    return workloads.WORKLOADS[name].generate(seed, 1)[0][0]


def _failures(name: str, inp: dict, corrupt=None, workload=None) -> int:
    outcome = run.attempt(workload or workloads.WORKLOADS[name], inp, OUT, corrupt)
    return 0 if outcome.ok else 1


def _perturb_csv(text: str) -> str:
    lines = text.splitlines()
    t, x, p, h = lines[3].split(",")
    lines[3] = ",".join((t, repr(float(x) + 1e-6), p, h))
    return "\n".join(lines) + "\n"


def test_trajectory_check_rejects_perturbed_value():
    inp = _first_op("trajectory")
    assert _failures("trajectory", inp) == 0
    assert _failures("trajectory", inp, _perturb_csv) == 1


def test_circuits_check_rejects_dropped_term():
    inp = _first_op("circuits")
    levels = {key.bit_length() - 1 for key, _, _ in inp["amplitudes"] if key.bit_count() == 1}

    def drop_term(text: str) -> str:
        obj = json.loads(text)
        terms = obj["full"]["terms"]
        for index, term in enumerate(terms):
            pairs = [(f["a"], f["b"]) for f in term["factors"] if f["type"] == "T"]
            if pairs and levels & set(pairs[0]):
                del terms[index]
                return json.dumps(obj)
        raise AssertionError("no term touches the state")

    assert _failures("circuits", inp) == 0
    assert _failures("circuits", inp, drop_term) == 1


def _report(passed_flags: dict[str, bool], detail: str) -> str:
    criteria = [
        {"name": name, "passed": passed_flags.get(name, True), "max_deviation": 0.0,
         "tolerance": 0.0, "detail": "", "seconds": 0.5}
        for name in bosonreg.CRITERION_NAMES
    ]
    criteria[-1]["detail"] = detail
    report = {"command": "verify", "mutation": "none", "criteria": criteria,
              "passed": all(c["passed"] for c in criteria), "seconds": 6.0}
    return json.dumps(report)


def test_verify_check_rejects_failing_criterion():
    good_detail = (
        "b-convention -> hop-relations, coherent-states; theta-sign -> gate-identities; "
        "h-offset -> energy-spectrum"
    )
    cases = [
        (_report({}, good_detail), 0, 0),
        (_report({"energy-spectrum": False}, good_detail), 1, 1),
        (_report({}, good_detail.replace("theta-sign -> gate-identities", "theta-sign -> nothing")), 0, 1),
    ]
    inp = _first_op("verify")
    for text, code, expected in cases:
        fake = dataclasses.replace(
            workloads.WORKLOADS["verify"], run=lambda _inp, _out, _corrupt, t=text, c=code: (c, t)
        )
        assert _failures("verify", inp, workload=fake) == expected


def test_inputs_are_byte_identical_per_seed():
    for workload in workloads.WORKLOADS.values():
        first = workloads.canonical_json(workload.generate(11, workload.pool_passes))
        again = workloads.canonical_json(workload.generate(11, workload.pool_passes))
        other = workloads.canonical_json(workload.generate(12, workload.pool_passes))
        assert first == again and first != other, workload.name


def _traced_counts(ops: list[dict]) -> tuple[dict, dict, bool]:
    tracer = tracing.Tracer()
    tracer.install(bosonreg)
    try:
        outcomes = [
            run.attempt(workloads.WORKLOADS["circuits"], inp, OUT, tracer=tracer, op=i)
            for i, inp in enumerate(ops)
        ]
    finally:
        tracer.uninstall()
    wall = sum(o.latency for o in outcomes)
    unspanned = wall - sum(o.covered for o in outcomes)
    adds_up = abs(sum(tracer.layer_self_seconds().values()) + unspanned - wall) <= 1e-6 * wall
    calls = dict(zip(tracer.names, tracer.calls))
    return calls, dict(tracer.counters), adds_up and all(o.ok for o in outcomes)


def test_tracer_counts_repeat_and_wrappers_come_off():
    originals = (gates.apply_circuit, bosonreg.bosonic.apply_circuit, register.RegisterState.__init__)
    ops = [_first_op("circuits", seed) for seed in (3, 4)]
    first = _traced_counts(ops)
    second = _traced_counts(ops)
    assert first == second and first[2]
    assert first[0]["gates.apply_circuit"] == 2 * len(ops) and first[1]["register.states_built"] > 0
    assert (gates.apply_circuit, bosonreg.bosonic.apply_circuit, register.RegisterState.__init__) == originals


def test_every_per_layer_metric_is_mapped():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    mapped = json.loads((HERE / "layer_map.json").read_text())["per_layer"]
    assert {m["name"] for m in spec["per_layer"]} == set(mapped)


def main() -> int:
    run.OUT_DIR.mkdir(exist_ok=True)
    tests = [value for name, value in globals().items() if name.startswith("test_")]
    failed = 0
    for test in tests:
        try:
            test()
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {test.__name__}: {exc}")
        else:
            print(f"ok   {test.__name__}")
    OUT.unlink(missing_ok=True)
    print(f"{len(tests) - failed}/{len(tests)} self-tests passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
