"""End-to-end command-line behavior, run in process."""

import contextlib
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bosonreg
from bosonreg import cli, gates, jsonio
from bosonreg.cli import main, parse_complex
from bosonreg.bosonic import PhysParams, gate_decomposition, hamiltonian, momentum, position
from bosonreg.checks import MUTATIONS
from bosonreg.coherent import CoherentSpec, coherent_series, evolve, expectation
from bosonreg.gates import circuit_from_json_obj, circuit_to_json_text
from bosonreg.jsonio import fmt_float


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_complex_forms():
    assert parse_complex("0.5") == 0.5
    assert parse_complex("1+0i") == 1
    assert parse_complex("0.3i") == 0.3j
    assert parse_complex("-1.5-2i") == -1.5 - 2j
    assert parse_complex("i") == 1j


def test_map_computational(capsys):
    code, out, _ = run(capsys, "map", "1101", "--mode", "computational")
    assert code == 0
    assert out.strip() == "11"


def test_map_collision(capsys):
    """0 followed by repeating 1s and plain 1 hit the same point."""
    code, out, _ = run(capsys, "map", "0", "--period", "1", "--mode", "continuum")
    assert code == 0
    assert "1/1" in out and "Recurring" in out
    code, out, _ = run(capsys, "map", "1", "--mode", "continuum")
    assert code == 0
    assert "1/1" in out and "FiniteCountable" in out


def test_map_usage_errors(capsys):
    assert run(capsys, "map", "120")[0] == 2
    assert run(capsys, "map", "1101", "--period", "1")[0] == 2


_PAST_DIGIT_LIMIT = [
    ("map", "1" * 20000),
    ("map", "1" * 20000, "--format", "json"),
    ("map", "0" * 20000 + "1", "--mode", "continuum"),
    ("map", "0" * 20000 + "1", "--mode", "continuum", "--format", "json"),
]


@pytest.mark.parametrize("argv", _PAST_DIGIT_LIMIT, ids=["key", "key json", "prefix", "prefix json"])
def test_map_refuses_a_value_past_the_int_to_str_limit(tmp_path, capsys, argv):
    """A key or denominator with more than 4300 decimal digits exits 2 with
    one line before anything is written, to stdout or to --out."""
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == "bosonreg: error: map value exceeds Python's int-to-str digit limit\n"
    target = tmp_path / "value"
    assert run(capsys, *argv, "--out", str(target)) == (2, "", err)
    assert not target.exists()


def test_map_long_period_alone_still_answers(capsys):
    """20000 repeating 1s sum to 2: the input is long, its value is not."""
    period = ("--mode", "continuum", "--period", "1" * 20000)
    assert run(capsys, "map", "", *period) == (0, "2/1 = 2 (RecurringSequence)\n", "")
    code, out, _ = run(capsys, "map", "", *period, "--format", "json")
    assert (code, json.loads(out)["numerator"], json.loads(out)["denominator"]) == (0, 2, 1)


def test_map_json(capsys):
    code, out, _ = run(capsys, "map", "01", "--mode", "continuum", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["numerator"] == 1 and obj["denominator"] == 2
    assert obj["classification"] == "FiniteCountable"


def test_algebra_check_passes_by_default(capsys):
    code, out, _ = run(capsys, "algebra-check")
    assert code == 0
    assert out.count("PASS") == 6  # 5 groups plus the summary line
    for name in (
        "product-closure",
        "product-associativity",
        "gate-involutions",
        "transpose-construction",
        "tensor-identities",
    ):
        assert name in out


def test_algebra_check_zero_tolerance_fails(capsys):
    """Floating identities cannot meet an exact-zero tolerance."""
    code, out, _ = run(capsys, "algebra-check", "--tol", "0")
    assert code == 1
    assert "FAIL tensor-identities" in out


def test_algebra_check_json(capsys):
    code, out, _ = run(capsys, "algebra-check", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert len(obj["groups"]) == 5
    assert obj["passed"] is True


ALGEBRA_CHECK_TEXT = """\
PASS product-closure max_deviation=0
PASS product-associativity max_deviation=0
PASS gate-involutions max_deviation=0
PASS transpose-construction max_deviation=0
PASS tensor-identities max_deviation=6.123233995736766e-17
algebra-check: PASS (5 groups, tol=1e-10)
"""

ALGEBRA_CHECK_JSON = (
    '{"command":"algebra-check","tol":1e-10,"groups":['
    '{"name":"product-closure","max_deviation":0,"passed":true},'
    '{"name":"product-associativity","max_deviation":0,"passed":true},'
    '{"name":"gate-involutions","max_deviation":0,"passed":true},'
    '{"name":"transpose-construction","max_deviation":0,"passed":true},'
    '{"name":"tensor-identities","max_deviation":6.123233995736766e-17,"passed":true}'
    '],"passed":true}\n'
)


def test_algebra_check_exact_output(capsys):
    """The report is pinned byte for byte, in text and in JSON."""
    assert run(capsys, "algebra-check") == (0, ALGEBRA_CHECK_TEXT, "")
    assert run(capsys, "algebra-check", "--format", "json") == (0, ALGEBRA_CHECK_JSON, "")


def test_state_number(capsys):
    code, out, _ = run(capsys, "state", "number", "2", "--rank", "8")
    assert code == 0
    obj = json.loads(out)
    assert len(obj["amplitudes"]) == 1
    key, re, im = obj["amplitudes"][0]
    assert key == 4
    assert abs(complex(re, im) - 1) < 1e-10
    assert run(capsys, "state", "number", "9", "--rank", "8")[0] == 2


def test_state_number_extreme_quanta(capsys):
    """Large and tiny energy quanta neither overflow nor underflow the norm."""
    for level, alpha in ((63, "1e10"), (40, "1e-10")):
        code, out, err = run(
            capsys, "state", "number", str(level), "--rank", "64", "--alpha", alpha
        )
        assert (code, err) == (0, "")
        [[key, re, im]] = json.loads(out)["amplitudes"]
        assert key == 2**level
        assert abs(complex(re, im) - 1) < 1e-10


def test_state_number_energy_quantum_out_of_range(capsys):
    """alpha * beta * hbar overflowing or underflowing is refused in one line."""
    for scale in ("1e200", "1e-200"):
        code, out, err = run(
            capsys, "state", "number", "3", "--rank", "8", "--alpha", scale, "--beta", scale
        )
        assert (code, out) == (2, "")
        assert err.startswith("bosonreg: error: epsilon") and err.count("\n") == 1


_TINY_ALPHA = ["--alpha", "1e-300", "--beta", "1e300", "--hbar", "1e300"]
_TINY_BETA = ["--alpha", "1e300", "--beta", "1e-300", "--hbar", "1e300"]


@pytest.mark.parametrize(
    "argv",
    [
        # epsilon 1e300: the x or p weight overflows, and verify squares
        # amplitudes near 1e301
        ["evolve", "--z", "0.5+0.3i", "--t1", "3", "--steps", "3", *_TINY_ALPHA],
        ["evolve", "--z", "0.5+0.3i", "--t1", "3", "--steps", "3", *_TINY_BETA],
        ["decompose", "momentum", "--rank", "4", *_TINY_ALPHA],
        ["decompose", "position", "--rank", "4", *_TINY_BETA],
        ["verify", "--rank", "8", *_TINY_ALPHA],
        # epsilon 1, but the momentum weight sqrt(2 eps) / (2 alpha) overflows
        ["decompose", "momentum", "--rank", "4", "--alpha", "1e-320", "--beta", "1e300",
         "--hbar", "1e20"],
        # verify's period 2 pi / omega overflows
        ["verify", "--rank", "3", "--alpha", "1e-160", "--beta", "1e-150", "--hbar", "1e10"],
    ],
)
def test_scales_outside_the_domain_are_refused_in_one_line(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("bosonreg: error: ") and err.count("\n") == 1


def test_state_coherent(capsys):
    code, out, _ = run(capsys, "state", "coherent", "0+0i")
    assert code == 0
    obj = json.loads(out)
    assert obj["amplitudes"] == [[1, 1, 0]]
    assert obj["tail_mass"] == 0

    code, out, _ = run(capsys, "state", "coherent", "1+0i", "--rank", "32")
    obj = json.loads(out)
    assert len(obj["amplitudes"]) == 32
    assert obj["tail_mass"] < 1e-20

    # a tail far below 1e-16 is summed directly, not lost to 1 - kept
    code, out, _ = run(capsys, "state", "coherent", "0.1", "--rank", "64")
    leading = math.exp(-0.01 + 64 * math.log(0.01) - math.lgamma(65))
    assert leading < json.loads(out)["tail_mass"] < leading * (1 + 0.01 / 64)


def test_state_coherent_guard(capsys):
    assert run(capsys, "state", "coherent", "4+0i", "--rank", "8")[0] == 2
    code, out, _ = run(
        capsys, "state", "coherent", "4+0i", "--rank", "8", "--allow-truncation-risk"
    )
    assert code == 0
    assert json.loads(out)["tail_mass"] > 0.5


def test_decompose_position(capsys):
    code, out, _ = run(capsys, "decompose", "position", "--rank", "4")
    assert code == 0
    obj = json.loads(out)
    full_t_terms = [
        t for t in obj["full"]["terms"]
        if any(f["type"] == "T" for f in t["factors"])
    ]
    assert len(full_t_terms) == 3
    assert all(
        f["theta"] == 0 for t in full_t_terms for f in t["factors"] if f["type"] == "T"
    )
    assert len(obj["reduced"]["terms"]) == 3
    # emitted circuits parse back into the library form
    circuit_from_json_obj(obj["full"])
    circuit_from_json_obj(obj["reduced"])


def test_decompose_momentum_quarter_twist(capsys):
    code, out, _ = run(capsys, "decompose", "momentum", "--rank", "4")
    obj = json.loads(out)
    thetas = {
        f["theta"]
        for t in obj["full"]["terms"]
        for f in t["factors"]
        if f["type"] == "T"
    }
    assert thetas == {math.pi / 2}


def test_decompose_displacement(capsys):
    code, out, _ = run(capsys, "decompose", "displacement", "--z", "0.3i", "--rank", "4")
    assert code == 0
    obj = json.loads(out)
    assert abs(obj["r"] - 0.3) < 1e-15
    assert obj["theta"] == 0
    assert run(capsys, "decompose", "displacement", "--rank", "4")[0] == 2
    assert run(capsys, "decompose", "position", "--z", "0.1", "--rank", "4")[0] == 2


# digests of the output of the isinstance-chain emitter that the exact-type
# fast path replaced; decompose output must stay byte for byte the same
@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            ("decompose", "displacement", "--z=0.3+0.2i", "--rank", "64"),
            "aa716828aefdc0f058d6b85c31a2a24bcd7abb0e94baf6c6fb4a571123bd2de1",
        ),
        (
            ("decompose", "momentum", "--rank", "40", "--alpha", "1.3"),
            "50263b00a85612abef3c115c685dc895cd00404218f8bcc2c3059fcbedef799b",
        ),
        (
            ("decompose", "position", "--rank", "64"),
            "cd4ec4b128312ee819ad1e0b2ee1ea7dc02023c899861f2427245ef469b1a68f",
        ),
    ],
    ids=["displacement-64", "momentum-40", "position-64"],
)
def test_decompose_output_is_pinned(capsys, argv, digest):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# digests of the evolve CSV at the ranks the benchmark runs, with complex z
# and scales other than 1: a faster way to build, index or plan x, p and H
# must keep every byte
@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            ("evolve", "--z", "0.7-0.4i", "--rank", "16", "--t1", "6.5", "--steps", "40",
             "--alpha", "1.3", "--beta", "0.8", "--hbar", "1.1"),
            "9d09f4a5673894b178fc7fb4e9083e5eb67441d724ff964afe5c0891c7785e24",
        ),
        (
            ("evolve", "--z", "-1.2+0.9i", "--rank", "40", "--t0", "0.25", "--t1", "9",
             "--steps", "33", "--alpha", "0.6", "--beta", "1.7", "--hbar", "0.9"),
            "e764fe2e575c02184462fcc7a98ea429fdec2825cc2710d876935b5af61d58b5",
        ),
        (
            ("evolve", "--z", "-2.5+2.1i", "--rank", "64", "--t1", "12", "--steps", "64",
             "--alpha", "2.2", "--beta", "0.45", "--hbar", "1.3"),
            "7a3266a1ea2f9fc5cbe23ff3f4822c01aa41cf2902a54b7c6468262af74b03fd",
        ),
    ],
    ids=["evolve-16", "evolve-40", "evolve-64"],
)
def test_evolve_output_is_pinned(capsys, argv, digest):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("kind", ["position", "momentum"])
def test_decompose_writes_each_placement_once(monkeypatch, kind):
    """Across two decompositions written in one process, each half through
    circuit_to_json_text, jsonio.dumps writes no placement's factor dict
    twice, and the second writes no local placement's dict: local placements
    are shared per process, so earlier tests may already have written some
    of them."""
    dumps = jsonio.dumps
    calls = []
    for pair in [gate_decomposition(kind, PhysParams(), 8) for _ in range(2)]:
        written = []
        monkeypatch.setattr(jsonio, "dumps", lambda obj: written.append(obj) or dumps(obj))
        for circuit in (pair.full, pair.reduced):
            circuit_to_json_text(circuit)
        monkeypatch.undo()
        calls.append(written)
        assert len(set(map(dumps, written))) == len(written)
        t_placements = {id(p): p for c in (pair.full, pair.reduced)
                        for t in c.terms for p in t.factors if p.kind == "T"}
        assert sorted(dumps(d) for d in written if d["type"] == "T") == sorted(
            dumps(gates._placement_to_obj(p)) for p in t_placements.values()
        )
    first, second = calls
    assert [d for d in second if d["type"] == "local"] == []
    assert all(d["type"] in ("local", "T") for d in first + second)


def test_a_parsed_decompose_reuses_the_decompositions_local_placements(capsys):
    """The local factors parsed from decompose output are the very objects
    a decomposition of the same kind and rank holds; T factors are equal
    but their own objects."""
    code, out, _ = run(capsys, "decompose", "position", "--rank", "8")
    assert code == 0
    obj = json.loads(out)
    pair = gate_decomposition("position", PhysParams(), 8)
    for half, made in (("full", pair.full), ("reduced", pair.reduced)):
        parsed = circuit_from_json_obj(obj[half])
        assert parsed == made
        pairs = [(g, m) for gt, mt in zip(parsed.terms, made.terms)
                 for g, m in zip(gt.factors, mt.factors)]
        assert all(g is m for g, m in pairs if m.kind == "local")
        assert all(g is not m for g, m in pairs if m.kind == "T")
        assert any(m.kind == "local" for _, m in pairs) and any(m.kind == "T" for _, m in pairs)


def test_evolve_at_rest(capsys):
    code, out, _ = run(
        capsys, "evolve", "--z", "0", "--t1", "1.0", "--steps", "4", "--rank", "8"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,x,p,h"
    assert len(lines) == 5
    for line in lines[1:]:
        t, x, p, h = line.split(",")
        assert x == "0" and p == "0"
        assert float(h) == 0.5


@pytest.mark.parametrize(
    "z, rank, alpha, beta, hbar, t1, steps",
    [
        ("1.9-2.1i", 64, 1.3, 0.8, 1.1, 7.5, 256),
        ("1", 16, 1.0, 1.0, 1.0, 6.283185307179586, 4),  # the README sample
    ],
)
def test_evolve_csv_is_the_scalar_loop(capsys, z, rank, alpha, beta, hbar, t1, steps):
    """Every byte of the CSV is that of evolving the coherent state to each
    time and taking each expectation value on its own, written by fmt_float."""
    argv = [f"--z={z}", "--rank", str(rank), "--alpha", repr(alpha), "--beta", repr(beta),
            "--hbar", repr(hbar), "--t1", repr(t1), "--steps", str(steps)]
    code, out, err = run(capsys, "evolve", *argv)
    params = PhysParams(alpha, beta, hbar)
    state = coherent_series(CoherentSpec(parse_complex(z), params, rank)).state
    ops = (position(params, rank), momentum(params, rank), hamiltonian(params, rank))
    lines = ["t,x,p,h"]
    for t in np.linspace(0.0, t1, steps):
        snapshot = evolve(state, float(t), params)
        values = (t, *(expectation(op, snapshot).real for op in ops))
        lines.append(",".join(map(fmt_float, values)))
    assert (code, err) == (0, "")
    assert out == "\n".join(lines) + "\n"


def test_evolve_periodicity(capsys):
    period = 2 * math.pi
    code, out, _ = run(
        capsys, "evolve", "--z", "0.5", "--t1", repr(period), "--steps", "64"
    )
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert abs(float(rows[0][1]) - float(rows[-1][1])) < 1e-8


def test_evolve_validation(capsys):
    assert run(capsys, "evolve", "--z", "0.5", "--t1", "1", "--steps", "1")[0] == 2
    assert run(capsys, "evolve", "--z", "0.5", "--t1", "-1")[0] == 2
    assert run(capsys, "evolve", "--z", "0.5", "--t1", "1", "--format", "json")[0] == 2


def test_evolve_refuses_overflowing_phase(capsys):
    code, out, err = run(
        capsys, "evolve", "--z", "0.5", "--t1", "1e10", "--steps", "3",
        "--alpha", "1e150", "--beta", "1e150", "--hbar", "1e-300",
    )
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith("bosonreg: error: evolution phase overflows")


def test_evolve_phase_bound(capsys):
    """At rank 32 a top phase of exactly 2**26 rad is evolved; the next float
    of --t1, and a span near t = 1e17, are refused in one line."""
    t1 = 2.0**26 / 31.5
    code, out, err = run(capsys, "evolve", "--z", "0.5", "--t1", repr(t1), "--steps", "2")
    assert (code, err) == (0, "")
    assert out.count("\n") == 3
    beyond = ("--t1", repr(math.nextafter(t1, math.inf)))
    for times in (beyond, ("--t0", "1e17", "--t1", "1.0000000001e17")):
        code, out, err = run(capsys, "evolve", "--z", "0.5", "--steps", "2", *times)
        assert (code, out) == (2, "")
        assert err.startswith("bosonreg: error: evolution phase overflows") and err.count("\n") == 1


def test_evolve_refuses_steps_past_the_bound():
    """One count past 2**20 is refused in one line, before any time is made."""
    steps = 2**20 + 1
    # at rank 2, so a lapse of the bound stays cheap
    err = _one_line_refusal("evolve", "--z", "0.5", "--rank", "2", "--t1", "1", "--steps", str(steps))
    assert err == f"bosonreg: error: --steps must be at most 2**20 = 1048576, got {steps}\n"


def test_evolve_refuses_an_overflowing_time_span():
    """t1 - t0 past float max is refused before linspace sees it; a span just
    inside the range goes on to the phase-overflow refusal."""
    wide = ("evolve", "--z", "1", "--rank", "4", "--steps", "3")
    err = _one_line_refusal(*wide, "--t0=-1e308", "--t1", "1e308")
    assert err.startswith("bosonreg: error: the time span --t1 - --t0 overflows")
    err = _one_line_refusal(*wide, "--t0=-8e307", "--t1", "8e307")
    assert err.startswith("bosonreg: error: evolution phase overflows")


def test_parser_is_built_once_and_reuse_leaks_no_state(capsys, monkeypatch):
    """Runs through the shared parser give the bytes and exit codes of runs
    that each build their own."""
    calls = [
        ("evolve", "--z", "0.5", "--t1", "2", "--steps", "5"),
        ("evolve", "--z", "0.5", "--t1", "2"),
        ("evolve", "--z", "0.5", "--steps", "5"),
        ("decompose", "momentum", "--rank", "4"),
        ("verify", "--rank", "2", "--mutate", "h-offset", "--format", "json"),
        ("evolve", "--z", "0.5", "--t1", "2", "--steps", "5"),
    ]

    def outcomes():
        results = []
        for argv in calls:
            code, out, err = run(capsys, *argv)
            if argv[0] == "verify":
                obj = json.loads(out)
                for entry in obj["criteria"]:
                    del entry["seconds"]
                del obj["seconds"]
                out = obj
            results.append((code, out, err))
        return results

    assert cli._build_parser() is cli._build_parser()
    shared = outcomes()
    monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
    assert cli._build_parser() is not cli._build_parser()
    assert outcomes() == shared
    assert [code for code, _, _ in shared] == [0, 0, 2, 0, 1, 0]
    assert len(shared[1][1].splitlines()) == 257
    assert shared[2][2] == "bosonreg evolve: error: the following arguments are required: --t1\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("state", "coherent", "1e200"),
        ("decompose", "displacement", "--z", "1e200"),
        ("evolve", "--z", "1e200", "--t1", "1"),
    ],
)
def test_overflowing_coherent_mean_exits_2(argv):
    """|z|^2 past float max is a domain error with one line, not a traceback."""
    assert _one_line_refusal(*argv).startswith("bosonreg: error: |z|^2 overflows")


def _python(*argv) -> subprocess.CompletedProcess:
    """Run a fresh interpreter that imports this checkout's bosonreg."""
    src = str(Path(bosonreg.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env)


def _one_line_refusal(*argv) -> str:
    """Run the CLI as a subprocess; it must exit 2 with one stderr line."""
    proc = _python("-m", "bosonreg", *argv, "--allow-truncation-risk")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.count("\n") == 1
    return proc.stderr


def test_importing_the_cli_loads_no_thread_pool():
    """Only an unmutated verify starts the dense worker, so only it imports
    concurrent.futures (and the logging that comes with it)."""
    proc = _python("-c", "import sys, bosonreg.cli; print('concurrent.futures' in sys.modules)")
    assert (proc.returncode, proc.stdout) == (0, "False\n")


@pytest.mark.parametrize(
    "argv",
    [
        ("state", "coherent", "1e100", "--rank", "4"),
        ("evolve", "--z", "1e100", "--t1", "1", "--rank", "4"),
    ],
)
def test_underflowing_vacuum_weight_exits_2(argv):
    """exp(-|z|^2/2) == 0 would give the zero vector; the refusal names why."""
    assert _one_line_refusal(*argv).startswith("bosonreg: error: exp(-|z|^2/2) underflows")


def test_underflowing_squared_norm_exits_2_naming_the_underflow():
    """At z = 30 and rank 4 the state stores four amplitudes of 1e-196 to
    1e-191, whose squares underflow to 0: the refusal names the underflow,
    and a phase past the bound is still refused before it."""
    argv = ("evolve", "--z", "30", "--rank", "4", "--steps", "3")
    assert _one_line_refusal(*argv, "--t1", "1") == (
        "bosonreg: error: the state's squared norm underflows to 0,"
        " so its expectation values are undefined\n"
    )
    err = _one_line_refusal(*argv, "--t0", "1e30", "--t1", "2e30")
    assert err.startswith("bosonreg: error: evolution phase overflows")


@pytest.mark.parametrize(
    "spaced, joined",
    [
        (
            ("decompose", "displacement", "--z", "-0.156+0.485i", "--rank", "8"),
            ("decompose", "displacement", "--z=-0.156+0.485i", "--rank", "8"),
        ),
        (
            ("state", "coherent", "-0.936-2.6i", "--rank", "32"),
            ("state", "coherent", "--rank", "32", "--", "-0.936-2.6i"),
        ),
        (
            ("evolve", "--z", "-0.5-0.2i", "--t1", "1", "--steps", "3", "--rank", "8"),
            ("evolve", "--z=-0.5-0.2i", "--t1", "1", "--steps", "3", "--rank", "8"),
        ),
    ],
    ids=["decompose", "state", "evolve"],
)
def test_negative_complex_value_needs_no_equals_sign(capsys, spaced, joined):
    code, out, err = run(capsys, *spaced)
    assert (code, err) == (0, "")
    assert run(capsys, *joined) == (0, out, "")


def test_config_validation(capsys):
    assert run(capsys, "verify", "--rank", "65")[0] == 2
    assert run(capsys, "verify", "--rank", "1")[0] == 2
    assert run(capsys, "decompose", "position", "--alpha", "0")[0] == 2
    assert run(capsys, "algebra-check", "--tol", "-1")[0] == 2
    assert run(capsys, "nonsense")[0] == 2


# each subcommand with a valid argv, the formats it writes (the first is the
# default), a format it does not write, and the options of _BAD_CONFIG it takes
_SCALE_OPTIONS = ("--rank", "--alpha")
_COMMANDS = {
    "algebra-check": (("algebra-check",), ("text", "json"), "csv", ("--tol",)),
    "map": (("map", "1"), ("text", "json"), "csv", ()),
    "state": (("state", "number", "1"), ("json",), "text", _SCALE_OPTIONS),
    "decompose": (("decompose", "position"), ("json",), "text", _SCALE_OPTIONS),
    "evolve": (("evolve", "--z", "0.5", "--t1", "1"), ("csv",), "json", _SCALE_OPTIONS),
    "verify": (("verify",), ("text", "json"), "csv", (*_SCALE_OPTIONS, "--seed")),
}

_BAD_CONFIG = {
    ("--rank", "99"): "--rank must be in [2, 64], got 99",
    ("--alpha", "0"): "--alpha must be positive and finite",
    ("--tol", "-1"): "--tol must be a non-negative finite real",
    ("--seed", "-1"): "--seed must be a non-negative integer, got -1",
}


@pytest.mark.parametrize("command", _COMMANDS)
def test_every_command_refuses_bad_config_and_format_in_one_line(capsys, command):
    """A bad value of an option the command takes exits 2 with one line before
    the command runs. An option it does not take, or a format it does not
    write, exits 2 from the parser, before any value is checked."""
    argv, writes, bad_format, takes = _COMMANDS[command]
    parser = cli._build_parser()
    assert parser.parse_args(argv).format == writes[0]
    assert [parser.parse_args([*argv, "--format", f]).format for f in writes] == list(writes)
    for (option, value), message in _BAD_CONFIG.items():
        code, out, err = run(capsys, *argv, option, value)
        assert (code, out) == (2, "")
        if option in takes:
            assert err == f"bosonreg: error: {message}\n"
        else:
            assert err.endswith(f"error: unrecognized arguments: {option} {value}\n")
    for extra in ((), ("--rank", "99")):
        code, out, err = run(capsys, *argv, "--format", bad_format, *extra)
        assert (code, out) == (2, "")
        assert f"error: argument --format: invalid choice: {bad_format!r}" in err


_HELP = [(("-h", "--help"), "help")]
_SCALES = [(("--rank",), "rank"), (("--alpha",), "alpha"), (("--beta",), "beta"),
           (("--hbar",), "hbar")]
_RISK = [(("--allow-truncation-risk",), "allow_truncation_risk")]
_OUTPUT = [(("--format",), "format"), (("--out",), "out")]
_ACTIONS = {
    "algebra-check": [*_OUTPUT, (("--tol",), "tol")],
    "map": [*_OUTPUT, ((), "bits"), (("--mode",), "mode"), (("--period",), "period")],
    "state": [*_SCALES, *_RISK, *_OUTPUT, ((), "kind"), ((), "value")],
    "decompose": [*_SCALES, *_RISK, *_OUTPUT, ((), "kind"), (("--z",), "z")],
    "evolve": [*_SCALES, *_RISK, *_OUTPUT, (("--z",), "z"), (("--t0",), "t0"),
               (("--t1",), "t1"), (("--steps",), "steps")],
    "verify": [*_SCALES, *_OUTPUT, (("--seed",), "seed"), (("--mutate",), "mutate")],
}


def test_parser_actions_keep_their_order():
    """Each parser holds only the options its command reads, in the order
    --help lists them."""
    def actions(parser):
        return [(tuple(a.option_strings), a.dest) for a in parser._actions]

    parser = cli._build_parser()
    assert actions(parser) == [*_HELP, ((), "command")]
    subparsers = parser._actions[-1].choices
    assert list(subparsers) == list(_ACTIONS)
    for name, own in _ACTIONS.items():
        assert actions(subparsers[name]) == _HELP + own, name


@pytest.mark.parametrize("command", _COMMANDS)
def test_only_coherent_commands_take_the_truncation_flag(capsys, command):
    argv = [*_COMMANDS[command][0], "--allow-truncation-risk"]
    if command in ("state", "decompose", "evolve"):
        assert cli._build_parser().parse_args(argv).allow_truncation_risk is True
    else:
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.endswith("error: unrecognized arguments: --allow-truncation-risk\n")


def test_out_writes_file(tmp_path, capsys):
    target = tmp_path / "state.json"
    code, out, _ = run(capsys, "state", "number", "1", "--rank", "4", "--out", str(target))
    assert code == 0
    assert out == ""
    obj = json.loads(target.read_text())
    assert obj["amplitudes"][0][0] == 2


@pytest.mark.parametrize("where", ["missing directory", "directory"])
def test_out_to_an_unwritable_path_is_a_usage_error(tmp_path, capsys, where):
    """A path that cannot be written exits 2 with one line naming it, not a
    traceback with the exit code of a failed verification."""
    target = tmp_path / "missing" / "x" if where == "missing directory" else tmp_path
    code, out, err = run(capsys, "map", "1", "--out", str(target))
    assert (code, out) == (2, "")
    assert err.startswith(f"bosonreg: error: cannot write --out {str(target)!r}: ")
    assert err.count("\n") == 1 and err.endswith("\n")
    reason = "No such file or directory" if where == "missing directory" else "Is a directory"
    assert err.endswith(f": {reason}\n")


_EVOLVE = ("evolve", "--z", "0.5-0.25i", "--rank", "16", "--t1", "3.5")


@pytest.mark.parametrize("first, second", [("40", "4"), ("4", "40")])
def test_out_over_an_existing_file_holds_exactly_the_new_text(tmp_path, capsys, first, second):
    """--out over a longer or a shorter file leaves exactly the bytes stdout
    gets, with no tail of the old text."""
    target = tmp_path / "trajectory.csv"
    assert run(capsys, *_EVOLVE, "--steps", first, "--out", str(target)) == (0, "", "")
    code, stdout, _ = run(capsys, *_EVOLVE, "--steps", second)
    assert code == 0 and len(stdout) != target.stat().st_size
    assert run(capsys, *_EVOLVE, "--steps", second, "--out", str(target)) == (0, "", "")
    assert target.read_bytes() == stdout.encode()


def test_out_to_dev_null_exits_0(capsys):
    """/dev/null takes the output like any file."""
    assert run(capsys, *_EVOLVE, "--steps", "40", "--out", os.devnull) == (0, "", "")


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs on this platform")
def test_out_to_a_fifo_streams_the_exact_bytes(tmp_path, capsys):
    """A FIFO that cannot seek gets exactly the bytes stdout gets."""
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()
    assert run(capsys, *_EVOLVE, "--steps", "40", "--out", str(fifo)) == (0, "", "")
    reader.join(timeout=30)
    code, stdout, _ = run(capsys, *_EVOLVE, "--steps", "40")
    assert code == 0 and received == [stdout.encode()]


def test_outputs_are_deterministic(capsys):
    first = run(capsys, "state", "coherent", "0.5+0.25i", "--rank", "16")
    second = run(capsys, "state", "coherent", "0.5+0.25i", "--rank", "16")
    assert first == second
    a = run(capsys, "evolve", "--z", "0.5", "--t1", "2.0", "--steps", "8")
    b = run(capsys, "evolve", "--z", "0.5", "--t1", "2.0", "--steps", "8")
    assert a == b


def test_seventeen_digit_output(capsys):
    _, out, _ = run(capsys, "evolve", "--z", "0.5", "--t1", "6.283185307179586", "--steps", "4")
    assert "6.2831853071795862" in out


def test_verify_passes(capsys):
    code, out, _ = run(capsys, "verify", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["passed"] is True
    names = [c["name"] for c in obj["criteria"]]
    assert len(names) == 12
    assert "mutation-sensitivity" in names


def test_verify_mutation_fixture_fails_loudly(capsys):
    """The deliberate hop-convention fault must be caught and named."""
    code, out, _ = run(capsys, "verify", "--mutate", "b-convention")
    assert code == 1
    fail_lines = [l for l in out.splitlines() if l.startswith("FAIL")]
    assert any("hop-relations" in l for l in fail_lines)
    # the sensitivity criterion is itself skipped under mutation
    assert "mutation-sensitivity" not in out


def _quiet_main(*argv):
    """Run main in process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def sensitivity_map():
    """Fault -> criteria it broke, from the default run's mutation-sensitivity detail."""
    code, out, _ = _quiet_main("verify", "--format", "json")
    assert code == 0
    detail = json.loads(out)["criteria"][-1]["detail"]
    return {
        fault: names.split(", ")
        for fault, names in (entry.split(" -> ") for entry in detail.split("; "))
    }


@pytest.mark.parametrize("mutation", ["b-convention", "theta-sign", "h-offset"])
def test_verify_mutation_fails_what_sensitivity_lists(capsys, sensitivity_map, mutation):
    code, out, _ = run(capsys, "verify", "--mutate", mutation, "--format", "json")
    assert code == 1
    failed = [c["name"] for c in json.loads(out)["criteria"] if not c["passed"]]
    assert failed == sensitivity_map[mutation]


_SCALE = st.floats(-300.0, 300.0).map(lambda e: repr(10.0**e))
_COMPLEX = st.tuples(st.floats(-6.0, 6.0), st.floats(-6.0, 6.0)).map(
    lambda z: f"{z[0]!r}{z[1]:+.17g}i"
)


# per command, argv tails the parser refuses: an option the command does not
# take, a format it does not write, and a value of the wrong type
_PARSER_REFUSALS = {
    command: [("--tol", "1"), ("--format", bad_format), typed]
    for command, bad_format, typed in [
        ("map", "csv", ("--mode", "sideways")),
        ("state", "text", ("--rank", "two")),
        ("decompose", "text", ("--alpha", "one")),
        ("evolve", "json", ("--steps", "2.5")),
    ]
}


@st.composite
def _cli_argv(draw):
    argv = draw(_cli_accepted_argv())
    if draw(st.integers(0, 3)) == 0:
        argv += draw(st.sampled_from(_PARSER_REFUSALS[argv[0]]))
    return argv


@st.composite
def _cli_accepted_argv(draw):
    command = draw(st.sampled_from(["number", "coherent", "position", "momentum",
                                    "displacement", "evolve", "map"]))
    if command == "map":
        argv = ["map", draw(st.text("01", max_size=80)),
                "--mode", draw(st.sampled_from(["computational", "continuum"])),
                "--format", draw(st.sampled_from(["text", "json"]))]
        if draw(st.booleans()):
            argv += ["--period", draw(st.text("01", max_size=80))]
        return argv
    rank = draw(st.integers(2, 64))
    if command == "number":
        argv = ["state", "number", str(draw(st.integers(0, rank - 1)))]
    elif command == "coherent":
        argv = ["state", "coherent", draw(_COMPLEX)]
    elif command == "evolve":
        argv = ["evolve", "--z", draw(_COMPLEX), "--t1", repr(draw(st.floats(1e-3, 1e3))),
                "--steps", str(draw(st.integers(2, 4)))]
    else:
        argv = ["decompose", command]
        if command == "displacement":
            argv += ["--z", draw(_COMPLEX)]
    if command in ("coherent", "displacement", "evolve") and draw(st.booleans()):
        argv.append("--allow-truncation-risk")
    return argv + ["--rank", str(rank), "--alpha", draw(_SCALE), "--beta", draw(_SCALE),
                   "--hbar", draw(_SCALE)]


@settings(max_examples=150, deadline=None)
@given(_cli_argv())
# an angle that underflows: z = 2 + 5e-324i
@example(["decompose", "displacement", "--z", "2.0+4.9406564584124654e-324i",
          "--allow-truncation-risk", "--rank", "2", "--alpha", "1.0", "--beta", "1.0",
          "--hbar", "1.0"])
# map values past Python's int-to-str digit limit, and a long period whose value is 2
@example(list(_PAST_DIGIT_LIMIT[0]))
@example(list(_PAST_DIGIT_LIMIT[1]))
@example(list(_PAST_DIGIT_LIMIT[2]))
@example(list(_PAST_DIGIT_LIMIT[3]))
@example(["map", "", "--mode", "continuum", "--period", "1" * 20000])
# parser refusals: an option the command does not take, a format it does not
# write, a missing required option and an unknown command
@example(["map", "1", "--rank", "99"])
@example(["state", "number", "1", "--format", "text"])
@example(["evolve", "--z", "0.5"])
@example(["frob"])
def test_cli_domain_answers_or_refuses_in_one_line(argv):
    """Across rank 2..64 and scales 1e-300..1e300: exit 0, or exit 2 with one
    stderr line, `bosonreg: error: ` or, for a subcommand's parser refusal,
    `bosonreg <command>: error: `."""
    code, _, err = _quiet_main(*argv)
    assert "Traceback" not in err
    assert code in (0, 2)
    if code == 2:
        assert re.fullmatch(rf"bosonreg( {re.escape(argv[0])})?: error: [^\n]+\n", err)
    else:
        assert err == ""
    tail = tuple(argv[-2:])
    if tail in _PARSER_REFUSALS.get(argv[0], ()):
        option, value = tail
        assert code == 2
        if option == "--tol":
            assert err == f"bosonreg: error: unrecognized arguments: {option} {value}\n"
        else:
            assert err.startswith(f"bosonreg {argv[0]}: error: argument {option}: ")


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 4), _SCALE, _SCALE, _SCALE, st.sampled_from(MUTATIONS))
def test_verify_answers_fails_or_refuses_in_one_line(rank, alpha, beta, hbar, mutation):
    """At small ranks and scales 1e-300..1e300 verify exits 0, 1 or 2, and
    writes to stderr only the one line of a refusal; it never raises."""
    code, _, err = _quiet_main("verify", "--rank", str(rank), "--alpha", alpha,
                               "--beta", beta, "--hbar", hbar, "--mutate", mutation)
    assert code in (0, 1, 2)
    if code == 2:
        assert err.startswith("bosonreg: error: ") and err.count("\n") == 1
    else:
        assert err == ""


def test_verify_minimum_rank_runs(capsys):
    """A rank-2 register cannot hold a coherent state to 1e-8: exactly the two
    coherent criteria fail, and the other ten pass."""
    code, out, _ = run(capsys, "verify", "--rank", "2")
    assert code == 1
    assert "verify: FAIL (10/12 criteria passed, " in out
    code, out, _ = run(capsys, "verify", "--rank", "2", "--format", "json")
    assert code == 1
    criteria = json.loads(out)["criteria"]
    assert len(criteria) == 12
    failed = [c["name"] for c in criteria if not c["passed"]]
    assert failed == ["coherent-states", "coherent-dynamics"]
