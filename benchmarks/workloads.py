"""Seeded inputs, timed ops and output checks for the benchmark workloads.

Each workload turns a seed into a pool of op inputs before anything is
timed.  Inputs are plain JSON data; ``bosonreg`` sees only the command-line
arguments and states built from them.  Ops go through the public API
(``cli.main`` with ``--out``, then the public functions of each module), and
every op's output is checked against a reference computed outside the op.

Ops are grouped in passes.  A ``trajectory`` or ``circuits`` pass holds one
op per rank stratum (16-22, 23-29, ..., 58-64), and within a stratum the seed
deals the ranks out without replacement, so every seven passes use each rank
of 16..64 once.  Every pass then costs about the same whatever the seed, and
a run's latency percentiles follow the same rank mix on every seed.  A
``verify`` pass is a single op.

All calls into ``bosonreg`` go through module attributes (``cli.main``,
``gates.apply_circuit``), so the tracer's wrappers see them.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from bosonreg import bosonic, checks, cli, fock, gates, jsonio, register

#: Rank strata: one op of each per pass.
STRATA = tuple(range(low, low + 7) for low in range(16, 65, 7))

#: Pinned tolerances of the ``coherent-dynamics`` criterion.
X_P_TOL = 1e-8
H_REL_TOL = 1e-10

#: Circuit against operator form, relative to the largest reference amplitude.
CIRCUIT_TOL = 1e-10

FAULTS = ("b-convention", "theta-sign", "h-offset")


class CheckFailed(Exception):
    """An op produced output that disagrees with its reference."""


Corrupt = Callable[[str], str]


@dataclass(frozen=True)
class Workload:
    name: str
    #: passes in the generated pool, and passes a traced run replays
    pool_passes: int
    trace_passes: int
    #: (seed, passes) -> passes of op inputs
    generate: Callable[[int, int], list[list[dict]]]
    warmup: Callable[[int], dict]
    run: Callable[[dict, Path, Corrupt | None], object]
    #: raises CheckFailed on a wrong output; may return details to record
    check: Callable[[dict, object], dict | None]


def inputs_digest(pool: list[list[dict]]) -> str:
    """SHA-256 of the canonical JSON form of a generated pool."""
    return hashlib.sha256(canonical_json(pool).encode()).hexdigest()


def canonical_json(pool: list[list[dict]]) -> str:
    return json.dumps(pool, sort_keys=True, separators=(",", ":"))


def _complex_arg(z: complex) -> str:
    # one "--z=a+bi" token, so a leading minus is not read as an option
    sign = "-" if z.imag < 0 else "+"
    return f"--z={z.real!r}{sign}{abs(z.imag)!r}i"


def _stratified_ranks(rng: random.Random, passes: int) -> list[tuple[int, ...]]:
    """One rank per stratum for each pass, each stratum dealt without replacement."""
    ranks: list[tuple[int, ...]] = []
    while len(ranks) < passes:
        ranks += zip(*(rng.sample(stratum, len(stratum)) for stratum in STRATA))
    return ranks[:passes]


def _draw_params(rng: random.Random) -> dict:
    span = math.log(2.0)
    return {name: math.exp(rng.uniform(-span, span)) for name in ("alpha", "beta", "hbar")}


def _draw_z(rng: random.Random, rank: int) -> complex:
    # |z|^2 stays below the CLI's rank/4 truncation guard
    radius = math.sqrt(rng.uniform(0.05, 0.95) * rank / 4.0)
    angle = rng.uniform(0.0, 2.0 * math.pi)
    return complex(radius * math.cos(angle), radius * math.sin(angle))


def _param_args(params: dict) -> list[str]:
    return [item for name in ("alpha", "beta", "hbar") for item in (f"--{name}", repr(params[name]))]


def _params(inp: dict):
    return bosonic.PhysParams(inp["alpha"], inp["beta"], inp["hbar"])


def _run_cli(inp: dict, out: Path, corrupt: Corrupt | None) -> tuple[int, str]:
    """One ``bosonreg`` command; returns its exit code and what it wrote."""
    code = cli.main([*inp["argv"], "--out", str(out)])
    text = out.read_text(encoding="utf-8") if code in (0, 1) else ""
    return code, corrupt(text) if corrupt else text


# --- verify -------------------------------------------------------------------


def _verify_generate(seed: int, passes: int) -> list[list[dict]]:
    # every op runs the suite at the defaults with VerifyConfig.seed = workload seed
    return [[{"argv": ["verify", "--format", "json", "--seed", str(seed)]}] for _ in range(passes)]


def _verify_warmup(seed: int) -> dict:
    # rank 2 runs every criterion in about 2 s; its coherent-state criteria
    # fail honestly at that rank, so the warm-up's exit code is not checked
    return {"argv": ["verify", "--rank", "2", "--format", "json", "--seed", str(seed)]}


def _verify_check(inp: dict, result) -> dict:
    """Check a ``verify --format json`` report; returns seconds per criterion."""
    code, text = result
    if code != 0:
        raise CheckFailed(f"verify exited {code}")
    report = jsonio.loads(text)
    names = [c["name"] for c in report["criteria"]]
    if names != list(checks.CRITERION_NAMES):
        raise CheckFailed(f"criteria {names} differ from {list(checks.CRITERION_NAMES)}")
    failing = [c["name"] for c in report["criteria"] if c["passed"] is not True]
    if failing or report["passed"] is not True:
        raise CheckFailed(f"criteria failed: {failing}")
    detail = report["criteria"][-1]["detail"]
    broken = {}
    for entry in detail.split("; "):
        fault, _, names_text = entry.partition(" -> ")
        broken[fault] = [] if names_text == "nothing" else names_text.split(", ")
    for fault in FAULTS:
        hit = broken.get(fault, [])
        if not hit or any(name not in checks.CRITERION_NAMES for name in hit):
            raise CheckFailed(f"mutation {fault} broke {hit or 'nothing'}")
    return {c["name"]: c["seconds"] for c in report["criteria"]}


# --- trajectory -----------------------------------------------------------------


def _trajectory_input(rng: random.Random, rank: int) -> dict:
    params = _draw_params(rng)
    z = _draw_z(rng, rank)
    t1 = rng.uniform(1.0, 10.0)
    steps = rng.randint(28, 36)
    argv = ["evolve", _complex_arg(z), "--rank", str(rank), "--t1", repr(t1),
            "--steps", str(steps), *_param_args(params)]
    return {"argv": argv, "rank": rank, "z": [z.real, z.imag], "t1": t1, "steps": steps, **params}


def _trajectory_generate(seed: int, passes: int) -> list[list[dict]]:
    rng = random.Random(seed)
    return [[_trajectory_input(rng, rank) for rank in ranks] for ranks in _stratified_ranks(rng, passes)]


def _trajectory_warmup(seed: int) -> dict:
    return _trajectory_input(random.Random(seed), 8)


def trajectory_reference(inp: dict) -> np.ndarray:
    """Rows (t, <x>, <p>, <h>) of the truncated coherent vector, evolved by
    exact level phases and measured with the dense oracle matrices."""
    rank, z = inp["rank"], complex(*inp["z"])
    params = _params(inp)
    oracle = fock.build_fock(params, rank)
    levels = np.arange(rank)
    steps = np.concatenate(([1.0 + 0j], z / np.sqrt(np.arange(1, rank))))
    coeffs = math.exp(-0.5 * abs(z) ** 2) * np.cumprod(steps)
    times = np.linspace(0.0, inp["t1"], inp["steps"])
    phases = np.exp(-1j * np.outer(times, levels + 0.5) * params.epsilon / params.hbar)
    vectors = coeffs[None, :] * phases
    norms = np.einsum("ti,ti->t", vectors.conj(), vectors).real
    columns = [times]
    for matrix in (oracle.x, oracle.p, oracle.h):
        columns.append(np.einsum("ti,ij,tj->t", vectors.conj(), matrix, vectors).real / norms)
    return np.stack(columns, axis=1)


def _trajectory_check(inp: dict, result) -> None:
    code, text = result
    if code != 0:
        raise CheckFailed(f"evolve exited {code}")
    lines = text.splitlines()
    if not lines or lines[0] != "t,x,p,h":
        raise CheckFailed("missing t,x,p,h header")
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    expected = trajectory_reference(inp)
    if rows.shape != expected.shape:
        raise CheckFailed(f"{rows.shape[0]} rows, expected {expected.shape[0]}")
    if not np.array_equal(rows[:, 0], expected[:, 0]):
        raise CheckFailed("time column differs from linspace(t0, t1, steps)")
    x_p = float(np.max(np.abs(rows[:, 1:3] - expected[:, 1:3])))
    h_rel = float(np.max(np.abs(rows[:, 3] - expected[:, 3]) / np.abs(expected[:, 3])))
    if not (x_p <= X_P_TOL and h_rel <= H_REL_TOL):
        raise CheckFailed(f"<x>,<p> off by {x_p:.3g}, <h> off by {h_rel:.3g} relative")


# --- circuits -------------------------------------------------------------------

KINDS = ("position", "momentum", "displacement")
BOSONIC_KEYS = 12
TRANSBOSONIC_KEYS = 12


def _circuits_input(rng: random.Random, rank: int, kind: str) -> dict:
    params = _draw_params(rng)
    argv = ["decompose", kind, "--rank", str(rank), *_param_args(params)]
    inp = {"rank": rank, "kind": kind, **params}
    if kind == "displacement":
        z = _draw_z(rng, rank)
        argv.append(_complex_arg(z))
        inp["z"] = [z.real, z.imag]
    # bosonic levels evenly spaced from a seeded offset: a key's cost under the
    # projector guards grows with the number of sites above it, so spreading
    # the levels keeps the op's cost set by the rank rather than by the draw
    offset = rng.random()
    keys = [1 << int((j + offset) * rank / BOSONIC_KEYS) for j in range(BOSONIC_KEYS)]
    while len(keys) < 2 * BOSONIC_KEYS:
        key = rng.getrandbits(rank)
        if key.bit_count() != 1 and key not in keys:
            keys.append(key)
    inp["amplitudes"] = [[key, rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)] for key in keys]
    inp["argv"] = argv
    return inp


def _circuits_generate(seed: int, passes: int) -> list[list[dict]]:
    rng = random.Random(seed)
    pool = []
    for index, ranks in enumerate(_stratified_ranks(rng, passes)):
        kinds = (KINDS[(index * len(ranks) + slot) % len(KINDS)] for slot in range(len(ranks)))
        pool.append([_circuits_input(rng, rank, kind) for rank, kind in zip(ranks, kinds)])
    return pool


def _circuits_warmup(seed: int) -> dict:
    return _circuits_input(random.Random(seed), 8, "displacement")


def _states(inp: dict):
    rows = [(key, complex(re, im)) for key, re, im in inp["amplitudes"]]
    whole = register.RegisterState(inp["rank"], rows)
    projection = register.RegisterState(inp["rank"], [r for r in rows if r[0].bit_count() == 1])
    return whole, projection


def _circuits_run(inp: dict, out: Path, corrupt: Corrupt | None):
    code, text = _run_cli(inp, out, corrupt)
    obj = jsonio.loads(text)
    full = gates.circuit_from_json_obj(obj["full"])
    reduced = gates.circuit_from_json_obj(obj["reduced"])
    whole, projection = _states(inp)
    return code, obj, gates.apply_circuit(whole, full), gates.apply_circuit(projection, reduced)


def operator_form(inp: dict):
    """The operator a decomposition must reproduce, built from the ladders."""
    params, rank = _params(inp), inp["rank"]
    if inp["kind"] == "position":
        return bosonic.position(params, rank)
    if inp["kind"] == "momentum":
        return bosonic.momentum(params, rank)
    z = complex(*inp["z"])
    raising = bosonic.ladder("raise", params, rank).scale(z)
    lowering = bosonic.ladder("lower", params, rank).scale(z.conjugate())
    return (raising - lowering).scale(1.0 / math.sqrt(2.0 * params.epsilon))


def _max_gap(got, want) -> float:
    keys = set(got.amplitudes) | set(want.amplitudes)
    return max((abs(got.amplitude(k) - want.amplitude(k)) for k in keys), default=0.0)


def _circuits_check(inp: dict, result) -> None:
    code, obj, full_image, reduced_image = result
    if code != 0:
        raise CheckFailed(f"decompose exited {code}")
    if obj["kind"] != inp["kind"] or obj["rank"] != inp["rank"]:
        raise CheckFailed("decomposition header does not match the request")
    op = operator_form(inp)
    whole, projection = _states(inp)
    for label, got, want in (
        ("full circuit on the mixed state", full_image, op.apply(whole)),
        ("reduced circuit on the bosonic projection", reduced_image, op.apply(projection)),
    ):
        scale = max([1.0, *(abs(v) for v in want.amplitudes.values())])
        gap = _max_gap(got, want)
        if not gap <= CIRCUIT_TOL * scale:
            raise CheckFailed(f"{label} is off the operator form by {gap:.3g}")


WORKLOADS = {
    "verify": Workload(
        "verify",
        pool_passes=1,
        trace_passes=1,
        generate=_verify_generate,
        warmup=_verify_warmup,
        run=_run_cli,
        check=_verify_check,
    ),
    "trajectory": Workload(
        "trajectory",
        pool_passes=63,
        trace_passes=8,
        generate=_trajectory_generate,
        warmup=_trajectory_warmup,
        run=_run_cli,
        check=_trajectory_check,
    ),
    "circuits": Workload(
        "circuits",
        pool_passes=35,
        trace_passes=4,
        generate=_circuits_generate,
        warmup=_circuits_warmup,
        run=_circuits_run,
        check=_circuits_check,
    ),
}

