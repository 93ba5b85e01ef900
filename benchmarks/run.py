"""bosonreg benchmark: seeded workloads through the public API, with checked outputs.

Run from the repository root:

    python3 benchmarks/run.py --workload verify --seed 1 --seconds 30 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 30

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json`` with no
wrapper installed.  ``--trace 1`` replays a fixed number of passes from the
seeded pool twice, untraced and then under ``tracing.Tracer``, and reports the
per-layer metrics.  ``--workload all`` runs every workload in its own process
and prints every metric by name with its unit.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.

End-to-end times are scaled to a reference host speed (see ``HostSpeed``);
the wall-clock values are kept under ``unscaled`` in the result file.  The
package is imported from ``src/`` of the checkout that holds this script.
Results (with the environment, the inputs hash and sample counts) and the
trace spans are written under ``.bench_out/`` in that checkout.  A checkout
without ``src/bosonreg`` exits 2 without printing a result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
#: The keys of ``workloads.WORKLOADS``, which imports numpy and so is loaded
#: only after the BLAS thread cap is set.
WORKLOADS = ("verify", "trajectory", "circuits")

#: Set-ups per timed run: this process plus fresh child processes.
SETUP_SAMPLES = 3

#: One BLAS thread (at most nproc), one driving process.
BLAS_THREADS = 1
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class SetupError(Exception):
    """The checkout cannot run the benchmark."""


class HostSpeed:
    """Samples how fast the host runs Python code while a timed run goes on.

    On a shared host the same code runs up to 1.7x slower for seconds at a
    time, and CPU time slows with wall time, so this is lost throughput, not
    preemption.  A SIGALRM timer runs a fixed pure-Python loop every
    ``INTERVAL_S``.  ``scaled`` turns a wall-clock interval into time at the
    reference speed, at which the loop takes ``REFERENCE_S``: the interval,
    less the probes that ran inside it, times the mean of
    ``REFERENCE_S / probe time`` over the probes within ``WINDOW_S`` of it.
    The loop does not touch bosonreg, so no change to the program moves it.
    """

    INTERVAL_S = 0.1
    WINDOW_S = 0.25
    LOOPS = 20000
    REFERENCE_S = 0.003

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []

    def __enter__(self) -> "HostSpeed":
        self._tick()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._tick()

    def _tick(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        acc: dict[int, complex] = {}
        step = 1 + 0.5j
        for i in range(self.LOOPS):
            acc[i & 63] = acc.get(i & 63, 0j) + step * i
        self.samples.append((start, time.perf_counter()))

    def scaled(self, start: float, end: float) -> float:
        inside = sum(min(e, end) - max(s, start) for s, e in self.samples if s < end and e > start)
        near = [e - s for s, e in self.samples if s > start - self.WINDOW_S and e < end + self.WINDOW_S]
        if not near:
            s, e = min(self.samples, key=lambda sample: abs(sample[0] - start))
            near = [e - s]
        return (end - start - inside) * statistics.fmean(self.REFERENCE_S / d for d in near)


@dataclass
class Setup:
    package: object
    workloads: object
    workload: object
    pool: list
    out: Path
    start: float
    end: float


@dataclass
class Outcome:
    start: float
    latency: float
    ok: bool
    error: str | None
    #: what the check reports beyond pass or fail (verify: seconds per criterion)
    details: dict | None
    covered: float


def setup(name: str, seed: int) -> Setup:
    """Import bosonreg from this checkout, generate the inputs, run one warm-up op."""
    start = time.perf_counter()
    package_dir = ROOT / "src" / "bosonreg"
    if not (package_dir / "__init__.py").is_file():
        raise SetupError(f"no bosonreg sources at {package_dir}")
    sys.path.insert(0, str(ROOT / "src"))
    import bosonreg

    if Path(bosonreg.__file__).resolve().parent != package_dir.resolve():
        raise SetupError(f"bosonreg imported from {bosonreg.__file__}, not from {package_dir}")
    import workloads

    workload = workloads.WORKLOADS[name]
    pool = workload.generate(seed, workload.pool_passes)
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"op-{os.getpid()}.out"
    workload.run(workload.warmup(seed), out, None)
    return Setup(bosonreg, workloads, workload, pool, out, start, time.perf_counter())


def attempt(workload, inp: dict, out: Path, corrupt=None, tracer=None, op: int = 0) -> Outcome:
    """Time one op, then check its output outside the timed region.

    Only the check's details are kept: holding every op's output would grow
    the heap over a run and slow the interpreter's garbage collector.
    """
    if tracer is not None:
        tracer.begin_op(op)
    start = time.perf_counter()
    result, details, error = None, None, None
    try:
        result = workload.run(inp, out, corrupt)
    except Exception:  # a raising op counts as failed; the run goes on
        error = traceback.format_exc(limit=-2)
    latency = time.perf_counter() - start
    covered = tracer.end_op() if tracer is not None else 0.0
    if error is None:
        try:
            details = workload.check(inp, result)
        except Exception as exc:  # any check error, parse errors included, fails the op
            error = f"{type(exc).__name__}: {exc}"
    return Outcome(start, latency, error is None, error, details, covered)


def timed_passes(s: Setup, seconds: float) -> list[list[Outcome]]:
    """Run whole passes while the next one is expected to end within ``seconds``."""
    passes: list[list[Outcome]] = []
    start = time.perf_counter()
    while True:
        passes.append([attempt(s.workload, inp, s.out) for inp in s.pool[len(passes) % len(s.pool)]])
        elapsed = time.perf_counter() - start
        if elapsed * (len(passes) + 1) / len(passes) > seconds:
            return passes


def percentile(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def setup_samples(name: str, seed: int) -> list[float]:
    """Set-up times of fresh processes, one after another, at reference speed."""
    samples = []
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", name, "--seed", str(seed)],
            capture_output=True, text=True, timeout=150, cwd=ROOT, check=False,
        )
        if proc.returncode != 0:
            raise SetupError(f"set-up probe exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
        samples.append(float(proc.stdout.split()[-1]))
    return samples


def end_to_end(passes: list[list[float]], passed: int, setups: list[float]) -> dict:
    """Metrics from op latencies grouped by pass, and set-up times."""
    latencies = [latency for batch in passes for latency in batch]
    pass_times = [sum(batch) for batch in passes]
    n = len(latencies)
    return {
        "setup_s": (statistics.median(setups), len(setups)),
        "wall_s": (statistics.median(pass_times), len(pass_times)),
        "ops_per_s": (passed / sum(latencies), n),
        "op_p50_ms": (1000.0 * statistics.median(latencies), n),
        "op_p90_ms": (1000.0 * percentile(latencies, 90), n),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
    }


def traced_run(s: Setup, name: str, seed: int) -> tuple[list[Outcome], dict, str | None]:
    """Replay the first passes untraced, then traced; returns per-layer metrics."""
    ops = [inp for batch in s.pool[: s.workload.trace_passes] for inp in batch]
    untraced = [attempt(s.workload, inp, s.out) for inp in ops]
    tracer = tracing.Tracer()
    tracer.install(s.package)
    try:
        traced = [attempt(s.workload, inp, s.out, tracer=tracer, op=i) for i, inp in enumerate(ops)]
    finally:
        tracer.uninstall()
    tracer.write_spans(OUT_DIR / f"spans-{name}-seed{seed}.jsonl")

    untraced_wall = sum(o.latency for o in untraced)
    traced_wall = sum(o.latency for o in traced)
    layer_self = tracer.layer_self_seconds()
    unspanned = traced_wall - sum(o.covered for o in traced)
    problem = None
    if abs(sum(layer_self.values()) + unspanned - traced_wall) > 1e-6 * traced_wall:
        problem = "per-layer self times and unspanned time do not add up to the traced wall time"

    m = tracing.layer_metrics(tracer)
    criteria = dict.fromkeys(s.package.CRITERION_NAMES, 0.0)
    for o in untraced:
        for criterion, seconds in (o.details or {}).items():
            criteria[criterion] += seconds
    for criterion, seconds in criteria.items():
        m[f"checks.{criterion}.s"] = seconds
    m["trace.overhead_s"] = traced_wall - untraced_wall
    m["trace.wall_s"] = traced_wall
    m["trace.unspanned_s"] = unspanned
    return untraced + traced, {key: (value, len(ops)) for key, value in m.items()}, problem


def git_commit() -> str | None:
    """HEAD of the checkout's git directory, read without running git."""
    git_dir = ROOT / ".git"
    head_file = git_dir / "HEAD"
    if not head_file.is_file():
        return None
    head = head_file.read_text().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    ref_file = git_dir / ref
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = git_dir / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def environment() -> dict:
    import numpy  # imported by the workloads after the BLAS thread cap is set

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "bosonreg").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        openblas = None
    return {
        "git_commit": git_commit(),
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": openblas,
        "cpu_count": os.cpu_count(),
        "cpus_available": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "driving_processes": 1,
        "dense_working_set_bytes_computed": {f"r{r}": 16 * 4**r for r in tracing.DENSE_RANKS},
    }


def declared_metrics(trace: int) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_workload(args) -> int:
    name, seed = args.workload, args.seed
    raw = None
    if args.trace:
        s = setup(name, seed)
        try:
            outcomes, measured, problem = traced_run(s, name, seed)
        finally:
            s.out.unlink(missing_ok=True)
        passes_run = s.workload.trace_passes
    else:
        setups = setup_samples(name, seed)
        with HostSpeed() as speed:
            s = setup(name, seed)
            try:
                passes = timed_passes(s, args.seconds)
            finally:
                s.out.unlink(missing_ok=True)
        outcomes = [o for batch in passes for o in batch]
        passed, problem = sum(o.ok for o in outcomes), None
        measured = end_to_end(
            [[speed.scaled(o.start, o.start + o.latency) for o in batch] for batch in passes],
            passed,
            [*setups, speed.scaled(s.start, s.end)],
        )
        raw = end_to_end(
            [[o.latency for o in batch] for batch in passes], passed, [s.end - s.start]
        )
        raw["host_probe_s"] = (statistics.median(e - b for b, e in speed.samples), len(speed.samples))
        passes_run = len(passes)

    units = declared_metrics(args.trace)
    missing = sorted(set(units) - set(measured))
    if missing:
        raise SetupError(f"BENCHMARK.json declares metrics this run does not measure: {missing}")
    metrics = {key: {"value": measured[key][0], "unit": unit} for key, unit in units.items()}
    failures = [o.error for o in outcomes if not o.ok]
    record = {
        "workload": name,
        "seed": seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs_sha256": s.workloads.inputs_digest(s.pool),
        "pool_passes": len(s.pool),
        "passes_run": passes_run,
        "environment": environment(),
        "metrics": {key: {**metrics[key], "samples": measured[key][1]} for key in metrics},
        "host_reference_probe_s": HostSpeed.REFERENCE_S,
        "unscaled": raw and {key: {"value": v, "samples": n} for key, (v, n) in raw.items()},
        "attempted": len(outcomes),
        "failed": len(failures),
        "fail_frac": len(failures) / len(outcomes),
        "failures": failures[:5],
        "problem": problem,
    }
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"result-{name}-seed{seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )
    for error in failures[:5]:
        print(f"{name}: failed op: {error}", file=sys.stderr)
    if problem:
        print(f"{name}: {problem}", file=sys.stderr)
    print(f"{name}: inputs sha256 {record['inputs_sha256']}, {passes_run} passes")
    print(f"{name}: environment {json.dumps(record['environment'])}")
    for key, entry in record["metrics"].items():
        print(f"{name} {key} = {entry['value']:.6g} {entry['unit']} (n={entry['samples']})")
    print(f"{name} fail_frac = {record['fail_frac']:.6g} ratio (n={len(outcomes)})")
    result = {
        "correct": not failures and problem is None,
        "attempted": len(outcomes),
        "failed": len(failures),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900, cwd=ROOT, check=False,
        )
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"{name}: exited {proc.returncode}", file=sys.stderr)
            return proc.returncode
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    try:
        if args.setup_probe:
            with HostSpeed() as speed:
                s = setup(args.workload, args.seed)
            s.out.unlink(missing_ok=True)
            print(repr(speed.scaled(s.start, s.end)))
            return 0
        if args.workload == "all":
            return run_all(args)
        return run_workload(args)
    except SetupError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
