"""Command-line front end.

Thin shell over the library: identity verification, map evaluation, state
construction, decomposition export, and trajectory generation.  Each
subcommand takes only the options it reads, and `--format` offers only the
formats it writes, the first being the default.  Every command takes one
path through `main`: validate the options it declares, run the command,
which returns (passed, output), and write the output once, a JSON value
through `jsonio.dumps`.  All numeric output is written with 17 significant
digits so runs can be diffed exactly.

Exit codes: 0 success, 1 verification failure, 2 usage or config error.
"""

from __future__ import annotations

import argparse
import functools
import math
import re
import sys
from pathlib import Path
from typing import NoReturn, Sequence

import numpy as np

from . import jsonio
from .bosonic import PhysParams, gate_decomposition, number_state
from .checks import MUTATIONS, VerifyConfig, algebra_groups, run_criteria
from .coherent import CoherentSpec, coherent_series, displacement_generator_gateform, trajectory
from .errors import BosonRegError
from .gates import circuit_to_json_text
from .register import EventuallyPeriodicSequence, computational_map, continuum_map

__all__ = ["main", "parse_complex"]


class _UsageError(BosonRegError):
    pass


class _Parser(argparse.ArgumentParser):
    """Refuse in one stderr line, `<prog>: error: <message>`, exit 2; subparsers inherit it."""

    def error(self, message: str) -> NoReturn:
        self.exit(2, f"{self.prog}: error: {message}\n")


def parse_complex(text: str) -> complex:
    """Parse `a+bi` style input: 0.5, -1+0.25i, 0.3i, i."""
    cleaned = text.strip().replace(" ", "").lower().replace("i", "j")
    try:
        value = complex(cleaned)
    except ValueError:
        raise _UsageError(f"cannot parse complex number {text!r}") from None
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise _UsageError("complex argument must be finite")
    return value


def _parse_bits(text: str) -> tuple[int, ...]:
    if any(ch not in "01" for ch in text):
        raise _UsageError(f"bit string may contain only 0 and 1, got {text!r}")
    return tuple(int(ch) for ch in text)


def _emit(text: str, out: str | None) -> None:
    data = text if text.endswith("\n") else text + "\n"
    if out is None:
        sys.stdout.write(data)
        return
    try:
        Path(out).write_text(data, encoding="utf-8")
    except OSError as exc:
        raise _UsageError(f"cannot write --out {out!r}: {exc.strerror or exc}") from None


def _check_config(args: argparse.Namespace) -> None:
    """Refuse a bad value of the scale, --tol and --seed options the command takes."""
    if "rank" in args:
        if not 2 <= args.rank <= 64:
            raise _UsageError(f"--rank must be in [2, 64], got {args.rank}")
        for name in ("alpha", "beta", "hbar"):
            value = getattr(args, name)
            if not (math.isfinite(value) and value > 0):
                raise _UsageError(f"--{name} must be positive and finite")
    if "tol" in args and not (math.isfinite(args.tol) and args.tol >= 0):
        raise _UsageError("--tol must be a non-negative finite real")
    if "seed" in args and args.seed < 0:
        raise _UsageError(f"--seed must be a non-negative integer, got {args.seed}")


def _params(args: argparse.Namespace) -> PhysParams:
    return PhysParams(args.alpha, args.beta, args.hbar)


def _coherent_spec(args: argparse.Namespace, text: str) -> CoherentSpec:
    """The coherent amplitude `text` at the run's rank and parameters."""
    return CoherentSpec(parse_complex(text), _params(args), args.rank,
                        allow_truncation_risk=args.allow_truncation_risk)


# --- algebra-check --------------------------------------------------------


def _cmd_algebra_check(args: argparse.Namespace) -> tuple[bool, object]:
    report = [
        {"name": name, "max_deviation": dev, "passed": dev <= args.tol}
        for name, dev in algebra_groups()
    ]
    passed = all(entry["passed"] for entry in report)
    if args.format == "json":
        return passed, {"command": "algebra-check", "tol": args.tol, "groups": report,
                        "passed": passed}
    lines = [
        f"{'PASS' if entry['passed'] else 'FAIL'} {entry['name']}"
        f" max_deviation={jsonio.fmt_float(entry['max_deviation'])}"
        for entry in report
    ]
    lines.append(
        f"algebra-check: {'PASS' if passed else 'FAIL'}"
        f" ({len(report)} groups, tol={jsonio.fmt_float(args.tol)})"
    )
    return passed, "\n".join(lines)


# --- map ------------------------------------------------------------------


def _check_printable(*numbers: int) -> None:
    """Refuse ints past Python's int-to-str digit limit: no output form can write them."""
    try:
        for n in numbers:
            str(n)
    except ValueError:
        raise _UsageError("map value exceeds Python's int-to-str digit limit") from None


def _cmd_map(args: argparse.Namespace) -> tuple[bool, object]:
    bits = _parse_bits(args.bits)
    if args.mode == "computational":
        if args.period is not None:
            raise _UsageError("--period is only meaningful with --mode continuum")
        if not bits:
            raise _UsageError("computational mode needs at least one bit")
        value = computational_map(bits)
        _check_printable(value)
        if args.format == "json":
            return True, {"command": "map", "mode": "computational", "value": value}
        return True, str(value)
    period = _parse_bits(args.period) if args.period is not None else ()
    seq = EventuallyPeriodicSequence(bits, period)
    value = continuum_map(seq)
    _check_printable(value.numerator, value.denominator)
    label = seq.classify().value
    if args.format == "json":
        return True, {
            "command": "map",
            "mode": "continuum",
            "numerator": value.numerator,
            "denominator": value.denominator,
            "decimal": float(value),
            "classification": label,
        }
    decimal = jsonio.fmt_float(float(value))
    return True, f"{value.numerator}/{value.denominator} = {decimal} ({label})"


# --- state ----------------------------------------------------------------


def _cmd_state(args: argparse.Namespace) -> tuple[bool, object]:
    params = _params(args)  # before the value, so a bad energy scale is reported first
    if args.kind == "number":
        try:
            n = int(args.value)
        except ValueError:
            raise _UsageError(f"number state needs an integer level, got {args.value!r}") from None
        if not 0 <= n < args.rank:
            raise _UsageError(f"level {n} outside [0, {args.rank - 1}]")
        return True, number_state(n, params, args.rank).to_json_obj(kind="number", level=n)
    spec = _coherent_spec(args, args.value)
    built = coherent_series(spec)
    z = {"re": spec.z.real, "im": spec.z.imag}
    return True, built.state.to_json_obj(kind="coherent", z=z, tail_mass=built.tail_mass)


# --- decompose ------------------------------------------------------------


def _cmd_decompose(args: argparse.Namespace) -> tuple[bool, object]:
    params = _params(args)  # before --z, so a bad energy scale is reported first
    obj = {"command": "decompose", "kind": args.kind, "rank": args.rank}
    if args.kind == "displacement":
        if args.z is None:
            raise _UsageError("decompose displacement requires --z")
        spec = _coherent_spec(args, args.z)
        pair = displacement_generator_gateform(spec)
        obj.update(z={"re": spec.z.real, "im": spec.z.imag}, r=spec.r, theta=spec.theta)
    else:
        if args.z is not None:
            raise _UsageError("--z applies only to decompose displacement")
        pair = gate_decomposition(args.kind, params, args.rank)
    halves = (pair.full, pair.reduced)
    obj["full"], obj["reduced"] = (jsonio.Text(circuit_to_json_text(c)) for c in halves)
    return True, obj


# --- evolve ---------------------------------------------------------------


# the most rows evolve writes; its CSV then runs to about 70 MB
_MAX_STEPS = 2**20


def _cmd_evolve(args: argparse.Namespace) -> tuple[bool, object]:
    if args.steps < 2:
        raise _UsageError(f"--steps must be at least 2, got {args.steps}")
    if args.steps > _MAX_STEPS:
        raise _UsageError(f"--steps must be at most 2**20 = {_MAX_STEPS}, got {args.steps}")
    if not (math.isfinite(args.t0) and math.isfinite(args.t1)) or args.t1 <= args.t0:
        raise _UsageError("need finite times with --t1 greater than --t0")
    if not math.isfinite(args.t1 - args.t0):
        raise _UsageError("the time span --t1 - --t0 overflows; it must be finite")
    spec = _coherent_spec(args, args.z)
    return True, trajectory(spec, np.linspace(args.t0, args.t1, args.steps)).to_csv()


# --- verify ---------------------------------------------------------------


def _cmd_verify(args: argparse.Namespace) -> tuple[bool, object]:
    cfg = VerifyConfig(
        rank=args.rank, alpha=args.alpha, beta=args.beta, hbar=args.hbar, seed=args.seed
    )
    results = run_criteria(cfg, mutation=args.mutate)
    passed = all(r.passed for r in results)
    total = sum(r.seconds for r in results)
    if args.format == "json":
        return passed, {
            "command": "verify",
            "mutation": args.mutate,
            "criteria": [
                {
                    "name": r.name,
                    "passed": r.passed,
                    "max_deviation": r.max_deviation,
                    "tolerance": r.tolerance,
                    "detail": r.detail,
                    "seconds": r.seconds,
                }
                for r in results
            ],
            "passed": passed,
            "seconds": total,
        }
    lines = []
    for r in results:
        lines.append(
            f"{'PASS' if r.passed else 'FAIL'} {r.name}"
            f" max_deviation={jsonio.fmt_float(r.max_deviation)}"
            f" tolerance={jsonio.fmt_float(r.tolerance)}"
            f" ({r.seconds:.2f}s)"
        )
        if not r.passed:
            lines.append(f"     {r.detail}")
    tally = sum(1 for r in results if r.passed)
    lines.append(
        f"verify: {'PASS' if passed else 'FAIL'}"
        f" ({tally}/{len(results)} criteria passed, {total:.2f}s)"
    )
    return passed, "\n".join(lines)


# --- parser ---------------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built once per process; ``parse_args`` does not change it."""
    scales = argparse.ArgumentParser(add_help=False)
    scales.add_argument("--rank", type=int, default=32, help="register size, 2..64")
    scales.add_argument("--alpha", type=float, default=1.0, help="position scale")
    scales.add_argument("--beta", type=float, default=1.0, help="momentum scale")
    scales.add_argument("--hbar", type=float, default=1.0, help="action quantum")
    coherent = argparse.ArgumentParser(add_help=False, parents=[scales])
    coherent.add_argument("--allow-truncation-risk", action="store_true",
                          help="bypass the |z|^2 <= rank/4 guard")

    parser = _Parser(
        prog="bosonreg",
        description="Finite-rank qubit-register model of the quantized oscillator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, writes, parents, help):
        """A subparser with the --format choices it writes, the first by default, and --out."""
        p = sub.add_parser(name, parents=parents, help=help)
        p.add_argument("--format", choices=writes, default=writes[0])
        p.add_argument("--out", default=None, help="write output to this file")
        p.set_defaults(func=func)
        return p

    p = command("algebra-check", _cmd_algebra_check, ("text", "json"), [],
                help="verify the operator product table and gate identities")
    p.add_argument("--tol", type=float, default=1e-10,
                   help="largest deviation an identity group may show")

    p = command("map", _cmd_map, ("text", "json"), [],
                help="evaluate the computational or continuum map of a bit string")
    p.add_argument("bits", help="bit string, site 0 first (may be empty for pure-period input)")
    p.add_argument("--mode", choices=("computational", "continuum"), default="computational")
    p.add_argument("--period", default=None, help="repeating bit block (continuum mode)")

    p = command("state", _cmd_state, ("json",), [coherent],
                help="construct a number or coherent state and emit its JSON")
    p.add_argument("kind", choices=("number", "coherent"))
    p.add_argument("value", help="level n for number, z as a+bi for coherent")

    p = command("decompose", _cmd_decompose, ("json",), [coherent],
                help="emit a gate decomposition as circuit JSON (full and reduced)")
    p.add_argument("kind", choices=("position", "momentum", "displacement"))
    p.add_argument("--z", default=None, help="displacement argument as a+bi")

    p = command("evolve", _cmd_evolve, ("csv",), [coherent],
                help="emit a coherent-state trajectory as CSV")
    p.add_argument("--z", required=True, help="coherent amplitude as a+bi")
    p.add_argument("--t0", type=float, default=0.0)
    p.add_argument("--t1", type=float, required=True)
    p.add_argument("--steps", type=int, default=256)

    p = command("verify", _cmd_verify, ("text", "json"), [scales],
                help="run the full verification suite with pinned tolerances")
    p.add_argument("--seed", type=int, default=0, help="seed for randomized checks")
    p.add_argument("--mutate", choices=MUTATIONS, default="none",
                   help="inject a deliberate fault to exercise the suite")

    # argparse would read -0.156+0.485i as an unknown option: take a minus
    # followed by a digit as the start of a value, as it does for -0.5.
    for p in (parser, *sub.choices.values()):
        p._negative_number_matcher = re.compile(r"-\.?\d")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        _check_config(args)
        passed, output = args.func(args)
        _emit(output if isinstance(output, str) else jsonio.dumps(output), args.out)
    except BosonRegError as exc:
        print(f"bosonreg: error: {exc}", file=sys.stderr)
        return 2
    return 0 if passed else 1
