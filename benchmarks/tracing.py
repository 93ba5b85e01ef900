"""Span tracer that measures bosonreg's layers from outside the package.

Every module of ``src/bosonreg`` is a layer.  ``Tracer.install`` replaces the
public functions of each layer module, and the public methods (plus
``__init__`` and the arithmetic operators) of each layer class, with wrappers
that record spans.  A name that one module re-imports from another with
``from .x import name`` is replaced in the importing module too, so calls
such as ``bosonic.apply_circuit`` are caught; the span is always attributed
to the layer that defines the function.  Nothing under ``src/`` is edited,
and ``Tracer.uninstall`` puts every original back.

Each span has a name, a start, an end, its parent span and the op id.  A
function that calls itself directly (``jsonio.dumps`` on nested values) is
folded into its outermost span.  Call counts and self time (duration minus
the time covered by child spans) are accumulated per name for every call,
and so is the time covered by each group in ``GROUPS``.  Span records are kept in memory for the first
``SPANS_PER_NAME_PER_OP`` calls of each name in each op, which bounds memory
on the millions of calls one ``verify`` makes, and are written out by
``write_spans`` when the run ends.
"""

from __future__ import annotations

import enum
import functools
import importlib
import json
import time
import types
from collections import Counter
from pathlib import Path

LAYERS = ("qubit", "register", "gates", "bosonic", "coherent", "fock", "checks", "jsonio", "cli")

#: Underscore names that are still part of a class's public behaviour.
_PUBLIC_DUNDERS = ("__init__", "__add__", "__sub__", "__mul__", "__rmul__", "__matmul__", "__neg__")

SPANS_PER_NAME_PER_OP = 2000

#: Inclusive-time groups: time covered by the outermost span of any member.
GROUPS = {
    "gates.circuit_json.s": ("gates.circuit_to_json_obj", "gates.circuit_from_json_obj"),
    "jsonio.dumps.s": ("jsonio.dumps",),
    "bosonic.build.s": (
        "bosonic.ladder",
        "bosonic.position",
        "bosonic.momentum",
        "bosonic.hamiltonian",
        "bosonic.site_product",
    ),
    "bosonic.register_block.s": ("bosonic.register_block",),
    "coherent.expm_antihermitian.s": ("coherent.expm_antihermitian",),
    "coherent.coherent_series.s": ("coherent.coherent_series",),
    "fock.intertwine_check.s": ("fock.intertwine_check",),
}

_PLACEMENTS = ("gates.apply_site_op", "gates.apply_cnot", "gates.apply_transpose_theta")


def _count_state(counters, args, kwargs, result) -> None:
    counters["register.states_built"] += 1
    counters["register.amplitudes_stored"] += len(args[0])


def _count_placement(counters, args, kwargs, result) -> None:
    counters["gates.placements"] += 1
    if len(result):
        counters["gates.placements_nonzero"] += 1


def _count_dense_build(counters, args, kwargs, result) -> None:
    rank = args[0].rank
    counters[f"gates.circuit_to_matrix.calls.r{rank}"] += 1
    counters["gates.circuit_to_matrix.bytes_computed"] += 16 * 4**rank


def _count_apply(counters, args, kwargs, result) -> None:
    counters["bosonic.apply.keys_in"] += len(args[1])


def _count_expm(counters, args, kwargs, result) -> None:
    dim = len(result)
    counters[f"coherent.expm_antihermitian.calls.d{dim}"] += 1
    # input, eigenvector matrix and result: three dense dim x dim complex arrays
    counters["coherent.expm.bytes_computed"] += 3 * 16 * dim * dim


def _count_dumps(counters, args, kwargs, result) -> None:
    counters["jsonio.bytes_out"] += len(result)


#: Counters taken where the work happens, after the wrapped call returns.
#: They read only attributes that are not wrapped, so a probe records no span.
PROBES = {
    "register.RegisterState.__init__": _count_state,
    "gates.circuit_to_matrix": _count_dense_build,
    "bosonic.RegisterOperator.apply": _count_apply,
    "coherent.expm_antihermitian": _count_expm,
    "jsonio.dumps": _count_dumps,
    **{name: _count_placement for name in _PLACEMENTS},
}


class Tracer:
    """Wraps the layers, then records spans while ``active`` is true."""

    def __init__(self) -> None:
        self.active = False
        self.op = -1
        self.names: list[str] = []
        self.calls: list[int] = []
        self.self_time: list[float] = []
        self.counters: Counter[str] = Counter()
        self.group_time = {group: 0.0 for group in GROUPS}
        self._group_depth = {group: 0 for group in GROUPS}
        self.spans: list[tuple[int, int, int, int, float, float]] = []
        self.spans_dropped = 0
        self._kept: dict[int, int] = {}
        # frame: [span id, time covered by children, name index]
        self._root = [0, 0.0, -1]
        self._stack = [self._root]
        self._next_id = 0
        self._wrappers: dict[int, object] = {}
        self._restore: list[tuple[object, str, object]] = []

    # --- installation -----------------------------------------------------

    def install(self, package) -> None:
        """Wrap every layer module of ``package`` (the imported bosonreg)."""
        modules = [importlib.import_module(f"{package.__name__}.{layer}") for layer in LAYERS]
        prefix = package.__name__ + "."
        seen_classes: set[int] = set()
        for module in [package, *modules]:
            for attr, value in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                if (
                    isinstance(value, types.FunctionType)
                    and value.__module__.startswith(prefix)
                    and _layer(value.__module__) in LAYERS
                ):
                    self._replace(module, attr, value, self._wrap(value, _layer(value.__module__)))
                elif (
                    isinstance(value, type)
                    and value.__module__.startswith(prefix)
                    and id(value) not in seen_classes
                    and not issubclass(value, (enum.Enum, BaseException))
                ):
                    seen_classes.add(id(value))
                    self._wrap_class(value)

    def _wrap_class(self, cls: type) -> None:
        layer = _layer(cls.__module__)
        for attr, value in list(vars(cls).items()):
            if attr.startswith("_") and attr not in _PUBLIC_DUNDERS:
                continue
            name = f"{layer}.{cls.__qualname__}.{attr}"
            if isinstance(value, types.FunctionType):
                replacement = self._wrap(value, layer, name)
            elif isinstance(value, classmethod):
                replacement = classmethod(self._wrap(value.__func__, layer, name))
            elif isinstance(value, staticmethod):
                replacement = staticmethod(self._wrap(value.__func__, layer, name))
            elif isinstance(value, property) and value.fget is not None:
                replacement = property(
                    self._wrap(value.fget, layer, name), value.fset, value.fdel, value.__doc__
                )
            else:
                continue
            self._replace(cls, attr, value, replacement)

    def _replace(self, owner, attr: str, original, replacement) -> None:
        self._restore.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()
        self._wrappers.clear()

    def _wrap(self, fn, layer: str, name: str | None = None):
        cached = self._wrappers.get(id(fn))
        if cached is not None:
            return cached
        name = name or f"{layer}.{fn.__qualname__}"
        index = len(self.names)
        self.names.append(name)
        self.calls.append(0)
        self.self_time.append(0.0)
        probe = PROBES.get(name)
        groups = [group for group, members in GROUPS.items() if name in members]
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1]
            if not tracer.active or parent[2] == index:
                return fn(*args, **kwargs)
            tracer._next_id += 1
            frame = [tracer._next_id, 0.0, index]
            stack.append(frame)
            for group in groups:
                tracer._group_depth[group] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                parent[1] += duration
                tracer.calls[index] += 1
                tracer.self_time[index] += duration - frame[1]
                for group in groups:
                    tracer._group_depth[group] -= 1
                    if not tracer._group_depth[group]:
                        tracer.group_time[group] += duration
                kept = tracer._kept.get(index, 0)
                if kept < SPANS_PER_NAME_PER_OP:
                    tracer._kept[index] = kept + 1
                    tracer.spans.append((frame[0], parent[0], index, tracer.op, start, end))
                else:
                    tracer.spans_dropped += 1
            if probe is not None:
                probe(tracer.counters, args, kwargs, result)
            return result

        self._wrappers[id(fn)] = wrapper
        return wrapper

    # --- recording ------------------------------------------------------------

    def begin_op(self, op: int) -> None:
        """Start recording one op; the root frame collects its top-level spans."""
        self.op = op
        self._kept = {}
        self._root[1] = 0.0
        self.active = True

    def end_op(self) -> float:
        """Stop recording; returns the time covered by the op's top-level spans."""
        self.active = False
        return self._root[1]

    # --- results --------------------------------------------------------------

    def count(self, name: str) -> int:
        return self.calls[self.names.index(name)] if name in self.names else 0

    def self_seconds(self, name: str) -> float:
        return self.self_time[self.names.index(name)] if name in self.names else 0.0

    def layer_self_seconds(self) -> dict[str, float]:
        totals = {layer: 0.0 for layer in LAYERS}
        for name, seconds in zip(self.names, self.self_time):
            totals[name.split(".", 1)[0]] += seconds
        return totals

    def write_spans(self, path: Path) -> None:
        """Write the kept spans as JSON lines, one header line first."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            header = {
                "fields": ["id", "parent", "name", "op", "start", "end"],
                "names": self.names,
                "kept": len(self.spans),
                "dropped": self.spans_dropped,
            }
            handle.write(json.dumps(header) + "\n")
            for span in sorted(self.spans):
                handle.write(json.dumps(span) + "\n")


def _layer(module_name: str) -> str:
    return module_name.rsplit(".", 1)[-1]


#: Ranks whose dense 2**R x 2**R builds are counted one by one, and the
#: generator sizes of the matrix exponentials verify takes.
DENSE_RANKS = (2, 6, 8, 10)
EXPM_DIMS = (10, 32, 1024)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics of one traced run, by BENCHMARK.json name."""
    calls, self_s, counters, groups = (
        tracer.count, tracer.self_seconds, tracer.counters, tracer.group_time
    )
    m = {f"{layer}.self_s": seconds for layer, seconds in tracer.layer_self_seconds().items()}
    m["gates.circuit_to_matrix.calls"] = calls("gates.circuit_to_matrix")
    for rank in DENSE_RANKS:
        key = f"gates.circuit_to_matrix.calls.r{rank}"
        m[key] = counters[key]
    m["gates.circuit_to_matrix.self_s"] = self_s("gates.circuit_to_matrix")
    m["gates.circuit_to_matrix.bytes_computed"] = counters["gates.circuit_to_matrix.bytes_computed"]
    m["gates.apply_circuit.calls"] = calls("gates.apply_circuit")
    m["gates.apply_circuit.self_s"] = self_s("gates.apply_circuit")
    placements = counters["gates.placements"]
    m["gates.placements"] = placements
    m["gates.placement_yield"] = counters["gates.placements_nonzero"] / placements if placements else 0.0
    m["gates.circuit_json.s"] = groups["gates.circuit_json.s"]
    m["jsonio.dumps.calls"] = calls("jsonio.dumps")
    m["jsonio.dumps.s"] = groups["jsonio.dumps.s"]
    m["jsonio.bytes_out"] = counters["jsonio.bytes_out"]
    m["jsonio.fmt_float.calls"] = calls("jsonio.fmt_float")
    m["bosonic.apply.calls"] = calls("bosonic.RegisterOperator.apply")
    m["bosonic.apply.keys_in"] = counters["bosonic.apply.keys_in"]
    m["bosonic.apply.self_s"] = self_s("bosonic.RegisterOperator.apply")
    m["bosonic.build.s"] = groups["bosonic.build.s"]
    m["bosonic.to_matrix.calls"] = calls("bosonic.RegisterOperator.to_matrix")
    m["bosonic.to_matrix.self_s"] = self_s("bosonic.RegisterOperator.to_matrix")
    m["bosonic.register_block.s"] = groups["bosonic.register_block.s"]
    m["register.states_built"] = counters["register.states_built"]
    m["register.amplitudes_stored"] = counters["register.amplitudes_stored"]
    m["qubit.scaled_ops_built"] = calls("qubit.ScaledSiteOp.__init__")
    m["qubit.op_product.calls"] = calls("qubit.op_product")
    m["coherent.expm_antihermitian.calls"] = calls("coherent.expm_antihermitian")
    for dim in EXPM_DIMS:
        key = f"coherent.expm_antihermitian.calls.d{dim}"
        m[key] = counters[key]
    m["coherent.expm_antihermitian.s"] = groups["coherent.expm_antihermitian.s"]
    m["coherent.expm.bytes_computed"] = counters["coherent.expm.bytes_computed"]
    m["coherent.evolve.self_s"] = self_s("coherent.evolve")
    m["coherent.expectation.self_s"] = self_s("coherent.expectation")
    m["coherent.coherent_series.s"] = groups["coherent.coherent_series.s"]
    m["fock.build_fock.calls"] = calls("fock.build_fock")
    m["fock.intertwine_check.s"] = groups["fock.intertwine_check.s"]
    m["trace.spans"] = len(tracer.spans) + tracer.spans_dropped
    return m
