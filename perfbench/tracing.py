"""Per-layer tracing from outside the library.

:meth:`Tracer.install` wraps the public functions of every ``symsug``
module, plus the scale and capacity methods that carry the hot paths, and
rebinds each wrapper everywhere the original is bound (``cli``,
``integrals``, ``mobius`` and ``verify`` import by name).
:meth:`Tracer.restore` puts every original back.

Each command (``cli.main``) is a span, and so is each call it makes
directly into ``io``, ``integrals``, ``mobius`` or ``verify``: name, start,
end, parent span, op id.  Deeper calls, and every call into ``scale``,
``rules`` and ``capacity`` (millions per run), are folded into one
aggregate per (enclosing span, function): call count, time spent directly
under that span, and self time.  A span's self time is its duration minus
its child spans and the aggregated calls made directly from it.
Everything stays in memory until :meth:`Tracer.write_spans`.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
import time
from collections import Counter
from dataclasses import dataclass

LAYERS = ("scale", "rules", "capacity", "mobius", "integrals", "io", "verify", "cli")
AGGREGATED_LAYERS = ("scale", "rules", "capacity")
# depth 1 is the command span, depth 2 the calls it makes into other layers
SPAN_DEPTH = 2

# class members wrapped besides each module's public functions
MEMBERS = {
    "scale": {
        "ScaleValue": (
            "__post_init__", "__neg__", "__abs__", "__lt__", "__le__", "__gt__",
            "__ge__", "__eq__", "__str__", "sign", "magnitude",
        ),
        "SymmetricScale": ("value", "negate", "format", "parse", "zero", "one", "minus_one"),
    },
    "capacity": {
        "SetFunction": ("__post_init__", "from_values"),
        "Capacity": ("from_values",),
    },
}
# private helpers that other layers import and call directly
PRIVATE = {"scale": ("_format_fraction",)}

COMPARES = tuple(f"scale.ScaleValue.{op}" for op in ("__lt__", "__le__", "__gt__", "__ge__", "__eq__"))

# per-layer metric name -> the wrapped functions whose self time it sums
SELF_GROUPS = {
    "io.parse.self_ms": ("io.read_problem", "io.load_problem"),
    "io.render.self_ms": (
        "io.set_function_record", "io.real_set_function_record", "io.record_line",
        "io.fraction_text",
    ),
    "capacity.validate.self_ms": ("capacity.capacity_problems",),
    "mobius.interval.self_ms": ("mobius.ordinal_mobius_interval",),
    "mobius.canonical.self_ms": ("mobius.canonical_ordinal_mobius",),
    "mobius.classical.self_ms": ("mobius.classical_mobius", "mobius.classical_zeta"),
    "mobius.solution_check.self_ms": ("mobius.is_solution",),
    "mobius.reconstruct.self_ms": ("mobius.reconstruct", "mobius.reconstruct_from_conjugate"),
    "integrals.ranked_terms.self_ms": ("integrals.ranked_terms",),
    "integrals.variant1_terms.self_ms": ("integrals.variant1_terms",),
    "integrals.variant3_terms.self_ms": ("integrals.variant3_terms",),
    "integrals.choquet_family.self_ms": (
        "integrals.choquet", "integrals.choquet_symmetric", "integrals.choquet_asymmetric",
        "integrals.choquet_symmetric_explicit", "integrals.choquet_mobius",
        "integrals.sipos_mobius", "integrals.to_real_capacity", "integrals.to_real_profile",
    ),
    "integrals.sugeno_family.self_ms": (
        "integrals.sugeno", "integrals.sugeno_mobius", "integrals.sugeno_symmetric",
        "integrals.sugeno_symmetric_explicit", "integrals.sugeno_symmetric_mobius",
        "integrals.symmetric_mobius_blocks", "integrals.sugeno_variant1",
        "integrals.sugeno_variant2", "integrals.sugeno_variant3",
    ),
}
CALL_GROUPS = {
    "io.parse.calls": ("io.load_problem",),
    "capacity.build.calls": ("capacity.SetFunction.__post_init__",),
    "mobius.interval.calls": ("mobius.ordinal_mobius_interval",),
    "mobius.canonical.calls": ("mobius.canonical_ordinal_mobius",),
    "integrals.ranked_terms.calls": ("integrals.ranked_terms",),
    "integrals.variant1_terms.calls": ("integrals.variant1_terms",),
    "scale.sym_max.calls": ("scale.sym_max",),
    "scale.sym_min.calls": ("scale.sym_min",),
    "scale.values_built": ("scale.ScaleValue.__post_init__",),
    "scale.compares": COMPARES,
    "scale.parse.calls": ("scale.SymmetricScale.parse",),
    "scale.format.calls": ("scale.SymmetricScale.format",),
}
# counters the wrappers keep besides calls and time
METERED = (
    "rules.fold.floor.calls", "rules.fold.ceil.calls", "rules.fold.angle.calls",
    "rules.fold.items", "capacity.build.entries", "io.bytes_in",
)


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: int
    end: int
    parent: int  # -1 at the root
    op: int


@dataclass(frozen=True)
class Aggregate:
    parent: int  # enclosing span id
    name: str
    calls: int
    direct_ns: int  # duration of the calls made directly from the parent span
    self_ns: int


def self_times(spans: list[Span], aggregates: list[Aggregate]) -> Counter:
    """Self time in ns per function name, from spans and aggregates."""
    subtract = Counter()
    for span in spans:
        if span.parent >= 0:
            subtract[span.parent] += span.end - span.start
    for agg in aggregates:
        if agg.parent >= 0:
            subtract[agg.parent] += agg.direct_ns
    result = Counter()
    for span in spans:
        result[span.name] += span.end - span.start - subtract[span.id]
    for agg in aggregates:
        result[agg.name] += agg.self_ns
    return result


def call_counts(spans: list[Span], aggregates: list[Aggregate]) -> Counter:
    result = Counter(span.name for span in spans)
    for agg in aggregates:
        result[agg.name] += agg.calls
    return result


def layer_metrics(
    spans: list[Span], aggregates: list[Aggregate], counters: Counter
) -> dict[str, float]:
    """The per-layer metrics named in BENCHMARK.json that the trace
    supplies; the caller adds output-derived and wall-clock ones."""
    self_ns = self_times(spans, aggregates)
    calls = call_counts(spans, aggregates)
    metrics: dict[str, float] = {}
    for layer in LAYERS:
        total = sum(ns for name, ns in self_ns.items() if name.split(".", 1)[0] == layer)
        metrics[f"{layer}.self_ms"] = total / 1e6
    for metric, names in SELF_GROUPS.items():
        metrics[metric] = sum(self_ns[name] for name in names) / 1e6
    for metric, names in CALL_GROUPS.items():
        metrics[metric] = sum(calls[name] for name in names)
    for metric in METERED:
        metrics[metric] = counters[metric]
    folds = calls["rules.fold_sym_max"]
    metrics["rules.fold.ambiguous_frac"] = counters["rules.fold.ambiguous"] / folds if folds else 0.0
    return metrics


# -- wrapping ----------------------------------------------------------------------------


def _fold_meter(counters: Counter, args: tuple, kwargs: dict) -> tuple[tuple, dict]:
    """Count one fold by rule, its item count, and whether its extremes
    cancel.  Every caller passes the items and the rule positionally.  The
    items are materialized first so that a generator is not consumed twice."""
    values, rule = list(args[0]), args[1]
    counters[f"rules.fold.{rule.value}.calls"] += 1
    counters["rules.fold.items"] += len(values)
    if len(values) >= 2:
        signed = [a.signed for a in values]
        top = max(signed)
        if top != 0 and top == -min(signed):
            counters["rules.fold.ambiguous"] += 1
    return (values, rule), kwargs


def _load_meter(counters: Counter, args: tuple, kwargs: dict) -> tuple[tuple, dict]:
    counters["io.bytes_in"] += len(args[0].encode("utf-8"))
    return args, kwargs


def _build_meter(counters: Counter, args: tuple, kwargs: dict) -> tuple[tuple, dict]:
    counters["capacity.build.entries"] += 1 << args[0].n
    return args, kwargs


METERS = {
    "rules.fold_sym_max": _fold_meter,
    "io.load_problem": _load_meter,
    "capacity.SetFunction.__post_init__": _build_meter,
}


class Tracer:
    """Collects spans, aggregates and counters while installed."""

    def __init__(self) -> None:
        self.counters: Counter = Counter()
        self.op = -1
        self._spans: list[tuple] = []
        self._aggregates: dict[tuple[int, str], list[int]] = {}
        # frames: [child_ns, enclosing span id, depth]; depth > SPAN_DEPTH
        # marks an aggregated call
        self._stack: list[list] = [[0, -1, 0]]
        self._patches: list[tuple[object, str, object]] = []

    @property
    def spans(self) -> list[Span]:
        return [Span(*record) for record in self._spans]

    @property
    def aggregates(self) -> list[Aggregate]:
        return [
            Aggregate(parent, name, calls, direct, own)
            for (parent, name), (calls, direct, own) in self._aggregates.items()
        ]

    def metrics(self) -> dict[str, float]:
        return layer_metrics(self.spans, self.aggregates, self.counters)

    def wrap(self, name: str, fn):
        tracer = self
        stack, spans, aggregates, counters = self._stack, self._spans, self._aggregates, self.counters
        meter = METERS.get(name)
        spanned = name.split(".", 1)[0] not in AGGREGATED_LAYERS
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if meter is not None:
                args, kwargs = meter(counters, args, kwargs)
            parent = stack[-1]
            depth = parent[2] + 1
            as_span = spanned and depth <= SPAN_DEPTH
            if as_span:
                frame = [0, len(spans), depth]
                spans.append(None)  # reserve the id; filled in on return
            else:
                frame = [0, parent[1], SPAN_DEPTH + 1]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                parent[0] += elapsed
                if as_span:
                    spans[frame[1]] = (frame[1], name, start, end, parent[1], tracer.op)
                else:
                    record = aggregates.get((parent[1], name))
                    if record is None:
                        record = aggregates[parent[1], name] = [0, 0, 0]
                    record[0] += 1
                    if parent[2] <= SPAN_DEPTH:
                        record[1] += elapsed
                    record[2] += elapsed - frame[0]

        return wrapper

    # -- installing --

    def targets(self):
        """(qualified name, owner, attribute, original) for every member to
        wrap: public module functions (generator functions excluded: a
        wrapper would time only their creation), listed private helpers,
        and the listed class members."""
        found = []
        for layer in LAYERS:
            module = sys.modules[f"symsug.{layer}"]
            for attr, value in vars(module).items():
                wanted = not attr.startswith("_") or attr in PRIVATE.get(layer, ())
                if (
                    wanted
                    and inspect.isfunction(value)
                    and value.__module__ == module.__name__
                    and not inspect.isgeneratorfunction(value)
                ):
                    found.append((f"{layer}.{attr}", module, attr, value))
            for cls_name, members in MEMBERS.get(layer, {}).items():
                cls = getattr(module, cls_name)
                for member in members:
                    found.append((f"{layer}.{cls_name}.{member}", cls, member, cls.__dict__[member]))
        return found

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for key, m in list(sys.modules.items()) if key == "symsug" or key.startswith("symsug.")]
        for name, owner, attr, original in self.targets():
            if isinstance(owner, type):
                self._patch(owner, attr, self._wrap_member(name, original))
                continue
            wrapper = self.wrap(name, original)
            for module in modules:
                for bound, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, bound, wrapper)

    def _wrap_member(self, name, original):
        if isinstance(original, property):
            return property(self.wrap(name, original.fget))
        if isinstance(original, classmethod):
            return classmethod(self.wrap(name, original.__func__))
        return self.wrap(name, original)

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output --

    def write_spans(self, path: str) -> None:
        """Spans and aggregates as gzipped JSON lines."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
            for record in self._spans:
                handle.write(json.dumps(["span", *record]) + "\n")
            for (parent, name), record in self._aggregates.items():
                handle.write(json.dumps(["agg", parent, name, *record]) + "\n")
