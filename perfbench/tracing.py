"""Outside-in tracing of ksembed, from the benchmark's own files.

A Tracer replaces the public functions of each module by wrappers, at their
module attributes, while it is entered, and restores them on exit.  The
program calls across modules through those attributes (``cfgmod.ingest_rays``,
``valmod.ks_colorable``), and within a module through its globals, so every
call is seen.  Each call leaves a span (name, start, end, parent span, op id)
in memory; the counts some functions return are kept on their span.
``hermitian_inner`` runs ~10^5-10^6 times per op, so it is counted, not
spanned.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
from collections import Counter, defaultdict
from dataclasses import asdict, dataclass, field

TRACED = {
    "configuration": ("closure_generate", "ingest_rays", "configuration_from_vectors",
                      "export_rays"),
    "realify": ("rational_phase_search", "verify_faithful", "phase_apply_export"),
    "valuations": ("ks_colorable", "maximize_covered_contexts", "replay_certificate",
                   "global_sum_bounds", "certificate_to_text"),
    "cli": ("main", "cmd_generate", "cmd_realify", "cmd_certify"),
}

# counts taken from the return value of a traced call
RESULT_COUNTS = {
    "valuations.ks_colorable": lambda r: {"nodes": r.nodes, "propagations": r.propagations},
    "valuations.maximize_covered_contexts": lambda r: {
        "escalation_nodes": r.stats["escalation_nodes"],
        "refutation_nodes": r.stats["refutation_nodes"],
        "refutations": len(r.certificate),
        "witness_budget": r.stats["witness_budget"],
    },
    "realify.verify_faithful": lambda r: {"pairs_checked": r.pairs_checked},
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int
    counts: dict = field(default_factory=dict)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.inner_calls: Counter[int] = Counter()  # op id -> hermitian_inner calls
        self.op = 0
        self._open: list[int] = []
        self._saved: list[tuple] = []

    def __enter__(self) -> Tracer:
        for module_name, names in TRACED.items():
            module = importlib.import_module(f"ksembed.{module_name}")
            for name in names:
                self._patch(module, name,
                            self._spanned(f"{module_name}.{name}", getattr(module, name)))
        # configuration resolves hermitian_inner in its own namespace, both in
        # _assemble and in Configuration.pair_inner, which realify calls
        configuration = importlib.import_module("ksembed.configuration")
        self._patch(configuration, "hermitian_inner",
                    self._counted(configuration.hermitian_inner))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            module, name, original = self._saved.pop()
            setattr(module, name, original)

    def _patch(self, module, name: str, wrapper) -> None:
        self._saved.append((module, name, getattr(module, name)))
        setattr(module, name, wrapper)

    def _spanned(self, name: str, fn):
        extract = RESULT_COUNTS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._open[-1] if self._open else None
            span = Span(name, 0.0, 0.0, parent, self.op)
            self._open.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._open.pop()
            if extract is not None:
                span.counts = dict(extract(result))
            return result

        return wrapper

    def _counted(self, fn):
        calls = self.inner_calls

        @functools.wraps(fn)
        def wrapper(u, v):
            calls[self.op] += 1
            return fn(u, v)

        return wrapper

    def profile(self, op: int) -> dict[str, dict]:
        """Per function, over one op: total seconds, self seconds (minus the
        child spans), calls and the summed result counts."""
        child_s: defaultdict[int, float] = defaultdict(float)
        mine = [(i, s) for i, s in enumerate(self.spans) if s.op == op]
        for _, span in mine:
            if span.parent is not None:
                child_s[span.parent] += span.end - span.start
        prof: defaultdict[str, dict] = defaultdict(lambda: {"s": 0.0, "self_s": 0.0, "calls": 0})
        for i, span in mine:
            entry = prof[span.name]
            entry["s"] += span.end - span.start
            entry["self_s"] += span.end - span.start - child_s[i]
            entry["calls"] += 1
            for key, value in span.counts.items():
                entry[key] = entry.get(key, 0) + value
        prof["exact.hermitian_inner"] = {"calls": self.inner_calls[op]}
        return prof

    def dump(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


def _fn(module: str, names: str) -> tuple[str, ...]:
    return tuple(f"{module}.{n}" for n in names.split())


# per-layer metrics, each <module>.<function>.<stat>; the value is the median
# over traced ops of the per-op total.  "refutations" counts the refuted
# subproblems; the short name keeps every full name within 64 characters.
CONFIGURATION_ASSEMBLY = _fn("configuration", "ingest_rays.calls ingest_rays.self_s "
                             "configuration_from_vectors.s configuration_from_vectors.calls")
CONFIGURATION = _fn("configuration", "closure_generate.s") + CONFIGURATION_ASSEMBLY \
    + _fn("configuration", "export_rays.s")
EXACT = ("exact.hermitian_inner.calls",)
REALIFY = _fn("realify", "rational_phase_search.s verify_faithful.s "
              "verify_faithful.pairs_checked verify_faithful.pairs_per_s phase_apply_export.s")
COLORABLE = _fn("valuations", "ks_colorable.calls ks_colorable.s ks_colorable.nodes "
                "ks_colorable.propagations")
VALUATIONS = COLORABLE + _fn(
    "valuations",
    "maximize_covered_contexts.s maximize_covered_contexts.escalation_nodes "
    "maximize_covered_contexts.refutation_nodes maximize_covered_contexts.refutations "
    "maximize_covered_contexts.witness_budget replay_certificate.s global_sum_bounds.self_s "
    "certificate_to_text.s")
CLI = _fn("cli", "cmd_generate.self_s cmd_realify.self_s cmd_certify.self_s main.s")

LAYER_METRICS = {
    "report165": CONFIGURATION + EXACT + REALIFY + VALUATIONS + CLI,
    "stress741": CONFIGURATION_ASSEMBLY + EXACT + REALIFY + COLORABLE,
    "solve165": VALUATIONS,
}


def unit(metric: str) -> str:
    stat = metric.rsplit(".", 1)[1]
    if stat in ("s", "self_s", "overhead_s", "startup_s"):
        return "s"
    if stat == "pairs_per_s":
        return "pairs/s"
    return "count"


def layer_values(tracer: Tracer, ops: list[int], metrics: tuple[str, ...]) -> dict[str, float]:
    """Median over the traced ops of each per-op metric."""
    per_op: defaultdict[str, list] = defaultdict(list)
    for op in ops:
        prof = tracer.profile(op)
        for metric in metrics:
            fn, stat = metric.rsplit(".", 1)
            entry = prof.get(fn, {})
            if stat == "pairs_per_s":
                value = entry.get("pairs_checked", 0) / entry["s"] if entry.get("s") else 0.0
            else:
                value = entry.get(stat, 0)
            per_op[metric].append(value)
    return {m: statistics.median(v) for m, v in per_op.items()}
