"""Per-layer tracing from outside the program.

:func:`install` wraps public functions and methods of each layer's
module — from here, without editing the package — so every call records
a span ``(layer, start, end, parent, request)`` in memory while a
request is being traced.  :meth:`Tracer.layer_totals` derives each
layer's *self* time (its spans' durations minus the parts their child
spans cover) and :func:`layer_metrics` turns the totals into the
benchmark's per-layer metrics.

Wrapping rebinds a function wherever a ``repro`` module holds it (so a
name imported with ``from x import f`` is wrapped too) and patches
methods on their class, so objects built before :func:`install` are
traced as well.  Outside a traced request every wrapper is one attribute
check plus the original call.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

__all__ = ["Tracer", "install", "layer_metrics", "PER_LAYER"]

#: Every per-layer metric: name -> (unit, better).  ``BENCHMARK.json``
#: lists the same names.
PER_LAYER = {
    "core.database.calls": ("count", "lower"),
    "core.database.self_s": ("s", "lower"),
    "engine.interning.intern_calls": ("count", "lower"),
    "engine.interning.materialize_calls": ("count", "lower"),
    "engine.interning.cells": ("count", "lower"),
    "engine.interning.self_s": ("s", "lower"),
    "engine.kernels.calls": ("count", "lower"),
    "engine.kernels.rows_in": ("count", "lower"),
    "engine.kernels.self_s": ("s", "lower"),
    "engine.kernels.hit_ratio": ("ratio", "higher"),
    "algebra.programs.statements": ("count", "lower"),
    "algebra.programs.while_iterations": ("count", "lower"),
    "algebra.programs.self_s": ("s", "lower"),
    "algebra.programs.registry.self_s": ("s", "lower"),
    "algebra.ops.calls": ("count", "lower"),
    "algebra.ops.self_s": ("s", "lower"),
    "engine.planner.self_s": ("s", "lower"),
    "engine.optimizer.self_s": ("s", "lower"),
    "engine.optimizer.cache_hit_ratio": ("ratio", "higher"),
    "relational.compile_ta.self_s": ("s", "lower"),
    "schemalog.compile_ta.self_s": ("s", "lower"),
    "schemalog.evaluate.self_s": ("s", "lower"),
    "relational.to_tabular.self_s": ("s", "lower"),
    "runtime.checkpoint.calls": ("count", "lower"),
    "runtime.checkpoint.bytes_written": ("bytes", "lower"),
    "runtime.checkpoint.self_s": ("s", "lower"),
    "obs.ledger.calls": ("count", "lower"),
    "obs.ledger.bytes_written": ("bytes", "lower"),
    "obs.ledger.self_s": ("s", "lower"),
    "runtime.supervisor.self_s": ("s", "lower"),
    "runtime.supervisor.attempts": ("count", "lower"),
    "other.self_s": ("s", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.requests": ("count", "higher"),
    "trace.overhead_ratio": ("ratio", "higher"),
    "federation.sim_native_ratio": ("ratio", "lower"),
    "federation.sim_ms": ("ms", "lower"),
    "federation.native_ms": ("ms", "lower"),
}

#: Layers whose self time is reported (``<layer>.self_s``).
LAYERS = tuple(
    name[: -len(".self_s")]
    for name in PER_LAYER
    if name.endswith(".self_s") and name != "other.self_s"
)

#: The root span of every traced request; its self time is ``other``.
REQUEST = "request"


class Tracer:
    """Spans and counts of the traced requests, kept in memory."""

    def __init__(self):
        self.active = False
        self.request_id = -1
        #: (layer, start, end, parent index or -1, request id)
        self.spans: list = []
        self.stack: list[int] = [-1]
        self.counts: Counter = Counter()

    def wrap(self, layer: str, fn, count=None):
        """``fn`` recording a ``layer`` span per traced call.

        ``count(args, result)``, when given, runs after the span closes
        and adds to :attr:`counts` (so its cost is not the layer's).
        """
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (layer, start, end, parent, self.request_id)
            if count is not None:
                count(args, result)
            return result

        return traced

    def run_request(self, request_id: int, call):
        """Run ``call()`` as one traced request (a root span)."""
        self.request_id = request_id
        self.active = True
        try:
            return self.wrap(REQUEST, call)()
        finally:
            self.active = False

    def layer_totals(self) -> tuple[dict[str, float], float]:
        """``({layer: self seconds}, seconds inside traced requests)``."""
        spans = self.spans
        covered = [0.0] * len(spans)
        for layer, start, end, parent, _request in spans:
            if parent >= 0:
                covered[parent] += end - start
        totals: dict[str, float] = {}
        wall = 0.0
        for index, (layer, start, end, parent, _request) in enumerate(spans):
            totals[layer] = totals.get(layer, 0.0) + (end - start) - covered[index]
            if layer == REQUEST:
                wall += end - start
        return totals, wall

    def write(self, path: Path) -> None:
        """One JSON line per span, times relative to the first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            handle.write(json.dumps(["layer", "start_s", "end_s", "parent", "request"]) + "\n")
            for layer, start, end, parent, request in self.spans:
                handle.write(
                    json.dumps([layer, start - origin, end - origin, parent, request]) + "\n"
                )


# ----------------------------------------------------------------------
# Installing the wrappers
# ----------------------------------------------------------------------

def _rebind(fn, wrapper) -> None:
    """Replace ``fn`` by ``wrapper`` in every loaded ``repro`` module."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        namespace = vars(module)
        for key, value in list(namespace.items()):
            if value is fn:
                namespace[key] = wrapper


def _dir_bytes(directory: Path, pattern: str) -> int:
    return sum(p.stat().st_size for p in directory.glob(pattern))


def install(tracer: Tracer) -> None:
    """Wrap every measured layer of the already-imported package."""
    from repro.algebra.programs import registry, statements
    from repro.core.database import TabularDatabase
    from repro.engine import kernels, optimizer, planner
    from repro.engine.interning import SymbolInterner
    from repro.obs import ledger
    from repro.relational import compile_ta as rel_compile
    from repro.relational import to_tabular
    from repro.runtime import checkpoint, supervisor
    from repro.schemalog import compile_ta as slog_compile

    slog_evaluate = sys.modules["repro.schemalog.evaluate"]
    counts = tracer.counts

    def counter(metric: str, amount=lambda args, result: 1):
        def count(args, result):
            counts[metric] += amount(args, result)
        return count

    def both(*hooks):
        def count(args, result):
            for hook in hooks:
                hook(args, result)
        return count

    def method(cls, name: str, layer: str, count=None) -> None:
        setattr(cls, name, tracer.wrap(layer, getattr(cls, name), count))

    def function(fn, layer: str, count=None) -> None:
        _rebind(fn, tracer.wrap(layer, fn, count))

    # core.database: construction sorts the tables into canonical order.
    method(TabularDatabase, "__init__", "core.database",
           counter("core.database.calls"))

    # engine.interning: Table -> IdTable and back.
    cells = lambda table: table.nrows * table.ncols
    method(SymbolInterner, "intern_table", "engine.interning", both(
        counter("engine.interning.intern_calls"),
        counter("engine.interning.cells", lambda args, result: cells(args[1])),
    ))
    method(SymbolInterner, "materialize", "engine.interning", both(
        counter("engine.interning.materialize_calls"),
        counter("engine.interning.cells", lambda args, result: cells(result)),
    ))

    # engine.kernels: the catalogue dict is shared by every VectorEngine.
    kernel_count = both(
        counter("engine.kernels.calls"),
        counter("engine.kernels.rows_in",
                lambda args, result: sum(t.height for t in args[1])),
    )
    for name, kernel in list(kernels.KERNELS.items()):
        kernels.KERNELS[name] = tracer.wrap("engine.kernels", kernel, kernel_count)

    # algebra.programs: the interpreter and the registry dispatch.
    statement_count = counter("algebra.programs.statements")
    method(statements.Assignment, "execute", "algebra.programs", statement_count)
    method(statements.While, "execute", "algebra.programs")
    method(statements.Program, "execute", "algebra.programs")
    method(statements.Interpreter, "run", "algebra.programs")
    method(registry.OpSpec, "invoke", "algebra.programs.registry")
    # Both interpreters (While.execute and run_hardened's stepping loop)
    # test the loop condition through While._holds: a True is one round.
    holds = statements.While._holds

    def counted_holds(self, db, interp):
        result = holds(self, db, interp)
        if result and tracer.active:
            counts["algebra.programs.while_iterations"] += 1
        return result

    statements.While._holds = counted_holds

    # algebra.ops: the naive operation behind each registry entry.
    op_count = counter("algebra.ops.calls")
    for spec in registry.OPERATIONS.values():
        object.__setattr__(
            spec, "function", tracer.wrap("algebra.ops", spec.function, op_count)
        )

    # engine.planner / engine.optimizer (its statements count as statements).
    function(planner.plan_program, "engine.planner")
    function(optimizer.optimize_program, "engine.optimizer")
    method(optimizer.ChainJoin, "execute", "engine.optimizer", statement_count)
    method(optimizer.SelectUnion, "execute", "engine.optimizer", statement_count)

    # Compilers, the native SchemaLog evaluator, representation changes.
    function(rel_compile.compile_program, "relational.compile_ta")
    function(slog_compile.compile_to_fw, "schemalog.compile_ta")
    function(slog_compile.compile_to_ta, "schemalog.compile_ta")
    function(slog_evaluate.evaluate, "schemalog.evaluate")
    for name in ("relation_to_table", "table_to_relation",
                 "relational_to_tabular", "tabular_to_relational"):
        function(getattr(to_tabular, name), "relational.to_tabular")

    # runtime.checkpoint: serialise + write + fsync + rename per boundary.
    function(checkpoint.save_checkpoint, "runtime.checkpoint", both(
        counter("runtime.checkpoint.calls"),
        counter("runtime.checkpoint.bytes_written",
                lambda args, result: Path(result).stat().st_size),
    ))
    function(checkpoint.load_checkpoint, "runtime.checkpoint")

    # obs.ledger: appends (+ fsync) and the index rewrite each one does;
    # bytes are the segment growth plus the rewritten index.
    for name in ("record", "record_start", "record_orphan", "record_breaker"):
        _ledger_method(tracer, ledger.RunLedger, name)
    function(ledger.database_digest, "obs.ledger")

    # runtime.supervisor: admission, attempts, outcome bookkeeping.
    method(supervisor.Supervisor, "submit", "runtime.supervisor",
           counter("runtime.supervisor.attempts",
                   lambda args, result: len(result.attempts)))


def _ledger_method(tracer: Tracer, cls, name: str) -> None:
    original = getattr(cls, name)
    counts = tracer.counts
    traced = tracer.wrap("obs.ledger", original)

    def appended(self, manifest):
        if not tracer.active:
            return original(self, manifest)
        before = _dir_bytes(self.directory, "segment-*.jsonl")
        result = traced(self, manifest)
        counts["obs.ledger.calls"] += 1
        counts["obs.ledger.bytes_written"] += (
            _dir_bytes(self.directory, "segment-*.jsonl") - before
            + _dir_bytes(self.directory, "index.json")
        )
        return result

    setattr(cls, name, appended)


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------

def layer_metrics(
    tracer: Tracer,
    *,
    requests: int,
    overhead_ratio: float,
    kernel_calls: int,
    fallbacks: int,
    cache_hits: int,
    cache_lookups: int,
    split_times: list | None,
) -> dict[str, float]:
    """Every :data:`PER_LAYER` metric from one traced phase."""
    totals, wall = tracer.layer_totals()
    values: dict[str, float] = {name: 0 for name in PER_LAYER}
    for name, amount in tracer.counts.items():
        values[name] = amount
    for layer in LAYERS:
        values[f"{layer}.self_s"] = totals.get(layer, 0.0)
    # The requests' own self time: what no layer covers, so the layers'
    # self times plus this add up to trace.wall_s.
    values["other.self_s"] = totals.get(REQUEST, 0.0)
    values["trace.wall_s"] = wall
    values["trace.requests"] = requests
    values["trace.overhead_ratio"] = overhead_ratio
    if kernel_calls + fallbacks:
        values["engine.kernels.hit_ratio"] = kernel_calls / (kernel_calls + fallbacks)
    if cache_lookups:
        values["engine.optimizer.cache_hit_ratio"] = cache_hits / cache_lookups
    if split_times:
        simulated = sum(s for s, _ in split_times)
        native = sum(n for _, n in split_times)
        values["federation.sim_ms"] = simulated / len(split_times) * 1e3
        values["federation.native_ms"] = native / len(split_times) * 1e3
        values["federation.sim_native_ratio"] = simulated / native
    return values
