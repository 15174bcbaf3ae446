"""Registry of the tabular algebra operations available to statements.

Each entry describes how an assignment statement invokes the underlying
operation from :mod:`repro.algebra`: how many argument tables it takes, the
keyword parameters it expects and whether each denotes a single symbol or a
symbol set, and whether it runs once per matching table combination or once
over the whole set of matching tables (COLLAPSE).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Mapping, Sequence

from ...context import current
from ...core import EvaluationError, FreshValueSource, Symbol, Table
from ...obs import estimator as _est
from ...obs.trace import NULL_SPAN
from .. import (
    classical_union,
    const_column,
    cleanup,
    collapse,
    collapse_compact,
    deduplicate,
    deduplicate_columns,
    difference,
    drop_all_null_rows,
    group,
    group_compact,
    intersection,
    merge,
    merge_compact,
    natural_join,
    product,
    product_select,
    project,
    purge,
    rename,
    select,
    select_constant,
    setnew,
    split,
    switch,
    transpose,
    tuplenew,
    union,
)

__all__ = ["OpSpec", "OPERATIONS", "PARAM_SINGLE", "PARAM_SET", "PARAM_ENTRY"]

#: Parameter kinds: a single attribute, an attribute set, a single entry.
PARAM_SINGLE = "single"
PARAM_SET = "set"
PARAM_ENTRY = "entry"


@dataclass(frozen=True)
class OpSpec:
    """How a statement invokes one algebra operation.

    ``params`` maps keyword → kind (:data:`PARAM_SINGLE`,
    :data:`PARAM_SET`, or :data:`PARAM_ENTRY`); ``arity`` is the number of
    argument tables; ``aggregate`` marks operations consuming *all* tables
    of a name at once; ``multi_result`` marks operations returning several
    tables; ``needs_fresh`` marks the tagging operations.
    """

    name: str
    function: Callable
    arity: int = 1
    params: Mapping[str, str] = field(default_factory=dict)
    aggregate: bool = False
    multi_result: bool = False
    needs_fresh: bool = False

    def invoke(
        self,
        tables: Sequence[Table],
        arguments: Mapping[str, object],
        fresh: FreshValueSource | None,
    ) -> tuple[Table, ...]:
        """Run the operation; always returns a tuple of result tables.

        Reads the execution context (:mod:`repro.context`) once.  With
        no layer on, the context's ``dispatch`` is None and the
        operation runs raw.  Otherwise ``dispatch`` is the chain
        :func:`_compose` built for the context when its scope was
        entered, so every registered operation is instrumented at this
        one boundary without touching its body.  Outermost first, a
        step is in the chain only when its field is set:

        * estimate (``estimator``) — predicts rows-out before dispatch
          and records the estimate's q-error against the actual after;
        * events (``bus``) — publishes ``span_start``/``span_finish``
          (and ``error``) around the steps below;
        * govern (``governor``, ``faults``) — budget checks and fault
          injection around the op;
        * observe (``tracer``, ``metrics``) — times, counts, and
          row/column-accounts the invocation in a span.
        """
        dispatch = current().dispatch
        if dispatch is None:
            return self._invoke_raw(tables, arguments, fresh)
        return dispatch(self, tables, arguments, fresh)

    def _invoke_raw(
        self,
        tables: Sequence[Table],
        arguments: Mapping[str, object],
        fresh: FreshValueSource | None,
        backend=None,
    ) -> tuple[Table, ...]:
        """The operation itself, offered first to a vector ``backend``."""
        kwargs = dict(arguments)
        if self.needs_fresh:
            kwargs["source"] = fresh
        if self.aggregate:
            if backend is not None:
                backend.note_fallback(self.name, "aggregate")
            result = self.function(list(tables), **kwargs)
        else:
            if len(tables) != self.arity:
                raise EvaluationError(
                    f"{self.name} expects {self.arity} argument table(s), got {len(tables)}"
                )
            if backend is not None:
                if self.needs_fresh:
                    backend.note_fallback(self.name, "needs_fresh")
                elif self.multi_result:
                    backend.note_fallback(self.name, "multi_result")
                else:
                    # Vectorized backend: a kernel may take the invocation;
                    # None means "no kernel / declined" and falls through
                    # to the naive operation below (per-invocation
                    # fallback, attributed by the backend).
                    produced = backend.dispatch(self.name, tables, kwargs)
                    if produced is not None:
                        return (produced,)
            result = self.function(*tables, **kwargs)
        if self.multi_result:
            return tuple(result)
        return (result,)


def _compose(ctx) -> Callable:
    """The dispatch chain for one :class:`repro.context.ExecutionContext`.

    Each step is a partial over the next step and the context fields it
    uses: estimate → events → govern → observe → raw.  Nothing captures
    ``spec.function`` or the backend's kernels; both are looked up at
    call time.
    """
    chain = (
        OpSpec._invoke_raw
        if ctx.backend is None
        else partial(OpSpec._invoke_raw, backend=ctx.backend)
    )
    if ctx.tracer is not None or ctx.metrics is not None:
        chain = partial(_observe, chain, ctx.tracer, ctx.metrics, ctx.lineage)
    if ctx.governor is not None or ctx.faults is not None:
        chain = partial(_govern, chain, ctx.governor, ctx.faults, ctx.metrics)
    if ctx.bus is not None:
        chain = partial(_events, chain, ctx.bus)
    if ctx.estimator is not None:
        chain = partial(_estimate, chain, ctx.estimator)
    return chain


def _estimate(nxt, estimator, spec, tables, arguments, fresh):
    """Predict, dispatch, then score the prediction.

    Estimation is telemetry: prediction and scoring are wrapped so a
    stats/estimator defect can never alter or kill a run.  The
    prediction is handed to the observe step through a per-thread
    pending slot so EXPLAIN spans carry ``est_rows`` without predicting
    twice.
    """
    try:
        predicted = estimator.predict(spec.name, tables, arguments)
    except Exception:
        predicted = None
    if predicted is not None:
        _est._push_pending(predicted)
    try:
        produced = nxt(spec, tables, arguments, fresh)
    finally:
        _est._pop_pending()
    if predicted is not None:
        try:
            estimator.observe(spec.name, predicted, sum(t.height for t in produced))
        except Exception:
            pass
    return produced


def _events(nxt, bus, spec, tables, arguments, fresh):
    """Publish dispatch events around the rest of the chain."""
    bus.publish(
        "span_start",
        op=spec.name,
        tables_in=len(tables),
        rows_in=sum(t.height for t in tables),
    )
    started = time.perf_counter()
    try:
        produced = nxt(spec, tables, arguments, fresh)
    except Exception as err:
        duration_ms = round((time.perf_counter() - started) * 1e3, 3)
        bus.publish(
            "error", op=spec.name, error=str(err), error_type=type(err).__name__
        )
        bus.publish("span_finish", op=spec.name, ok=False, duration_ms=duration_ms)
        raise
    bus.publish(
        "span_finish",
        op=spec.name,
        ok=True,
        duration_ms=round((time.perf_counter() - started) * 1e3, 3),
        tables_out=len(produced),
        rows_out=sum(t.height for t in produced),
    )
    return produced


def _govern(nxt, governor, faults, metrics, spec, tables, arguments, fresh):
    """The hardened dispatch: budgets before, faults around, rows after.

    The governor's ``before_op``/``account`` pair brackets the op; the
    fault plan's ``before``/``after`` pair fires raise/delay faults
    pre-dispatch and corrupt faults on the output.  Either may be absent
    (governing without chaos and vice versa).  The observe step, when
    present, nests inside so failed ops still close their spans with the
    error recorded.
    """
    name = spec.name
    if governor is not None:
        governor.before_op(name)
    if faults is not None:
        faults.before(name)
    produced = nxt(spec, tables, arguments, fresh)
    if faults is not None:
        produced = faults.after(name, produced)
    if governor is not None:
        governor.account(
            name,
            sum(t.height for t in produced),
            sum(t.nrows * t.ncols for t in produced),
        )
        if metrics is not None:
            metrics.count("governor_checks")
    return produced


def _observe(nxt, tracer, metrics, lineage, spec, tables, arguments, fresh):
    """Time, count, and row/column-account one invocation in a span."""
    name = spec.name
    # Per-table (height, width) pairs: the cost model estimates from
    # these, so they ride on the span next to the summed figures.
    shapes_in = tuple((t.height, t.width) for t in tables)
    tables_in = len(tables)
    rows_in = sum(shape[0] for shape in shapes_in)
    cols_in = sum(shape[1] for shape in shapes_in)
    cm = tracer.span(name) if tracer is not None else NULL_SPAN
    started = time.perf_counter()
    try:
        with cm as sp:
            sp.set(
                tables_in=tables_in,
                rows_in=rows_in,
                cols_in=cols_in,
                shapes_in=shapes_in,
            )
            # An estimate step handed its rows-out prediction over; stamp
            # it so EXPLAIN shows est_rows from stats (not shape
            # heuristics) wherever stats exist.
            pending = _est._pop_pending()
            if pending is not None:
                sp.set(est_rows=pending[0], est_source=pending[1])
            produced = nxt(spec, tables, arguments, fresh)
            sp.set(
                tables_out=len(produced),
                rows_out=sum(t.height for t in produced),
                cols_out=sum(t.width for t in produced),
                shapes_out=tuple((t.height, t.width) for t in produced),
            )
            if lineage is not None:
                from ...obs.lineage import count_prov_cells

                sp.set(
                    prov_cells_in=count_prov_cells(tables),
                    prov_cells_out=count_prov_cells(produced),
                )
    except Exception:
        if metrics is not None:
            metrics.record_op(
                name,
                time.perf_counter() - started,
                tables_in=tables_in,
                rows_in=rows_in,
                cols_in=cols_in,
                error=True,
            )
        raise
    if metrics is not None:
        metrics.record_op(
            name,
            time.perf_counter() - started,
            tables_in=tables_in,
            tables_out=len(produced),
            rows_in=rows_in,
            rows_out=sum(t.height for t in produced),
            cols_in=cols_in,
            cols_out=sum(t.width for t in produced),
        )
    return produced


def _spec(name, function, arity=1, params=None, **flags) -> tuple[str, OpSpec]:
    return name, OpSpec(name=name, function=function, arity=arity, params=dict(params or {}), **flags)


#: All statement-invocable operations, keyed by their (upper-case) name.
OPERATIONS: dict[str, OpSpec] = dict(
    [
        # Traditional (Section 3.1)
        _spec("UNION", union, arity=2),
        _spec("DIFFERENCE", difference, arity=2),
        _spec("INTERSECTION", intersection, arity=2),
        _spec("PRODUCT", product, arity=2),
        _spec("RENAME", rename, params={"old": PARAM_SINGLE, "new": PARAM_SINGLE}),
        _spec("PROJECT", project, params={"attrs": PARAM_SET}),
        _spec("SELECT", select, params={"left": PARAM_SINGLE, "right": PARAM_SINGLE}),
        _spec(
            "SELECTCONST",
            select_constant,
            params={"attr": PARAM_SINGLE, "value": PARAM_ENTRY},
        ),
        # Restructuring (Section 3.2)
        _spec("GROUP", group, params={"by": PARAM_SET, "on": PARAM_SET}),
        _spec("MERGE", merge, params={"on": PARAM_SET, "by": PARAM_SET}),
        _spec("SPLIT", split, params={"on": PARAM_SET}, multi_result=True),
        _spec("COLLAPSE", collapse, params={"by": PARAM_SET}, aggregate=True),
        # Transposition (Section 3.3)
        _spec("TRANSPOSE", transpose),
        _spec("SWITCH", switch, params={"value": PARAM_ENTRY}),
        # Redundancy removal (Section 3.4)
        _spec("CLEANUP", cleanup, params={"by": PARAM_SET, "on": PARAM_SET}),
        _spec("PURGE", purge, params={"on": PARAM_SET, "by": PARAM_SET}),
        # Tagging (Section 3.5)
        _spec("TUPLENEW", tuplenew, params={"attr": PARAM_SINGLE}, needs_fresh=True),
        _spec("SETNEW", setnew, params={"attr": PARAM_SINGLE}, needs_fresh=True),
        # Derived operations (Sections 3.2/3.4 compositions)
        _spec(
            "PRODUCTSELECT",
            product_select,
            arity=2,
            params={"left": PARAM_SINGLE, "right": PARAM_SINGLE},
        ),
        _spec("CLASSICALUNION", classical_union, arity=2),
        _spec("NATURALJOIN", natural_join, arity=2),
        _spec("DEDUP", deduplicate),
        _spec("DEDUPCOLUMNS", deduplicate_columns),
        _spec("DROPNULLROWS", drop_all_null_rows, params={"attr": PARAM_SINGLE}),
        _spec(
            "CONSTCOLUMN",
            const_column,
            params={"attr": PARAM_SINGLE, "value": PARAM_ENTRY},
        ),
        _spec("GROUPCOMPACT", group_compact, params={"by": PARAM_SET, "on": PARAM_SET}),
        _spec("MERGECOMPACT", merge_compact, params={"on": PARAM_SET, "by": PARAM_SET}),
        _spec(
            "COLLAPSECOMPACT",
            collapse_compact,
            params={"by": PARAM_SET},
            aggregate=True,
        ),
    ]
)
