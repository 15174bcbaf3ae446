"""Workload fingerprinting and the estimator's q-error audit.

Two halves, both consumers of the statistics layer:

* **Fingerprinting** — :func:`fingerprint_program` hashes a *normalized*
  rendering of a TA program: structure (targets, operations, argument
  names, attribute parameters) is kept, entry-valued constants are
  replaced by ``?``.  Two runs of ``SELECTCONST on {Part} = 'nuts'`` and
  ``= 'bolts'`` therefore share a fingerprint, exactly like normalized
  query digests in a database's workload repository.
  :class:`WorkloadLog` subscribes to the live event bus and aggregates
  per-fingerprint call counts, latency percentiles, dispatched-op
  counts, actual cardinalities, and estimate q-errors.

* **The audit** — :func:`stats_audit` replays a corpus (the bundled
  TA-program examples, the synthetic transitive-closure fixpoint, and
  seeded cases from the differential fuzzer's generator,
  :func:`repro.data.programs.random_case`) with ANALYZE stats installed,
  and reports per-op p50/p95/max q-error plus a coverage check that
  every dispatched op kind was scored.  ``python -m repro stats-audit``
  emits the report as machine-readable JSON.

This module is imported lazily from the package root: the corpus runner
pulls in the algebra interpreter and the example pipelines, which the
observability runtime must not load eagerly (the registry imports this
package while the algebra package is still initialising).
"""

from __future__ import annotations

import hashlib
import time
from contextlib import contextmanager
from typing import Iterator, Sequence

from .estimator import QERROR_BUCKETS, EstimateAccuracy, estimation
from .events import Event, EventBus, event_stream
from .stats import STATS_SCHEMA_VERSION, analyze_database

__all__ = [
    "normalize_program",
    "fingerprint_program",
    "WorkloadLog",
    "stats_audit",
    "DEFAULT_AUDIT_SEEDS",
]

#: Seeded fuzzer cases the audit replays by default: enough programs to
#: dispatch every registered op kind at least once (pinned by a test).
DEFAULT_AUDIT_SEEDS = 48


def _percentile(ordered: Sequence[float], fraction: float) -> float:
    if not ordered:
        return 0.0
    import math

    rank = max(0, min(len(ordered) - 1, math.ceil(fraction * len(ordered)) - 1))
    return ordered[rank]


# ----------------------------------------------------------------------
# Fingerprinting
# ----------------------------------------------------------------------

def _normalize_statement(statement, lines: list[str], depth: int) -> None:
    """One statement's normalized rendering (constants → ``?``).

    Statements are duck-typed (assignments carry ``spec``, while loops
    ``condition``/``body``) so this module never imports the algebra
    package at load time.
    """
    pad = "  " * depth
    spec = getattr(statement, "spec", None)
    if spec is not None:
        from ..algebra.programs.registry import PARAM_ENTRY

        params = []
        for key in sorted(statement.params):
            if spec.params.get(key) == PARAM_ENTRY:
                params.append(f"{key}=?")
            else:
                params.append(f"{key}={statement.params[key]}")
        args = ", ".join(str(a) for a in statement.args)
        rendered = f"{statement.target} <- {spec.name}({'; '.join(params)})({args})"
        lines.append(pad + rendered)
        return
    body = getattr(statement, "body", None)
    if body is not None:
        lines.append(pad + f"while {statement.condition}:")
        for inner in body.statements:
            _normalize_statement(inner, lines, depth + 1)
        return
    lines.append(pad + repr(statement))


def normalize_program(program) -> str:
    """The fingerprint-stable rendering of one TA program."""
    lines: list[str] = []
    for statement in program.statements:
        _normalize_statement(statement, lines, 0)
    return "\n".join(lines)


def fingerprint_program(program) -> str:
    """A 16-hex-digit digest of the normalized program."""
    normalized = normalize_program(program)
    return hashlib.sha256(normalized.encode("utf-8")).hexdigest()[:16]


# ----------------------------------------------------------------------
# The workload log
# ----------------------------------------------------------------------

class _FingerprintRecord:
    """Aggregates for one normalized program shape."""

    __slots__ = (
        "fingerprint",
        "normalized",
        "calls",
        "errors",
        "ops",
        "rows_out",
        "estimates",
        "qerror_sum",
        "qerror_max",
        "_latencies",
    )

    def __init__(self, fingerprint: str, normalized: str):
        self.fingerprint = fingerprint
        self.normalized = normalized
        self.calls = 0
        self.errors = 0
        self.ops = 0
        self.rows_out = 0
        self.estimates = 0
        self.qerror_sum = 0.0
        self.qerror_max = 0.0
        self._latencies: list[float] = []

    def snapshot(self) -> dict:
        ordered = sorted(self._latencies)
        return {
            "fingerprint": self.fingerprint,
            "normalized": self.normalized,
            "calls": self.calls,
            "errors": self.errors,
            "ops": self.ops,
            "rows_out": self.rows_out,
            "latency_ms": {
                "p50": round(_percentile(ordered, 0.50) * 1e3, 3),
                "p95": round(_percentile(ordered, 0.95) * 1e3, 3),
                "max": round(ordered[-1] * 1e3, 3) if ordered else 0.0,
            },
            "estimates": self.estimates,
            "q_error": {
                "mean": (
                    round(self.qerror_sum / self.estimates, 3) if self.estimates else 0.0
                ),
                "max": round(self.qerror_max, 3),
            },
        }


class WorkloadLog:
    """Per-fingerprint workload aggregates fed from the event bus.

    Attach to a live bus, then bracket each program run with
    :meth:`track` — events published while a run is open (op
    ``span_finish`` row counts, ``op_estimate`` q-errors) are attributed
    to that run's fingerprint::

        with event_stream() as bus:
            log = WorkloadLog(bus)
            with log.track(program):
                program.run(db)
        print(log.snapshot())
    """

    __slots__ = ("records", "dispatched", "_bus", "_current", "ignored")

    def __init__(self, bus: EventBus | None = None):
        self.records: dict[str, _FingerprintRecord] = {}
        #: Per-op dispatch counts across every event seen (tracked or not):
        #: the audit's coverage check compares these against scored ops.
        self.dispatched: dict[str, int] = {}
        self._current: _FingerprintRecord | None = None
        #: Events that arrived outside any tracked run.
        self.ignored = 0
        self._bus = bus
        if bus is not None:
            bus.attach(self._on_event)

    def _on_event(self, event: Event) -> None:
        if event.kind == "span_finish" and event.data.get("ok", True):
            # Failed dispatches have no actual cardinality to score, so
            # coverage counts completed ops only.
            op = event.data.get("op")
            if op:
                op = str(op)
                self.dispatched[op] = self.dispatched.get(op, 0) + 1
        record = self._current
        if record is None:
            if event.kind in ("span_finish", "op_estimate", "error"):
                self.ignored += 1
            return
        if event.kind == "span_finish":
            record.ops += 1
            record.rows_out += int(event.data.get("rows_out", 0) or 0)
        elif event.kind == "op_estimate":
            q = float(event.data.get("q_error", 1.0))
            record.estimates += 1
            record.qerror_sum += q
            if q > record.qerror_max:
                record.qerror_max = q
        elif event.kind == "error":
            record.errors += 1

    def _record_for(self, program) -> _FingerprintRecord:
        normalized = normalize_program(program)
        fingerprint = hashlib.sha256(normalized.encode("utf-8")).hexdigest()[:16]
        record = self.records.get(fingerprint)
        if record is None:
            record = self.records[fingerprint] = _FingerprintRecord(
                fingerprint, normalized
            )
        return record

    @contextmanager
    def track(self, program) -> Iterator[_FingerprintRecord]:
        """Attribute bus events and latency to ``program``'s fingerprint."""
        record = self._record_for(program)
        record.calls += 1
        previous = self._current
        self._current = record
        started = time.perf_counter()
        try:
            yield record
        except Exception:
            record.errors += 1
            raise
        finally:
            record._latencies.append(time.perf_counter() - started)
            self._current = previous

    def snapshot(self) -> dict:
        """Per-fingerprint aggregates, busiest first."""
        ordered = sorted(
            self.records.values(), key=lambda r: (-r.calls, r.fingerprint)
        )
        return {
            "fingerprints": [record.snapshot() for record in ordered],
            "ignored_events": self.ignored,
        }

    def __repr__(self) -> str:
        return f"WorkloadLog({len(self.records)} fingerprint(s))"


# ----------------------------------------------------------------------
# The q-error audit
# ----------------------------------------------------------------------

def _audit_corpus(seeds: int, tc_size: int) -> list[tuple]:
    """(label, program-runner, database, program, run-kwargs) tuples.

    ``program`` is the recovered TA program when the runner is a plain
    ``Program.run`` (bound method or closure), or None for example
    runners of other source languages — the optimizer pass only rescores
    cases whose program it can rewrite.
    """
    from ..algebra.programs.statements import Program
    from ..data.programs import random_case
    from ..runtime.workloads import parse_workload
    from .examples import EXAMPLES

    corpus: list[tuple] = []
    for name in sorted(EXAMPLES):
        example = EXAMPLES[name]
        if example.setup is None:
            continue  # the OLAP example builds cubes, not a TA run
        db, run = example.setup()
        owner = getattr(run, "__self__", None)
        program = owner if isinstance(owner, Program) else None
        corpus.append((name, run, db, program, {}))
    label, program, db = parse_workload(f"tc:{tc_size}")
    corpus.append((label, program.run, db, program, {}))
    for seed in range(seeds):
        program, db = random_case(seed)
        kwargs = {"max_while_iterations": _FUZZ_WHILE_BUDGET}
        corpus.append(
            (
                f"fuzz:{seed}",
                lambda d, p=program: p.run(
                    d, max_while_iterations=_FUZZ_WHILE_BUDGET
                ),
                db,
                program,
                kwargs,
            )
        )
    return corpus


#: While budget for fuzzer cases (matches the differential harness).
_FUZZ_WHILE_BUDGET = 12


def _accuracy_overall(accuracy: "EstimateAccuracy") -> dict:
    """p50/p95/max over every q-error sample an accuracy sink holds."""
    all_q = [
        q
        for record in accuracy.ops.values()
        for q in record._samples
    ]
    all_q.sort()
    return {
        "estimates": accuracy.count,
        "p50": round(_percentile(all_q, 0.50), 3),
        "p95": round(_percentile(all_q, 0.95), 3),
        "max": round(all_q[-1], 3) if all_q else 0.0,
    }


#: Slack before the optimizer pass counts as a q-error regression: the
#: rewritten plan runs a different op mix (CHAINJOIN replaces whole
#: PRODUCT/SELECT prefixes), so tiny percentile wobbles are expected;
#: a real mis-costed join order blows p95 out by far more than 25%.
OPTIMIZER_REGRESSION_TOLERANCE = 1.25


def stats_audit(
    seeds: int = DEFAULT_AUDIT_SEEDS,
    engine: str = "vector",
    tc_size: int = 6,
    top_k: int | None = None,
    regression_tolerance: float = OPTIMIZER_REGRESSION_TOLERANCE,
) -> dict:
    """Replay the corpus under estimation; the machine-readable report.

    Each case is ANALYZEd first (``engine`` selects the stats path), then
    run with the resulting snapshot installed, so base-table predictions
    are stats-derived and intermediates exercise the shape fallback —
    exactly the mix a cost-based optimizer would see.  Cases raising a
    :class:`~repro.core.errors.ReproError` (the fuzz corpus legitimately
    hits undefined operations) still contribute every op completed
    before the error.

    The audit then makes a second, *post-rewrite* pass: every case whose
    program it can recover is pushed through
    :func:`repro.engine.optimizer.optimize_program` with the same stats
    snapshot and re-run, so the op sequence being scored is the one the
    cost-based optimizer actually chose (CHAINJOIN orders, fused
    selects, pruned projections).  The report's ``optimizer`` section
    carries that pass's q-error percentiles and a ``regressed`` verdict:
    True when the optimizer-chosen plans' p95 q-error exceeds the
    unoptimized baseline by more than ``regression_tolerance`` — the
    CLI turns that into a non-zero exit so CI catches a cost model
    whose rewrites make its own estimates worse.
    """
    from ..core.errors import ReproError
    from ..engine.optimizer import PlanCache, optimize_program
    from .stats import DEFAULT_TOP_K

    accuracy = EstimateAccuracy()
    opt_accuracy = EstimateAccuracy()
    workload = None
    cases = errors = 0
    opt_cases = opt_errors = opt_rewrites = 0
    plan_cache = PlanCache()
    started = time.perf_counter()
    rewritable = []
    with event_stream() as bus:
        workload = WorkloadLog(bus)
        for label, run, db, program, kwargs in _audit_corpus(seeds, tc_size):
            stats = analyze_database(
                db, engine=engine, top_k=top_k or DEFAULT_TOP_K
            )
            cases += 1
            with estimation(stats, accuracy=accuracy):
                try:
                    with workload.track(_LabeledProgram(label, run)):
                        run(db)
                except ReproError:
                    errors += 1
            if program is not None:
                rewritable.append((db, program, kwargs, stats))
    # The post-rewrite pass runs outside the event stream: coverage is a
    # property of the *baseline* corpus, and the rewritten plans dispatch
    # ops (fused PRODUCTSELECT, CHAINJOIN) the baseline never does.
    for db, program, kwargs, stats in rewritable:
        try:
            result = optimize_program(program, stats, cache=plan_cache)
        except ReproError:
            continue
        opt_cases += 1
        opt_rewrites += len(result.applied)
        with estimation(stats, accuracy=opt_accuracy):
            try:
                result.program.run(db, **kwargs)
            except ReproError:
                opt_errors += 1
    elapsed = time.perf_counter() - started

    ops_report = accuracy.snapshot()
    estimated_ops = set(ops_report)
    dispatched = _dispatched_ops(workload)
    missing = sorted(dispatched - estimated_ops)
    overall = _accuracy_overall(accuracy)
    opt_overall = _accuracy_overall(opt_accuracy)
    regressed = (
        opt_overall["estimates"] > 0
        and opt_overall["p95"] > overall["p95"] * regression_tolerance
    )
    return {
        "version": 1,
        "stats_schema_version": STATS_SCHEMA_VERSION,
        "engine": engine,
        "corpus": {
            "cases": cases,
            "errors": errors,
            "fuzz_seeds": seeds,
            "elapsed_s": round(elapsed, 3),
        },
        "buckets": list(QERROR_BUCKETS),
        "ops": ops_report,
        "overall": overall,
        "optimizer": {
            **opt_overall,
            "cases": opt_cases,
            "errors": opt_errors,
            "rewrites": opt_rewrites,
            "ops": opt_accuracy.snapshot(),
            "tolerance": regression_tolerance,
            "baseline_p95": overall["p95"],
            "regressed": regressed,
        },
        "coverage": {
            "dispatched_ops": sorted(dispatched),
            "estimated_ops": sorted(estimated_ops),
            "missing": missing,
            "complete": not missing,
        },
        "workload": workload.snapshot(),
    }


class _LabeledProgram:
    """A corpus entry's stand-in program: fingerprints by its label.

    Example runners close over pre-parsed programs of several source
    languages; the audit's workload log keys them by corpus label
    instead of re-deriving statement structure.
    """

    __slots__ = ("label",)

    def __init__(self, label: str, run):
        self.label = label

    @property
    def statements(self):
        return (self.label,)


def _dispatched_ops(workload: WorkloadLog | None) -> set[str]:
    """Op kinds that actually dispatched, from the bus-fed span events."""
    if workload is None:
        return set()
    return set(workload.dispatched)
