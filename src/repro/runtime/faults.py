"""Deterministic fault injection at op boundaries (chaos engineering).

A :class:`FaultPlan` is installed alongside the governor by
``governed(faults=plan)`` — the execution context's ``faults`` field
(:mod:`repro.context`) — and consulted by the op registry's dispatch
chain around every dispatch.  Three fault kinds:

* ``raise``   — the op boundary raises a typed
  :class:`~repro.core.errors.FaultInjectedError` *before* the op runs;
* ``delay``   — the boundary sleeps, so a governed deadline trips as a
  typed :class:`~repro.core.errors.BudgetExceededError` at the same
  op's accounting check;
* ``corrupt`` — the op's output is rebuilt with a structurally invalid
  grid (one cell torn out of a seeded-random data row), which the core
  model's own validation rejects as a typed
  :class:`~repro.core.errors.SchemaError` — silent corruption cannot
  cross an op boundary because :class:`~repro.core.table.Table`
  re-validates on construction.

Every kind therefore surfaces as a :class:`~repro.core.errors.ReproError`
subclass, and because the interpreter's snapshot-and-commit statement
semantics discard partial results (including fresh-value tags) on any
raise, no fault leaves the environment partially mutated — the chaos
suite proves both properties over a matrix of injection points.

Rules fire deterministically: ``occurrence`` counts matching dispatches
of the rule's op (1-based), and the only randomness — which cell a
``corrupt`` fault tears out — comes from a :class:`random.Random` seeded
from the plan's ``seed``, so a failing chaos point replays exactly.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Iterable, Sequence

from ..context import current
from ..core.errors import EvaluationError, FaultInjectedError

__all__ = ["FaultRule", "FaultPlan", "FAULT_KINDS"]

#: The supported fault kinds.
FAULT_KINDS = ("raise", "delay", "corrupt")


@dataclass(frozen=True)
class FaultRule:
    """One fault: fire ``kind`` at the ``occurrence``-th dispatch of ``op``.

    ``op`` is the registry op name (upper-cased; ``"*"`` matches every
    op); ``delay_s`` only applies to ``delay`` faults.
    """

    op: str
    kind: str
    occurrence: int = 1
    delay_s: float = 0.05

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise EvaluationError(
                f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}"
            )
        if self.occurrence < 1:
            raise EvaluationError(f"fault occurrence is 1-based; got {self.occurrence}")
        object.__setattr__(self, "op", self.op.upper())

    def to_json(self) -> dict:
        return {
            "op": self.op,
            "kind": self.kind,
            "occurrence": self.occurrence,
            "delay_s": self.delay_s,
        }


class FaultPlan:
    """A seeded set of :class:`FaultRule` plus per-op dispatch counting.

    The plan also serves as a passive probe: with no rules it simply
    counts op dispatches, which is how the chaos runner discovers the
    injection points of a pipeline before building its matrix.
    """

    def __init__(self, rules: Iterable[FaultRule] = (), seed: int = 0):
        self.rules = tuple(rules)
        self.seed = seed
        self._rng = random.Random(seed)
        self._counts: dict[str, int] = {}
        #: Records of fired faults: ``{"op", "kind", "occurrence"}`` dicts.
        self.fired: list[dict] = []

    # -- construction ---------------------------------------------------

    @classmethod
    def from_json(cls, data: dict) -> "FaultPlan":
        """Build a plan from the documented JSON format (docs/ROBUSTNESS.md)."""
        if not isinstance(data, dict) or not isinstance(data.get("rules"), list):
            raise EvaluationError(
                'a fault plan is {"seed": int, "rules": [{"op", "kind", ...}]}'
            )
        rules = []
        for entry in data["rules"]:
            if not isinstance(entry, dict) or "op" not in entry or "kind" not in entry:
                raise EvaluationError(f"malformed fault rule {entry!r}")
            rules.append(
                FaultRule(
                    op=str(entry["op"]),
                    kind=str(entry["kind"]),
                    occurrence=int(entry.get("occurrence", 1)),
                    delay_s=float(entry.get("delay_s", 0.05)),
                )
            )
        return cls(rules, seed=int(data.get("seed", 0)))

    def to_json(self) -> dict:
        return {"seed": self.seed, "rules": [rule.to_json() for rule in self.rules]}

    # -- lifecycle ------------------------------------------------------

    def reset(self) -> None:
        """Restore the initial state (counts, RNG, fired log) for a re-run."""
        self._rng = random.Random(self.seed)
        self._counts.clear()
        self.fired.clear()

    def dispatch_counts(self) -> dict[str, int]:
        """Per-op dispatch counts observed so far (probe mode)."""
        return dict(self._counts)

    # -- the op-boundary hooks (called by the registry) -----------------

    def _matches(self, op: str, count: int, kind: str) -> FaultRule | None:
        for rule in self.rules:
            if rule.kind != kind:
                continue
            if rule.op != "*" and rule.op != op:
                continue
            if rule.occurrence == count:
                return rule
        return None

    def _record(self, op: str, kind: str, count: int) -> None:
        self.fired.append({"op": op, "kind": kind, "occurrence": count})
        ctx = current()
        if ctx.bus is not None:
            ctx.bus.publish(
                "fault_injected", op=op, fault=kind, occurrence=count, seed=self.seed
            )
        if ctx.tracer is not None:
            with ctx.tracer.span("fault", op=op, kind=kind, occurrence=count):
                pass
        if ctx.metrics is not None:
            ctx.metrics.count("faults_injected")

    def before(self, op: str) -> None:
        """Pre-dispatch hook: counts the dispatch, fires raise/delay faults."""
        count = self._counts.get(op, 0) + 1
        self._counts[op] = count
        rule = self._matches(op, count, "delay")
        if rule is not None:
            self._record(op, "delay", count)
            time.sleep(rule.delay_s)
        rule = self._matches(op, count, "raise")
        if rule is not None:
            self._record(op, "raise", count)
            raise FaultInjectedError(
                "injected fault",
                op=op,
                kind="raise",
                occurrence=count,
                seed=self.seed,
            )

    def after(self, op: str, produced: Sequence) -> tuple:
        """Post-dispatch hook: fires corrupt faults on the op's output.

        Corruption rebuilds one produced table with a cell torn out of a
        seeded-random data row; :class:`~repro.core.table.Table` rejects
        the ragged grid, so the corruption surfaces immediately as a
        typed :class:`~repro.core.errors.SchemaError` rather than
        propagating silently into the database.
        """
        count = self._counts.get(op, 0)
        rule = self._matches(op, count, "corrupt")
        if rule is None or not produced:
            return tuple(produced)
        self._record(op, "corrupt", count)
        from ..core.table import Table

        victim = produced[0]
        grid = [list(row) for row in victim.grid]
        if len(grid) > 1 and len(grid[0]) > 1:
            row = 1 + self._rng.randrange(len(grid) - 1)
            grid[row] = grid[row][:-1]  # tear one cell out: ragged grid
        else:
            grid = []  # degenerate table: corrupt to the empty grid
        corrupted = Table(grid)  # raises SchemaError — by design
        return (corrupted,) + tuple(produced[1:])  # pragma: no cover

    def __repr__(self) -> str:
        return f"FaultPlan({len(self.rules)} rule(s), seed={self.seed})"
