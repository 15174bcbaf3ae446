"""The execution context: every run-scoped layer in one ``ContextVar``.

A TA program is a function from a tabular database to a tabular
database (paper, Section 3.6), so one run's meaning must not depend on
what another run in the same process is doing.  Everything a run can
switch on — the tracer and metrics registry, the lineage scope, the
resource governor and fault plan, the vector backend, the event bus and
the cardinality estimator — is a field of one immutable
:class:`ExecutionContext`, held in one :class:`contextvars.ContextVar`.
A layer is on exactly when its field is not None; the default context
has every field None.

:func:`scope` is the only writer.  It derives a new context from the
current one with some fields replaced, installs it for the ``with``
block and resets the variable with its token on exit, so scopes nest:
an inner scope shadows the outer one and the outer resumes untouched.
The public scopes (``observation``, ``governed``, ``engine_scope``,
``event_stream``, ``estimation``, ``lineage``) are each one
:func:`scope` call.  Instrumented call sites read :func:`current` and
test the field they need.

Each context also carries ``dispatch``: the operation-dispatch chain
its layers call for, composed once when the context is built (see
``repro.algebra.programs.registry._compose``).  It is None when no
layer is on, and :meth:`~repro.algebra.programs.registry.OpSpec.invoke`
then calls the raw operation directly.

The variable follows :mod:`contextvars` semantics: a bare
:class:`threading.Thread` starts outside every scope, and a thread that
should record into a scope's collectors runs its work in
``contextvars.copy_context().run``.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable, Iterator

if TYPE_CHECKING:
    from .engine.runtime import VectorEngine
    from .obs.estimator import CardinalityEstimator
    from .obs.events import EventBus
    from .obs.lineage import Lineage
    from .obs.metrics import MetricsRegistry
    from .obs.trace import Tracer
    from .runtime.faults import FaultPlan
    from .runtime.governor import ResourceGovernor

__all__ = ["ExecutionContext", "current", "scope"]


@dataclass(frozen=True, slots=True, eq=False)
class ExecutionContext:
    """The layers one run has switched on; None means off."""

    tracer: Tracer | None = None
    metrics: MetricsRegistry | None = None
    lineage: Lineage | None = None
    governor: ResourceGovernor | None = None
    faults: FaultPlan | None = None
    backend: VectorEngine | None = None
    bus: EventBus | None = None
    estimator: CardinalityEstimator | None = None
    dispatch: Callable | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        # Lineage alone needs no chain: its hooks live in the algebra.
        if any(
            value is not None
            for value in (
                self.tracer,
                self.metrics,
                self.governor,
                self.faults,
                self.backend,
                self.bus,
                self.estimator,
            )
        ):
            from .algebra.programs.registry import _compose

            object.__setattr__(self, "dispatch", _compose(self))


_CURRENT: ContextVar[ExecutionContext] = ContextVar(
    "repro_context", default=ExecutionContext()
)

#: The context of the running code (the default context outside every scope).
current = _CURRENT.get


@contextmanager
def scope(**fields) -> Iterator[ExecutionContext]:
    """Run the block under the current context with ``fields`` replaced."""
    ctx = replace(_CURRENT.get(), **fields)
    token = _CURRENT.set(ctx)
    try:
        yield ctx
    finally:
        _CURRENT.reset(token)
