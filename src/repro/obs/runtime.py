"""The ``observation()`` scope: tracing and metrics for one run.

The engine's instrumentation points (the operation registry, the
interpreter, the compilers, the OLAP/n-dim bridges) read the execution
context (:mod:`repro.context`).  When its ``tracer`` and ``metrics``
fields are None — the default — every instrumented call site falls
through after one field check, and tracing/metrics code never runs;
this is the "strict no-op" contract the zero-overhead tests pin down.

:func:`observation` is the way to switch collection on::

    from repro.obs import observation

    with observation() as obs:
        program.run(db)
    print(obs.explain())        # nested span tree + per-op metrics table
    data = obs.to_json()        # same report as plain data

Entering the scope installs a fresh :class:`~repro.obs.trace.Tracer` and
:class:`~repro.obs.metrics.MetricsRegistry` (either can be switched off)
in a new context and restores the previous one on exit, so scopes nest:
an inner ``observation()`` shadows the outer one and the outer resumes
untouched.  The scope belongs to the running thread's context: a bare
:class:`threading.Thread` starts outside it, and a thread that should
record into the same collectors (each thread with its own span stack)
runs its work in ``contextvars.copy_context().run``.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

from ..context import current, scope
from .metrics import MetricsRegistry
from .trace import NULL_SPAN, Span, Tracer

__all__ = ["Observation", "observation", "span"]


class Observation:
    """What one ``observation()`` scope collected."""

    __slots__ = ("tracer", "metrics")

    def __init__(self, tracer: Tracer | None, metrics: MetricsRegistry | None):
        self.tracer = tracer
        self.metrics = metrics

    @property
    def spans(self) -> tuple[Span, ...]:
        """Completed top-level spans (empty when tracing was off)."""
        return self.tracer.roots if self.tracer is not None else ()

    def explain(self, timings: bool = True) -> str:
        """The EXPLAIN report: span tree plus metrics tables.

        ``timings=False`` suppresses wall-clock figures, making the text
        deterministic (used by the golden-output tests).
        """
        from .explain import explain_text

        return explain_text(self, timings=timings)

    def to_json(self) -> dict:
        """The same report as JSON-serializable data."""
        from .explain import explain_json

        return explain_json(self)

    def __repr__(self) -> str:
        return f"Observation({len(self.spans)} root spans, metrics={self.metrics!r})"


@contextmanager
def observation(
    trace: bool = True, metrics: bool = True, memory: bool = False
) -> Iterator[Observation]:
    """Enable collection for the duration of the ``with`` block.

    ``memory=True`` asks the tracer to record per-span peak allocations;
    it only takes effect while ``tracemalloc`` is tracing (the
    :func:`repro.obs.profile.profile` scope manages that for you).
    """
    obs = Observation(
        Tracer(memory=memory) if trace else None,
        MetricsRegistry() if metrics else None,
    )
    with scope(tracer=obs.tracer, metrics=obs.metrics):
        yield obs


def span(name: str, **attributes):
    """A span under the active tracer, or the shared no-op span.

    The one-line guard used by the compilers and bridges::

        with _span("compile.schemalog", rules=len(program)):
            ...
    """
    tracer = current().tracer
    if tracer is not None:
        return tracer.span(name, **attributes)
    return NULL_SPAN
