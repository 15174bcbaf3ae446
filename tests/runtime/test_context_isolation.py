"""One run's scopes belong to that run: threads do not share them.

Every scope lives in the execution context (``repro.context``), and a
bare ``threading.Thread`` starts outside every scope.  These tests hold
scopes open in one thread while another thread runs a plain program,
and check that neither sees the other's governor, backend, tracer,
event bus, or shed layers.  The threads are sequenced with
``threading.Event``s, so the outcome depends on no timing.
"""

import threading

import pytest

from repro.core.errors import BudgetExceededError
from repro.engine import engine_scope
from repro.obs import observation
from repro.obs.events import event_stream
from repro.runtime import ResourceGovernor, governed, run_hardened
from repro.runtime.policy import RetryPolicy
from repro.runtime.supervisor import Supervisor
from repro.runtime.workloads import transitive_closure_workload


def run_threads(*targets):
    """Start one thread per target, join them all, re-raise the first error."""
    errors = []

    def guarded(target):
        try:
            target()
        except BaseException as err:  # surfaced on the main thread below
            errors.append(err)

    threads = [threading.Thread(target=guarded, args=(t,)) for t in targets]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


@pytest.mark.parametrize("cancelled_governor", [True, False])
def test_plain_run_ignores_another_threads_scopes(cancelled_governor):
    program, db = transitive_closure_workload(4)
    expected = program.run(db)
    a_scoped = threading.Event()
    b_done = threading.Event()
    seen: dict = {}

    def thread_a():
        governor = ResourceGovernor()
        if cancelled_governor:
            governor.cancel("thread A's run was cancelled")
        try:
            with governed(governor=governor), engine_scope() as backend:
                with event_stream() as bus, observation() as obs:
                    events = []
                    bus.attach(events.append)
                    a_scoped.set()
                    b_done.wait()
            seen.update(backend=backend, events=events, obs=obs)
        finally:
            a_scoped.set()

    def thread_b():
        try:
            a_scoped.wait()
            # Compiles under A's open scopes too (the governor checks there).
            plain_program, plain_db = transitive_closure_workload(4)
            seen["result"] = plain_program.run(plain_db)
        finally:
            b_done.set()

    run_threads(thread_a, thread_b)
    assert seen["result"] == expected
    assert seen["backend"].stats["kernel_calls"] == 0
    assert seen["events"] == []
    assert seen["obs"].spans == ()


def test_shedding_supervisor_leaves_another_threads_events_on(monkeypatch):
    program, db = transitive_closure_workload(4)
    with event_stream() as bus:
        reference = []
        bus.attach(reference.append)
        program.run(db)
    b_streaming = threading.Event()
    a_shedding = threading.Event()
    b_done = threading.Event()
    attempts = []
    seen: dict = {}

    def fake_run_hardened(prog, database, **kwargs):
        attempts.append(kwargs)
        if len(attempts) == 1:
            raise BudgetExceededError("oom", kind="memory")
        # The retry runs under the supervisor's shed scope: hold it open
        # while thread B runs.
        a_shedding.set()
        b_done.wait()
        return run_hardened(prog, database)

    monkeypatch.setattr("repro.runtime.supervisor.run_hardened", fake_run_hardened)

    def thread_a():
        try:
            b_streaming.wait()
            supervisor = Supervisor(RetryPolicy(max_attempts=3), sleep=lambda s: None)
            seen["run"] = supervisor.submit(program, db, workload="tc:4")
        finally:
            a_shedding.set()

    def thread_b():
        try:
            with event_stream() as own_bus:
                events = []
                own_bus.attach(events.append)
                b_streaming.set()
                a_shedding.wait()
                program.run(db)
            seen["events"] = events
        finally:
            b_streaming.set()
            b_done.set()

    run_threads(thread_a, thread_b)
    run = seen["run"]
    assert run.ok and run.attempts[1].shed
    assert [e.kind for e in seen["events"]] == [e.kind for e in reference]
