"""One interpreter: plain and hardened runs step programs the same way.

``Program.run`` and ``run_hardened`` both go through
``Interpreter.run``; these tests pin that the two paths see the same
trace spans, estimates, events and errors, and where the hardened run's
checkpoint boundaries fall.
"""

import shutil
from collections import Counter

from repro.core.errors import NonTerminationError
from repro.obs.estimator import estimation
from repro.obs.events import event_stream
from repro.obs.ledger import database_digest
from repro.obs.runtime import observation
from repro.runtime import Limits, governed, run_hardened
from repro.runtime.workloads import transitive_closure_workload


def _plain(program, db, limits=None, **kwargs):
    with governed(limits):
        return program.run(db, **kwargs)


def _hardened(program, db, limits=None, **kwargs):
    return run_hardened(program, db, limits=limits, **kwargs)


def _observed(run, nodes=8, limits=None, **kwargs):
    """``(span names, estimated ops, event kinds, error)`` of one run."""
    program, db = transitive_closure_workload(nodes)
    error = None
    with observation() as obs, event_stream() as bus, estimation(None) as est:
        kinds = Counter()
        bus.attach(lambda event: kinds.update([event.kind]))
        try:
            run(program, db, limits=limits, **kwargs)
        except NonTerminationError as err:
            error = err
    names = Counter(
        span.name for root in obs.spans for span in root.walk()
        if span.name != "governed"
    )
    return names, set(est.accuracy.ops), kinds, error


class TestPlainHardenedParity:
    def test_same_spans_and_while_estimate(self):
        plain_names, plain_ops, _, _ = _observed(_plain)
        hard_names, hard_ops, _, _ = _observed(_hardened)
        assert plain_names == hard_names
        assert (hard_names["program"], hard_names["while"], hard_names["iteration"]) == (1, 1, 7)
        assert "WHILE" in plain_ops
        assert "WHILE" in hard_ops

    def test_same_events_when_the_interpreter_cap_trips(self):
        _, _, plain, plain_err = _observed(_plain, max_while_iterations=2)
        _, _, hard, hard_err = _observed(_hardened, max_while_iterations=2)
        assert plain_err is not None and hard_err is not None
        assert plain["while_iteration"] == hard["while_iteration"] == 3
        assert plain["governor_budget"] == hard["governor_budget"] == 3

    def test_same_error_when_both_caps_are_equal(self):
        limits = Limits(max_while_iterations=3)
        _, _, _, plain = _observed(_plain, limits=limits, max_while_iterations=3)
        _, _, _, hard = _observed(_hardened, limits=limits, max_while_iterations=3)
        assert str(plain) == str(hard)
        assert plain.context == hard.context
        # The governor ticks before the interpreter's own cap is tested.
        assert "governor's iteration budget" in str(hard)


#: ``(statement_index, body_index, iteration, done)`` of every checkpoint
#: a hardened tc:6 run writes: boundary zero, the two assignments before
#: the loop, each of the loop body's 14 statements in each of its 5
#: iterations (the last one back at the condition test, body index 0),
#: then the done marker.
TC6_BOUNDARIES = [
    (0, 0, 0, False), (1, 0, 0, False), (2, 0, 0, False),
    (2, 1, 1, False), (2, 2, 1, False), (2, 3, 1, False), (2, 4, 1, False), (2, 5, 1, False),
    (2, 6, 1, False), (2, 7, 1, False), (2, 8, 1, False), (2, 9, 1, False), (2, 10, 1, False),
    (2, 11, 1, False), (2, 12, 1, False), (2, 13, 1, False), (2, 0, 1, False),
    (2, 1, 2, False), (2, 2, 2, False), (2, 3, 2, False), (2, 4, 2, False), (2, 5, 2, False),
    (2, 6, 2, False), (2, 7, 2, False), (2, 8, 2, False), (2, 9, 2, False), (2, 10, 2, False),
    (2, 11, 2, False), (2, 12, 2, False), (2, 13, 2, False), (2, 0, 2, False),
    (2, 1, 3, False), (2, 2, 3, False), (2, 3, 3, False), (2, 4, 3, False), (2, 5, 3, False),
    (2, 6, 3, False), (2, 7, 3, False), (2, 8, 3, False), (2, 9, 3, False), (2, 10, 3, False),
    (2, 11, 3, False), (2, 12, 3, False), (2, 13, 3, False), (2, 0, 3, False),
    (2, 1, 4, False), (2, 2, 4, False), (2, 3, 4, False), (2, 4, 4, False), (2, 5, 4, False),
    (2, 6, 4, False), (2, 7, 4, False), (2, 8, 4, False), (2, 9, 4, False), (2, 10, 4, False),
    (2, 11, 4, False), (2, 12, 4, False), (2, 13, 4, False), (2, 0, 4, False),
    (2, 1, 5, False), (2, 2, 5, False), (2, 3, 5, False), (2, 4, 5, False), (2, 5, 5, False),
    (2, 6, 5, False), (2, 7, 5, False), (2, 8, 5, False), (2, 9, 5, False), (2, 10, 5, False),
    (2, 11, 5, False), (2, 12, 5, False), (2, 13, 5, False), (2, 0, 5, False),
    (3, 0, 0, True),
]


class TestCheckpointBoundaries:
    def test_boundaries_fall_where_they_did(self, tmp_path):
        program, db = transitive_closure_workload(6)
        path = tmp_path / "ck.json"
        boundaries, copies = [], []

        def record(event):
            if event.kind == "checkpoint_write":
                data = event.data
                copy = tmp_path / f"ck-{len(copies):03d}.json"
                shutil.copyfile(path, copy)
                copies.append(copy)
                boundaries.append(
                    (data["statement_index"], data["body_index"],
                     data["iteration"], data["done"])
                )

        with event_stream() as bus:
            bus.attach(record)
            clean = run_hardened(program, db, checkpoint_path=path)
        assert boundaries == TC6_BOUNDARIES

        expected = database_digest(clean)[0]
        for copy in copies:
            resumed = run_hardened(program, db, checkpoint_path=copy, resume=True)
            assert database_digest(resumed)[0] == expected, copy.name
