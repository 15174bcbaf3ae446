"""Property-based tests for the hardened runtime.

Two families:

* **Atomicity** — for arbitrary injection points (op × occurrence ×
  seed) into a fixed pipeline, a fault either doesn't fire or surfaces
  as a typed :class:`~repro.core.errors.ReproError` subclass, and a
  clean re-run afterwards still reproduces the reference result exactly
  (no partial mutation survives, the governor state is restored).
* **Serialization** — checkpoint encoding round-trips arbitrary
  databases from the shared strategies bit for bit.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra.programs import parse_program
from repro.context import current
from repro.core.errors import ReproError
from repro.data import sales_info1
from repro.runtime import FaultPlan, FaultRule, governed
from repro.runtime.checkpoint import database_from_data, database_to_data
from tabular_strategies import databases

PIVOT = """
    Grouped <- GROUP by {Region} on {Sold} (Sales)
    Cleaned <- CLEANUP by {Part} on {null} (Grouped)
    Pivot   <- PURGE on {Sold} by {Region} (Cleaned)
"""

PIVOT_OPS = ["GROUP", "CLEANUP", "PURGE", "*"]


class TestFaultAtomicity:
    @settings(max_examples=40, deadline=None)
    @given(
        op=st.sampled_from(PIVOT_OPS),
        kind=st.sampled_from(["raise", "corrupt"]),
        occurrence=st.integers(1, 3),
        seed=st.integers(0, 2**16),
    )
    def test_any_fault_is_typed_and_leaves_no_partial_mutation(
        self, op, kind, occurrence, seed
    ):
        program = parse_program(PIVOT)
        db = sales_info1()
        reference = program.run(db)
        plan = FaultPlan([FaultRule(op=op, kind=kind, occurrence=occurrence)], seed=seed)
        raised = None
        try:
            with governed(faults=plan):
                faulted = program.run(db)
        except Exception as err:  # noqa: BLE001 — the property under test
            raised = err
        if plan.fired:
            # a fired fault must surface as a typed ReproError, never
            # succeed silently and never escape as a bare exception
            assert isinstance(raised, ReproError), repr(raised)
        else:
            assert raised is None
            assert faulted == reference
        # the governor scope is restored even on the error path
        assert current().governor is None and current().faults is None
        # and nothing the fault touched leaks into a clean re-run
        assert program.run(db) == reference

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**16))
    def test_corrupt_faults_replay_deterministically(self, seed):
        program = parse_program(PIVOT)
        db = sales_info1()

        def one_run():
            plan = FaultPlan([FaultRule(op="GROUP", kind="corrupt")], seed=seed)
            try:
                with governed(faults=plan):
                    program.run(db)
            except ReproError as err:
                return str(err)
            return None

        assert one_run() == one_run()


class TestCheckpointSerialization:
    @settings(max_examples=50, deadline=None)
    @given(db=databases())
    def test_database_encoding_round_trips(self, db):
        assert database_from_data(database_to_data(db)) == db
