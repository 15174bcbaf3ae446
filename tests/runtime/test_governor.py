"""Resource governor: budgets, deadlines, cancellation, unified loops."""

import time

import pytest

from repro.algebra.programs import parse_program
from repro.core import make_table
from repro.core.errors import (
    BudgetExceededError,
    CancelledError,
    ContextualError,
    LimitExceededError,
    NonTerminationError,
    ReproError,
)
from repro.data import sales_info1
from repro.context import current
from repro.runtime import IterationBudget, Limits, ResourceGovernor, governed

PIVOT = """
    Grouped <- GROUP by {Region} on {Sold} (Sales)
    Cleaned <- CLEANUP by {Part} on {null} (Grouped)
    Pivot   <- PURGE on {Sold} by {Region} (Cleaned)
"""


class TestGovernedScope:
    def test_disabled_by_default(self):
        assert current().dispatch is None
        assert current().governor is None
        assert current().faults is None

    def test_scope_installs_and_restores(self):
        with governed(Limits()) as gov:
            assert current().dispatch is not None
            assert current().governor is gov
        assert current().dispatch is None
        assert current().governor is None

    def test_scopes_nest(self):
        with governed(Limits()) as outer:
            with governed(Limits(deadline_s=99)) as inner:
                assert current().governor is inner
            assert current().governor is outer

    def test_restores_after_budget_kill(self):
        with pytest.raises(BudgetExceededError):
            with governed(Limits(max_total_rows=1)):
                parse_program(PIVOT).run(sales_info1())
        assert current().governor is None

    def test_unlimited_scope_changes_nothing(self):
        plain = parse_program(PIVOT).run(sales_info1())
        with governed():
            governed_result = parse_program(PIVOT).run(sales_info1())
        assert governed_result == plain


class TestBudgets:
    def test_total_rows_budget_trips_with_context(self):
        with pytest.raises(BudgetExceededError) as excinfo:
            with governed(Limits(max_total_rows=5)):
                parse_program(PIVOT).run(sales_info1())
        err = excinfo.value
        assert err.kind == "total_rows"
        assert err.limit == 5
        assert err.used > 5
        assert err.op  # the op that crossed the line is named
        assert "[" in str(err) and "kind=total_rows" in str(err)

    def test_per_op_row_budget(self):
        with pytest.raises(BudgetExceededError) as excinfo:
            with governed(Limits(max_rows_per_op=2)):
                parse_program(PIVOT).run(sales_info1())
        assert excinfo.value.kind == "rows"

    def test_per_op_cell_budget(self):
        with pytest.raises(BudgetExceededError) as excinfo:
            with governed(Limits(max_cells_per_op=3)):
                parse_program(PIVOT).run(sales_info1())
        assert excinfo.value.kind == "cells"

    def test_deadline_trips(self):
        with pytest.raises(BudgetExceededError) as excinfo:
            with governed(Limits(deadline_s=0.0)):
                time.sleep(0.005)
                parse_program(PIVOT).run(sales_info1())
        err = excinfo.value
        assert err.kind == "deadline"
        assert err.elapsed >= 0.0

    def test_memory_budget_needs_tracing(self):
        import tracemalloc

        gov = ResourceGovernor(Limits(max_memory_bytes=1))
        gov.check()  # not tracing: the memory budget is dormant
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceededError) as excinfo:
                gov.check(op="GROUP")
            assert excinfo.value.kind == "memory"
            assert excinfo.value.op == "GROUP"
        finally:
            tracemalloc.stop()

    def test_governor_while_iteration_budget(self):
        gov = ResourceGovernor(Limits(max_while_iterations=3))
        gov.while_tick("Delta", 3)
        with pytest.raises(NonTerminationError) as excinfo:
            gov.while_tick("Delta", 4, statement=2)
        err = excinfo.value
        assert err.kind == "iterations"
        assert err.condition == "Delta"
        assert err.limit == 3
        assert err.statement == 2

    def test_snapshot_counts(self):
        with governed() as gov:
            parse_program(PIVOT).run(sales_info1())
        snap = gov.snapshot()
        assert snap["ops_dispatched"] == 3
        assert snap["rows_emitted"] > 0
        assert snap["cells_emitted"] >= snap["rows_emitted"]
        assert snap["cancelled"] is False


class TestCancellation:
    def test_cancel_stops_at_next_chokepoint(self):
        with governed() as gov:
            gov.cancel("operator hit ctrl-c")
            with pytest.raises(CancelledError) as excinfo:
                parse_program(PIVOT).run(sales_info1())
        assert "operator hit ctrl-c" in str(excinfo.value)
        assert excinfo.value.op is not None

    def test_cancel_stops_compilation(self):
        from repro.relational import Assign, FWProgram, Rel, compile_program

        fw = FWProgram([Assign("T", Rel("E"))])
        with governed() as gov:
            gov.cancel()
            with pytest.raises(CancelledError):
                compile_program(fw, {"E": ("Src", "Dst")})


class TestUnifiedIterationBudgets:
    def test_iteration_budget_remaining_compat(self):
        budget = IterationBudget(3, label="test-loop")
        assert budget.remaining == 3
        budget.tick("Delta")
        assert budget.remaining == 2

    def test_iteration_budget_exhaustion_is_structured(self):
        budget = IterationBudget(1)
        budget.tick("Delta")
        with pytest.raises(NonTerminationError) as excinfo:
            budget.tick("Delta")
        err = excinfo.value
        assert err.kind == "iterations"
        assert err.iteration == 2
        assert err.limit == 1

    def test_fw_while_routes_through_governor(self):
        """The FO+while interpreter's _Budget ticks the installed governor."""
        from repro.relational import (
            Assign,
            Difference,
            FWProgram,
            Rel,
            Relation,
            RelationalDatabase,
            Union,
            WhileNotEmpty,
        )

        # Delta never drains (Delta := Delta ∪ Delta \ ∅ stays put), so the
        # loop only stops when a budget trips; the *governor's* cap is
        # tighter than the interpreter's and must win.
        fw = FWProgram(
            [
                Assign("Delta", Rel("E")),
                WhileNotEmpty(
                    "Delta",
                    [Assign("Delta", Union(Rel("Delta"), Difference(Rel("Delta"), Rel("E"))))],
                ),
            ]
        )
        db = RelationalDatabase([Relation("E", ["A"], [(1,)])])
        with governed(Limits(max_while_iterations=4)):
            with pytest.raises(NonTerminationError) as excinfo:
                fw.run(db, max_while_iterations=1000)
        assert excinfo.value.kind == "iterations"
        assert excinfo.value.limit == 4

    def test_ta_while_non_termination_is_structured(self):
        program = parse_program(
            """
            T <- DEDUP (T)
            while T do
                T <- DEDUP (T)
            end
            """
        )
        db = make_table("T", ["A"], [["x"]])
        from repro.core import database

        with pytest.raises(NonTerminationError) as excinfo:
            program.run(database(db), max_while_iterations=5)
        err = excinfo.value
        assert err.kind == "iterations"
        assert err.limit == 5
        assert err.condition == "T"


class TestErrorTaxonomy:
    def test_hierarchy(self):
        assert issubclass(BudgetExceededError, ContextualError)
        assert issubclass(ContextualError, ReproError)
        assert issubclass(CancelledError, ContextualError)
        assert issubclass(LimitExceededError, BudgetExceededError)
        assert issubclass(NonTerminationError, BudgetExceededError)

    def test_context_renders_and_reads_back(self):
        err = BudgetExceededError("over budget", kind="rows", limit=10, used=11)
        assert err.context == {"kind": "rows", "limit": 10, "used": 11}
        assert str(err) == "over budget [kind=rows, limit=10, used=11]"
        assert err.kind == "rows"
        with pytest.raises(AttributeError):
            err.nonexistent_field

    def test_none_context_fields_are_dropped(self):
        err = CancelledError("stopped", op=None, statement=3)
        assert err.context == {"statement": 3}
        assert str(err) == "stopped [statement=3]"

    def test_limit_exceeded_carries_context(self):
        err = LimitExceededError("too many", kind="rows", op="setnew", used=2, limit=1)
        assert isinstance(err, BudgetExceededError)
        assert err.op == "setnew"
        assert err.used == 2
