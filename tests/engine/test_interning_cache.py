"""Vector results stay interned from one statement to the next.

Every statement names its results after the target, which builds a new
:class:`Table` object.  The interner caches by object identity, so the
renamed copy must be registered with the cached id form, or the next
kernel re-interns the whole grid.  These tests count, per call of
``SymbolInterner.intern_table``, whether the table was already cached.
"""

import pytest

from repro.algebra.programs import parse_program
from repro.core import Name, database, make_table
from repro.data import synthetic_sales_facts
from repro.engine import run_program
from repro.engine.interning import SymbolInterner
from repro.relational import Relation, RelationalDatabase
from repro.schemalog import SchemaLogDatabase, compile_to_ta, parse_schemalog


@pytest.fixture
def intern_log(monkeypatch):
    """``(table name, was cached)`` for every ``intern_table`` call."""
    log: list[tuple[str, bool]] = []
    original = SymbolInterner.intern_table

    def recording(self, table):
        log.append((str(table.name), self.cached(table) is not None))
        return original(self, table)

    monkeypatch.setattr(SymbolInterner, "intern_table", recording)
    return log


def test_second_statement_reads_the_first_result_from_the_cache(intern_log):
    program = parse_program(
        """
        T <- SELECTCONST attr A value 'x' (R)
        U <- PROJECT attrs {A} (T)
        """
    )
    db = database(make_table("R", ["A", "B"], [("x", 1), ("y", 2), ("x", 3)]))
    out = run_program(program, db, engine="vector")
    assert out == program.run(db)
    assert intern_log == [("R", False), ("T", True)]


def test_renamed_copy_carries_the_interned_form():
    interner = SymbolInterner()
    table = make_table("R", ["A"], [("x",), ("y",)])
    idt = interner.intern_table(table)
    named = interner.renamed(table, Name("T"))
    assert named.grid[1:] == table.grid[1:]
    assert named.name == Name("T")
    cached = interner.cached(named)
    assert cached is not None
    assert interner.symbol(cached.name) == named.name
    assert (cached.col_attrs, cached.row_attrs, cached.rows) == (
        idt.col_attrs,
        idt.row_attrs,
        idt.rows,
    )


def test_uncached_table_is_renamed_without_interning():
    interner = SymbolInterner()
    table = make_table("R", ["A"], [("x",)])
    named = interner.renamed(table, Name("T"))
    assert interner.cached(named) is None
    assert named == table.with_name(Name("T"))


def _federation(parts: int, seed: int) -> SchemaLogDatabase:
    east = [(p, s) for (p, _r, s) in synthetic_sales_facts(parts, 1, 1.0, seed)]
    west = [(p, s) for (p, _r, s) in synthetic_sales_facts(parts, 1, 1.0, seed + 1)]
    return SchemaLogDatabase.from_relational(
        RelationalDatabase(
            [
                Relation("east", ["part", "sold"], east),
                Relation("west", ["part", "sold"], west),
            ]
        )
    )


FEDERATION = parse_schemalog(
    """
    sales[T: part -> P]        :- east[T: part -> P].
    sales[T: sold -> S]        :- east[T: sold -> S].
    sales[T: region -> 'east'] :- east[T: part -> P].
    sales[T: part -> P]        :- west[T: part -> P].
    sales[T: sold -> S]        :- west[T: sold -> S].
    sales[T: region -> 'west'] :- west[T: part -> P].
    """
)


@pytest.mark.parametrize("optimize", [False, True], ids=["plain", "optimized"])
def test_theorem_45_interns_only_its_inputs(intern_log, optimize):
    """Theorem 4.5 at 32 parts: only the input tables miss the cache."""
    db = database(_federation(32, 32).facts_table())
    out = run_program(compile_to_ta(FEDERATION), db, engine="vector", optimize=optimize)
    assert out == compile_to_ta(FEDERATION).run(db)
    misses = [name for name, hit in intern_log if not hit]
    assert len(intern_log) > 100
    assert len(misses) <= len(db)
