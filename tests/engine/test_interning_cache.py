"""Vector results stay interned from one statement to the next.

Every statement names its results after the target, which builds a new
:class:`Table` object.  A kernel result is an id-backed
:class:`~repro.engine.interning.InternedTable` that renames itself by
id, so the next kernel reads its id form without re-interning the grid.
These tests count, per call of ``SymbolInterner.intern_table``, whether
the table was already cached, and count the symbol grids built from ids:
none during a run, one per table read afterwards.
"""

import sys
import threading

import pytest

from repro.algebra.programs import parse_program
from repro.core import Name, SchemaError, database, make_table
from repro.data import synthetic_sales_facts
from repro.engine import run_program
from repro.engine.interning import InternedTable, SymbolInterner
from repro.obs.examples import EXAMPLES
from repro.obs.ledger import database_digest
from repro.relational import Relation, RelationalDatabase, table_to_relation
from repro.runtime.workloads import parse_workload
from repro.schemalog import (
    DERIVED,
    SchemaLogDatabase,
    compile_to_ta,
    parse_schemalog,
)


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


@pytest.fixture
def grid_builds(monkeypatch):
    """The table name of every symbol grid built from an id form."""
    log: list[str] = []
    original = SymbolInterner.grid

    def recording(self, idt):
        log.append(str(self.symbol(idt.name)))
        return original(self, idt)

    monkeypatch.setattr(SymbolInterner, "grid", recording)
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


def test_an_intermediate_result_never_builds_a_grid(grid_builds):
    program = parse_program(
        """
        T <- SELECTCONST attr A value 'x' (R)
        U <- PROJECT attrs {A} (T)
        """
    )
    db = database(make_table("R", ["A", "B"], [("x", 1), ("y", 2), ("x", 3)]))
    out = run_program(program, db, engine="vector")
    assert grid_builds == []
    (u,) = out.tables_named("U")
    assert u.grid == make_table("U", ["A"], [("x",), ("x",)]).grid
    assert grid_builds == ["U"]


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


@pytest.mark.parametrize("optimize", [False, True], ids=["plain", "optimized"])
def test_theorem_45_builds_only_the_grid_it_reads(grid_builds, optimize):
    """Theorem 4.5 at 32 parts: no grid during the run, one for ``Derived``."""
    db = database(_federation(32, 32).facts_table())
    program = compile_to_ta(FEDERATION)
    out = run_program(program, db, engine="vector", optimize=optimize)
    assert grid_builds == []
    (derived,) = out.tables_named(DERIVED)
    table_to_relation(derived)
    assert grid_builds == [str(DERIVED)]
    assert out == program.run(db)


# ----------------------------------------------------------------------
# The checks an id-backed table keeps
# ----------------------------------------------------------------------

def test_materialize_rejects_a_ragged_row():
    interner = SymbolInterner()
    ids = [interner.intern(Name(n)) for n in ("R", "A", "B")]
    with pytest.raises(SchemaError, match="ragged grid: row 2"):
        interner.materialize(ids[0], ids[1:], (0, 0), [(ids[1], ids[2]), (ids[1],)])


@pytest.mark.parametrize("bad", ["T", 1, None])
def test_interned_with_name_rejects_a_non_symbol(bad):
    interner = SymbolInterner()
    idt = interner.intern_table(make_table("R", ["A"], [(1,)]))
    table = interner.materialize(idt.name, idt.col_attrs, idt.row_attrs, idt.rows)
    with pytest.raises(SchemaError):
        table.with_name(bad)


def _run_threads(target, count=8):
    """``count`` threads released at once, switching every microsecond."""
    start = threading.Barrier(count)

    def run(k):
        start.wait(timeout=10)
        target(k)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(k,)) for k in range(count)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)


def test_threads_forcing_one_grid_get_the_same_grid(grid_builds):
    interner = SymbolInterner()
    plain = make_table("R", ["A", "B"], [(i, i * i) for i in range(200)])
    idt = interner.intern_table(plain)
    table = interner.materialize(idt.name, idt.col_attrs, idt.row_attrs, idt.rows)
    grids = []
    _run_threads(lambda k: grids.append(table.grid))
    assert len(grids) == 8 and all(grid == plain.grid for grid in grids)
    assert grid_builds == ["R"]


def test_threads_renaming_one_result_keep_the_interner_a_bijection():
    interner = SymbolInterner()
    idt = interner.intern_table(make_table("R", ["A"], [(1,), (2,)]))
    table = interner.materialize(idt.name, idt.col_attrs, idt.row_attrs, idt.rows)
    named = []
    _run_threads(
        lambda k: named.extend(
            (Name(f"T{i % 40}"), table.with_name(Name(f"T{i % 40}")))
            for i in range(k, 400, 8)
        )
    )
    assert len(named) == 400
    assert all(t.name == name == t.grid[0][0] for name, t in named)
    assert all(interner.intern(interner.symbol(i)) == i for i in range(len(interner)))
    assert len(interner) == len({interner.symbol(i) for i in range(len(interner))})


def _vector_and_naive(name):
    parsed = parse_workload(name)
    if parsed is not None:
        _label, program, db = parsed
    else:
        db, run = EXAMPLES[name].setup()
        program = run.__self__
    return run_program(program, db, engine="vector"), program.run(db)


@pytest.mark.parametrize("name, interned", [("tc:6", True), ("fig4-group", False)])
def test_vector_digest_equals_the_naive_digest(name, interned):
    """tc:6 runs on kernels; fig4-group's GROUP falls back to the naive op."""
    vector, naive = _vector_and_naive(name)
    assert any(type(t) is InternedTable for t in vector) is interned
    assert database_digest(vector) == database_digest(naive)
