"""The lazy-order contract of :class:`TabularDatabase`.

A database stores its tables as a set and sorts them into canonical
order only when asked.  Whatever order the tables are inserted in, every
ordered view must equal the eager reference
``tuple(sorted(set(tables), key=Table.sort_key))``: ``.tables``,
iteration, ``tables_named`` (several tables may share a name), equality,
hashing, the ledger digest and the checkpoint JSON bytes.

The vectorized engine stores id-backed tables
(:class:`~repro.engine.interning.InternedTable`) in the same databases,
so the model test below mixes them, from two interners, with plain
tables: a database must behave exactly like a ``frozenset`` of tables
under any sequence of updates.
"""

from __future__ import annotations

import hashlib
import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import Name, SchemaError, Table, TabularDatabase, make_table
from repro.engine.interning import SymbolInterner
from repro.obs.ledger import database_digest
from repro.runtime.checkpoint import Checkpoint, table_to_data

from tabular_strategies import tables

NAMES = ("R", "S", "T")


@st.composite
def shuffled_tables(draw):
    """Tables over a few shared names (duplicates included) and a permutation."""
    drawn = draw(
        st.lists(
            st.sampled_from(NAMES).flatmap(lambda n: tables(max_width=3, max_height=3, name=n)),
            max_size=8,
        )
    )
    drawn += draw(st.lists(st.sampled_from(drawn), max_size=3)) if drawn else []
    return drawn, draw(st.permutations(drawn))


def reference(tables_in) -> tuple[Table, ...]:
    return tuple(sorted(set(tables_in), key=Table.sort_key))


def checkpoint_bytes(db_or_tables) -> str:
    if isinstance(db_or_tables, TabularDatabase):
        database = Checkpoint(0, 0, 0, db_or_tables, "f").to_json()["database"]
    else:
        database = [table_to_data(t) for t in db_or_tables]
    return json.dumps(database)


@given(shuffled_tables())
def test_ordered_views_match_the_eager_reference(case):
    inserted, permuted = case
    ref = reference(inserted)
    db, other = TabularDatabase(inserted), TabularDatabase(permuted)
    for lazy in (db, other):
        assert lazy.tables == ref
        assert tuple(lazy) == ref
        assert len(lazy) == len(ref)
        for name in NAMES:
            assert lazy.tables_named(name) == tuple(t for t in ref if t.name == Name(name))
    assert db == other and hash(db) == hash(other)
    assert db == TabularDatabase(ref) and hash(db) == hash(TabularDatabase(ref))
    assert all(t in other for t in inserted)


@given(shuffled_tables())
def test_serialised_forms_match_the_eager_reference(case):
    inserted, permuted = case
    ref = reference(inserted)
    payload = json.dumps(
        [table_to_data(t) for t in ref], separators=(",", ":"), sort_keys=True
    )
    expected = hashlib.sha256(payload.encode("utf-8")).hexdigest()
    for order in (inserted, permuted):
        db = TabularDatabase(order)
        assert database_digest(db)[0] == expected
        assert checkpoint_bytes(db) == checkpoint_bytes(ref)


@given(shuffled_tables(), st.sampled_from(NAMES), st.data())
def test_replacement_matches_the_eager_reference(case, name, data):
    inserted, permuted = case
    new = data.draw(st.lists(tables(max_width=2, max_height=2, name=name), max_size=3))
    replaced = TabularDatabase(permuted).replace_named(name, new)
    kept = [t for t in inserted if t.name != Name(name)]
    assert replaced.tables == reference(kept + new)
    assert replaced.tables_named(name) == reference(new)
    assert TabularDatabase(inserted).add(*new).tables == reference(inserted + new)


@pytest.mark.parametrize("bad", [1, "R", None, [make_table("R", ["A"], [])]])
def test_replacement_and_addition_reject_non_tables(bad):
    db = TabularDatabase([make_table("R", ["A"], [(1,)])])
    with pytest.raises(SchemaError):
        db.replace_named("R", [bad])
    with pytest.raises(SchemaError):
        db.add(bad)
    with pytest.raises(SchemaError):
        TabularDatabase([bad])


@pytest.mark.parametrize("bad", ["T", 1, None])
def test_with_name_rejects_a_non_symbol(bad):
    with pytest.raises(SchemaError):
        make_table("R", ["A"], [(1,)]).with_name(bad)


# ----------------------------------------------------------------------
# The database against a frozenset model, plain and id-backed tables mixed
# ----------------------------------------------------------------------

FORMS = ("grid", "first interner", "second interner")


def _interned(interner: SymbolInterner, table: Table) -> Table:
    idt = interner.intern_table(table)
    return interner.materialize(idt.name, idt.col_attrs, idt.row_attrs, idt.rows)


@st.composite
def table_pools(draw):
    """Grid tables over shared names, each also id-backed by two interners."""
    grids = draw(
        st.lists(
            st.sampled_from(NAMES).flatmap(
                lambda n: tables(max_width=2, max_height=2, name=n)
            ),
            min_size=1,
            max_size=6,
        )
    )
    first, second = SymbolInterner(), SymbolInterner()
    return [
        {"grid": t, "first interner": _interned(first, t),
         "second interner": _interned(second, t)}
        for t in grids
    ]


def _draw_tables(data, pool, max_size=3) -> list[Table]:
    picks = data.draw(
        st.lists(st.tuples(st.sampled_from(pool), st.sampled_from(FORMS)), max_size=max_size)
    )
    return [forms[form] for forms, form in picks]


OPERATIONS = ("replace_named", "without_name", "add", "remove", "union")


def _digest_of(ordered) -> str:
    payload = json.dumps(
        [table_to_data(t) for t in ordered], separators=(",", ":"), sort_keys=True
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@given(table_pools(), st.data())
def test_updates_match_a_frozenset_model(pool, data):
    db = TabularDatabase(_draw_tables(data, pool, max_size=6))
    model = frozenset(db)
    for _ in range(data.draw(st.integers(1, 6))):
        op = data.draw(st.sampled_from(OPERATIONS))
        name = Name(data.draw(st.sampled_from(NAMES)))
        drawn = _draw_tables(data, pool)
        if op == "replace_named":
            new = [t.with_name(name) for t in drawn]
            db = db.replace_named(name, new)
            model = frozenset(t for t in model if t.name != name) | frozenset(new)
        elif op == "without_name":
            db = db.without_name(name)
            model = frozenset(t for t in model if t.name != name)
        elif op == "add":
            db = db.add(*drawn)
            model = model | frozenset(drawn)
        elif op == "remove":
            db = db.remove(*drawn)
            model = model - frozenset(drawn)
        else:
            db = db | TabularDatabase(drawn)
            model = model | frozenset(drawn)

        ref = reference(model)
        assert len(db) == len(model)
        assert db == TabularDatabase(model) and TabularDatabase(ref) == db
        assert hash(db) == hash(model) == hash(TabularDatabase(ref))
        for forms in pool:
            for table in forms.values():
                assert (table in db) == (table in model)
        for candidate in NAMES:
            assert db.tables_named(candidate) == tuple(
                t for t in ref if t.name == Name(candidate)
            )
        assert db.tables == ref and tuple(db) == ref
        assert db.table_names() == frozenset(t.name for t in model)
        assert database_digest(db)[0] == _digest_of(ref)
        assert checkpoint_bytes(db) == checkpoint_bytes(ref)


@given(table_pools())
def test_an_id_backed_table_is_its_grid(pool):
    for forms in pool:
        grid, first, second = (forms[form] for form in FORMS)
        assert grid == first == second and first == grid and second == first
        assert hash(grid) == hash(first) == hash(second)
        assert first.name == grid.name and first.nrows == grid.nrows
        assert len(TabularDatabase([first, grid, second])) == 1
        assert len(TabularDatabase([grid]).add(first).remove(second)) == 0
