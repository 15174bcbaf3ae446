"""The lazy-order contract of :class:`TabularDatabase`.

A database stores its tables as a set and sorts them into canonical
order only when asked.  Whatever order the tables are inserted in, every
ordered view must equal the eager reference
``tuple(sorted(set(tables), key=Table.sort_key))``: ``.tables``,
iteration, ``tables_named`` (several tables may share a name), equality,
hashing, the ledger digest and the checkpoint JSON bytes.
"""

from __future__ import annotations

import hashlib
import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import Name, SchemaError, Table, TabularDatabase, make_table
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
