"""Tabular databases — sets of tables.

A tabular database is a *set* of tables (paper, Section 2).  Unlike in the
relational model, several tables may carry the same name (``SalesInfo4`` in
Figure 1 has one ``Sales`` table per region, their number depending on the
instance), so lookup by name returns a tuple of tables.

Databases are immutable and are stored indexed by name: one group of
tables per table name.  A program statement ``T ← op(...)`` replaces the
tables named ``T`` (``replace_named``), which copies the name index and
touches only that group; the other groups are shared with the previous
database.  Set semantics are kept exactly: a group of two or more tables
is deduplicated by hashing its tables, equality, hashing and membership
are those of the set of all tables, and a single table is never hashed
on its way into a database.  That matters for tables whose grid is built
lazily (:class:`repro.engine.interning.InternedTable`): a statement stores
its result without building, hashing or sorting its symbols.

The canonical deterministic order (``Table.sort_key``) is an
implementation choice made lazily: it is computed the first time a
database is asked for its tables in order — ``.tables``, iteration,
rendering, serialisation (checkpoints, digests) — and cached on that
database.  So two databases built from the same tables in any order
compare equal, hash equal, and render identically.  ``tables_named``
sorts just the tables sharing the requested name, once per group: the
sorted group is kept in the index, and databases derived from this one
afterwards inherit it.  The order of several same-named tables drives
combination order and fresh-value minting.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, Iterator

from .errors import SchemaError
from .symbols import NULL, Name, Symbol
from .table import Table

__all__ = ["TabularDatabase"]

def _checked(tables: Iterable[Table]) -> list[Table]:
    tables = list(tables)
    # Checked before hashing: a non-table is a SchemaError, not a TypeError.
    for table in tables:
        if not isinstance(table, Table):
            raise SchemaError(f"a TabularDatabase holds Table objects, got {table!r}")
    return tables


def _group(tables: list[Table]) -> tuple[Table, ...] | list[Table]:
    """``tables`` (all of one name) deduplicated, as a stored group.

    A stored group is a tuple in canonical order, or a list of two or
    more distinct tables not sorted yet.  Only a group of two or more
    tables is hashed.
    """
    if len(tables) > 1:
        tables = list(dict.fromkeys(tables))
        if len(tables) > 1:
            return tables
    return tuple(tables)


def _merge(groups: dict, tables: list[Table]) -> None:
    """Add ``tables`` to the name index ``groups`` in place (set union)."""
    by_name: dict[Symbol, list[Table]] = {}
    for table in tables:
        by_name.setdefault(table.name, []).append(table)
    for name, added in by_name.items():
        present = groups.get(name)
        groups[name] = _group([*present, *added] if present else added)


def _same_group(left, right) -> bool:
    """Equal as sets; a single table is compared, never hashed."""
    if left is right:
        return True
    if len(left) != len(right):
        return False
    if len(left) == 1:
        return left[0] == right[0]
    return frozenset(left) == frozenset(right)


class TabularDatabase:
    """An immutable set of :class:`Table` objects.

    Supports the paper's notions directly:

    * ``db.table_names()`` — the names occurring as table names (a scheme
      for ``db`` is any finite superset of these inside 𝒩);
    * ``db.symbols()`` — ``|D|``, the set of symbols occurring in ``db``;
    * ``db.tables_named(n)`` — all tables named ``n`` (possibly several);
    * set-like combination (``|``), addition and replacement of tables.
    """

    __slots__ = ("_groups", "_len", "_ordered", "_hash")

    def __init__(self, tables: Iterable[Table] = ()):
        groups: dict = {}
        _merge(groups, _checked(tables))
        self._init(groups)

    def _init(self, groups: dict) -> None:
        object.__setattr__(self, "_groups", groups)
        object.__setattr__(self, "_len", sum(map(len, groups.values())))
        object.__setattr__(self, "_ordered", None)
        object.__setattr__(self, "_hash", None)

    @classmethod
    def _of_groups(cls, groups: dict) -> "TabularDatabase":
        """A database over an already-built name index (no re-check)."""
        db = object.__new__(cls)
        db._init(groups)
        return db

    def __setattr__(self, key, value):  # pragma: no cover - immutability guard
        raise AttributeError("TabularDatabase is immutable")

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------

    def _all(self) -> Iterator[Table]:
        """Every table, in no set order."""
        return chain.from_iterable(self._groups.values())

    @property
    def tables(self) -> tuple[Table, ...]:
        """All tables, in canonical order (sorted on first request, then cached)."""
        if self._ordered is None:
            object.__setattr__(
                self, "_ordered", tuple(sorted(self._all(), key=Table.sort_key))
            )
        return self._ordered

    def __len__(self) -> int:
        return self._len

    def __iter__(self) -> Iterator[Table]:
        return iter(self.tables)

    def __contains__(self, table: object) -> bool:
        return isinstance(table, Table) and table in self._groups.get(table.name, ())

    def is_empty(self) -> bool:
        """True iff the database holds no tables."""
        return not self._groups

    def tables_named(self, name: Symbol | str) -> tuple[Table, ...]:
        """All tables whose name position holds ``name``, in canonical order.

        A group of several tables is sorted on its first lookup only.
        """
        if isinstance(name, str):
            name = Name(name)
        found = self._groups.get(name, ())
        if type(found) is list:
            # sorted(), not list.sort(): another database or thread may
            # read the same list.
            found = self._groups[name] = tuple(sorted(found, key=Table.sort_key))
        return found

    def table(self, name: Symbol | str) -> Table:
        """The unique table named ``name``; raises if absent or ambiguous."""
        found = self.tables_named(name)
        if not found:
            raise SchemaError(f"no table named {name!s}")
        if len(found) > 1:
            raise SchemaError(f"{len(found)} tables named {name!s}; use tables_named()")
        return found[0]

    def table_names(self) -> frozenset[Symbol]:
        """The set of symbols used as table names."""
        return frozenset(self._groups)

    def symbols(self) -> frozenset[Symbol]:
        """``|D|`` — all symbols occurring anywhere in the database."""
        out: set[Symbol] = set()
        for table in self._all():
            out |= table.symbols()
        return frozenset(out)

    def names(self) -> frozenset[Name]:
        """All symbols of the name sort occurring in the database."""
        return frozenset(s for s in self.symbols() if isinstance(s, Name))

    def scheme(self) -> frozenset[Name]:
        """The minimal scheme: table names that are proper names.

        The paper allows any finite ``N ⊆ 𝒩`` containing all table names as
        a scheme; this returns the smallest such set.  Table names that are
        not of the name sort (⊥ or values) are not part of any scheme.
        """
        return frozenset(n for n in self.table_names() if isinstance(n, Name))

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def add(self, *tables: Table) -> "TabularDatabase":
        """A database with the given tables added (set union)."""
        groups = dict(self._groups)
        _merge(groups, _checked(tables))
        return TabularDatabase._of_groups(groups)

    def remove(self, *tables: Table) -> "TabularDatabase":
        """A database with the given tables removed (missing ones ignored)."""
        groups = dict(self._groups)
        for table in tables:
            group = groups.get(table.name) if isinstance(table, Table) else None
            if group is None or table not in group:
                continue
            kept = [t for t in group if t != table]
            if not kept:
                del groups[table.name]
            elif type(group) is list and len(kept) > 1:
                groups[table.name] = kept
            else:  # removing keeps a sorted group sorted
                groups[table.name] = tuple(kept)
        return TabularDatabase._of_groups(groups)

    def without_name(self, name: Symbol | str) -> "TabularDatabase":
        """A database with every table named ``name`` removed."""
        if isinstance(name, str):
            name = Name(name)
        if name not in self._groups:
            return self
        groups = dict(self._groups)
        del groups[name]
        return TabularDatabase._of_groups(groups)

    def replace_named(self, name: Symbol | str, tables: Iterable[Table]) -> "TabularDatabase":
        """Assignment semantics: drop all tables named ``name``, add ``tables``.

        This is how ``T ← op(...)`` statements update the database (DESIGN.md
        interpretation decision 13).  Only the group of ``name`` (and of any
        other name among ``tables``) changes.
        """
        if isinstance(name, str):
            name = Name(name)
        groups = dict(self._groups)
        groups.pop(name, None)
        _merge(groups, _checked(tables))
        return TabularDatabase._of_groups(groups)

    def __or__(self, other: "TabularDatabase") -> "TabularDatabase":
        if not isinstance(other, TabularDatabase):
            return NotImplemented
        groups = dict(self._groups)
        for name, group in other._groups.items():
            present = groups.get(name)
            groups[name] = _group([*present, *group]) if present else group
        return TabularDatabase._of_groups(groups)

    # ------------------------------------------------------------------
    # Equality
    # ------------------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, TabularDatabase):
            return False
        if self is other:
            return True
        theirs = other._groups
        return (
            self._len == other._len
            and self._groups.keys() == theirs.keys()
            and all(_same_group(group, theirs[name]) for name, group in self._groups.items())
        )

    def __hash__(self) -> int:
        if self._hash is None:
            object.__setattr__(self, "_hash", hash(frozenset(self._all())))
        return self._hash

    def equivalent(self, other: "TabularDatabase") -> bool:
        """Equality up to row/column permutations inside the tables.

        Two databases are identified when their tables pairwise match up to
        permutations of non-attribute rows and columns (the paper's
        condition (iii) on isomorphisms, with the identity on symbols).
        """
        if len(self) != len(other):
            return False
        remaining = list(other.tables)
        for table in self.tables:
            for candidate in remaining:
                if table.equivalent(candidate):
                    remaining.remove(candidate)
                    break
            else:
                return False
        return not remaining

    def __repr__(self) -> str:
        names = ", ".join(sorted(str(t.name) for t in self._all()))
        return f"TabularDatabase({self._len} tables: {names})"

    def __str__(self) -> str:
        from .render import render_database

        return render_database(self)
