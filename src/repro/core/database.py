"""Tabular databases — sets of tables.

A tabular database is a *set* of tables (paper, Section 2).  Unlike in the
relational model, several tables may carry the same name (``SalesInfo4`` in
Figure 1 has one ``Sales`` table per region, their number depending on the
instance), so lookup by name returns a tuple of tables.

Databases are immutable and are stored as a set: building one only
deduplicates its tables, and equality, hashing and membership are those of
the set.  The canonical deterministic order (``Table.sort_key``) is an
implementation choice made lazily: it is computed the first time a database
is asked for its tables in order — ``.tables``, iteration, rendering,
serialisation (checkpoints, digests) — and cached on that database.  So two
databases built from the same tables in any order compare equal, hash
equal, and render identically, while a program statement that only replaces
the tables of one name never sorts the whole database.  ``tables_named``
sorts just the tables sharing the requested name, because the order of
several same-named tables drives combination order and fresh-value minting.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, Iterator, Sequence

from .errors import SchemaError
from .symbols import NULL, Name, Symbol
from .table import Table

__all__ = ["TabularDatabase"]


class TabularDatabase:
    """An immutable set of :class:`Table` objects.

    Supports the paper's notions directly:

    * ``db.table_names()`` — the names occurring as table names (a scheme
      for ``db`` is any finite superset of these inside 𝒩);
    * ``db.symbols()`` — ``|D|``, the set of symbols occurring in ``db``;
    * ``db.tables_named(n)`` — all tables named ``n`` (possibly several);
    * set-like combination (``|``), addition and replacement of tables.
    """

    __slots__ = ("_set", "_ordered", "_by_name")

    def __init__(self, tables: Iterable[Table] = ()):
        if not isinstance(tables, (frozenset, set, tuple, list)):
            tables = tuple(tables)
        # Checked before hashing: a non-table is a SchemaError, not a TypeError.
        for table in tables:
            if not isinstance(table, Table):
                raise SchemaError(f"a TabularDatabase holds Table objects, got {table!r}")
        object.__setattr__(self, "_set", frozenset(tables))
        object.__setattr__(self, "_ordered", None)
        object.__setattr__(self, "_by_name", None)

    def __setattr__(self, key, value):  # pragma: no cover - immutability guard
        raise AttributeError("TabularDatabase is immutable")

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------

    @property
    def tables(self) -> tuple[Table, ...]:
        """All tables, in canonical order (sorted on first request, then cached)."""
        if self._ordered is None:
            object.__setattr__(
                self, "_ordered", tuple(sorted(self._set, key=Table.sort_key))
            )
        return self._ordered

    def __len__(self) -> int:
        return len(self._set)

    def __iter__(self) -> Iterator[Table]:
        return iter(self.tables)

    def __contains__(self, table: object) -> bool:
        return table in self._set

    def is_empty(self) -> bool:
        """True iff the database holds no tables."""
        return not self._set

    def _named(self, name: Symbol) -> Sequence[Table]:
        """The tables named ``name`` in no set order; grouped once per database."""
        by_name = self._by_name
        if by_name is None:
            by_name = {}
            for table in self._set:
                by_name.setdefault(table.name, []).append(table)
            object.__setattr__(self, "_by_name", by_name)
        return by_name.get(name, ())

    def tables_named(self, name: Symbol | str) -> tuple[Table, ...]:
        """All tables whose name position holds ``name``, in canonical order.

        A group of several tables is sorted on its first lookup only.
        """
        if isinstance(name, str):
            name = Name(name)
        found = self._named(name)
        if type(found) is list:
            # sorted(), not list.sort(): another thread may read the group.
            ordered = sorted(found, key=Table.sort_key) if len(found) > 1 else found
            found = self._by_name[name] = tuple(ordered)
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
        return frozenset(t.name for t in self._set)

    def symbols(self) -> frozenset[Symbol]:
        """``|D|`` — all symbols occurring anywhere in the database."""
        out: set[Symbol] = set()
        for table in self._set:
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
        return TabularDatabase(chain(self._set, tables))

    def remove(self, *tables: Table) -> "TabularDatabase":
        """A database with the given tables removed (missing ones ignored)."""
        return TabularDatabase(self._set.difference(tables))

    def without_name(self, name: Symbol | str) -> "TabularDatabase":
        """A database with every table named ``name`` removed."""
        if isinstance(name, str):
            name = Name(name)
        return TabularDatabase(self._set.difference(self._named(name)))

    def replace_named(self, name: Symbol | str, tables: Iterable[Table]) -> "TabularDatabase":
        """Assignment semantics: drop all tables named ``name``, add ``tables``.

        This is how ``T ← op(...)`` statements update the database (DESIGN.md
        interpretation decision 13).
        """
        return self.without_name(name).add(*tables)

    def __or__(self, other: "TabularDatabase") -> "TabularDatabase":
        if not isinstance(other, TabularDatabase):
            return NotImplemented
        return TabularDatabase(self._set | other._set)

    # ------------------------------------------------------------------
    # Equality
    # ------------------------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, TabularDatabase) and other._set == self._set

    def __hash__(self) -> int:
        return hash(self._set)

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
        names = ", ".join(sorted(str(t.name) for t in self._set))
        return f"TabularDatabase({len(self._set)} tables: {names})"

    def __str__(self) -> str:
        from .render import render_database

        return render_database(self)
