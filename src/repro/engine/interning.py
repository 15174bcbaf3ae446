"""Symbol interning and the id-column table representation.

The naive operations walk ``(m+1) × (n+1)`` grids of :class:`Symbol`
objects; every comparison pays Python-level ``__eq__``/``__hash__``
(a ``Name`` hashes a ``(type, text)`` tuple per call).  The vectorized
kernels instead work over an :class:`IdTable`: the same four-region
table with every symbol replaced by a small integer id from one
:class:`SymbolInterner`.  Two ids are equal iff the symbols are equal,
⊥ is always id 0 (so "non-null" is plain truthiness), and row/column
operations become tuple-of-int manipulations that hash and compare at C
speed.

A kernel's result never leaves id form on its own: ``materialize``
returns an :class:`InternedTable`, a :class:`Table` that holds
``(interner, IdTable)`` and builds its symbol grid only when something
reads it.  Its name, shape, renaming (``with_name``) and equality with
a table of the same interner answer from the ids, and
:meth:`SymbolInterner.cached` reads the id form straight off it, so the
next kernel takes it without touching a symbol.  A program statement
names each result after its target and stores it in the database, which
neither hashes nor sorts a single table: a vector run's intermediate
results stay ids from one statement to the next.  Grids are built where
something reads symbols — decoding the output, checkpoints and digests
(``sort_key``), lineage and naive fallbacks (the naive operation reads
the grid), hashing a group of same-named tables, and ordered reads.
An interned table keeps its interner, and so its run's symbol list,
alive.

Plain tables (the run's inputs, naive results) are interned once per
*object*: the interner keeps an ``id(table)``-keyed map validated (and
evicted) through weak references.

Interning canonicalizes equal symbols to one representative object
(e.g. two equal ``Name("A")`` instances share an id).  Grids built from
ids are therefore equal — cell by cell under ``Symbol.__eq__`` — to the
naive results, which is the equivalence the differential harness pins.
"""

from __future__ import annotations

import threading
import weakref
from typing import Iterable, Sequence

from ..core import NULL, SchemaError, Symbol, Table

__all__ = ["IdTable", "InternedTable", "SymbolInterner"]


class IdTable:
    """One table as integer ids: name, attribute regions, and id-data.

    ``rows`` holds the data rows left to right (no attribute slot) and
    ``cols[j]`` data column ``j+1`` top to bottom; whichever view the
    constructor was not given is derived on first read.  Ids refer to
    the owning interner's symbol list; 0 is always ⊥.
    """

    __slots__ = ("name", "col_attrs", "row_attrs", "_cols", "_rows")

    def __init__(
        self,
        name: int,
        col_attrs: tuple[int, ...],
        row_attrs: tuple[int, ...],
        cols: tuple[tuple[int, ...], ...] | None = None,
        rows: tuple[tuple[int, ...], ...] | None = None,
    ):
        if cols is None and rows is None:
            raise ValueError("IdTable needs cols or rows")
        self.name = name
        self.col_attrs = col_attrs
        self.row_attrs = row_attrs
        self._cols = cols
        self._rows = rows

    @property
    def cols(self) -> tuple[tuple[int, ...], ...]:
        """Column-major data ids (computed once from the rows)."""
        if self._cols is None:
            cols = tuple(zip(*self._rows)) if self._rows else ()
            self._cols = cols or tuple(() for _ in self.col_attrs)
        return self._cols

    @property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        """Row-major data ids (computed once from the columns)."""
        if self._rows is None:
            if self._cols and self.row_attrs:
                self._rows = tuple(zip(*self._cols))
            else:
                self._rows = tuple(() for _ in self.row_attrs)
        return self._rows

    @property
    def height(self) -> int:
        return len(self.row_attrs)

    @property
    def width(self) -> int:
        return len(self.col_attrs)

    def with_name(self, name: int) -> "IdTable":
        """The same ids under another name id (the data views are shared)."""
        return IdTable(name, self.col_attrs, self.row_attrs, self._cols, self._rows)

    def transposed(self) -> "IdTable":
        """The matrix transpose: attribute regions swap, data flips."""
        return IdTable(
            self.name, self.row_attrs, self.col_attrs, cols=self.rows, rows=self.cols
        )

    def same_ids(self, other: "IdTable") -> bool:
        """Equal ids everywhere, i.e. equal tables over one interner."""
        return (
            self.name == other.name
            and self.col_attrs == other.col_attrs
            and self.row_attrs == other.row_attrs
            and self.rows == other.rows
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"IdTable({self.height}x{self.width} name={self.name})"


class InternedTable(Table):
    """A :class:`Table` held as ``(interner, IdTable)``, grid built on demand.

    Kernel results are returned in this form.  Shape, name, renaming and
    equality with a table of the same interner answer from the ids; the
    first read of ``_grid`` (any other method, hashing, ``sort_key``)
    builds the symbol grid once, under a lock, and keeps it.  The table
    holds its interner, so it keeps its run's symbol list alive.
    """

    __slots__ = ("_interner", "_idt")

    def __init__(self, interner: "SymbolInterner", idt: IdTable):
        object.__setattr__(self, "_interner", interner)
        object.__setattr__(self, "_idt", idt)
        object.__setattr__(self, "_hash", None)
        object.__setattr__(self, "_sort_key", None)

    def __getattr__(self, attr: str):
        # Only reached while a slot is unset, i.e. before the grid exists.
        if attr != "_grid":
            raise AttributeError(attr)
        with _GRID_LOCK:
            try:
                return object.__getattribute__(self, "_grid")
            except AttributeError:
                grid = self._interner.grid(self._idt)
                object.__setattr__(self, "_grid", grid)
                return grid

    @property
    def name(self) -> Symbol:
        return self._interner._symbols[self._idt.name]

    @property
    def nrows(self) -> int:
        return len(self._idt.row_attrs) + 1

    @property
    def ncols(self) -> int:
        return len(self._idt.col_attrs) + 1

    def with_name(self, name: Symbol) -> Table:
        """A copy named ``name``: new name id, same data ids, no grid."""
        if not isinstance(name, Symbol):
            raise SchemaError(f"table name {name!r} is not a Symbol")
        interner = self._interner
        return InternedTable(interner, self._idt.with_name(interner.intern(name)))

    def __eq__(self, other) -> bool:
        if type(other) is InternedTable and other._interner is self._interner:
            return self._idt.same_ids(other._idt)
        return isinstance(other, Table) and other._grid == self._grid

    __hash__ = Table.__hash__


#: Serializes grid builds, so each :class:`InternedTable` builds one grid.
_GRID_LOCK = threading.Lock()


class SymbolInterner:
    """A bijection symbol ↔ small int, with a weak per-table cache.

    ⊥ is interned first so its id is 0; kernels rely on that for
    null-stripping via truthiness.  Minting a new id takes a lock, since
    an :class:`InternedTable` that outlives its run may be renamed from
    any thread.
    """

    __slots__ = ("_ids", "_symbols", "_cache", "_lock")

    #: Tables cached at once; the cache resets wholesale beyond this (a
    #: backstop — weakref callbacks already evict dead entries).
    CACHE_CAP = 4096

    def __init__(self):
        self._ids: dict[Symbol, int] = {NULL: 0}
        self._symbols: list[Symbol] = [NULL]
        self._cache: dict[int, tuple[weakref.ref, IdTable]] = {}
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._symbols)

    def intern(self, symbol: Symbol) -> int:
        """The id of ``symbol``, minting a new one on first sight."""
        i = self._ids.get(symbol)
        if i is None:
            with self._lock:
                i = self._ids.get(symbol)
                if i is None:
                    # Publish the symbol before its id: a reader that
                    # finds the id can always look the symbol up.
                    i = len(self._symbols)
                    self._symbols.append(symbol)
                    self._ids[symbol] = i
        return i

    def intern_all(self, symbols: Iterable[Symbol]) -> frozenset[int]:
        return frozenset(self.intern(s) for s in symbols)

    def symbol(self, i: int) -> Symbol:
        """The representative symbol for id ``i``."""
        return self._symbols[i]

    def _intern_row(self, row: Sequence[Symbol]) -> tuple[int, ...]:
        try:
            return tuple(map(self._ids.__getitem__, row))
        except KeyError:
            return tuple(self.intern(s) for s in row)

    def cached(self, table: Table) -> IdTable | None:
        """The id form of this very object, if this interner has it.

        An :class:`InternedTable` of this interner carries it; any other
        table has it once passed to :meth:`intern_table`.
        """
        if type(table) is InternedTable and table._interner is self:
            return table._idt
        hit = self._cache.get(id(table))
        if hit is not None and hit[0]() is table:
            return hit[1]
        return None

    def intern_table(self, table: Table) -> IdTable:
        """The :class:`IdTable` for ``table``, cached by object identity."""
        hit = self.cached(table)
        if hit is not None:
            return hit
        grid = table.grid
        header = self._intern_row(grid[0])
        body = [self._intern_row(row) for row in grid[1:]]
        idt = IdTable(
            header[0],
            header[1:],
            tuple(row[0] for row in body),
            rows=tuple(row[1:] for row in body),
        )
        self._remember(table, idt)
        return idt

    def materialize(
        self,
        name: int,
        col_attrs: Sequence[int],
        row_attrs: Sequence[int],
        rows: Sequence[Sequence[int]],
    ) -> Table:
        """The :class:`InternedTable` over these ids; no grid is built.

        Every id maps to an interned :class:`Symbol`, so only the row
        widths are checked, not each cell.
        """
        width = len(col_attrs)
        rows = tuple(map(tuple, rows))
        if rows and set(map(len, rows)) != {width}:
            i, row = next((i, r) for i, r in enumerate(rows) if len(r) != width)
            raise SchemaError(
                f"ragged grid: row {i + 1} has {len(row) + 1} entries, "
                f"expected {width + 1}"
            )
        return InternedTable(
            self, IdTable(name, tuple(col_attrs), tuple(row_attrs), rows=rows)
        )

    def grid(self, idt: IdTable) -> tuple[tuple[Symbol, ...], ...]:
        """The symbol grid of ``idt`` (representative symbols)."""
        lookup = self._symbols.__getitem__
        header = tuple(map(lookup, (idt.name, *idt.col_attrs)))
        return (header,) + tuple(
            tuple(map(lookup, (attr, *row)))
            for attr, row in zip(idt.row_attrs, idt.rows)
        )

    def renamed(self, table: Table, name: Symbol) -> Table:
        """``table.with_name(name)``, keeping ``table``'s interned form.

        An :class:`InternedTable` renames itself by id.  A plain table
        this interner has cached comes back as an :class:`InternedTable`
        that already holds the renamed grid, so the next kernel reading
        it does not re-intern the grid.
        """
        named = table.with_name(name)
        idt = self.cached(table)
        if idt is None or type(table) is InternedTable:
            return named
        interned = InternedTable(self, idt.with_name(self.intern(name)))
        object.__setattr__(interned, "_grid", named.grid)
        return interned

    def _remember(self, table: Table, idt: IdTable) -> None:
        if len(self._cache) >= self.CACHE_CAP:
            self._cache.clear()
        key = id(table)
        cache = self._cache

        def _evict(_ref, _key=key, _cache=cache):
            _cache.pop(_key, None)

        try:
            cache[key] = (weakref.ref(table, _evict), idt)
        except TypeError:  # pragma: no cover - Table is weak-referenceable
            pass
