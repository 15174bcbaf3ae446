"""Checkpoint/resume for tabular algebra programs.

A checkpoint captures the complete interpreter environment at a
statement boundary — the database, the fresh-value source's next tag,
the index of the next top-level statement, and the while-iteration count
— as a JSON file.  Because TA execution is deterministic given those
four pieces (the paper's transformation condition (iv): determinacy up
to the choice of new values, which the fresh source fixes), a
deadline-killed or cancelled run restarted from its last checkpoint
produces the *identical* final database, bit for bit, tagged values
included.

Granularity: checkpoints are written after every completed **top-level**
statement, and — inside a **top-level** while loop — after every
completed statement of the loop body (the paper's programs put the
fixpoint loop at the top level, so this is where the long-running work
lives, and a compiled fixpoint body is a long straight-line block of
small TA assignments).  Statements nested any deeper commit atomically
with their enclosing body statement.  This keeps the inter-checkpoint
stride small enough that even a tight deadline re-applied on every
resume still makes forward progress.

:func:`run_hardened` runs a
:class:`~repro.algebra.programs.statements.Program` through the one
interpreter, :meth:`~repro.algebra.programs.statements.Interpreter.run`,
under an optional :func:`~repro.runtime.governor.governed` scope.  It
hands the interpreter a checkpoint writer as its ``boundary`` hook, so
the interpreter decides where the restart points fall and its
snapshot-and-commit step rolls a failed statement's minted tags back;
on ``resume=True`` it restores state from the checkpoint file and
re-enters the program at the recorded boundary instead of starting over.

Encoding: a statement replaces only the tables carrying its target name,
so each table's encoded grid and its JSON text are memoized per table
object, and :func:`save_checkpoint` encodes only the small header and
splices the cached table texts in.  The file is byte for byte
``json.dumps(checkpoint.to_json()) + "\\n"`` (format 1, unchanged), and a
checkpoint pays encoding only for the tables its statement replaced.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import weakref
from dataclasses import dataclass
from pathlib import Path

from ..context import current
from ..core.database import TabularDatabase
from ..core.errors import CheckpointError
from ..core.symbols import NULL, FreshValueSource, Name, Symbol, TaggedValue, Value
from ..core.table import Table
from .faults import FaultPlan
from .governor import Limits, ResourceGovernor, governed

__all__ = [
    "CHECKPOINT_FORMAT",
    "Checkpoint",
    "symbol_to_data",
    "symbol_from_data",
    "table_to_data",
    "table_from_data",
    "database_to_data",
    "database_from_data",
    "program_fingerprint",
    "save_checkpoint",
    "load_checkpoint",
    "run_hardened",
]

#: Version stamp written into checkpoint files.
CHECKPOINT_FORMAT = 1


# ----------------------------------------------------------------------
# Symbol / table / database serialization
# ----------------------------------------------------------------------

def symbol_to_data(symbol: Symbol) -> list:
    """A JSON-stable encoding of one symbol: ``[sort, payload?]``."""
    if symbol.is_null:
        return ["0"]
    if isinstance(symbol, Name):
        return ["n", symbol.text]
    if isinstance(symbol, TaggedValue):
        return ["t", symbol.payload]
    if isinstance(symbol, Value):
        payload = symbol.payload
        if not isinstance(payload, (str, int, float, bool)):
            raise CheckpointError(
                f"cannot checkpoint a Value with non-JSON payload {payload!r}"
            )
        return ["v", payload]
    raise CheckpointError(f"cannot checkpoint symbol {symbol!r}")


def symbol_from_data(data: list) -> Symbol:
    """Invert :func:`symbol_to_data`."""
    try:
        sort = data[0]
        if sort == "0":
            return NULL
        if sort == "n":
            return Name(data[1])
        if sort == "t":
            return TaggedValue(data[1])
        if sort == "v":
            return Value(data[1])
    except (IndexError, TypeError, ValueError) as err:
        raise CheckpointError(f"malformed symbol encoding {data!r}") from err
    raise CheckpointError(f"unknown symbol sort in {data!r}")


#: Encoded-table memo, keyed by table object identity and validated (and
#: evicted) through weak references.  Each entry holds ``[ref, grid,
#: text]``: the encoded grid (nested lists) and, once a checkpoint has
#: asked for it, that grid's JSON text.  Checkpoints are written after
#: *every* statement, but a statement replaces only the tables carrying
#: its target name — the rest of the database is the same objects, and a
#: while-fixpoint re-encoding its whole database each body statement
#: would otherwise redo that work (to lists and to text) quadratically.
#: The cap is a backstop only; dead tables evict themselves.
_TABLE_DATA_CACHE: dict[int, list] = {}
_TABLE_DATA_CACHE_CAP = 8192


def _table_entry(table: Table) -> list:
    """The memo entry ``[ref, grid, text-or-None]`` for one table object."""
    key = id(table)
    hit = _TABLE_DATA_CACHE.get(key)
    if hit is not None and hit[0]() is table:
        return hit
    grid = [[symbol_to_data(symbol) for symbol in row] for row in table.grid]
    entry = [None, grid, None]
    if len(_TABLE_DATA_CACHE) >= _TABLE_DATA_CACHE_CAP:
        _TABLE_DATA_CACHE.clear()
    cache = _TABLE_DATA_CACHE

    def _evict(_ref, _key=key, _cache=cache):
        _cache.pop(_key, None)

    try:
        entry[0] = weakref.ref(table, _evict)
        cache[key] = entry
    except TypeError:  # pragma: no cover - Table is weak-referenceable
        pass
    return entry


def table_to_data(table: Table) -> list:
    """One table as its encoded grid (row-major), memoized per object.

    Tables are immutable and hash-caching, so the encoding of a given
    object never changes; callers must treat the returned structure as
    read-only (``json.dumps`` does).
    """
    return _table_entry(table)[1]


def _table_text(table: Table) -> str:
    """``json.dumps(table_to_data(table))``, memoized with the grid."""
    entry = _table_entry(table)
    text = entry[2]
    if text is None:
        text = entry[2] = json.dumps(entry[1])
    return text


def table_from_data(data: list) -> Table:
    if not isinstance(data, list):
        raise CheckpointError(f"malformed table encoding {data!r}")
    return Table([[symbol_from_data(entry) for entry in row] for row in data])


def database_to_data(db: TabularDatabase) -> list:
    return [table_to_data(table) for table in db.tables]


def database_from_data(data: list) -> TabularDatabase:
    if not isinstance(data, list):
        raise CheckpointError(f"malformed database encoding {data!r}")
    return TabularDatabase(table_from_data(entry) for entry in data)


def program_fingerprint(program) -> str:
    """A stable digest of the program text, pinned into every checkpoint.

    Resuming under a *different* program would silently produce garbage;
    the fingerprint turns that into a typed :class:`CheckpointError`.
    """
    return hashlib.sha256(repr(program).encode("utf-8")).hexdigest()[:16]


# ----------------------------------------------------------------------
# Checkpoint files
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Checkpoint:
    """One restorable execution state at a statement boundary.

    ``statement_index`` is the top-level statement to (re-)enter;
    ``body_index`` is non-zero only inside a top-level while loop, where
    it names the next statement of the loop body (0 = at the loop
    boundary, about to re-test the condition).
    """

    statement_index: int
    iterations: int
    next_tag: int
    db: TabularDatabase
    fingerprint: str
    body_index: int = 0
    done: bool = False

    def header(self) -> dict:
        """Every field of :meth:`to_json` but the (last) ``database``."""
        return {
            "format": CHECKPOINT_FORMAT,
            "fingerprint": self.fingerprint,
            "statement_index": self.statement_index,
            "body_index": self.body_index,
            "iterations": self.iterations,
            "next_tag": self.next_tag,
            "done": self.done,
        }

    def to_json(self) -> dict:
        return {**self.header(), "database": database_to_data(self.db)}

    def encode(self) -> str:
        """The file text: ``json.dumps(self.to_json()) + "\\n"``, byte for byte.

        ``database`` is the last key and the default separators are
        ``", "`` and ``": "``, so the memoized table texts splice into
        the header's own encoding unchanged.
        """
        head = json.dumps(self.header())
        tables = ", ".join([_table_text(table) for table in self.db.tables])
        return f'{head[:-1]}, "database": [{tables}]}}\n'


def save_checkpoint(path: str | Path, checkpoint: Checkpoint) -> Path:
    """Write one checkpoint crash-atomically.

    The payload goes to a sibling temp file, is fsynced, and then
    renamed over the target: a ``kill -9`` at any instant leaves either
    the previous complete checkpoint or the new complete one — never a
    truncated file.  (The directory entry itself is not fsynced: losing
    the *rename* to a power cut re-exposes the previous checkpoint,
    which is still a valid resume point; what must never exist is a torn
    file, and the data fsync before the rename guarantees that.)  A
    failed write removes its temp file, best effort, and raises
    :class:`CheckpointError`; the previous checkpoint stays in place.
    """
    path = Path(path)
    tmp = path.with_suffix(path.suffix + ".tmp")
    payload = checkpoint.encode()
    try:
        with tmp.open("w") as handle:
            handle.write(payload)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except OSError as err:
        with contextlib.suppress(OSError):
            tmp.unlink(missing_ok=True)
        raise CheckpointError(f"cannot write checkpoint {path}: {err}") from err
    return path


def load_checkpoint(path: str | Path, program=None) -> Checkpoint:
    """Read one checkpoint; verify format and (optionally) the program.

    ``program``, when given, must fingerprint-match the checkpoint —
    resuming a checkpoint under a different program raises.
    """
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except OSError as err:
        raise CheckpointError(f"cannot read checkpoint {path}: {err}") from err
    except ValueError as err:
        raise CheckpointError(f"checkpoint {path} is not valid JSON: {err}") from err
    if not isinstance(data, dict) or data.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError(
            f"checkpoint {path} has format {data.get('format') if isinstance(data, dict) else '?'!r}; "
            f"expected {CHECKPOINT_FORMAT}"
        )
    fingerprint = str(data.get("fingerprint", ""))
    if program is not None and fingerprint != program_fingerprint(program):
        raise CheckpointError(
            f"checkpoint {path} was taken from a different program "
            f"(fingerprint {fingerprint} != {program_fingerprint(program)})"
        )
    try:
        return Checkpoint(
            statement_index=int(data["statement_index"]),
            iterations=int(data["iterations"]),
            next_tag=int(data["next_tag"]),
            db=database_from_data(data["database"]),
            fingerprint=fingerprint,
            body_index=int(data.get("body_index", 0)),
            done=bool(data.get("done", False)),
        )
    except (KeyError, TypeError, ValueError) as err:
        raise CheckpointError(f"checkpoint {path} is malformed: {err}") from err


# ----------------------------------------------------------------------
# The hardened driver
# ----------------------------------------------------------------------

def run_hardened(
    program,
    db: TabularDatabase,
    *,
    fresh: FreshValueSource | None = None,
    limits: Limits | None = None,
    faults: FaultPlan | None = None,
    governor: ResourceGovernor | None = None,
    checkpoint_path: str | Path | None = None,
    resume: bool = False,
    max_while_iterations: int = 10_000,
    engine: str | None = None,
) -> TabularDatabase:
    """Run a TA program under the governor with checkpoint/resume.

    Equivalent to ``program.run(db)`` — same interpreter, same result —
    and additionally:

    * a :class:`~repro.runtime.governor.ResourceGovernor` over ``limits``
      (and/or a :class:`~repro.runtime.faults.FaultPlan`) is installed
      around the whole run;
    * at every interpreter boundary (the entry state, each completed
      top-level statement, and each completed body statement of a
      top-level while loop) the environment is serialized to
      ``checkpoint_path`` (when given);
    * ``resume=True`` restores the environment from ``checkpoint_path``
      and continues from the recorded boundary — a killed run re-driven
      this way yields the identical final database;
    * ``engine="vector"`` plans the program (product/select fusion) and
      routes operation dispatch through the vectorized kernels; the
      checkpoint fingerprint covers the *planned* program, so a resume
      must use the same engine the original run did.  Callers that
      optimize do so before calling, and the fingerprint then covers
      the optimized program.
    """
    from ..algebra.programs.statements import Interpreter, Program
    from ..engine.run import prepare_program

    if not isinstance(program, Program):
        raise CheckpointError(f"run_hardened drives TA Programs, got {program!r}")
    program, scope = prepare_program(program, engine=engine)

    interp = Interpreter(fresh=fresh, max_while_iterations=max_while_iterations)
    fingerprint = program_fingerprint(program)
    start = (0, 0, 0)

    if resume:
        if checkpoint_path is None:
            raise CheckpointError("resume=True requires a checkpoint_path")
        checkpoint = load_checkpoint(checkpoint_path, program)
        db = checkpoint.db
        start = (checkpoint.statement_index, checkpoint.body_index, checkpoint.iterations)
        interp.fresh.reset_to(checkpoint.next_tag)
        bus = current().bus
        if bus is not None:
            bus.publish(
                "checkpoint_restore",
                path=str(checkpoint_path),
                statement_index=start[0],
                body_index=start[1],
                iteration=start[2],
                done=checkpoint.done,
            )
        if checkpoint.done:
            return db

    def write(database: TabularDatabase, index: int, body_index: int,
              iteration: int, done: bool = False) -> None:
        save_checkpoint(
            checkpoint_path,
            Checkpoint(
                statement_index=index,
                iterations=iteration,
                next_tag=interp.fresh.next_tag,
                db=database,
                fingerprint=fingerprint,
                body_index=body_index,
                done=done,
            ),
        )
        bus = current().bus
        if bus is not None:
            bus.publish(
                "checkpoint_write",
                path=str(checkpoint_path),
                statement_index=index,
                body_index=body_index,
                iteration=iteration,
                done=done,
            )

    if checkpoint_path is not None:
        interp.boundary = write

    with scope, governed(limits, faults=faults, governor=governor) as gov:
        bus = current().bus
        if bus is not None:
            bus.publish(
                "run_start",
                statements=len(program.statements),
                resume=resume,
                engine=engine or "naive",
                start_index=start[0],
            )
        try:
            db = interp.run(program, db, start)
        except BaseException as err:
            # Outcome stamping: the bus sees *every* run end, not just
            # the clean ones, so a ledger recorder can attribute the
            # outcome without being handed the exception out of band.
            if bus is not None:
                from ..core.errors import BudgetExceededError, CancelledError

                outcome = (
                    "killed"
                    if isinstance(err, (BudgetExceededError, CancelledError))
                    else "error"
                )
                bus.publish(
                    "run_finish",
                    governor=gov.snapshot(),
                    outcome=outcome,
                    error_type=type(err).__name__,
                )
            raise
        if checkpoint_path is not None:
            write(db, len(program.statements), 0, 0, done=True)
        if bus is not None:
            bus.publish("run_finish", governor=gov.snapshot(), outcome="ok")
    return db
