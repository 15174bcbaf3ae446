"""The benchmark's three workloads: inputs from a seed, references, requests.

Each workload's :func:`setup` builds one *cycle*: a fixed list of
:class:`Request` objects that the closed loop in ``run.py`` sends in
order, over and over.  A request's ``call`` is the timed work; its
``check`` compares the output with a reference computed here, during
set-up, by an independent evaluator (native transitive closure, native
SchemaLog evaluation, or a plain untraced ``Program.run``).

Cycle design.  Every cycle has 5 or 15 entries whose costs differ.  With
``N`` equally frequent entries sorted by cost, the sample median sits at
rank ``N/2`` and the 90th percentile at rank ``0.9·N``; for ``N`` an odd
multiple of 5 both ranks fall in the *middle* of one entry's cluster of
samples rather than on the edge between two entries, so the reported
percentiles do not jump when a run ends one request earlier or later.
The seed changes the data (node labels, edge choices, sales figures)
and where the cycle starts, but never the shape or size of an entry, so
two seeds cost the same up to the data's own variation.  The journaled
workload runs the paper's fixed pipelines: there the seed only picks the
starting point.

Every call into the program goes through a module attribute (``run_mod.
run_program``, ``schemalog.evaluate`` ...), never a name bound at import,
so the tracer in ``tracing.py`` can wrap it from outside.  The checks
use functions bound here at import, which the tracer does not wrap, so
checking is never attributed to a layer.
"""

from __future__ import annotations

import random
import shutil
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter_ns
from typing import Callable

import repro.engine.run as run_mod
import repro.relational as relational
import repro.schemalog as schemalog
from repro.core import database
from repro.engine.runtime import VectorEngine
from repro.obs.examples import EXAMPLES
from repro.obs.ledger import RunLedger, database_digest
from repro.obs.stats import analyze_database
from repro.relational import (
    Assign,
    Difference,
    FWProgram,
    Join,
    Project,
    Rel,
    Relation,
    RelationalDatabase,
    RenameAttr,
    Union,
    WhileNotEmpty,
    table_to_relation,
)
from repro.runtime.supervisor import Supervisor

import bench_thm45_schemalog as thm45

__all__ = ["Request", "Workload", "WORKLOADS", "setup"]


@dataclass
class Request:
    """One entry of a workload's cycle."""

    label: str
    call: Callable[[], object]
    check: Callable[[object], bool]


@dataclass
class Workload:
    """A set-up workload: its request cycle and the engines it ran."""

    name: str
    cycle: list[Request]
    #: Kernel calls and naive fallbacks summed over the ``VectorEngine``
    #: backends the requests handed to ``run_program``.
    engine_stats: dict
    #: Called between cycles (the journaled workload opens a new ledger).
    between_cycles: Callable[[], None] = lambda: None
    #: Per-request (simulated, native) seconds, federation only.
    split_times: list | None = None


def _interleave(requests: list[Request], copies: dict[str, int]) -> list[Request]:
    """Round-robin over the requests until each appears ``copies`` times."""
    left = {r.label: copies[r.label] for r in requests}
    out = []
    while any(left.values()):
        for request in requests:
            if left[request.label]:
                left[request.label] -= 1
                out.append(request)
    return out


def _rotated(cycle: list[Request], seed: int) -> list[Request]:
    """The cycle started at a seeded position.

    Only the starting point moves: the order within the cycle stays fixed,
    so every seed meets the same sequence of program states (caches the
    program keeps between requests behave alike).
    """
    start = seed % len(cycle)
    return cycle[start:] + cycle[:start]


def _engine_stats() -> dict:
    return {"kernel_calls": 0, "fallbacks": 0}


def _fold(total: dict, backend: VectorEngine) -> None:
    for key in total:
        total[key] += backend.stats[key]


# ----------------------------------------------------------------------
# tc-fixpoint: Theorem 4.1, FO+while transitive closure on the vector engine
# ----------------------------------------------------------------------

def _tc_fw_program() -> FWProgram:
    """The Delta-driven transitive closure of ``E(Src, Dst)``."""
    step = Project(
        Join(RenameAttr(Rel("TC"), "Dst", "Mid"), RenameAttr(Rel("E"), "Src", "Mid")),
        ["Src", "Dst"],
    )
    return FWProgram(
        [
            Assign("TC", Rel("E")),
            Assign("Delta", Rel("E")),
            WhileNotEmpty(
                "Delta",
                [
                    Assign("New", step),
                    Assign("Delta", Difference(Rel("New"), Rel("TC"))),
                    Assign("TC", Union(Rel("TC"), Rel("Delta"))),
                ],
            ),
        ]
    )


def _chain(nodes: int, rng: random.Random) -> list[tuple[int, int]]:
    """A path over ``nodes`` seeded labels: ``nodes - 2`` fixpoint rounds."""
    labels = rng.sample(range(100, 1000), nodes)
    return [(labels[i], labels[i + 1]) for i in range(nodes - 1)]


def _layered_dag(layers: int, width: int, degree: int, rng: random.Random):
    """``layers`` layers of ``width`` nodes, each with ``degree`` random
    edges into the next layer: few fixpoint rounds, wide joins, and a
    closure whose size barely depends on the seed (reachability saturates
    after two or three layers)."""
    labels = rng.sample(range(100, 1000), layers * width)
    tiers = [labels[i * width:(i + 1) * width] for i in range(layers)]
    edges = set()
    for upper, lower in zip(tiers, tiers[1:]):
        for node in upper:
            for target in rng.sample(lower, degree):
                edges.add((node, target))
    return sorted(edges)


#: The cycle's graphs, cheapest first at the parent commit; the median
#: lands on the 18-node chain and the 90th percentile on the 24-node one.
TC_GRAPHS = (
    ("chain12", lambda rng: _chain(12, rng)),
    ("dag4x16", lambda rng: _layered_dag(4, 16, 3, rng)),
    ("chain18", lambda rng: _chain(18, rng)),
    ("dag6x8", lambda rng: _layered_dag(6, 8, 3, rng)),
    ("chain24", lambda rng: _chain(24, rng)),
)


def _setup_tc(seed: int, work: Path) -> Workload:
    rng = random.Random(seed)
    fw = _tc_fw_program()
    program = relational.compile_program(fw, {"E": ("Src", "Dst")})
    engine_stats = _engine_stats()
    cycle = []
    for label, make in TC_GRAPHS:
        edges = Relation("E", ["Src", "Dst"], make(rng))
        source = RelationalDatabase([edges])
        expected = fw.run(source).relation("TC").tuples
        db = relational.relational_to_tabular(source)

        def call(db=db):
            backend = VectorEngine()
            out = run_mod.run_program(program, db, engine="vector", backend=backend)
            _fold(engine_stats, backend)
            return out

        def check(out, expected=expected):
            (tc,) = out.tables_named("TC")
            return table_to_relation(tc, ("Src", "Dst")).tuples == expected

        cycle.append(Request(label, call, check))
    return Workload("tc-fixpoint", _rotated(cycle, seed), engine_stats)


# ----------------------------------------------------------------------
# federation: Theorem 4.5, SchemaLog natively and through its TA compilation
# ----------------------------------------------------------------------

#: (program, parts): the first-order PROGRAM alternates with the
#: higher-order COPY_ALL; the median lands on PROGRAM at 32 parts and the
#: 90th percentile on PROGRAM at 64 parts.
FEDERATION_MIX = (
    ("program", 32),
    ("copy_all", 40),
    ("program", 48),
    ("copy_all", 56),
    ("program", 64),
)


def _setup_federation(seed: int, work: Path) -> Workload:
    programs = {"program": thm45.PROGRAM, "copy_all": thm45.COPY_ALL}
    engine_stats = _engine_stats()
    split_times: list = []
    cycle = []
    for kind, parts in FEDERATION_MIX:
        program = programs[kind]
        facts = thm45.federation(parts, seed * 1000 + parts)
        expected = schemalog.evaluate(program, facts)
        stats = analyze_database(database(facts.facts_table()))

        def call(program=program, facts=facts, stats=stats):
            started = perf_counter_ns()
            native = schemalog.evaluate(program, facts)
            middle = perf_counter_ns()
            compiled = schemalog.compile_to_ta(program)
            db = database(facts.facts_table())
            backend = VectorEngine()
            out = run_mod.run_program(
                compiled, db, engine="vector", optimize=True, stats=stats,
                backend=backend,
            )
            _fold(engine_stats, backend)
            (derived,) = out.tables_named(schemalog.DERIVED)
            simulated = schemalog.SchemaLogDatabase.from_facts_relation(
                relational.table_to_relation(derived).with_name("Facts")
            )
            split_times.append(((perf_counter_ns() - middle) * 1e-9, (middle - started) * 1e-9))
            return native, simulated

        def check(out, expected=expected):
            native, simulated = out
            return native == expected and simulated == expected

        cycle.append(Request(f"{kind}{parts}", call, check))
    return Workload("federation", cycle, engine_stats, split_times=split_times)


# ----------------------------------------------------------------------
# journaled: supervised naive runs with a ledger and a checkpoint file
# ----------------------------------------------------------------------

#: (pipeline, entries per cycle): 15 entries, so the median falls in
#: the ``good`` samples and the 90th percentile in the middle of the
#: ``schemalog`` ones.  ``tc:12`` is left out: like ``schemalog`` it is a
#: naive while-fixpoint checkpointed at every body statement, but its
#: per-request time flips between two levels about 2x apart, which moved
#: the 90th percentile by a fifth between runs.  The transitive closure
#: itself is the tc-fixpoint workload.
JOURNALED_MIX = (
    ("fig4-group", 2),
    ("fig5-merge", 2),
    ("pivot", 2),
    ("good", 6),
    ("schemalog", 3),
)


def _pipeline(name: str):
    """``(program, db)`` of a bundled example."""
    db, run = EXAMPLES[name].setup()
    return run.__self__, db


def _setup_journaled(seed: int, work: Path) -> Workload:
    checkpoint = work / "checkpoint.json"
    current = {"n": 0, "supervisor": None}

    def new_ledger() -> None:
        """A fresh ledger per cycle: its index rewrite grows with the
        number of runs it holds, so a run-long ledger would make the
        per-request cost depend on how many requests the run fitted."""
        previous = work / f"ledger-{current['n']}"
        current["n"] += 1
        shutil.rmtree(previous, ignore_errors=True)
        ledger = RunLedger(work / f"ledger-{current['n']}")
        current["supervisor"] = Supervisor(ledger=ledger)

    cycle = []
    for name in dict(JOURNALED_MIX):
        program, db = _pipeline(name)
        expected = database_digest(program.run(db))[0]

        def call(program=program, db=db, name=name):
            run = current["supervisor"].submit(
                program, db, workload=name, spec=name,
                checkpoint_path=checkpoint, engine="naive",
            )
            return run

        def check(run, expected=expected):
            return run.ok and database_digest(run.result)[0] == expected

        cycle.append(Request(name, call, check))
    return Workload(
        "journaled", _rotated(_interleave(cycle, dict(JOURNALED_MIX)), seed),
        _engine_stats(),
        between_cycles=new_ledger,
    )


WORKLOADS: dict[str, Callable[[int, Path], Workload]] = {
    "tc-fixpoint": _setup_tc,
    "federation": _setup_federation,
    "journaled": _setup_journaled,
}


def setup(name: str, seed: int, work: Path) -> Workload:
    """Build workload ``name`` from ``seed``; files go under ``work``."""
    return WORKLOADS[name](seed, work)
