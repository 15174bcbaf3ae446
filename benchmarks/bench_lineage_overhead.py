"""Experiment ``lineage`` — cell-provenance overhead on the algebra engine.

Three measurements:

* **disabled** — with no lineage scope active, every provenance hook is
  a single check that the execution context's ``lineage`` field is None,
  and the engine runs raw (the
  zero-allocation discipline is pinned separately by
  ``tests/obs/test_lineage.py``);
* **enabled** — tagging the input cells and running with provenance
  threading stays within a constant factor of the raw run;
* **witness** — one why-provenance query plus its replay check, the
  interactive-debugging unit of work.

The tagged run's result is asserted equal to the raw result — tagged
symbol copies are indistinguishable to the algebra, so provenance
provably does not change semantics.
"""

import time

from repro.algebra.programs import parse_program
from repro.data import sales_info1
from repro.obs import lineage

from conftest import report

#: Trajectory label prefix: timing records roll into
#: ``BENCH_trajectory.json`` as ``lineage/<test name>`` (see conftest).
BENCH_LABEL = "lineage"

PIVOT = """
    Grouped <- GROUP by {Region} on {Sold} (Sales)
    Cleaned <- CLEANUP by {Part} on {null} (Grouped)
    Pivot   <- PURGE on {Sold} by {Region} (Cleaned)
"""


def run_pivot(db=None):
    return parse_program(PIVOT).run(db if db is not None else sales_info1())


def run_pivot_with_lineage():
    with lineage() as lin:
        tagged = lin.tag_database(sales_info1())
        return run_pivot(tagged), lin


class TestLineageOverhead:
    def test_disabled_lineage_runs_raw(self, benchmark):
        result = benchmark(run_pivot)
        assert "Pivot" in {str(n) for n in result.table_names()}

    def test_enabled_lineage_runs_tagged(self, benchmark):
        (db, _lin) = benchmark(run_pivot_with_lineage)
        assert db == run_pivot()  # provenance never changes results

    def test_witness_query_and_replay(self, benchmark):
        def query():
            with lineage() as lin:
                tagged = lin.tag_database(sales_info1())
                out = run_pivot(tagged)
                pivot = out.tables_named("Pivot")[0]  # noqa: F841 - name check
                witness = lin.witness(pivot, 1, 1)
                return lin.replay_check(run_pivot, witness)

        check = benchmark(query)
        assert check.regenerated

    def test_report_overhead_ratio(self):
        """One-shot ratio measurement, recorded to BENCH_obs.json."""

        def clock(fn, repeats=20):
            best = float("inf")
            for _ in range(repeats):
                start = time.perf_counter()
                fn()
                best = min(best, time.perf_counter() - start)
            return best

        raw = clock(run_pivot)
        tagged = clock(run_pivot_with_lineage)
        report(
            "lineage-overhead",
            raw_ms=round(raw * 1e3, 3),
            tagged_ms=round(tagged * 1e3, 3),
            ratio=round(tagged / raw, 2),
        )
        # generous bound: tagging is one frozenset per input cell plus
        # set unions at the create sites, not a new algorithm
        assert tagged < raw * 10 + 0.05
