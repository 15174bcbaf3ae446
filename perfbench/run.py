"""End-to-end benchmark over the paper's theorem workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload tc-fixpoint --seed 1 --seconds 30 --trace 0

One closed-loop client in one process and thread sends the workload's
requests back to back (see ``workloads.py``); every output is checked
against a reference computed during set-up.  The last line of standard
output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``; the exit code is 0 only when every request was correct.

``--trace 0`` reports the end-to-end metrics: set-up time (median of
three set-ups), then one warm-up cycle, then whole cycles of requests
until ``--seconds`` have passed.
``--trace 1`` reports the per-layer metrics instead: after the warm-up it
runs whole untraced cycles for half of ``--seconds``, installs the
wrappers of ``tracing.py`` and runs exactly two traced cycles, so every
count repeats exactly for a given seed.  The spans are written to
``.perfbench/trace-<workload>-<seed>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"

#: Traced cycles per ``--trace 1`` run: fixed, so counts repeat exactly.
TRACE_CYCLES = 2

#: Set-ups per ``--trace 0`` run; ``setup_s`` is their median.
SETUPS = 3


def control() -> float:
    """Seconds a fixed pure-Python loop takes right now.

    It calls nothing of the program, so only the machine's speed moves
    it.  On a shared 2-core host other tenants slow whole seconds to
    minutes of execution by 1.2-1.5x; dividing each request's latency by
    the control timed around it removes most of that from the figures.
    """
    started = perf_counter()
    table = {}
    for i in range(4000):
        table[(i % 97, i)] = str(i)
    sorted(table.items())
    total = 0
    for i in range(60000):
        total += i * i
    return perf_counter() - started


#: The control's duration on an idle core of the reference host (2 vCPU
#: KVM guest, CPython 3.11): scaled times are in seconds at that speed.
CONTROL_REF_S = 0.006


class Phase:
    """The requests of one measured phase.

    ``raw`` holds measured latencies; ``scaled`` the same latencies times
    ``CONTROL_REF_S`` over the mean of the controls timed just before and
    just after the request.  Both count correct requests only.
    """

    def __init__(self):
        self.raw: list[float] = []
        self.scaled: list[float] = []
        self.busy = 0.0  # scaled seconds inside requests, all of them
        self.attempted = 0
        self.failed = 0

    def rps(self) -> float:
        return len(self.scaled) / self.busy if self.busy else 0.0


def drive(workload, phase: Phase, *, until=None, cycles=None, tracer=None) -> None:
    """Send whole cycles: exactly ``cycles`` of them, or until a cycle
    ends after ``until`` (perf_counter).  Whole cycles keep every entry
    equally frequent, which is what places the percentiles (see
    ``workloads.py``)."""
    done = 0
    before = control()
    while (cycles is None or done < cycles) and (until is None or perf_counter() < until):
        workload.between_cycles()
        for request in workload.cycle:
            phase.attempted += 1
            started = perf_counter()
            try:
                if tracer is None:
                    out = request.call()
                else:
                    out = tracer.run_request(phase.attempted, request.call)
                elapsed = perf_counter() - started
                ok = request.check(out)
            except Exception:
                elapsed = perf_counter() - started
                traceback.print_exc()
                ok = False
            after = control()
            scaled = elapsed * CONTROL_REF_S * 2 / (before + after)
            before = after
            phase.busy += scaled
            if ok:
                phase.raw.append(elapsed)
                phase.scaled.append(scaled)
            else:
                phase.failed += 1
                print(f"# wrong result: {request.label}", file=sys.stderr)
        done += 1


def _result(phases, metrics: dict) -> dict:
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    return {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def _percentiles(values: list[float]) -> tuple[float, float]:
    """(median, 90th percentile) of ``values``."""
    if len(values) < 2:
        return (values[0], values[0]) if values else (0.0, 0.0)
    return statistics.median(values), statistics.quantiles(values, n=10)[8]


def end_to_end(name: str, seed: int, seconds: int, work: Path) -> dict:
    from workloads import setup

    durations = []
    for _ in range(SETUPS):
        before = control()
        started = perf_counter()
        workload = setup(name, seed, work)
        elapsed = perf_counter() - started
        durations.append(elapsed * CONTROL_REF_S * 2 / (before + control()))
    warm, measured = Phase(), Phase()
    drive(workload, warm, cycles=1)
    if warm.failed == 0:
        drive(workload, measured, until=perf_counter() + seconds)
    p50, p90 = _percentiles(measured.scaled)
    metrics = {
        "throughput_rps": (measured.rps(), "1/s"),
        "latency_p50_ms": (p50 * 1e3, "ms"),
        "latency_p90_ms": (p90 * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "setup_s": (statistics.median(durations), "s"),
    }
    error_rate = measured.failed / measured.attempted if measured.attempted else 1.0
    raw50, raw90 = _percentiles(measured.raw)
    print(
        f"# {name} seed={seed}: {len(measured.raw)} correct of {measured.attempted} "
        f"measured requests, error_rate={error_rate} (failed / attempted), "
        f"{warm.attempted} warm-up"
    )
    print(f"# unscaled: p50 {raw50 * 1e3:.6g} ms, p90 {raw90 * 1e3:.6g} ms, "
          f"{len(measured.raw) / sum(measured.raw) if measured.raw else 0:.6g} requests/s")
    for metric, (value, unit) in metrics.items():
        print(f"# {metric} = {value:.6g} {unit}")
    return _result(
        (warm, measured),
        {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    )


def per_layer(name: str, seed: int, seconds: int, work: Path) -> dict:
    from repro.engine.optimizer import PLAN_CACHE
    from tracing import PER_LAYER, Tracer, install, layer_metrics
    from workloads import setup

    workload = setup(name, seed, work)
    warm, untraced, traced = Phase(), Phase(), Phase()
    drive(workload, warm, cycles=1)
    if workload.split_times is not None:
        workload.split_times.clear()
    if warm.failed == 0:
        drive(workload, untraced, until=perf_counter() + seconds / 2)
    split_times = list(workload.split_times or ())

    tracer = Tracer()
    install(tracer)
    for key in workload.engine_stats:
        workload.engine_stats[key] = 0
    hits, misses = PLAN_CACHE.hits, PLAN_CACHE.misses
    if warm.failed == 0 and untraced.failed == 0:
        drive(workload, traced, cycles=TRACE_CYCLES, tracer=tracer)
    values = layer_metrics(
        tracer,
        requests=traced.attempted,
        overhead_ratio=traced.rps() / untraced.rps() if untraced.rps() else 0.0,
        kernel_calls=workload.engine_stats["kernel_calls"],
        fallbacks=workload.engine_stats["fallbacks"],
        cache_hits=PLAN_CACHE.hits - hits,
        cache_lookups=PLAN_CACHE.hits - hits + PLAN_CACHE.misses - misses,
        split_times=split_times,
    )
    tracer.write(OUT / f"trace-{name}-{seed}.jsonl")
    print(f"# {name} seed={seed}: {traced.attempted} traced requests, "
          f"{len(tracer.spans)} spans")
    for metric, value in values.items():
        print(f"# {metric} = {value:.6g} {PER_LAYER[metric][0]}")
    return _result(
        (warm, untraced, traced),
        {k: {"value": v, "unit": PER_LAYER[k][0]} for k, v in values.items()},
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("tc-fixpoint", "federation", "journaled"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no package source at {ROOT / 'src' / 'repro'}; "
              "run from a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]

    work = OUT / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        measure = per_layer if args.trace else end_to_end
        result = measure(args.workload, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
