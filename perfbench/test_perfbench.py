"""The benchmark's own tests: exact counts, the correctness gate, the contract.

Run from the root of a checkout (takes about a minute)::

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

#: Counts that must repeat exactly for a fixed seed.  Ledger bytes are
#: not among them: every ledger record embeds a wall-clock timestamp and
#: an elapsed time whose printed widths vary by a few bytes.
EXACT = [
    m["name"]
    for m in SPEC["per_layer"]
    if m["name"].endswith((".calls", "_calls", ".rows_in", ".cells", ".statements",
                           ".while_iterations", ".attempts", ".requests"))
    or m["name"] == "runtime.checkpoint.bytes_written"
]


def bench(*args: str, cwd: Path = ROOT) -> tuple[int, list[str]]:
    out = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )
    return out.returncode, out.stdout.strip().splitlines()


def traced(workload: str, seed: int) -> dict:
    code, lines = bench("--workload", workload, "--seed", str(seed),
                        "--seconds", "1", "--trace", "1")
    assert code == 0, lines[-3:]
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0
    return {k: v["value"] for k, v in result["metrics"].items()}


@pytest.mark.parametrize("workload", ["tc-fixpoint", "federation", "journaled"])
def test_counts_repeat_exactly(workload):
    first, second = traced(workload, 3), traced(workload, 3)
    assert set(first) == {m["name"] for m in SPEC["per_layer"]}
    assert {k: first[k] for k in EXACT} == {k: second[k] for k in EXACT}
    assert second["obs.ledger.bytes_written"] == pytest.approx(
        first["obs.ledger.bytes_written"], rel=1e-3
    )
    assert first["trace.requests"] > 0


def test_layer_split_matches_the_design():
    tc, fed, journaled = (traced(w, 4) for w in ("tc-fixpoint", "federation", "journaled"))
    for values in (tc, fed):
        held = values["core.database.self_s"] + values["engine.interning.self_s"]
        assert held > values["trace.wall_s"] / 2
    assert journaled["engine.interning.intern_calls"] == 0
    layers = {k: v for k, v in journaled.items() if k.endswith(".self_s")}
    assert max(layers, key=layers.get) == "runtime.checkpoint.self_s"
    for values in (tc, fed, journaled):
        covered = sum(v for k, v in values.items() if k.endswith(".self_s"))
        assert covered == pytest.approx(values["trace.wall_s"], rel=1e-6)


def test_wrong_answer_fails_the_run(monkeypatch, capsys):
    monkeypatch.setattr(
        sys, "path", [str(HERE), str(ROOT / "src"), str(ROOT / "benchmarks"), *sys.path]
    )
    import run
    import repro.engine.run as run_mod

    # A fast wrong answer: hand the input database back unchanged.
    monkeypatch.setattr(run_mod, "run_program", lambda program, db, **kw: db)
    code = run.main(["--workload", "tc-fixpoint", "--seed", "1", "--seconds", "1"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code != 0
    assert not result["correct"] and result["failed"] > 0


def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, lines = bench("--workload", "tc-fixpoint", "--seed", "1",
                        "--seconds", "1", cwd=tmp_path)
    assert code != 0
    assert not any(line.startswith("{") for line in lines)
