"""The supervisor: retry loops, degradation, quarantine, crash recovery."""

import pytest

from repro.context import current
from repro.core.errors import (
    BudgetExceededError,
    FaultInjectedError,
    LedgerError,
    QuarantinedError,
    SchemaError,
    VerificationError,
)
from repro.obs.events import RingSubscriber, event_stream
from repro.obs.ledger import RunLedger, new_run_id
from repro.runtime import FaultPlan, FaultRule, Limits, run_hardened
from repro.runtime.policy import BreakerPolicy, RetryPolicy
from repro.runtime.supervisor import Supervisor, workload_fingerprint
from repro.runtime.workloads import transitive_closure_workload

NO_SLEEP = dict(sleep=lambda s: None)


def tc(nodes=6):
    program, db = transitive_closure_workload(nodes)
    return f"tc:{nodes}", program, db


def one_shot_fault(seed=0):
    """A DIFFERENCE raise that fires once; the retry converges past it."""
    return FaultPlan([FaultRule(op="DIFFERENCE", kind="raise")], seed=seed)


def poison_fault(attempts=10, seed=0):
    """Raises on every attempt's first dispatch: terminally poisonous."""
    return FaultPlan(
        [FaultRule(op="*", kind="raise", occurrence=n) for n in range(1, attempts + 1)],
        seed=seed,
    )


class TestSubmit:
    def test_clean_run_is_one_attempt(self):
        label, program, db = tc()
        run = Supervisor(**NO_SLEEP).submit(program, db, workload=label)
        assert run.ok and run.result == program.run(db)
        assert len(run.attempts) == 1
        assert run.attempts[0].decision is None
        assert not run.degraded and run.shed == ()

    def test_injected_fault_is_retried_to_success(self):
        label, program, db = tc()
        supervisor = Supervisor(RetryPolicy(max_attempts=3, jitter=0.0), **NO_SLEEP)
        run = supervisor.submit(program, db, workload=label, faults=one_shot_fault())
        assert run.ok and run.result == program.run(db)
        assert [a.decision for a in run.attempts] == ["retry", None]
        assert run.attempts[0].error_type == "FaultInjectedError"
        assert run.attempts[0].backoff_s > 0.0
        assert supervisor.stats.decisions == {"retry": 1}
        assert supervisor.stats.backoff_s_total > 0.0

    def test_exhausted_attempts_fail_with_no_partial_result(self):
        label, program, db = tc()
        supervisor = Supervisor(RetryPolicy(max_attempts=2), **NO_SLEEP)
        run = supervisor.submit(program, db, workload=label, faults=poison_fault())
        assert not run.ok and run.result is None
        assert isinstance(run.error, FaultInjectedError)
        assert [a.decision for a in run.attempts] == ["retry", "fail"]
        assert supervisor.stats.exhausted == 1

    def test_deadline_kill_resumes_from_checkpoint(self, tmp_path):
        label, program, db = tc(10)
        supervisor = Supervisor(RetryPolicy(max_attempts=300), **NO_SLEEP)
        run = supervisor.submit(
            program,
            db,
            workload=label,
            limits=Limits(deadline_s=0.05),
            checkpoint_path=tmp_path / "ck.json",
        )
        assert run.ok and run.result == program.run(db)
        assert len(run.attempts) > 1, "tc:10 should outlive a 50ms deadline"
        resumes = [a for a in run.attempts if a.decision == "resume"]
        assert resumes and all(a.backoff_s == 0.0 for a in resumes)
        assert run.attempts[-1].resumed

    def test_corrupt_kernel_degrades_vector_to_naive(self, tmp_path):
        label, program, db = tc()
        supervisor = Supervisor(RetryPolicy(max_attempts=3), **NO_SLEEP)
        plan = FaultPlan([FaultRule(op="DIFFERENCE", kind="corrupt")])
        run = supervisor.submit(
            program,
            db,
            workload=label,
            faults=plan,
            engine="vector",
            checkpoint_path=tmp_path / "ck.json",
            verify=True,
        )
        assert run.ok and run.degraded and run.engine == "naive"
        assert run.attempts[0].decision == "degrade"
        assert run.attempts[0].engine == "vector"
        # the degraded attempt restarts fresh: the vector checkpoint's
        # fingerprint covers the planned program, not the naive one
        assert not run.attempts[1].resumed
        assert supervisor.stats.degraded == {"engine": 1}

    def test_corrupt_kernel_on_naive_is_terminal(self):
        label, program, db = tc()
        supervisor = Supervisor(RetryPolicy(max_attempts=3), **NO_SLEEP)
        plan = FaultPlan([FaultRule(op="DIFFERENCE", kind="corrupt")])
        run = supervisor.submit(program, db, workload=label, faults=plan)
        assert not run.ok and isinstance(run.error, SchemaError)
        assert len(run.attempts) == 1

    def test_memory_kill_sheds_observability_layers(self, monkeypatch):
        label, program, db = tc()
        calls = []

        def fake_run_hardened(prog, database, **kwargs):
            calls.append(current().bus is not None)
            if len(calls) == 1:
                raise BudgetExceededError("oom", kind="memory")
            return run_hardened(prog, database)

        monkeypatch.setattr(
            "repro.runtime.supervisor.run_hardened", fake_run_hardened
        )
        supervisor = Supervisor(RetryPolicy(max_attempts=3), **NO_SLEEP)
        with event_stream():
            run = supervisor.submit(program, db, workload=label)
        assert run.ok
        assert run.shed == ("events", "observation", "estimation")
        assert calls == [True, False]  # the retry ran with events shed
        assert run.attempts[1].shed
        assert supervisor.stats.degraded == {"obs_shed": 1}
        assert current().bus is None  # the shed scope restored the outer state

    def test_total_deadline_caps_the_whole_run(self):
        label, program, db = tc()
        now = [0.0]

        def clock():
            now[0] += 10.0
            return now[0]

        supervisor = Supervisor(
            RetryPolicy(max_attempts=50, total_deadline_s=5.0, jitter=0.0),
            sleep=lambda s: None,
            clock=clock,
        )
        run = supervisor.submit(program, db, workload=label, faults=poison_fault(60))
        assert not run.ok
        assert isinstance(run.error, (FaultInjectedError, BudgetExceededError))
        assert len(run.attempts) < 50

    def test_verify_stamps_the_comparison(self):
        label, program, db = tc()
        run = Supervisor(**NO_SLEEP).submit(program, db, workload=label, verify=True)
        assert run.ok and run.verified is True

    def test_verify_mismatch_is_terminal_with_no_result(self, monkeypatch):
        label, program, db = tc()

        def wrong_run_hardened(prog, database, **kwargs):
            from repro.core import TabularDatabase

            return TabularDatabase()

        monkeypatch.setattr(
            "repro.runtime.supervisor.run_hardened", wrong_run_hardened
        )
        supervisor = Supervisor(**NO_SLEEP)
        run = supervisor.submit(program, db, workload=label, verify=True)
        assert not run.ok and run.result is None
        assert run.verified is False
        assert isinstance(run.error, VerificationError)

    def test_supervision_events_are_emitted(self):
        label, program, db = tc()
        supervisor = Supervisor(RetryPolicy(max_attempts=3, jitter=0.0), **NO_SLEEP)
        with event_stream() as bus:
            ring = bus.ring(512)
            supervisor.submit(program, db, workload=label, faults=one_shot_fault())
            kinds = [e.kind for e in ring.tail()]
        assert "retry_scheduled" in kinds
        retry = next(e for e in ring.tail() if e.kind == "retry_scheduled")
        assert retry.data["decision"] == "retry"
        assert retry.data["attempt"] == 1


class TestQuarantine:
    def test_breaker_quarantines_a_poison_workload(self):
        label, program, db = tc()
        supervisor = Supervisor(
            RetryPolicy(max_attempts=1),
            breaker_policy=BreakerPolicy(failure_threshold=2, cooldown_s=3600.0),
            **NO_SLEEP,
        )
        for _ in range(2):
            run = supervisor.submit(program, db, workload=label, faults=poison_fault())
            assert not run.ok
        with pytest.raises(QuarantinedError) as excinfo:
            supervisor.submit(program, db, workload=label)
        assert excinfo.value.context["fingerprint"] == run.fingerprint
        assert supervisor.stats.quarantined == 1

    def test_fingerprint_falls_back_to_the_label(self):
        fp = workload_fingerprint(object(), "custom:workload")
        assert len(fp) == 16
        assert fp == workload_fingerprint(object(), "custom:workload")
        assert fp != workload_fingerprint(object(), "other")


class TestLedgerIntegration:
    def test_run_start_and_closing_manifest(self, tmp_path):
        label, program, db = tc()
        ledger = RunLedger(tmp_path / "led")
        supervisor = Supervisor(
            RetryPolicy(max_attempts=3, jitter=0.0), ledger=ledger, **NO_SLEEP
        )
        run = supervisor.submit(
            program, db, workload=label, spec=label, faults=one_shot_fault()
        )
        assert run.ok
        assert ledger.open_runs() == []  # the closing manifest pairs the start
        manifest = ledger.get(run.run_id)
        assert manifest["outcome"]["status"] == "ok"
        assert manifest["outcome"]["attempts"] == 2
        block = manifest["supervisor"]
        assert block["outcome"] == "ok"
        assert [a["decision"] for a in block["attempts"]] == ["retry", None]
        # and the whole thing survives a reopen
        reopened = RunLedger(tmp_path / "led")
        assert reopened.get(run.run_id)["supervisor"]["outcome"] == "ok"

    def test_failed_run_manifest_has_error_and_no_result(self, tmp_path):
        label, program, db = tc()
        ledger = RunLedger(tmp_path / "led")
        supervisor = Supervisor(RetryPolicy(max_attempts=1), ledger=ledger, **NO_SLEEP)
        run = supervisor.submit(program, db, workload=label, faults=poison_fault())
        manifest = ledger.get(run.run_id)
        assert manifest["outcome"]["status"] == "error"
        assert manifest["outcome"]["error_type"] == "FaultInjectedError"
        assert manifest["result"] is None


class TestRecover:
    def _crash(self, ledger, tmp_path, nodes=10, spec=True, checkpoint=True):
        """Simulate a process dying mid-run: a ``run_start`` with no
        closing record, plus (optionally) the checkpoint it left behind."""
        label, program, db = tc(nodes)
        run_id = new_run_id()
        path = tmp_path / f"{run_id}.json"
        if checkpoint:
            with pytest.raises(BudgetExceededError):
                run_hardened(
                    program, db, limits=Limits(deadline_s=0.05), checkpoint_path=path
                )
        ledger.record_start(
            {
                "run_id": run_id,
                "ts": 1.0,
                "workload": label,
                "spec": label if spec else None,
                "engine": "naive",
                "fingerprint": workload_fingerprint(program, label),
                "checkpoint": str(path) if checkpoint else None,
                "limits": None,
            }
        )
        return run_id, label, program, db, path

    def test_recover_needs_a_ledger(self):
        with pytest.raises(LedgerError):
            Supervisor(**NO_SLEEP).recover()

    def test_open_run_is_resumed_to_the_identical_database(self, tmp_path):
        ledger = RunLedger(tmp_path / "led")
        run_id, label, program, db, _ = self._crash(ledger, tmp_path)
        assert [r["run_id"] for r in ledger.open_runs()] == [run_id]
        supervisor = Supervisor(RetryPolicy(max_attempts=300), ledger=ledger, **NO_SLEEP)
        report = supervisor.recover(verify=True)
        assert report.ok and report.scanned == 1
        assert [r["run_id"] for r in report.resumed] == [run_id]
        assert ledger.open_runs() == []
        manifest = ledger.get(run_id)
        assert manifest["outcome"]["status"] == "ok"
        assert manifest["supervisor"]["recovered"] is True
        assert supervisor.stats.recovery == {"resumed": 1}
        assert supervisor.last_run.result == program.run(db)

    def test_run_without_checkpoint_is_orphaned(self, tmp_path):
        ledger = RunLedger(tmp_path / "led")
        run_id, *_ = self._crash(ledger, tmp_path, checkpoint=False)
        report = Supervisor(ledger=ledger, **NO_SLEEP).recover()
        assert report.ok  # orphaning is a definitive outcome, not a failure
        assert [o["run_id"] for o in report.orphaned] == [run_id]
        assert "no checkpoint" in report.orphaned[0]["reason"]
        assert ledger.open_runs() == []
        assert [o["run_id"] for o in ledger.orphans()] == [run_id]

    def test_missing_checkpoint_file_is_orphaned(self, tmp_path):
        ledger = RunLedger(tmp_path / "led")
        run_id, label, program, db, path = self._crash(ledger, tmp_path)
        path.unlink()
        report = Supervisor(ledger=ledger, **NO_SLEEP).recover()
        assert [o["run_id"] for o in report.orphaned] == [run_id]
        assert "is gone" in report.orphaned[0]["reason"]

    def test_torn_checkpoint_is_orphaned(self, tmp_path):
        ledger = RunLedger(tmp_path / "led")
        run_id, label, program, db, path = self._crash(ledger, tmp_path)
        payload = path.read_text()
        path.write_text(payload[: len(payload) // 2])  # torn mid-write
        report = Supervisor(ledger=ledger, **NO_SLEEP).recover()
        assert [o["run_id"] for o in report.orphaned] == [run_id]
        assert "unusable checkpoint" in report.orphaned[0]["reason"]

    def test_unreplayable_spec_is_orphaned(self, tmp_path):
        ledger = RunLedger(tmp_path / "led")
        run_id, *_ = self._crash(ledger, tmp_path, spec=False)
        report = Supervisor(ledger=ledger, **NO_SLEEP).recover()
        assert [o["run_id"] for o in report.orphaned] == [run_id]
        assert "unreplayable spec" in report.orphaned[0]["reason"]

    def test_recovery_is_idempotent(self, tmp_path):
        ledger = RunLedger(tmp_path / "led")
        self._crash(ledger, tmp_path)
        supervisor = Supervisor(RetryPolicy(max_attempts=300), ledger=ledger, **NO_SLEEP)
        first = supervisor.recover()
        assert first.scanned == 1 and first.ok
        second = supervisor.recover()
        assert second.scanned == 0  # nothing left open

    def test_report_render_names_every_run(self, tmp_path):
        ledger = RunLedger(tmp_path / "led")
        run_id, *_ = self._crash(ledger, tmp_path, checkpoint=False)
        report = Supervisor(ledger=ledger, **NO_SLEEP).recover()
        text = report.render()
        assert run_id in text and "orphaned" in text
