"""Hardened execution runtime: governor, fault injection, checkpoint/resume.

The paper's TA programs are Turing-complete transformations (the
FO+while+new embedding of Theorem 4.1), so non-termination and resource
blowup are intrinsic to the language, not edge cases.  This package is
the production safety net around the engine:

* :mod:`repro.runtime.governor` — the ``governed()`` scope and
  :class:`~repro.runtime.governor.ResourceGovernor`: wall-clock
  deadlines, per-op and per-program row/cell budgets, memory high-water
  checks, and cooperative cancellation, held in the execution context
  (:mod:`repro.context`), enforced at the same chokepoints the
  observability stack instruments and zero-cost when disabled;
* :mod:`repro.runtime.faults` — deterministic, seeded fault injection
  (``raise`` / ``delay`` / ``corrupt``) at op boundaries;
* :mod:`repro.runtime.checkpoint` — environment serialization at
  statement boundaries and :func:`~repro.runtime.checkpoint.run_hardened`,
  the deterministic kill-and-resume driver;
* :mod:`repro.runtime.chaos` — the injection-matrix harness behind
  ``python -m repro chaos`` (imported lazily: it loads the engine);
* :mod:`repro.runtime.policy` — the declarative
  :class:`~repro.runtime.policy.RetryPolicy` (error classification,
  seeded exponential backoff) and the per-workload-fingerprint
  :class:`~repro.runtime.policy.CircuitBreaker`;
* :mod:`repro.runtime.supervisor` — the fault-tolerant
  :class:`~repro.runtime.supervisor.Supervisor` driving retry, resume,
  graceful degradation, quarantine, and ledger-based crash recovery
  (imported lazily: it reaches the engine through ``run_hardened``).

Everything raises inside the :class:`~repro.core.errors.ReproError`
taxonomy: :class:`~repro.core.errors.BudgetExceededError`,
:class:`~repro.core.errors.CancelledError`,
:class:`~repro.core.errors.FaultInjectedError`,
:class:`~repro.core.errors.CheckpointError`.
"""

from .faults import FAULT_KINDS, FaultPlan, FaultRule
from .governor import IterationBudget, Limits, ResourceGovernor, governed

__all__ = [
    "Limits",
    "ResourceGovernor",
    "IterationBudget",
    "governed",
    "FaultPlan",
    "FaultRule",
    "FAULT_KINDS",
    # lazily re-exported from .checkpoint (see __getattr__):
    "Checkpoint",
    "run_hardened",
    "save_checkpoint",
    "load_checkpoint",
    "program_fingerprint",
    # lazily re-exported from .policy / .supervisor:
    "RetryPolicy",
    "BreakerPolicy",
    "CircuitBreaker",
    "classify_error",
    "Supervisor",
    "SupervisedRun",
    "RecoveryReport",
]

_LAZY_EXPORTS = {
    "Checkpoint": "checkpoint",
    "run_hardened": "checkpoint",
    "save_checkpoint": "checkpoint",
    "load_checkpoint": "checkpoint",
    "program_fingerprint": "checkpoint",
    "RetryPolicy": "policy",
    "BreakerPolicy": "policy",
    "CircuitBreaker": "policy",
    "classify_error": "policy",
    "Supervisor": "supervisor",
    "SupervisedRun": "supervisor",
    "RecoveryReport": "supervisor",
}


def __getattr__(name: str):
    # checkpoint (and through it the supervisor) imports the
    # interpreter, which imports the op registry, which imports this
    # package — loading these lazily keeps the import graph acyclic
    # (same pattern as repro.obs deferring examples).
    module_name = _LAZY_EXPORTS.get(name)
    if module_name is not None:
        import importlib

        module = importlib.import_module(f".{module_name}", __name__)
        return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
