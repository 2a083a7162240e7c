"""Execution runtime: one in-process fused pass plus deterministic faults.

- :class:`ExecutionPlan` lists an experiment's workload tasks, and
  :func:`simulate_plan` runs them all in this process through the fused
  mega-batch engine (:mod:`repro.runtime.fused`), returning the runs in
  plan order plus a :class:`RunReport` of what ran where;
- :class:`FaultPlan` injects deterministic failures (corrupt sample,
  dropped metric, diverging kernel, stream drift, serving-worker chaos)
  to prove the layers that absorb them work — see ``spire faultsim``.

See ``docs/performance.md`` and ``docs/robustness.md`` for the full story.
"""

from repro.concurrency import resolve_jobs
from repro.runtime.faults import (
    DIVERGE_KERNEL,
    FAULT_KINDS,
    GUARD_KINDS,
    FaultPlan,
    FaultSpec,
)
from repro.runtime.plan import ExecutionPlan, WorkloadTask
from repro.runtime.runner import RunReport, simulate_plan

__all__ = [
    "DIVERGE_KERNEL",
    "FAULT_KINDS",
    "GUARD_KINDS",
    "ExecutionPlan",
    "FaultPlan",
    "FaultSpec",
    "RunReport",
    "WorkloadTask",
    "resolve_jobs",
    "simulate_plan",
]
