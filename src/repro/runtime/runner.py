"""In-process execution of an experiment plan.

An experiment is one deterministic computation, and the fused mega-batch
engine (:mod:`repro.runtime.fused`) simulates all of it in one pass, so
execution is a single call with no scheduler: :func:`simulate_plan` runs
every clean task through :func:`~repro.runtime.fused.simulate_tasks_fused`
under the ``fused_experiment`` kernel guard, and every other task through
:func:`repro.pipeline.run_workload`.  A task takes the per-workload path
when it carries collector faults (``corrupt-sample``/``drop-metric``,
which are defined per workload run) or when the guard's breaker has
tripped.  Results come back in plan order, bit-identical whichever path
produced them, and the dispatch is timed once into a :class:`RunReport`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.errors import SpireError
from repro.runtime.faults import FaultPlan
from repro.runtime.plan import ExecutionPlan

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.guard.health import HealthReport
    from repro.pipeline import WorkloadRun

__all__ = ["RunReport", "simulate_plan"]


@dataclass
class RunReport:
    """What one experiment run did."""

    #: Tasks simulated by the fused engine, in plan order.
    fused: list[str] = field(default_factory=list)
    #: Tasks simulated one at a time: collector-fault targets, or every
    #: task once the ``fused_experiment`` breaker has tripped.
    per_workload: list[str] = field(default_factory=list)
    #: Wall seconds spent simulating, timed once around the dispatch.
    elapsed: float = 0.0
    #: Guard-layer telemetry (oracle checks, kernel trips, guardrail hits,
    #: quarantined artifacts), attached by the experiment pipeline.
    health: "HealthReport | None" = None

    def render(self) -> str:
        """A terse human-readable summary for CLI output."""
        line = f"tasks: {len(self.fused)} fused, {len(self.per_workload)} per-workload"
        if self.per_workload:
            line += f" ({', '.join(self.per_workload)})"
        lines = [f"{line}; simulated in {self.elapsed:.2f}s"]
        if self.health is not None:
            lines.append(self.health.render())
        return "\n".join(lines)


def _simulate_fused(tasks, plan: ExecutionPlan) -> "list[WorkloadRun] | None":
    """The fused runs for ``tasks``, or ``None`` to fall back per workload.

    Sampled calls of the ``fused_experiment`` guard replay one
    deterministically chosen segment through the per-workload oracle and
    compare bit-for-bit; a divergence trips the breaker.  A
    :class:`~repro.errors.SpireError` also falls back, so the per-workload
    path raises it with its own message.
    """
    from repro.guard.dispatch import kernel_guard
    from repro.pipeline import run_workload
    from repro.runtime import fused

    guard = kernel_guard("fused_experiment")
    if not guard.use_fast():
        return None
    try:
        runs = fused.simulate_tasks_fused(tasks, plan.machine, plan.config)
    except SpireError:
        return None
    if guard.should_check():
        index = (guard.calls - 1) % len(tasks)
        probe = tasks[index]
        oracle = run_workload(
            probe.workload, plan.machine, probe.n_windows, plan.config
        )
        ok = fused.runs_equal(runs[index], oracle)
        if not guard.resolve(ok, detail=f"segment {probe.name!r}"):
            return None
    return runs


def simulate_plan(
    plan: ExecutionPlan, faults: FaultPlan | None = None
) -> tuple[list["WorkloadRun"], RunReport]:
    """Simulate every task of ``plan`` in this process, in plan order."""
    from repro.pipeline import run_workload

    def collector_faults(task) -> tuple:
        return faults.collector_faults(task.name) if faults else ()

    started = time.perf_counter()
    report = RunReport()
    results: list["WorkloadRun | None"] = [None] * len(plan.tasks)
    clean = [i for i, task in enumerate(plan.tasks) if not collector_faults(task)]
    fused_runs = (
        _simulate_fused([plan.tasks[i] for i in clean], plan) if clean else None
    )
    if fused_runs is not None:
        for i, run in zip(clean, fused_runs):
            results[i] = run
    for i, task in enumerate(plan.tasks):
        if results[i] is None:
            results[i] = run_workload(
                task.workload, plan.machine, task.n_windows, plan.config,
                faults=collector_faults(task),
            )
            report.per_workload.append(task.name)
        else:
            report.fused.append(task.name)
    report.elapsed = time.perf_counter() - started
    return results, report
