"""Pipeline bench: the fused engine vs per-workload simulation.

An experiment runs in one process as one fused mega-batch (§IV: 23
training and 4 testing workloads).  This bench simulates the full task
list both ways at paper scale, checks that every fused run is
bit-identical to its per-workload run (the same equivalence the
``fused_experiment`` guard samples in production), asserts the fused
sim phase is >= 2x faster, and writes the timings to
``BENCH_pipeline.json``.
"""

from __future__ import annotations

import json
import os
import time

from conftest import write_artifact

from repro.pipeline import ExperimentConfig, run_workload
from repro.runtime.fused import runs_equal, simulate_tasks_fused
from repro.runtime.plan import ExecutionPlan
from repro.uarch import skylake_gold_6126


def test_fused_vs_per_workload(out_dir):
    """The sim phase: one fused mega-batch vs 27 per-workload runs."""
    config = ExperimentConfig()  # full paper scale
    machine = skylake_gold_6126()
    plan = ExecutionPlan.for_experiment(config, machine)

    started = time.perf_counter()
    fused_runs = simulate_tasks_fused(list(plan.tasks), machine, config)
    fused_s = time.perf_counter() - started

    started = time.perf_counter()
    per_workload = [
        run_workload(task.workload, machine, task.n_windows, config)
        for task in plan.tasks
    ]
    per_workload_s = time.perf_counter() - started

    # The acceptance gate: fused is bit-identical to the per-workload
    # path for every task, and at least 2x faster on the sim phase.
    for task, fused_run, oracle in zip(plan.tasks, fused_runs, per_workload):
        assert runs_equal(fused_run, oracle), task.name
    sim_speedup = per_workload_s / fused_s
    assert sim_speedup >= 2.0

    payload = {
        "config": {
            "train_windows": config.train_windows,
            "test_windows": config.test_windows,
            "workloads": len(plan.tasks),
        },
        "cpu_count": os.cpu_count(),
        "sim_fused_s": round(fused_s, 4),
        "sim_per_workload_s": round(per_workload_s, 4),
        "sim_fused_speedup": round(sim_speedup, 3),
    }
    text = json.dumps(payload, indent=2)
    print()
    print(text)
    write_artifact("BENCH_pipeline.json", text)
