"""Tests for the execution runtime: in-process fused runs + the experiment memo."""

from __future__ import annotations

import pytest

from repro.core import SpireModel
from repro.errors import ConfigError
from repro.pipeline import (
    ExperimentConfig,
    cached_experiment,
    clear_caches,
    run_experiment,
)
from repro.runtime import ExecutionPlan, resolve_jobs, simulate_plan
from repro.uarch import skylake_gold_6126
from repro.uarch.config import little_inorder_core

TINY = ExperimentConfig(train_windows=48, test_windows=24)


def _signature(result) -> dict:
    """Measured IPCs, TMA categories and full analyses for every workload."""
    runs = {**result.training_runs, **result.testing_runs}
    out = {
        name: (run.measured_ipc, run.table1_category) for name, run in runs.items()
    }
    for name in result.testing_runs:
        report = result.analyze(name)
        out[f"analysis:{name}"] = (
            report.measured_throughput,
            report.estimated_throughput,
            tuple((e.metric, e.estimate) for e in report.ranking),
        )
    return out


@pytest.fixture(autouse=True)
def _fresh_memo():
    clear_caches()
    yield
    clear_caches()


class TestParallelDeterminism:
    def test_parallel_equals_serial(self):
        serial = run_experiment(TINY, jobs=1)
        parallel = run_experiment(TINY, jobs=4)
        assert _signature(serial) == _signature(parallel)

    def test_resolve_jobs(self):
        # The deprecated knob keeps its grammar; one worker is always used.
        for jobs in (None, 0, 1, 3, "auto"):
            assert resolve_jobs(jobs) == 1
            assert resolve_jobs(jobs, tasks=27) == 1
        for bad in (-1, "many", "AUTO"):
            with pytest.raises(ConfigError):
                resolve_jobs(bad)


class TestInProcessExecution:
    def test_plan_runs_fused_in_plan_order(self):
        plan = ExecutionPlan.for_experiment(TINY, skylake_gold_6126())
        runs, report = simulate_plan(plan)
        assert [r.workload.name for r in runs] == [t.name for t in plan.tasks]
        assert report.fused == [t.name for t in plan.tasks]
        assert report.per_workload == []
        assert report.elapsed > 0

    def test_tripped_breaker_falls_back_per_workload(self):
        from repro.guard.dispatch import kernel_guard, reset_guards
        from repro.runtime.fused import runs_equal

        plan = ExecutionPlan.for_experiment(TINY, skylake_gold_6126())
        fused, _ = simulate_plan(plan)
        reset_guards()
        kernel_guard("fused_experiment").tripped = True
        try:
            unfused, report = simulate_plan(plan)
        finally:
            reset_guards()
        assert report.fused == []
        assert report.per_workload == [t.name for t in plan.tasks]
        for a, b in zip(fused, unfused):
            assert runs_equal(a, b)

    def test_deprecated_jobs_warn_and_change_nothing(self):
        baseline = _signature(run_experiment(TINY))
        for jobs in (0, 1, 2, "auto"):
            clear_caches()
            with pytest.warns(DeprecationWarning, match="jobs"):
                result = run_experiment(TINY, jobs=jobs)
            assert _signature(result) == baseline
            with pytest.warns(DeprecationWarning, match="jobs"):
                cached_experiment(TINY, jobs=jobs)
        with pytest.warns(DeprecationWarning, match="jobs"):
            model = SpireModel.train(result.training_samples, jobs="auto")
        assert model.to_dict() == result.model.to_dict()
        for bad in (-1, "many"):
            with pytest.raises(ConfigError):
                run_experiment(TINY, jobs=bad)

    def test_no_process_machinery_loaded_or_started(self):
        # `import repro.cli` and a whole in-process report must load
        # neither multiprocessing nor concurrent.futures, and leave no
        # child process behind.
        import subprocess
        import sys
        from pathlib import Path

        script = (
            "import contextlib, io, sys\n"
            "import repro.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = repro.cli.main(['report', '--no-cache',\n"
            "        '--train-windows', '48', '--test-windows', '24'])\n"
            "loaded = sorted(m for m in sys.modules\n"
            "    if m.startswith(('multiprocessing', 'concurrent')))\n"
            "import multiprocessing\n"
            "print(code, loaded, multiprocessing.active_children())\n"
        )
        src = Path(__file__).resolve().parent.parent / "src"
        out = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, check=True,
            env={"PYTHONPATH": str(src), "PATH": "/usr/bin:/bin"},
        ).stdout
        assert out.strip().splitlines()[-1] == "0 [] []"


class TestCachedExperiment:
    def test_memo_identity(self):
        a = cached_experiment(TINY)
        assert cached_experiment(TINY) is a

    def test_memo_distinguishes_machine(self):
        # The old lru_cache keyed only on ExperimentConfig and silently
        # returned the default-machine result for any machine.
        a = cached_experiment(TINY)
        b = cached_experiment(TINY, machine=little_inorder_core())
        assert a is not b
        assert b.machine.name == "little-inorder"

    def test_clear_caches_drops_memo(self):
        a = cached_experiment(TINY)
        clear_caches()
        assert cached_experiment(TINY) is not a

    def test_memo_distinguishes_train_options(self):
        from repro.core import TrainOptions

        a = cached_experiment(TINY)
        options = TrainOptions(min_samples_per_metric=3)
        b = cached_experiment(TINY, train_options=options)
        assert a is not b
        # Keyed by value: an equal options object hits the same entry.
        assert cached_experiment(
            TINY, train_options=TrainOptions(min_samples_per_metric=3)
        ) is b
        seeded = ExperimentConfig(train_windows=48, test_windows=24, seed=7)
        assert cached_experiment(seeded) is not a
