"""Fault-tolerance tests: fault plans, collector degradation, sanitizing.

These exercise the robustness layer end to end with the deterministic
fault-injection harness (:mod:`repro.runtime.faults`): injected data
corruption must be absorbed, reported and — crucially — leave every
unaffected workload bit-identical to a fault-free run.
"""

from __future__ import annotations

import warnings

import pytest

from repro.core import SampleSanitizer, SpireModel, TrainOptions
from repro.core.sample import Sample, SampleSet
from repro.errors import ConfigError, DegradedDataWarning
from repro.pipeline import (
    ExperimentConfig,
    clear_caches,
    run_experiment,
    run_experiment_with_report,
)
from repro.runtime import FaultPlan, FaultSpec

TINY = ExperimentConfig(train_windows=48, test_windows=24)


@pytest.fixture(autouse=True)
def _fresh_memo():
    clear_caches()
    yield
    clear_caches()


@pytest.fixture(scope="module")
def baseline():
    """A fault-free serial run to compare degraded runs against."""
    return run_experiment(TINY)


def _ipc_signature(result) -> dict:
    runs = {**result.training_runs, **result.testing_runs}
    return {name: run.measured_ipc for name, run in runs.items()}


class TestFaultPlan:
    def test_unknown_kind_rejected(self):
        # corrupt-cache-entry went with the experiment cache it targeted.
        for kind in ("meteor-strike", "corrupt-cache-entry"):
            with pytest.raises(ConfigError):
                FaultSpec(workload="tnn", kind=kind)

    def test_random_plan_is_deterministic(self):
        names = [f"w{i}" for i in range(27)]
        a = FaultPlan.random(names, seed=7, corrupt_samples=2, drop_metrics=1)
        b = FaultPlan.random(names, seed=7, corrupt_samples=2, drop_metrics=1)
        assert a == b
        c = FaultPlan.random(names, seed=8, corrupt_samples=2, drop_metrics=1)
        assert a != c


class TestCollectorDegradation:
    def test_corrupt_sample_quarantined_not_raised(self, baseline):
        plan = FaultPlan(
            (FaultSpec(workload="tnn", kind="corrupt-sample", times=99,
                       sample_index=0),)
        )
        result, report = run_experiment_with_report(TINY, faults=plan)
        assert report.per_workload == ["tnn"]
        quality = result.testing_runs["tnn"].collection.quality
        assert len(quality.quarantined) == 1
        assert quality.quarantined[0].reason == "NaN metric_count"
        # One fewer sample than the clean run; everything else intact.
        clean = baseline.testing_runs["tnn"].collection
        assert len(result.testing_runs["tnn"].collection.samples) == \
            len(clean.samples) - 1

    def test_drop_metric_removes_samples_but_not_tma(self, baseline):
        plan = FaultPlan(
            (FaultSpec(workload="tnn", kind="drop-metric", times=99,
                       metric="idq.dsb_uops"),)
        )
        result, report = run_experiment_with_report(TINY, faults=plan)
        assert report.per_workload == ["tnn"]
        collection = result.testing_runs["tnn"].collection
        assert "idq.dsb_uops" not in collection.samples.metrics()
        assert "idq.dsb_uops" in collection.quality.dropped_metrics
        # The full (un-multiplexed) counter view feeding TMA is unaffected.
        assert collection.full_counts["idq.dsb_uops"] == \
            baseline.testing_runs["tnn"].collection.full_counts["idq.dsb_uops"]

    def test_unfaulted_workloads_stay_fused_and_bit_identical(self, baseline):
        plan = FaultPlan(
            (
                FaultSpec(workload="graph500", kind="corrupt-sample"),
                FaultSpec(workload="tnn", kind="drop-metric"),
            )
        )
        result, report = run_experiment_with_report(TINY, faults=plan)
        # Only the targets leave the fused batch, in plan order.
        assert report.per_workload == ["graph500", "tnn"]
        assert len(report.fused) == 25
        base = _ipc_signature(baseline)
        for name, ipc in _ipc_signature(result).items():
            if name in ("graph500", "tnn"):
                continue
            assert ipc == base[name], name
            runs = result.training_runs | result.testing_runs
            ref = baseline.training_runs | baseline.testing_runs
            assert runs[name].collection.samples.to_records() == \
                ref[name].collection.samples.to_records()


class TestSampleSanitizer:
    def test_quarantines_invalid_records(self):
        clean, report = SampleSanitizer().sanitize(
            [
                {"metric": "m", "time": 10.0, "work": 20.0, "metric_count": 2.0},
                {"metric": "m", "time": float("nan"), "work": 1.0,
                 "metric_count": 1.0},
                {"metric": "m", "time": 5.0, "work": -1.0, "metric_count": 1.0},
                {"metric": "m", "time": 5.0, "work": 1.0,
                 "metric_count": float("inf")},
                {"metric": "", "time": 5.0, "work": 1.0, "metric_count": 1.0},
            ]
        )
        assert len(clean) == 1
        assert report.kept == 1
        assert report.total == 5
        reasons = sorted(q.reason for q in report.quarantined)
        assert reasons == [
            "NaN time", "empty metric name", "infinite metric_count",
            "negative work",
        ]

    def test_metric_floor_drops_partial_metrics(self):
        samples = SampleSet(
            [Sample("rich", time=1.0, work=float(i), metric_count=1.0)
             for i in range(1, 6)]
            + [Sample("poor", time=1.0, work=1.0, metric_count=1.0)]
        )
        clean, report = SampleSanitizer(min_samples_per_metric=3).sanitize(samples)
        assert clean.metrics() == ["rich"]
        assert "poor" in report.dropped_metrics
        assert not report.ok

    def test_clean_input_passes_through(self):
        samples = SampleSet(
            [Sample("m", time=1.0, work=float(i), metric_count=1.0)
             for i in range(1, 4)]
        )
        clean, report = SampleSanitizer().sanitize(samples)
        assert report.ok
        assert len(clean) == 3
        assert report.summary() == "all 3 samples clean"


class TestTrainDegradation:
    def test_train_warns_on_dropped_metrics(self):
        samples = SampleSet(
            [Sample("rich", time=1.0, work=float(i), metric_count=1.0)
             for i in range(1, 10)]
            + [Sample("poor", time=1.0, work=1.0, metric_count=1.0)]
        )
        with pytest.warns(DegradedDataWarning, match="poor"):
            model = SpireModel.train(
                samples, TrainOptions(min_samples_per_metric=3)
            )
        assert "rich" in model
        assert "poor" not in model

    def test_train_fills_quality_report(self):
        from repro.core import QualityReport

        samples = [
            {"metric": "m", "time": 1.0, "work": float(i), "metric_count": 1.0}
            for i in range(1, 6)
        ] + [{"metric": "m", "time": float("nan"), "work": 1.0,
              "metric_count": 1.0}]
        quality = QualityReport()
        with pytest.warns(DegradedDataWarning):
            model = SpireModel.train(samples, quality=quality)
        assert "m" in model
        assert len(quality.quarantined) == 1
        assert quality.quarantined[0].reason == "NaN time"

    def test_train_jobs_minus_one_raises_config_error(self):
        samples = SampleSet(
            [Sample("m", time=1.0, work=float(i), metric_count=1.0)
             for i in range(1, 6)]
        )
        with pytest.raises(ConfigError, match="jobs"):
            SpireModel.train(samples, jobs=-1)

    def test_clean_training_emits_no_warning(self):
        samples = SampleSet(
            [Sample("m", time=1.0, work=float(i), metric_count=1.0)
             for i in range(1, 6)]
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error", DegradedDataWarning)
            model = SpireModel.train(samples)
        assert "m" in model

