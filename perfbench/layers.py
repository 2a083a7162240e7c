"""The benchmark's metric names and units, read from ``BENCHMARK.json``.

``run.py`` prints exactly the names listed there.  A traced run prints
every per-layer metric on every workload; a layer the workload never
calls reads 0 (see README.md).
"""

from __future__ import annotations

import json
from pathlib import Path

_SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())

WORKLOADS = tuple(w["name"] for w in _SPEC["workloads"])
END_TO_END = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}
#: Share of the median by which each end-to-end metric may move.
BOUNDS = {m["name"]: m["bound"] for m in _SPEC["end_to_end"]}

#: Every guarded kernel of the program, for exact check/trip counts.
GUARD_KERNELS = (
    "sanitize",
    "pareto",
    "direction",
    "train",
    "estimate",
    "predictor.update_batch",
    "cache.access_batch",
    "pipeline.execute_array",
    "simulate_run",
    "fused_experiment",
    "trace.fused_run",
    "trace.block_recurrence",
    "shm.transport",
    "stream.update",
    "serve.batch_estimate",
)

#: Kernels dispatched through ``guarded_call``: fast/oracle times exist.
TIMED_GUARD_KERNELS = ("sanitize", "pareto", "direction", "train", "estimate")


def end_to_end(values: dict) -> dict:
    """``{name: (value, unit)}`` for the four end-to-end metrics."""
    return {name: (values[name], unit) for name, unit in END_TO_END.items()}


def per_layer(values: dict) -> dict:
    """``{name: (value, unit)}`` for every per-layer metric (absent = 0)."""
    unknown = set(values) - set(PER_LAYER)
    if unknown:
        raise KeyError(f"undeclared per-layer metric(s): {sorted(unknown)}")
    return {
        name: (values.get(name, 0.0), unit) for name, unit in PER_LAYER.items()
    }


def guard_counts(kernels: dict, divergences: list) -> dict:
    """Per-kernel check and trip counts from a health report's dict form.

    ``kernels`` maps a kernel name to ``{"checks": ...}``; ``divergences``
    lists ``{"kernel": ...}`` events, one per trip.
    """
    values = {}
    for kernel in GUARD_KERNELS:
        values[f"guard.{kernel}.checks"] = kernels.get(kernel, {}).get("checks", 0)
        values[f"guard.{kernel}.trips"] = sum(
            1 for event in divergences if event["kernel"] == kernel
        )
    return values


def local_guard_counts() -> dict:
    """:func:`guard_counts` from this process's guard registry."""
    from repro.guard.dispatch import health_report

    payload = health_report().to_dict()
    return guard_counts(payload["kernels"], payload["divergences"])


def guard_times(tracer, per: int) -> dict:
    """Inclusive fast/oracle ms per operation for the ``guarded_call`` kernels."""
    values = {}
    for kernel in TIMED_GUARD_KERNELS:
        for side in ("fast", "oracle"):
            values[f"guard.{kernel}.{side}_ms"] = (
                tracer.total_ms(f"guard.{kernel}.{side}") / per
            )
    return values
