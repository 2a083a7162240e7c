"""Per-layer spans recorded from the benchmark's own files.

The program under test carries no instrumentation of its own, so the
traced pass wraps calls into each module's public functions.  A wrapper
replaces the name *where its caller looks it up*: a function bound into
another module by ``from ... import`` (``draw_run_randomness`` in
``repro.runtime.fused``, ``guarded_call`` in ``repro.core.sanitize``) is
patched in that module, methods are patched on their class.

Two kinds of span:

- *layer* spans form a stack.  Each records its self time (duration minus
  the layer spans nested inside it), so the self times of all layers
  called during an operation, plus the untraced remainder, add up to the
  operation's traced time;
- *inclusive* spans (the experiment call, guard fast/oracle replays) only
  record their full duration and leave the stack alone, so they never
  double-count into the self-time sum.

Spans are plain counters in memory; nothing is written until the
benchmark reads them at the end of the run.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import Counter, defaultdict
from importlib import import_module

#: The modules that bind ``guarded_call`` by ``from ... import``.
GUARDED_CALL_MODULES = (
    "repro.core.sanitize",
    "repro.core.ensemble",
    "repro.core.roofline",
    "repro.core.direction",
    "repro.geometry.pareto",
)


class Tracer:
    """Installs the wrappers and accumulates per-layer times and counts."""

    def __init__(self) -> None:
        self._patches: list[tuple[object, str, object]] = []
        self._stack: list[float] = []
        self._enqueued: dict[int, float] = {}
        self.reset()

    # -- accounting ----------------------------------------------------

    def reset(self) -> None:
        """Forget every recorded span (the wrappers stay installed)."""
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.total_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.queue_waits: list[float] = []
        self.batch_sizes: list[int] = []
        self._enqueued.clear()

    def _layer(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._stack.append(0.0)
            started = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - started
                nested = self._stack.pop()
                self.self_s[name] += duration - nested
                self.total_s[name] += duration
                self.calls[name] += 1
                if self._stack:
                    self._stack[-1] += duration

        return wrapper

    def _inclusive(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            started = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.total_s[name] += time.perf_counter() - started
                self.calls[name] += 1

        return wrapper

    # -- patching ------------------------------------------------------

    def _patch(self, owner, attr: str, make) -> None:
        original = owner.__dict__[attr] if inspect.isclass(owner) else getattr(owner, attr)
        if isinstance(original, classmethod):
            replacement = classmethod(make(original.__func__))
        elif isinstance(original, staticmethod):
            replacement = staticmethod(make(original.__func__))
        else:
            replacement = make(original)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def layer(self, owner, attr: str, name: str) -> None:
        self._patch(owner, attr, lambda fn: self._layer(name, fn))

    def inclusive(self, owner, attr: str, name: str) -> None:
        self._patch(owner, attr, lambda fn: self._inclusive(name, fn))

    def uninstall(self) -> None:
        """Restore every patched name (the untraced program again)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def install(self) -> "Tracer":
        """Wrap every layer the report, serve and streaming paths reach."""
        fused = import_module("repro.runtime.fused")
        batch = import_module("repro.uarch.batch")
        pipeline = import_module("repro.pipeline")
        perf_parser = import_module("repro.counters.perf_parser")
        sanitize = import_module("repro.core.sanitize")
        ensemble = import_module("repro.core.ensemble")
        topdown = import_module("repro.tma.topdown")
        server = import_module("repro.serve.server")
        batching = import_module("repro.serve.batching")
        ingest = import_module("repro.stream.ingest")
        incremental = import_module("repro.stream.incremental")
        drift = import_module("repro.stream.drift")

        self.inclusive(pipeline, "run_experiment_with_report", "runtime.experiment")
        self.layer(fused, "simulate_tasks_fused", "runtime.fused")
        for module in (fused, batch):
            self.layer(module, "draw_run_randomness", "uarch.randomness")
            self.layer(module, "evaluate_run_columns", "uarch.evaluate")
        self.layer(sanitize.SampleSanitizer, "sanitize", "core.sanitize")
        self.layer(sanitize.SampleSanitizer, "sanitize_array", "core.sanitize")
        self.layer(sanitize.TimestampScreen, "screen", "core.timestamp_screen")
        self.layer(ensemble.SpireModel, "train", "core.train")
        self.layer(ensemble.SpireModel, "analyze", "core.analyze")
        self.layer(topdown.TopDownAnalyzer, "analyze", "tma.analyze")
        for module in (perf_parser, ingest):
            self.layer(module, "parse_perf_lines", "counters.perf_parse")
        self.layer(server.SpireServer, "_decode_body", "serve.decode")
        self.layer(incremental.OnlineSpire, "insert_array", "stream.insert")
        self.layer(incremental.OnlineSpire, "refresh", "stream.refresh")
        self.layer(drift.DriftMonitor, "assess", "stream.drift_assess")
        self._patch(batching, "batch_estimate", self._batch_estimate)
        self._patch(batching.MicroBatcher, "submit", self._submit)
        for module in GUARDED_CALL_MODULES:
            self._patch(import_module(module), "guarded_call", self._guarded_call)
        return self

    # -- special wrappers ----------------------------------------------

    def _submit(self, submit):
        @functools.wraps(submit)
        async def wrapper(batcher, model_name, array):
            self._enqueued[id(array)] = time.perf_counter()
            return await submit(batcher, model_name, array)

        return wrapper

    def _batch_estimate(self, batch_estimate):
        timed = self._layer("serve.batch_estimate", batch_estimate)

        @functools.wraps(batch_estimate)
        def wrapper(model, arrays):
            now = time.perf_counter()
            for array in arrays:
                enqueued = self._enqueued.pop(id(array), None)
                if enqueued is not None:
                    self.queue_waits.append(now - enqueued)
            self.batch_sizes.append(len(arrays))
            return timed(model, arrays)

        return wrapper

    def _guarded_call(self, guarded_call):
        @functools.wraps(guarded_call)
        def wrapper(name, fast, oracle, *args, **kwargs):
            return guarded_call(
                name,
                self._inclusive(f"guard.{name}.fast", fast),
                self._inclusive(f"guard.{name}.oracle", oracle),
                *args,
                **kwargs,
            )

        return wrapper

    # -- reading -------------------------------------------------------

    def self_ms(self, name: str) -> float:
        return self.self_s.get(name, 0.0) * 1e3

    def total_ms(self, name: str) -> float:
        return self.total_s.get(name, 0.0) * 1e3

    def snapshot(self) -> dict:
        """Everything recorded, JSON-ready (the serve launcher ships this)."""
        return {
            "self_s": dict(self.self_s),
            "total_s": dict(self.total_s),
            "calls": dict(self.calls),
            "queue_waits": list(self.queue_waits),
            "batch_sizes": list(self.batch_sizes),
        }
