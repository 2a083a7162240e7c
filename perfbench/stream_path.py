"""The streaming path, measured in the ``serve`` workload's traced pass.

``stream`` was a workload of its own but could not be made steady on the
benchmark host (see README.md), so its layers are traced from the
``serve`` workload's traced run instead, over the model that run trained.

The benchmark renders the training workloads' simulated windows as
``perf stat -I -x,`` text (the rooflines bound their own training data, so
a faithful replay never refutes).  One *session* is a fresh
``StreamIngestor`` over the reference model fed two halves: the clean log,
then a seeded block of it repeated with a seeded subset of metrics
drifted.  A drifted sample's work and count are scaled together, so its
throughput lands above the roofline while its intensity stays put; that
drives the absorb -> refit ladder.  Each interval is pushed in pieces cut
at seeded random byte offsets, so lines split across pushes.  An
operation is one interval.

A session passes when its final ``DriftReport`` refutes exactly the drifted
metrics, no window went stale and every bystander roofline is
bit-identical to the reference; otherwise all its intervals fail.
"""

from __future__ import annotations

import random
import time
import warnings

from common import log, median, percentile
from layers import local_guard_counts
from perfdata import intervals, render_interval

DRIFTED_METRICS = 3
#: How far above its roofline the drift lifts a metric's lowest sample.
DRIFT_MARGIN = 2.0
#: Intervals in the repeated drift block (about two ingest windows).
DRIFT_BLOCK = 128
#: Largest piece an interval is cut into before pushing, in bytes.
MAX_PIECE = 256
#: Intervals at the start of the first session that are not timed.
WARMUP_INTERVALS = 500
#: Untraced plus traced sessions per traced pass.
SESSIONS = 4


def build_session(result, seed: int) -> tuple[list[list[str]], list[str]]:
    """The pushed pieces of every interval, and the drifted metrics.

    The clean half replays every training workload's windows.  The drift
    half replays a seeded block of one workload's windows, drifted, over
    and over until it is as long as the clean half: once the block has
    passed, the repaired rooflines bound its repeats, so a healthy ladder
    refutes each drifted metric once or twice and then settles.
    """
    rng = random.Random(seed)
    per_workload = [intervals(run.collection.samples) for run in result.training_runs.values()]
    clean = [group for groups in per_workload for group in groups]
    source = rng.choice(per_workload)
    offset = rng.randrange(len(source) - DRIFT_BLOCK + 1)
    block = source[offset : offset + DRIFT_BLOCK]
    drift = (block * (len(clean) // len(block) + 1))[: len(clean)]
    drifted = sorted(rng.sample(sorted(result.model.metrics), DRIFTED_METRICS))
    # Scale each drifted metric so that every one of its block samples
    # lands DRIFT_MARGIN times above the reference bound: a uniform factor
    # would leave samples far under the roof absorbed, never refuted.
    factor = {}
    for metric in drifted:
        rows = [s for group in block for s in group if s.metric == metric]
        bounds = result.model.roofline(metric).estimate_batch([s.intensity for s in rows])
        factor[metric] = DRIFT_MARGIN * max(
            1.0, max(float(b) / s.throughput for b, s in zip(bounds, rows))
        )
    texts = []
    stamp = 1.0
    for phase, groups in (("clean", clean), ("drift", drift)):
        for group in groups:
            work, cycles = group[0].work, group[0].time
            counts = [(s.metric, s.metric_count) for s in group]
            if phase == "drift":
                moved = [(m, c) for m, c in counts if m in drifted]
                counts = [(m, c) for m, c in counts if m not in drifted]
                for metric, count in moved:
                    texts.append(
                        render_interval(
                            stamp, work * factor[metric], cycles, [(metric, count * factor[metric])]
                        )
                    )
                    stamp += 1.0
            if counts:
                texts.append(render_interval(stamp, work, cycles, counts))
                stamp += 1.0
    pieces = []
    for text in texts:
        cuts = []
        start = 0
        while len(text) - start > MAX_PIECE:
            start += rng.randint(1, MAX_PIECE)
            cuts.append(start)
        bounds = [0] + cuts + [len(text)]
        pieces.append([text[a:b] for a, b in zip(bounds, bounds[1:])])
    return pieces, drifted


class Session:
    """One ingestor fed one rendered log; records per-interval latency."""

    def __init__(self, model, pieces):
        from repro.stream import StreamIngestor

        self.ingestor = StreamIngestor(model=model)
        self.pieces = pieces
        self.latencies: list[float] = []
        self.wall = 0.0

    def run(self) -> None:
        from repro.errors import DegradedDataWarning

        push = self.ingestor.push_perf
        clock = time.perf_counter
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegradedDataWarning)
            begun = clock()
            for interval in self.pieces:
                started = clock()
                for piece in interval:
                    push(piece)
                self.latencies.append(clock() - started)
            self.ingestor.flush()
            if self.ingestor.pending_samples:
                self.ingestor.seal_window()
            self.wall = clock() - begun

    def verdict(self, drifted: list[str], reference: dict) -> bool:
        report = self.ingestor.report()
        if report.stale or report.refuted_metrics != drifted:
            return False
        if any(e.action in ("stale", "stalled", "quarantined") for e in report.events):
            return False
        model = self.ingestor.model()
        return all(
            model.roofline(metric).to_dict(include_training=True) == expected
            for metric, expected in reference.items()
        )

    def counts(self) -> dict:
        report = self.ingestor.report()
        events = report.events
        refits = [e for e in events if e.action == "refit"]
        useful = sum(
            1
            for e in refits
            if not any(
                later.metric == e.metric and later.window > e.window and later.action != "absorbed"
                for later in events
            )
        )
        return {
            "stream.windows": self.ingestor.window_count,
            "stream.refuted": len(report.refuted_metrics),
            "stream.refits": len(refits),
            "stream.useful_refit_ratio": useful / len(refits) if refits else 0.0,
        }


def traced(result, seed: int) -> tuple:
    """Alternate untraced and traced sessions; (attempted, failed, values).

    Guard counts are those of the first traced session, so they repeat
    exactly for a seed.
    """
    from repro.guard.dispatch import reset_guards
    from tracer import Tracer

    pieces, drifted = build_session(result, seed)
    model = result.model
    reference = {
        m: model.roofline(m).to_dict(include_training=True)
        for m in model.metrics
        if m not in drifted
    }
    tracer = Tracer()
    attempted = failed = 0
    timed: list[float] = []
    base: list[float] = []
    first: dict | None = None
    for index in range(SESSIONS):
        # Untraced and traced sessions alternate, so host drift hits both
        # sides of the tracing-overhead comparison alike.
        traced_session = index % 2 == 1
        reset_guards()  # exact per-session guard counts
        session = Session(model, pieces)
        if traced_session:
            tracer.install()
        try:
            session.run()
        finally:
            tracer.uninstall()
        ok = session.verdict(drifted, reference)
        attempted += len(pieces)
        failed += 0 if ok else len(pieces)
        latencies = session.latencies[WARMUP_INTERVALS:] if index == 0 else session.latencies
        (timed if traced_session else base).extend(latencies)
        if traced_session and first is None:
            first = {**session.counts(), "guards": local_guard_counts()}
    log(f"stream path: {SESSIONS} session(s), ok={failed == 0}")

    ops = len(timed)

    def per(name: str) -> float:
        return tracer.self_ms(name) / ops

    values = dict(first)
    values.update(
        {
            "stream.perf_parse_ms": per("counters.perf_parse"),
            "core.timestamp_screen_ms": per("core.timestamp_screen"),
            "stream.insert_ms": per("stream.insert"),
            "stream.refresh_ms": per("stream.refresh"),
            "stream.drift_assess_ms": per("stream.drift_assess"),
            "stream.p50_ms": median(timed) * 1e3,
            "stream.base_p50_ms": median(base) * 1e3,
            "stream.p99_ms": percentile(timed, 99) * 1e3,
        }
    )
    return attempted, failed, values
