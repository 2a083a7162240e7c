"""``serve`` workload: one ``spire serve`` process under two closed-loop clients.

Setup trains a real SPIRE model with ``run_experiment`` at the workload
seed, saves it and launches ``python -m repro.cli serve --model`` (single
worker, default micro-batching, port 0) until the server announces its
port.  One asyncio process then drives two keep-alive connections, each
sending its next request when the previous answer arrives.  The request
mix comes from the held-out test workloads' windows: 3 in 4 requests are
``POST /v1/estimate`` with columnar JSON; the fourth is ``/v1/analyze``,
alternately a raw ``perf stat -x,`` CSV body and JSON with ``counts``
(TMA drilldown).  Every response must equal, field for field, what the
library computes locally on the same decoded input.
"""

from __future__ import annotations

import asyncio
import functools
import json
import random
import signal
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

from common import (
    TEST_WINDOWS,
    TRAIN_WINDOWS,
    finish,
    log,
    median,
    percentile,
    spawn,
    vm_hwm_mb,
)
from layers import TIMED_GUARD_KERNELS, guard_counts
from perfdata import intervals, render

MODEL = "spire"
CONNECTIONS = 2
SETUP_REPEATS = 5
#: Intervals per request slice (about 60 rows at 4 metrics per interval).
SLICE_INTERVALS = 15
#: Fixed warm-up: sequential requests first (so guard counts repeat
#: exactly), then the same number over both connections.
WARMUP_REQUESTS = 32
#: Measured slices per server in the traced pass (untraced and traced
#: servers alternate).
TRACE_SLICES = 5
LAUNCHER = Path(__file__).resolve().parent / "serve_launcher.py"


# -- requests and their local reference answers ------------------------


def _estimate_payload(model, array, full: bool, counts, quality) -> dict:
    """What ``SpireServer`` answers for a decoded request, computed locally."""
    from repro.counters.events import default_catalog
    from repro.errors import DataError
    from repro.tma.drilldown import drilldown
    from repro.tma.topdown import TopDownAnalyzer
    from repro.uarch.config import skylake_gold_6126

    estimate = model.estimate(array.to_sample_set())
    payload = {
        "model": MODEL,
        "throughput": estimate.throughput,
        "limiting_metric": estimate.limiting_metric,
        "per_metric": estimate.per_metric,
        "sample_counts": estimate.sample_counts,
        "skipped_metrics": estimate.skipped_metrics,
    }
    if full:
        areas = default_catalog().areas()
        payload["ranking"] = [
            {
                "metric": entry.metric,
                "estimate": entry.estimate,
                "sample_count": entry.sample_count,
                "area": areas.get(entry.metric, ""),
            }
            for entry in estimate.ranked()
        ]
        try:
            payload["measured_throughput"] = array.measured_throughput()
        except DataError:
            payload["measured_throughput"] = None
        if counts is not None:
            result = TopDownAnalyzer(skylake_gold_6126()).analyze(counts)
            walk = drilldown(result)
            payload["tma"] = {
                "ipc": result.ipc,
                "level1": result.level1(),
                "main_bottleneck": result.main_bottleneck(),
                "drilldown": {
                    "path": walk.path,
                    "steps": [
                        {"name": s.name, "fraction": s.fraction, "depth": s.depth}
                        for s in walk.steps
                    ],
                    "advice": walk.advice,
                },
            }
    if quality is not None and not quality.ok:
        payload["quality"] = quality.summary()
    return json.loads(json.dumps(payload))


def _http(path: str, content_type: str, body: bytes) -> bytes:
    head = (
        f"POST {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
        f"Content-Type: {content_type}\r\nContent-Length: {len(body)}\r\n"
        "Connection: keep-alive\r\n\r\n"
    )
    return head.encode() + body


def build_requests(result, model, seed: int) -> list[tuple[bytes, dict]]:
    """The seeded request mix: ``[(raw HTTP request, expected body), ...]``."""
    from repro.core.columns import SampleArray
    from repro.core.sanitize import QualityReport, SampleSanitizer
    from repro.counters.perf_parser import PerfStatParser

    slices = []
    for run in result.testing_runs.values():
        groups = intervals(run.collection.samples)
        for start in range(0, len(groups) - SLICE_INTERVALS + 1, SLICE_INTERVALS):
            slices.append((groups[start : start + SLICE_INTERVALS], run.collection.full_counts))

    def columns(groups) -> dict:
        rows = [s for group in groups for s in group]
        return {
            "metrics": [s.metric for s in rows],
            "time": [s.time for s in rows],
            "work": [s.work for s in rows],
            "metric_count": [s.metric_count for s in rows],
        }

    @functools.cache
    def make(kind: str, index: int) -> tuple[bytes, dict]:
        groups, counts = slices[index]
        if kind == "csv":
            text = render(groups)
            quality = QualityReport()
            parsed = PerfStatParser().parse(text, lenient=True, quality=quality)
            clean, report = SampleSanitizer(min_samples_per_metric=1).sanitize(parsed)
            quality.kept -= len(report.quarantined)
            quality.quarantined.extend(report.quarantined)
            expected = _estimate_payload(model, clean.columns(), True, None, quality)
            return _http(f"/v1/analyze?model={MODEL}", "text/csv", text.encode()), expected
        cols = columns(groups)
        body = {"model": MODEL, "columns": cols}
        full = kind == "counts"
        if full:
            body["counts"] = counts
        array = SampleArray.from_lists(cols["metrics"], cols["time"], cols["work"], cols["metric_count"])
        expected = _estimate_payload(model, array, full, counts if full else None, None)
        path = "/v1/analyze" if full else "/v1/estimate"
        return _http(path, "application/json", json.dumps(body).encode()), expected

    # Every slice appears the same number of times in every kind, so the
    # seed changes the data and the order but not the mix's composition.
    rng = random.Random(seed)

    def shuffled(kind: str, rounds: int) -> list:
        order = []
        for _ in range(rounds):
            indices = list(range(len(slices)))
            rng.shuffle(indices)
            order.extend(make(kind, index) for index in indices)
        return order

    estimates = shuffled("estimate", 6)
    analyses = [a for pair in zip(shuffled("csv", 1), shuffled("counts", 1)) for a in pair]
    mix = []
    for position in range(len(estimates) + len(analyses)):
        mix.append(analyses.pop() if position % 4 == 3 else estimates.pop())
    return mix


# -- the server process ----------------------------------------------------


class Server:
    """One ``spire serve`` child; stopped with SIGTERM on every exit path."""

    def __init__(self, model_path: Path, store: Path, trace_out: Path | None):
        args = ["serve", "--model", f"{MODEL}={model_path}", "--port", "0", "--store-dir", str(store)]
        if trace_out is None:
            cmd = [sys.executable, "-m", "repro.cli"] + args
        else:
            cmd = [sys.executable, str(LAUNCHER), str(trace_out)] + args
        self.proc = spawn(
            cmd,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
        )
        self.port = 0
        try:
            for line in self.proc.stdout:
                if line.startswith("serving "):
                    self.port = int(line.split("http://127.0.0.1:", 1)[1].split()[0])
                    break
            if not self.port:
                raise RuntimeError("spire serve exited before it was ready")
        except BaseException:
            self.stop()
            raise

    def health(self) -> dict:
        url = f"http://127.0.0.1:{self.port}/health"
        with urllib.request.urlopen(url, timeout=30) as response:  # noqa: S310
            return json.loads(response.read())

    def peak_rss_mb(self) -> float:
        return vm_hwm_mb(self.proc.pid)

    def stop(self) -> None:
        """SIGTERM drains the server; it and its process group are killed
        if they have not ended within :data:`GRACE_S`."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        finish(self.proc)
        self.proc.stdout.close()


def setup(seed: int, cwd: Path, traced: bool):
    """Train, save and launch ``SETUP_REPEATS`` times; keep the last server.

    Returns (setup seconds per repeat, experiment result, model path,
    servers).  Earlier servers are stopped at once, except in a traced run,
    which keeps the second one as the untraced baseline.
    """
    from repro.io.dataset import save_model
    from repro.pipeline import ExperimentConfig, run_experiment

    config = ExperimentConfig(train_windows=TRAIN_WINDOWS, test_windows=TEST_WINDOWS, seed=seed)
    times, servers, result = [], [], None
    try:
        for repeat in range(SETUP_REPEATS):
            started = time.perf_counter()
            result = run_experiment(config)
            model_path = cwd / f"model-{repeat}.json"
            save_model(result.model, model_path)
            last = repeat == SETUP_REPEATS - 1
            trace_out = cwd / "serve-trace.json" if traced and last else None
            servers.append(Server(model_path, cwd / f"store-{repeat}", trace_out))
            times.append(time.perf_counter() - started)
            keep = last or (traced and repeat == SETUP_REPEATS - 2)
            if not keep:
                servers[-1].stop()
    except BaseException:
        for server in servers:
            server.stop()
        raise
    return times, result, model_path, [s for s in servers if s.proc.poll() is None]


# -- the load generator ------------------------------------------------------


class Load:
    """Closed-loop keep-alive clients with per-request checks."""

    def __init__(self, mix):
        self.mix = mix
        self.next = 0
        self.attempted = 0
        self.failed = 0
        self.latencies: list[float] = []
        self.client_s = 0.0

    async def _connection(self, port: int, deadline: float | None, quota: int | None, record: bool):
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        try:
            while True:
                if quota is not None and self.next >= quota:
                    return
                if deadline is not None and time.perf_counter() >= deadline:
                    return
                request, expected = self.mix[self.next % len(self.mix)]
                self.next += 1
                started = time.perf_counter()
                try:
                    writer.write(request)
                    await writer.drain()
                    header = await reader.readuntil(b"\r\n\r\n")
                    length = 0
                    for line in header.split(b"\r\n"):
                        if line.lower().startswith(b"content-length:"):
                            length = int(line.split(b":", 1)[1])
                    body = await reader.readexactly(length)
                except (ConnectionError, asyncio.IncompleteReadError):
                    # The server dropped the connection: a failed request,
                    # and this client stops.
                    self.attempted += 1
                    self.failed += 1
                    return
                answered = time.perf_counter()
                ok = header.startswith(b"HTTP/1.1 200") and json.loads(body) == expected
                self.attempted += 1
                self.failed += not ok
                if record:
                    self.latencies.append(answered - started)
                    self.client_s += time.perf_counter() - answered
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    def run(self, port: int, connections: int, *, requests: int | None = None,
            seconds: float | None = None, record: bool = False) -> float:
        """One phase; returns its wall time."""
        self.next = 0
        deadline = time.perf_counter() + seconds if seconds is not None else None

        async def phase():
            await asyncio.gather(
                *(self._connection(port, deadline, requests, record) for _ in range(connections))
            )

        started = time.perf_counter()
        asyncio.run(phase())
        return time.perf_counter() - started


def _counters(health: dict) -> tuple[int, int, int]:
    state = health["health"]["serve_state"]
    rejects = state["backpressure"]["rejected"] + state["quotas"]["rejected"]
    return state["registry"]["hits"], state["registry"]["misses"], rejects


def _warm(load: Load, server: Server) -> dict:
    """Fixed warm-up; returns the guard health after its sequential part."""
    load.run(server.port, 1, requests=WARMUP_REQUESTS)
    sequential = server.health()["health"]
    load.run(server.port, CONNECTIONS, requests=WARMUP_REQUESTS)
    return sequential


def run(seed: int, seconds: float, trace: bool, cwd: Path) -> tuple:
    from repro.io.dataset import load_model

    times, result, model_path, servers = setup(seed, cwd, trace)
    try:
        mix = build_requests(result, load_model(model_path), seed)
        load = Load(mix)
        if not trace:
            server = servers[-1]
            _warm(load, server)
            wall = load.run(server.port, CONNECTIONS, seconds=seconds, record=True)
            values = {
                "setup_s": median(times),
                "p50_ms": median(load.latencies) * 1e3,
                "throughput_per_s": len(load.latencies) / wall,
                "peak_rss_mb": server.peak_rss_mb(),
            }
            log(f"serve: {len(load.latencies)} requests, p50 {values['p50_ms']:.2f} ms")
            return load.attempted, load.failed, values
        return _traced(load, servers, seconds, cwd, result, seed)
    finally:
        for server in servers:
            server.stop()


def _traced(load: Load, servers, seconds: float, cwd: Path, result, seed: int) -> tuple:
    import stream_path

    base_server, traced_server = servers
    health = _warm(load, traced_server)
    values = guard_counts(health["kernels"], health["divergences"])
    _warm(load, base_server)
    # The untraced and traced servers take turns in short slices, so host
    # drift hits both sides of the tracing-overhead comparison alike.
    span = seconds / (2 * TRACE_SLICES)
    base, traced, client_s = [], [], 0.0
    deltas = [0, 0, 0]
    for _ in range(TRACE_SLICES):
        load.latencies.clear()
        load.run(base_server.port, CONNECTIONS, seconds=span, record=True)
        base.extend(load.latencies)
        load.latencies.clear()
        load.client_s = 0.0
        before = _counters(traced_server.health())
        load.run(traced_server.port, CONNECTIONS, seconds=span, record=True)
        after = _counters(traced_server.health())
        deltas = [d + a - b for d, a, b in zip(deltas, after, before)]
        traced.extend(load.latencies)
        client_s += load.client_s
    base_server.stop()
    traced_server.stop()  # the launcher writes its spans on exit
    spans = json.loads((cwd / "serve-trace.json").read_text())

    def per_call(name: str) -> float:
        calls = spans["calls"].get(name, 0)
        return spans["self_s"].get(name, 0.0) * 1e3 / calls if calls else 0.0

    def per_request(name: str) -> float:
        return spans["total_s"].get(name, 0.0) * 1e3 / len(traced)

    values.update(
        {
            f"guard.{kernel}.{side}_ms": per_request(f"guard.{kernel}.{side}")
            for kernel in TIMED_GUARD_KERNELS
            for side in ("fast", "oracle")
        }
    )
    values.update(
        {
            "core.sanitize_ms": per_call("core.sanitize"),
            "serve.decode_ms": per_call("serve.decode"),
            "counters.perf_parse_ms": per_call("counters.perf_parse"),
            "serve.queue_wait_ms": median(spans["queue_waits"]) * 1e3,
            "serve.batch_estimate_ms": per_call("serve.batch_estimate"),
            "serve.batch_fill": sum(spans["batch_sizes"]) / len(spans["batch_sizes"]),
            "tma.analyze_ms": per_call("tma.analyze"),
            "serve.registry_hits": deltas[0],
            "serve.registry_misses": deltas[1],
            "serve.admission_rejects": deltas[2],
            "client.overhead_ms": client_s / len(traced) * 1e3,
            "serve.p99_ms": percentile(traced, 99) * 1e3,
            "trace.p50_ms": median(traced) * 1e3,
            "trace.base_p50_ms": median(base) * 1e3,
            "trace.overhead_pct": (median(traced) / median(base) - 1.0) * 100.0,
        }
    )
    # The streaming path, in this process over the model set-up trained.
    # Its guard counts add to the server's: both cover fixed work.
    attempted, failed, stream_values = stream_path.traced(result, seed)
    for name, count in stream_values.pop("guards").items():
        values[name] += count
    values.update(stream_values)
    return load.attempted + attempted, load.failed + failed, values
