"""``report`` workload: a closed loop of cold ``spire report`` processes.

One operation is one ``python -m repro.cli report --no-cache`` process at
full scale with default flags; the next starts when the previous exits.
Each operation's seed comes from a small pool derived from the workload
seed, and its stdout (minus the timing line and the ``jobs=`` header) must
equal an in-process ``--jobs 1`` run of that seed made at setup.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import subprocess
import sys
import time
from pathlib import Path

from common import (
    TEST_WINDOWS,
    TRAIN_WINDOWS,
    children_peak_rss_mb,
    finish,
    hermetic_env,
    kill_group,
    log,
    median,
    spawn,
)
from layers import guard_times, local_guard_counts

#: Distinct operation seeds per run; their references are built at setup.
SEED_POOL = 3
#: Cold operations run before timing starts (page cache, bytecode).
WARMUP_OPS = 1
MIN_MEASURED_OPS = 3
#: Expected filtered-stdout digests for the default workload seed.
EXPECTED = Path(__file__).resolve().parent / "expected_report.json"


def op_seeds(seed: int) -> list[int]:
    rng = random.Random(seed)
    return [rng.randrange(1, 2**31) for _ in range(SEED_POOL)]


def report_args(seed: int) -> list[str]:
    return [
        "report",
        "--no-cache",
        "--train-windows",
        str(TRAIN_WINDOWS),
        "--test-windows",
        str(TEST_WINDOWS),
        "--seed",
        str(seed),
    ]


def filtered(stdout: str) -> str:
    """Stdout without the lines that legitimately differ between runs."""
    return "\n".join(
        line
        for line in stdout.splitlines()
        if not line.startswith("experiment ready in")
        and not line.startswith("running the full evaluation")
    )


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def in_process(seed: int) -> tuple[int, str]:
    """Run ``spire report --jobs 1`` in this process; (exit code, stdout)."""
    from repro.cli import main
    from repro.guard.dispatch import reset_guards

    reset_guards()  # a fresh guard schedule, as in a new process
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(report_args(seed) + ["--jobs", "1"])
    return code, out.getvalue()


def references(seed: int, default_seed: int) -> dict[int, str | None]:
    """Filtered reference stdout per operation seed (None = unusable)."""
    expected = json.loads(EXPECTED.read_text()) if seed == default_seed else {}
    refs: dict[int, str | None] = {}
    for op_seed in op_seeds(seed):
        code, stdout = in_process(op_seed)
        text = filtered(stdout) if code == 0 else None
        if text is not None and expected and expected.get(str(op_seed)) != digest(text):
            log(f"report: reference for seed {op_seed} does not match the committed digest")
            text = None
        refs[op_seed] = text
    return refs


def cold_op(op_seed: int, cwd: Path) -> tuple[float, float, str, int]:
    """One cold process: (launch->first line s, wall s, stdout, exit code).

    The wall time ends when the report process exits; the pool workers
    and resource tracker it leaves behind are waited for afterwards,
    untimed, so no operation overlaps the next.
    """
    cmd = [sys.executable, "-u", "-m", "repro.cli"] + report_args(op_seed)
    started = time.perf_counter()
    proc = spawn(cmd, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter() - started
        rest = proc.stdout.read()
        code = proc.wait(timeout=120)
        wall = time.perf_counter() - started
    except BaseException:
        kill_group(proc)
        raise
    finally:
        finish(proc)
        proc.stdout.close()
    return ready, wall, first + rest, code


def run(seed: int, seconds: float, trace: bool, cwd: Path, default_seed: int) -> tuple:
    refs = references(seed, default_seed)
    seeds = op_seeds(seed)
    if trace:
        return _traced(seeds, refs, seconds, cwd)
    return _untraced(seeds, refs, seconds, cwd)


def _untraced(seeds, refs, seconds, cwd) -> tuple:
    attempted = failed = 0
    readies: list[float] = []
    walls: list[float] = []
    measured_wall = 0.0
    index = 0
    while True:
        op_seed = seeds[index % len(seeds)]
        ready, wall, stdout, code = cold_op(op_seed, cwd)
        attempted += 1
        ok = code == 0 and refs[op_seed] is not None and filtered(stdout) == refs[op_seed]
        failed += not ok
        if index >= WARMUP_OPS:
            readies.append(ready)
            walls.append(wall)
            measured_wall += wall
        index += 1
        if len(walls) >= MIN_MEASURED_OPS and measured_wall >= seconds:
            break
    log(f"report: {len(walls)} timed ops, p50 {median(walls):.3f}s")
    values = {
        "setup_s": median(readies),
        "p50_ms": median(walls) * 1e3,
        "throughput_per_s": len(walls) / measured_wall,
        "peak_rss_mb": children_peak_rss_mb(),
    }
    return attempted, failed, values


def _import_ms(cwd: Path, repeats: int = 5) -> float:
    """Fresh-interpreter ``import repro.cli`` minus bare interpreter start."""

    def timed(code: str) -> float:
        started = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", code], cwd=cwd, env=hermetic_env(), check=True
        )
        return time.perf_counter() - started

    bare = median([timed("pass") for _ in range(repeats)])
    full = median([timed("import repro.cli") for _ in range(repeats)])
    return (full - bare) * 1e3


#: Times one default-flags experiment in a fresh interpreter, after one
#: untimed run that loads everything it imports lazily; prints
#: ``[resolved jobs, ms]``.
_DEFAULT_EXPERIMENT = f"""
import json, time
from repro.concurrency import resolve_jobs
from repro.pipeline import ExperimentConfig, run_experiment_with_report
from repro.runtime.plan import ExecutionPlan
from repro.uarch import skylake_gold_6126

config = ExperimentConfig(train_windows={TRAIN_WINDOWS}, test_windows={TEST_WINDOWS})
tasks = len(ExecutionPlan.for_experiment(config, skylake_gold_6126()).tasks)
run_experiment_with_report(config, jobs="auto")
started = time.perf_counter()
run_experiment_with_report(config, jobs="auto")
elapsed = time.perf_counter() - started
print(json.dumps([resolve_jobs("auto", tasks=tasks), elapsed * 1e3]))
"""


def _default_experiment_ms(cwd: Path) -> tuple[int, float]:
    """(resolved job count, ms) of one default-flags experiment.

    It runs in a child process group, so the pool workers and resource
    tracker the experiment starts end with it.
    """
    proc = spawn(
        [sys.executable, "-c", _DEFAULT_EXPERIMENT],
        cwd=cwd,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
    )
    try:
        out = proc.stdout.read()
        code = proc.wait(timeout=120)
    except BaseException:
        kill_group(proc)
        raise
    finally:
        finish(proc)
        proc.stdout.close()
    if code != 0:
        raise RuntimeError(f"default-flags experiment exited {code}")
    jobs, ms = json.loads(out.strip().splitlines()[-1])
    return int(jobs), float(ms)


def _traced(seeds, refs, seconds, cwd) -> tuple:
    from tracer import Tracer

    values: dict = {"cli.import_ms": _import_ms(cwd)}
    jobs, default_ms = _default_experiment_ms(cwd)
    values["runtime.resolved_jobs"] = jobs
    values["runtime.experiment_default_ms"] = default_ms

    tracer = Tracer()
    attempted = failed = 0
    traced: list[float] = []
    base: list[float] = []
    guard_counts = None
    index = 0
    spent = 0.0
    # Untraced and traced in-process operations alternate, so host drift
    # hits both halves of the tracing-overhead comparison alike.
    while True:
        op_seed = seeds[(index // 2) % len(seeds)]
        traced_op = index % 2 == 1
        if traced_op:
            tracer.install()
        started = time.perf_counter()
        try:
            code, stdout = in_process(op_seed)
        finally:
            wall = time.perf_counter() - started
            tracer.uninstall()
        attempted += 1
        failed += not (code == 0 and filtered(stdout) == refs[op_seed])
        if index >= 2 * WARMUP_OPS:
            (traced if traced_op else base).append(wall)
            spent += wall
            if traced_op and guard_counts is None:
                guard_counts = local_guard_counts()
        elif traced_op:
            tracer.reset()  # warm-up spans are not part of the breakdown
        index += 1
        if len(traced) >= MIN_MEASURED_OPS and spent >= seconds:
            break

    ops = len(traced)
    mean_ms = sum(traced) / ops * 1e3
    # Layer span -> the metric holding its self time per operation.
    self_times = {
        "runtime.fused": "runtime.fused_self_ms",
        "uarch.randomness": "uarch.randomness_ms",
        "uarch.evaluate": "uarch.evaluate_ms",
        "core.sanitize": "core.sanitize_ms",
        "core.train": "core.train_ms",
        "core.analyze": "core.analyze_ms",
        "tma.analyze": "tma.analyze_ms",
    }
    for span, metric in self_times.items():
        values[metric] = tracer.self_ms(span) / ops
    for span in ("uarch.randomness", "core.sanitize", "core.train", "core.analyze", "tma.analyze"):
        values[f"{span}_calls"] = tracer.calls[span] / ops
    values["runtime.experiment_jobs1_ms"] = tracer.total_ms("runtime.experiment") / ops
    values["report.traced_ms"] = mean_ms
    # By construction the named self times plus this remainder sum to the
    # mean traced operation time.
    values["report.other_ms"] = mean_ms - sum(values[m] for m in self_times.values())
    values["report.max_ms"] = max(traced) * 1e3
    values.update(guard_times(tracer, ops))
    values.update(guard_counts)
    values["trace.p50_ms"] = median(traced) * 1e3
    values["trace.base_p50_ms"] = median(base) * 1e3
    values["trace.overhead_pct"] = (median(traced) / median(base) - 1.0) * 100.0
    log(f"report traced: {ops} ops, mean {mean_ms:.1f} ms, other {values['report.other_ms']:.1f} ms")
    return attempted, failed, values


def write_expected(seed: int) -> None:
    """Regenerate ``expected_report.json`` for ``seed`` (run by hand)."""
    payload = {}
    for op_seed in op_seeds(seed):
        code, stdout = in_process(op_seed)
        if code != 0:
            raise SystemExit(f"reference run for seed {op_seed} exited {code}")
        payload[str(op_seed)] = digest(filtered(stdout))
    EXPECTED.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
