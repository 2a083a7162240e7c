"""Shared plumbing for the benchmark: environment, stats, output."""

from __future__ import annotations

import contextlib
import ctypes
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

#: Root of the checkout the benchmark runs from (the parent of perfbench/).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space inside the checkout; every run gets a fresh subdirectory.
SCRATCH = ROOT / ".perfbench-tmp"

#: ``spire report`` scale the ``report`` workload runs at (600/300 windows).
TRAIN_WINDOWS = 600
TEST_WINDOWS = 300


def hermetic_env() -> dict:
    """The environment every program process gets: no ``SPIRE_*`` knob.

    Cache dir, job count, guard rates/seeds/injections, scalar fallback
    and shared-memory transport all fall back to the program's defaults,
    so the benchmark measures what a user gets out of the box.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("SPIRE_")}
    env["PYTHONPATH"] = str(SRC)
    return env


def clear_spire_env() -> None:
    """Apply :func:`hermetic_env`'s rule to this process (in-process paths)."""
    for key in [k for k in os.environ if k.startswith("SPIRE_")]:
        del os.environ[key]


# -- program processes ------------------------------------------------------
#
# A program process can leave helpers running after it exits: a
# ``ProcessPoolExecutor`` shut down without waiting leaves its workers, and
# the ``multiprocessing`` resource tracker outlives its parent until it
# reads end-of-file.  Every program process therefore starts in a process
# group of its own, the benchmark makes itself the subreaper of whatever
# gets orphaned, and no group is left until it holds no process.

#: ``prctl`` option: orphaned descendants are re-parented to this process.
PR_SET_CHILD_SUBREAPER = 36
#: Seconds a process group gets to end by itself before it is killed.
GRACE_S = 20.0
#: Groups started by :func:`spawn` and not yet emptied by :func:`finish`.
_GROUPS: set[int] = set()


def adopt_orphans() -> None:
    """Become the subreaper of every process this one starts, so helpers
    a program process leaves behind can be waited for instead of running
    on under init."""
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        errno = ctypes.get_errno()
        raise OSError(errno, f"prctl(PR_SET_CHILD_SUBREAPER): {os.strerror(errno)}")


def spawn(cmd: list[str], **kwargs) -> subprocess.Popen:
    """Start a program process, with :func:`hermetic_env`, as the leader
    of a new process group."""
    proc = subprocess.Popen(cmd, env=hermetic_env(), start_new_session=True, **kwargs)
    _GROUPS.add(proc.pid)
    return proc


def finish(proc: subprocess.Popen, grace: float = GRACE_S) -> None:
    """Wait until ``proc`` and every process left in its group have ended.

    Whatever still runs ``grace`` seconds from now is killed, so no
    process of the group outlives this call.
    """
    pgid = proc.pid
    deadline = time.monotonic() + grace
    with contextlib.suppress(subprocess.TimeoutExpired):
        proc.wait(timeout=max(0.0, deadline - time.monotonic()))
    killed = False
    while True:
        try:
            # As subreaper this process is the parent of every orphan.
            pid, _ = os.waitpid(-pgid, os.WNOHANG)
        except ChildProcessError:
            break  # no process of the group is left
        if pid:
            continue
        if not killed and time.monotonic() >= deadline:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(pgid, signal.SIGKILL)
            killed = True
        time.sleep(0.002)
    proc.poll()
    _GROUPS.discard(pgid)


def kill_group(proc: subprocess.Popen) -> None:
    """SIGKILL every process left in ``proc``'s group (for a failed or
    interrupted operation; :func:`finish` then reaps them)."""
    with contextlib.suppress(ProcessLookupError):
        os.killpg(proc.pid, signal.SIGKILL)


def finish_all() -> None:
    """Kill and reap every group :func:`spawn` started that is still open
    (the way out of an interrupted run)."""
    for pgid in list(_GROUPS):
        with contextlib.suppress(ProcessLookupError):
            os.killpg(pgid, signal.SIGKILL)
        while True:
            try:
                os.waitpid(-pgid, 0)
            except ChildProcessError:
                break
        _GROUPS.discard(pgid)


class RunDir:
    """A fresh temporary working directory under the checkout.

    Used as a context manager: it becomes the process cwd for the run and
    is removed, with everything the program wrote into it, on every exit
    path.
    """

    def __enter__(self) -> Path:
        SCRATCH.mkdir(exist_ok=True)
        self.path = Path(tempfile.mkdtemp(prefix="run-", dir=SCRATCH))
        self._previous = os.getcwd()
        os.chdir(self.path)
        return self.path

    def __exit__(self, *exc) -> None:
        os.chdir(self._previous)
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            SCRATCH.rmdir()  # only succeeds once no other run is using it
        except OSError:
            pass


def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, q: float) -> float:
    """Nearest-rank percentile ``q`` in [0, 100] of a non-empty sequence."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def children_peak_rss_mb() -> float:
    """Largest peak resident set of any waited-for descendant, in MiB
    (``ru_maxrss`` is KiB)."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def vm_hwm_mb(pid: int) -> float:
    """``VmHWM`` (peak resident set) of a live process, in MiB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def host_rate(seconds: float = 0.5) -> float:
    """Iterations per second of a fixed pure-Python loop.

    Host-speed calibration for the steadiness tool: metadata only, never a
    gated metric, so a slow-host run can be told apart from a regression.
    """
    done = 0
    started = time.perf_counter()
    while True:
        acc = 0
        for i in range(20_000):
            acc += i * i % 7
        done += 1
        elapsed = time.perf_counter() - started
        if elapsed >= seconds:
            return done / elapsed


def emit(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    """Print the single-line result the benchmark contract asks for.

    ``metrics`` maps a name to ``(value, unit)``.
    """
    payload = {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": float(value), "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def log(message: str) -> None:
    """Progress goes to stderr; stdout ends with exactly one JSON line."""
    print(message, file=sys.stderr, flush=True)
