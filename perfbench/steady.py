"""Steadiness check: run each workload k times and show the spread.

Usage (from the root of a checkout)::

    python3 perfbench/steady.py --runs 10 --seconds 45 [--workloads report,serve]

Each run is one ``perfbench/run.py --trace 0`` process with its own seed
(200, 201, ...), run one at a time.  For every
end-to-end metric the tool prints the median, the first and third
quartiles (``statistics.quantiles(values, n=4)``), the quartile spread as
a share of the median, and max/min.  A share under a third of the
metric's ``bound`` in ``BENCHMARK.json`` is marked ``ok``.

Around every run it also times a fixed pure-Python loop (iterations per
second, before and after).  That host-speed figure is metadata only,
never a gated metric: a slow-host run shows up as a low rate instead of
passing for a regression.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from common import host_rate  # noqa: E402
from layers import BOUNDS, END_TO_END, WORKLOADS  # noqa: E402

#: Seed of each workload's first run; the recorded sets use 200-209.
FIRST_SEED = 200


def one_run(workload: str, seed: int, seconds: float) -> dict:
    before = host_rate()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    after = host_rate()
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {
        "seed": seed,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        "host_rate_before": before,
        "host_rate_after": after,
    }


def spread(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "iqr_share": (q3 - q1) / med,
        "max_over_min": max(values) / min(values),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    args = parser.parse_args()

    for workload in args.workloads.split(","):
        runs = []
        for index in range(args.runs):
            run = one_run(workload, FIRST_SEED + index, args.seconds)
            runs.append(run)
            print(
                f"{workload} seed {run['seed']}: failed {run['failed']}/{run['attempted']} "
                f"host {run['host_rate_before']:.0f}->{run['host_rate_after']:.0f} it/s  "
                + "  ".join(f"{k}={v:.4g}" for k, v in run["metrics"].items()),
                flush=True,
            )
        stats = {name: spread([r["metrics"][name] for r in runs]) for name in END_TO_END}
        for name, s in stats.items():
            verdict = "ok" if s["iqr_share"] < BOUNDS[name] / 3 else "WIDE"
            print(
                f"  {workload:<7} {name:<17} median {s['median']:<10.4g} "
                f"q1 {s['q1']:<10.4g} q3 {s['q3']:<10.4g} "
                f"iqr/median {s['iqr_share']:.3f} (bound {BOUNDS[name]}) {verdict}  "
                f"max/min {s['max_over_min']:.3f}",
                flush=True,
            )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
