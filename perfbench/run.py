"""Benchmark of the SPIRE reproduction: cold report, serving, streaming.

Run from the root of a checkout::

    python3 perfbench/run.py --workload report --seed 1 --seconds 45 --trace 0

``--trace 0`` prints the end-to-end metrics (setup_s, p50_ms,
throughput_per_s, peak_rss_mb); ``--trace 1`` runs the traced pass and
prints every per-layer metric instead.  Progress goes to stderr; the last
line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import compileall
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from common import SRC, RunDir, adopt_orphans, clear_spire_env, emit, finish_all  # noqa: E402
from layers import WORKLOADS, end_to_end, per_layer  # noqa: E402

#: The seed whose report outputs are pinned by ``expected_report.json``.
DEFAULT_SEED = 1


def _terminate(signum, _frame):
    # SIGTERM unwinds like Ctrl-C, so every ``finally`` stops its server.
    raise KeyboardInterrupt(f"signal {signum}")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "cli.py").is_file():
        print(f"error: no program source under {SRC}", file=sys.stderr)
        return 2
    # Byte-compile the program once, outside any timing: every process
    # then imports from bytecode as an installed package would, whatever
    # PYTHONDONTWRITEBYTECODE says and whichever workload runs first.
    compileall.compile_dir(str(SRC), quiet=1)
    sys.path.insert(0, str(SRC))
    clear_spire_env()
    signal.signal(signal.SIGTERM, _terminate)
    adopt_orphans()

    import wl_report
    import wl_serve

    with RunDir() as cwd:
        try:
            if args.workload == "report":
                attempted, failed, values = wl_report.run(
                    args.seed, args.seconds, bool(args.trace), cwd, DEFAULT_SEED
                )
            else:
                attempted, failed, values = wl_serve.run(
                    args.seed, args.seconds, bool(args.trace), cwd
                )
        finally:
            # Nothing the run started outlives it, on any way out.
            finish_all()
    metrics = per_layer(values) if args.trace else end_to_end(values)
    emit(failed == 0, attempted, failed, metrics)
    return 0


if __name__ == "__main__":
    try:
        raise SystemExit(main())
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        raise SystemExit(130)
