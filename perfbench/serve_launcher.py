"""Start ``spire serve`` with the benchmark's span wrappers installed.

Usage: ``python perfbench/serve_launcher.py SPANS.json serve [serve args]``.
The wrappers are installed before ``repro.cli.main`` builds the server, so
every request's decode, parse, queue wait and fused estimate is timed.
When the server stops (SIGTERM drains it gracefully) the recorded spans
are written to ``SPANS.json``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracer import Tracer  # noqa: E402


def main() -> int:
    out = Path(sys.argv[1])
    tracer = Tracer().install()
    from repro.cli import main as cli_main

    try:
        return cli_main(sys.argv[2:])
    finally:
        out.write_text(json.dumps(tracer.snapshot()))


if __name__ == "__main__":
    raise SystemExit(main())
