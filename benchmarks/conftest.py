"""Shared fixtures for the reproduction benchmarks.

One full-scale experiment (23 training + 4 testing workloads on the
simulated Xeon Gold 6126) is simulated once per bench process, memoized
in-process, and shared by the per-table/per-figure benchmarks.  Artifacts
(rendered tables, SVG figures) are written to ``benchmarks/out/``.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.pipeline import ExperimentConfig, cached_experiment

OUT_DIR = Path(__file__).parent / "out"


@pytest.fixture(scope="session")
def experiment():
    """The full reproduction experiment (paper §IV scale, reduced runtime)."""
    return cached_experiment(ExperimentConfig())


@pytest.fixture(scope="session")
def out_dir() -> Path:
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    return OUT_DIR


def write_artifact(name: str, text: str) -> Path:
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = OUT_DIR / name
    path.write_text(text, encoding="utf-8")
    return path
