"""Shared helpers for the benchmark/figure-regeneration harness.

Every benchmark regenerates one paper artifact (table, figure, or headline
number), writes the regenerated content under ``benchmarks/results/`` (so the
series survive the pytest capture), asserts the paper's qualitative shape,
and times the generating kernel with pytest-benchmark.
"""

from __future__ import annotations

from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"
#: Git-ignored output of the timing benchmarks: their numbers differ on
#: every run, so writing them under ``results/`` would dirty the tree.
BUILD_DIR = Path(__file__).parent.parent / ".bench_build"


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def build_dir() -> Path:
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    return BUILD_DIR


@pytest.fixture(scope="session")
def assignment_config():
    """Full-size configuration for the Figure 5/6/7 regenerations."""
    from repro.education.assignment import AssignmentConfig

    return AssignmentConfig(duration=500.0, replications=5, seed=2023)

