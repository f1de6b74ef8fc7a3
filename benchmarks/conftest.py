"""Shared fixtures for the paper-figure regenerations.

Every ``test_bench_*`` module regenerates one paper artifact (table, figure,
or headline number), writes the regenerated content under
``benchmarks/results/`` (so the series survive the pytest capture) and
asserts the paper's qualitative shape. They are plain tests: nothing here
is timed. The regenerations are deterministic, so a run rewrites the files
byte-identically.
"""

from __future__ import annotations

from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def assignment_config():
    """Full-size configuration for the Figure 5/6/7 regenerations."""
    from repro.education.assignment import AssignmentConfig

    return AssignmentConfig(duration=500.0, replications=5, seed=2023)

