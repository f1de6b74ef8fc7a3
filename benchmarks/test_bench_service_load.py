"""Service load: one duplicate-submission storm through the queue.

Runs :func:`bench_service_load.run_load` once — 8 submitter threads × 4
submissions over 3 unique specs against a fresh service. The driver asserts
the single-flight invariant inline (one engine execution per unique
canonical key, under contention); this test checks the storm's accounting.
It is not timed: ``tools/perf_gate.py`` measures the storm's throughput
against the parent commit.
"""

from bench_service_load import run_load


def test_bench_service_duplicate_storm():
    report = run_load()
    assert report.executions == report.unique_specs
    assert report.submissions == 32
    assert report.cache_hits + report.coalesced == (
        report.submissions - report.unique_specs
    )
