"""Service load benchmark: duplicate-submission storms through the queue.

Times :func:`bench_service_load.run_load` — 8 submitter threads × 4
submissions over 3 unique specs against a fresh service each round — and
attaches ``submissions_per_sec`` (mirrored into ``events_per_sec`` so
``check_regression.py`` can gate it against
``results/service_load_baseline.json``). The single-flight invariant is
asserted inside the driver on every round: one engine execution per unique
canonical key, under contention, every time.
"""

from bench_recording import record_result_line
from bench_service_load import run_load


def test_bench_service_duplicate_storm(benchmark, build_dir):
    report = benchmark.pedantic(
        lambda: run_load(
            submitters=8, unique_specs=3, repeats=4, workers=2, duration=30.0
        ),
        rounds=3,
        iterations=1,
        warmup_rounds=1,
    )
    throughput = report.submissions / benchmark.stats["mean"]
    benchmark.extra_info["submissions"] = report.submissions
    benchmark.extra_info["unique_specs"] = report.unique_specs
    benchmark.extra_info["executions"] = report.executions
    # The regression gate keys on events_per_sec; for the service tier the
    # "event" is a submission handled end-to-end (submit -> terminal job).
    benchmark.extra_info["events_per_sec"] = throughput
    benchmark.extra_info["submissions_per_sec"] = throughput
    record_result_line(
        build_dir / "service_load.txt",
        "duplicate storm (8 submitters, 3 unique specs)",
        report.line(),
    )
    assert report.executions == report.unique_specs
    assert report.submissions == 32
    assert report.cache_hits + report.coalesced == (
        report.submissions - report.unique_specs
    )
