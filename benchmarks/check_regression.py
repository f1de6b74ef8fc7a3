#!/usr/bin/env python
"""Throughput gate for the service load benchmark.

Reads a pytest-benchmark JSON report (``--benchmark-json``), extracts the
``events_per_sec`` figure each benchmark attached to ``extra_info`` (for the
service tier, one "event" is a submission handled end to end), and compares
it against a committed baseline. A benchmark fails the gate when its
throughput drops more than ``--tolerance`` (default 50%) below baseline.

Usage::

    python -m pytest benchmarks/test_bench_service_load.py \
        --benchmark-json=service-bench-results.json
    python benchmarks/check_regression.py service-bench-results.json \
        --baseline benchmarks/results/service_load_baseline.json

Refresh the baseline after an intentional performance change by adding
``--update``; the baseline file keeps its own ``description``.

Benchmarks present in the report but absent from the baseline pass with a
notice (so adding a benchmark does not require touching two files in one
commit); baseline entries missing from the report fail, because a silently
skipped benchmark is indistinguishable from a regression.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def load_report_throughputs(report_path: Path) -> dict[str, float]:
    """Map benchmark name -> events/s from a pytest-benchmark JSON report."""
    report = json.loads(report_path.read_text(encoding="utf-8"))
    out: dict[str, float] = {}
    for bench in report.get("benchmarks", []):
        extra = bench.get("extra_info", {})
        if "events_per_sec" in extra:
            out[bench["name"]] = float(extra["events_per_sec"])
    return out


def update_baseline(baseline_path: Path, measured: dict[str, float]) -> None:
    """Rewrite *baseline_path* from *measured*, keeping its description."""
    description = "throughput baseline; refreshed via check_regression.py --update"
    if baseline_path.exists():
        old = json.loads(baseline_path.read_text(encoding="utf-8"))
        description = old.get("description", description)
    baseline_path.write_text(
        json.dumps(
            {
                "description": description,
                "events_per_sec": {
                    name: round(eps, 1) for name, eps in sorted(measured.items())
                },
            },
            indent=2,
        )
        + "\n",
        encoding="utf-8",
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("report", type=Path, help="pytest-benchmark JSON report")
    parser.add_argument(
        "--baseline", type=Path, required=True,
        help="committed baseline JSON",
    )
    parser.add_argument(
        "--tolerance", type=float, default=0.50,
        help="maximum allowed fractional drop below baseline (default 0.50)",
    )
    parser.add_argument(
        "--update", action="store_true",
        help="rewrite the baseline from this report instead of checking",
    )
    args = parser.parse_args(argv)

    measured = load_report_throughputs(args.report)
    if not measured:
        print("error: report contains no benchmarks with events_per_sec")
        return 2

    if args.update:
        update_baseline(args.baseline, measured)
        print(f"baseline updated: {args.baseline}")
        return 0

    if not args.baseline.exists():
        print(f"error: baseline {args.baseline} not found (run with --update?)")
        return 2
    baseline = json.loads(args.baseline.read_text(encoding="utf-8"))
    expected: dict[str, float] = baseline.get("events_per_sec", {})

    failures = []
    print(f"{'benchmark':<50} {'baseline':>12} {'measured':>12} {'ratio':>7}")
    for name, base_eps in sorted(expected.items()):
        if name not in measured:
            failures.append(f"{name}: present in baseline but missing from report")
            print(f"{name:<50} {base_eps:>12,.0f} {'MISSING':>12}")
            continue
        eps = measured[name]
        ratio = eps / base_eps
        flag = ""
        if ratio < 1.0 - args.tolerance:
            failures.append(
                f"{name}: {eps:,.0f} events/s is "
                f"{(1.0 - ratio) * 100:.1f}% below baseline {base_eps:,.0f}"
            )
            flag = "  << REGRESSION"
        print(f"{name:<50} {base_eps:>12,.0f} {eps:>12,.0f} {ratio:>6.2f}x{flag}")
    for name in sorted(set(measured) - set(expected)):
        print(f"{name:<50} {'(new)':>12} {measured[name]:>12,.0f}")

    if failures:
        print(f"\nFAIL: {len(failures)} benchmark(s) regressed >"
              f"{args.tolerance * 100:.0f}%:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print(f"\nOK: all benchmarks within {args.tolerance * 100:.0f}% of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
