"""Load driver for the campaign service: duplicate-heavy submission storms.

The service exists for the classroom case where many students submit the
same handful of specs. This driver models exactly that: ``SUBMITTERS``
threads racing over ``UNIQUE_SPECS`` scenarios, each submitting ``REPEATS``
times, against a fresh service. It returns a :class:`LoadReport` and
**asserts the single-flight invariant inline** — exactly one engine
execution per unique canonical key, no matter how contended the submission
path was.

Run standalone (``python benchmarks/bench_service_load.py [--smoke]``).
``test_bench_service_load.py`` checks one storm's accounting, and
``tools/perf_gate.py`` times this checkout's storms against its parent's.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
import threading
import time
from dataclasses import dataclass

#: The storm's shape: submitter threads, unique specs, submissions per thread.
SUBMITTERS = 8
UNIQUE_SPECS = 3
REPEATS = 4


@dataclass(frozen=True)
class LoadReport:
    """Outcome of one submission storm."""

    submitters: int
    unique_specs: int
    submissions: int
    executions: int
    cache_hits: int
    coalesced: int
    wall: float
    submissions_per_sec: float

    def line(self) -> str:
        return (
            f"{self.submissions} submissions from {self.submitters} threads "
            f"over {self.unique_specs} unique specs: "
            f"{self.executions} engine runs, "
            f"{self.cache_hits} cache hits, {self.coalesced} coalesced, "
            f"{self.submissions_per_sec:,.0f} submissions/s"
        )


def make_specs(duration: float) -> list[dict]:
    """``UNIQUE_SPECS`` distinct scenarios (seed axis) — distinct cache keys."""
    return [
        {
            "preset": "classroom_homogeneous",
            "overrides": {"duration": duration, "seed": 100 + i},
        }
        for i in range(UNIQUE_SPECS)
    ]


def run_load(*, workers: int = 2, duration: float = 30.0) -> LoadReport:
    """One storm: barrier-released threads submit a duplicate-heavy mix.

    Submitter *i* submits ``REPEATS`` specs round-robin starting at offset
    ``i % UNIQUE_SPECS``, so every unique spec is hit by several threads
    at once. Raises ``AssertionError`` if the service executes more (or
    fewer) than one engine run per unique spec.
    """
    from repro.service import CampaignService

    specs = make_specs(duration)
    with tempfile.TemporaryDirectory(prefix="e2c-service-load-") as root:
        with CampaignService(root, workers=workers) as service:
            receipts = []
            lock = threading.Lock()
            barrier = threading.Barrier(SUBMITTERS)

            def storm(index: int) -> None:
                barrier.wait()
                for r in range(REPEATS):
                    spec = specs[(index + r) % UNIQUE_SPECS]
                    receipt = service.submit(dict(spec))
                    with lock:
                        receipts.append(receipt)

            threads = [
                threading.Thread(target=storm, args=(i,), name=f"submit-{i}")
                for i in range(SUBMITTERS)
            ]
            start = time.perf_counter()
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            for receipt in receipts:
                service.wait(receipt.job_id, timeout=300)
            wall = time.perf_counter() - start

            keys = {r.key for r in receipts}
            assert len(keys) == UNIQUE_SPECS, (
                f"expected {UNIQUE_SPECS} unique keys, got {len(keys)}"
            )
            assert service.queue.executions == UNIQUE_SPECS, (
                f"single-flight violated: {service.queue.executions} engine "
                f"runs for {UNIQUE_SPECS} unique specs"
            )
            n = len(receipts)
            return LoadReport(
                submitters=SUBMITTERS,
                unique_specs=UNIQUE_SPECS,
                submissions=n,
                executions=service.queue.executions,
                cache_hits=service.queue.cache_hits,
                coalesced=service.queue.coalesced,
                wall=wall,
                submissions_per_sec=n / wall if wall > 0 else 0.0,
            )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="single fast storm (CI): tiny scenario, one worker",
    )
    args = parser.parse_args(argv)
    report = run_load(workers=1, duration=20.0) if args.smoke else run_load()
    print(report.line())
    return 0


if __name__ == "__main__":
    sys.exit(main())
