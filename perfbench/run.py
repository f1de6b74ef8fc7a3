#!/usr/bin/env python3
"""E2C benchmark: host time of one run and of a classroom sweep, by layer.

Run from the repository root; it imports the simulator from ``src/``::

    python3 perfbench/run.py --workload fed_scale            # both phases
    python3 perfbench/run.py --workload hier_tree --seed 3 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off: one untimed
warm-up call under ``tracemalloc`` (the heap peak), then timed calls, each
from a collected heap, until ``--seconds`` have passed. ``--trace 1``
alternates untraced and traced calls for the per-layer metrics and the
tracing overhead. Without ``--trace`` it runs both. Each metric is the
median over the calls; times are host seconds corrected for the machine's
momentary speed (see ``speed.py``). Every call's result fingerprint must
equal the pinned one (``pins.json``) or, for an unpinned seed, the first
call's.

The human-readable report goes to standard output; its last line is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PINS = HERE / "pins.json"

#: Timed calls per phase, whatever ``--seconds`` allows.
MIN_CALLS = 3

clock = time.perf_counter


def import_program() -> None:
    """Put this checkout's ``src/`` first on the path and check it is used."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no simulator sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import repro

    if SRC not in Path(repro.__file__).resolve().parents:
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not from {SRC}")


def load_pins() -> dict[str, dict[str, str]]:
    return json.loads(PINS.read_text(encoding="utf-8")) if PINS.is_file() else {}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3); a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


@dataclass
class Sample:
    """One successful call: raw host time, speed factor, and its probe."""

    host_s: float
    scale: float
    probe: Any

    @property
    def wall_s(self) -> float:
        return self.host_s * self.scale


class Bench:
    """Calls one workload repeatedly and checks every result it returns."""

    def __init__(self, workload: Any, seed: int, pinned: str | None) -> None:
        self.workload = workload
        self.seed = seed
        self.reference = pinned
        #: The :class:`~speed.SpeedMonitor` of the timed calls.
        self.monitor: Any = None
        self.attempted = 0
        self.failed = 0

    def call(self, spans: Any = None, heap: bool = False) -> Sample | None:
        """One user call from a collected heap (see ``Probe`` for ``heap``).

        Returns None, and counts a failure, when the call raises or its
        fingerprint differs from the reference.
        """
        from tracing import Probe

        self.attempted += 1
        gc.collect()
        try:
            with Probe(spans, heap) as probe:
                start = clock()
                out = self.workload.call(self.seed)
                end = clock()
            fingerprint = self.workload.fingerprint(out)
        except Exception:  # a failing call is counted and reported, not fatal
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None
        del out
        if self.reference is None:
            self.reference = fingerprint
        if fingerprint != self.reference:
            self.failed += 1
            print(
                f"perfbench: fingerprint {fingerprint[:12]} != expected {self.reference[:12]}",
                file=sys.stderr,
            )
            return None
        scale = 1.0 if self.monitor is None else self.monitor.scale(start, end)
        return Sample(end - start, scale, probe)

    def peak_heap(self) -> float | None:
        """Untimed call under ``tracemalloc``: peak heap growth, bytes."""
        sample = self.call(heap=True)
        return None if sample is None else float(sample.probe.peak)

    def repeat(self, seconds: float, make_spans: list[Any]) -> list[list[Sample]]:
        """Cycle through ``make_spans`` (None = untraced) until time is up.

        Returns one list of samples per entry of ``make_spans``, each
        holding at least ``MIN_CALLS`` samples unless calls fail.
        """
        samples: list[list[Sample]] = [[] for _ in make_spans]
        deadline = clock() + seconds
        rounds = 0
        while rounds < MIN_CALLS or clock() < deadline:
            rounds += 1
            # Alternate which side of a traced/untraced pair goes first.
            order = range(len(make_spans))
            for i in order if rounds % 2 else reversed(order):
                factory = make_spans[i]
                sample = self.call(None if factory is None else factory())
                if sample is not None:
                    samples[i].append(sample)
            if self.failed and not any(samples):
                break
        return samples


def end_to_end(bench: Bench, seconds: float, peak: float) -> dict[str, list[float]]:
    """Samples of every end-to-end metric, tracing off."""
    (samples,) = bench.repeat(seconds, [None])
    if not samples:
        return {}
    return {
        "wall_s": [s.wall_s for s in samples],
        "setup_s": [s.probe.setup_s * s.scale for s in samples],
        "run_s": [s.probe.run_s * s.scale for s in samples],
        "tasks_per_s": [s.probe.tasks / s.wall_s for s in samples],
        "peak_heap_mb": [peak / 1e6],
        "host.wall_s": [s.host_s for s in samples],
        "host.speed_scale": [s.scale for s in samples],
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: Any, scale: float) -> dict[str, float]:
    """The per-layer figures of one traced call; times speed-corrected."""
    c = spans.counts
    s = defaultdict(float, {layer: t * scale for layer, t in spans.self_s.items()})
    cells = [t * scale for t in spans.durations.get("campaign.cells", [])]
    run_s = scale * sum(spans.durations["engine.runs"])
    return {
        "tasks.build_s": s["tasks"],
        "engine.construct_s": s["engine.construct"],
        "engine.events": c["engine.events"],
        "engine.self_s": s["engine"],
        "heap.pushes": c["heap.pushes"],
        "heap.cancel_frac": _ratio(c["heap.cancels"], c["heap.pushes"]),
        "gateway.calls": c["gateway.calls"],
        "gateway.self_frac": _ratio(s["gateway"], run_s),
        "gateway.us_per_call": 1e6 * _ratio(s["gateway"], c["gateway.calls"]),
        "wan.submits": c["wan.submits"],
        "wan.link_events": c["wan.link_events"],
        "wan.cancels": c["wan.cancels"],
        "wan.self_frac": _ratio(s["wan"], run_s),
        "wan.useful_frac": _ratio(c["wan.delivered"], c["wan.delivered"] + c["wan.abandoned"]),
        "wan.wait_sim_s": c["wan.wait_sim_s"],
        "sched.passes": c["sched.passes"],
        "sched.pass_size_mean": _ratio(c["sched.pass_tasks"], c["sched.passes"]),
        "sched.singleton_frac": _ratio(c["sched.singleton_passes"], c["sched.passes"]),
        "sched.choose_calls": c["sched.choose_calls"],
        "sched.self_s": s["sched"],
        "metrics.terminal_calls": c["metrics.terminal_calls"],
        "metrics.self_s": s["metrics"],
        "result.build_s": s["result"] + s["result.extras"],
        "rebalancer.ticks": c["rebalancer.ticks"],
        "rebalancer.self_frac": _ratio(s["rebalancer"], run_s),
        "migration.useful_frac": _ratio(c["migration.delivered"], c["migration.attempted"]),
        "campaign.cells": len(cells),
        "campaign.cell_median_s": statistics.median(cells) if cells else 0.0,
        "campaign.table_s": scale * sum(spans.durations.get("campaign.tables", [])),
        "trace.run_s": run_s,
    }


def per_layer(bench: Bench, seconds: float) -> tuple[dict[str, list[float]], list[str]]:
    """Samples of every per-layer metric, plus any tracing inconsistency."""
    from tracing import RUN_LAYERS, Spans

    plain, traced = bench.repeat(seconds, [None, Spans])
    if not plain or not traced:
        return {}, []
    problems = []
    rows = []
    for sample in traced:
        spans = sample.probe.spans
        run_s = sum(spans.durations["engine.runs"])
        partition = sum(spans.self_s[layer] for layer in RUN_LAYERS)
        if abs(partition - run_s) > 1e-6 * run_s:
            problems.append(f"layer self times sum to {partition:.6f} s, traced run is {run_s:.6f} s")
        row = layer_metrics(spans, sample.scale)
        row["trace.wall_s"] = sample.wall_s
        if not row["campaign.cells"]:  # a single run is a one-cell campaign
            row["campaign.cells"] = 1
            row["campaign.cell_median_s"] = sample.wall_s
        row["campaign.table_frac"] = row.pop("campaign.table_s") / sample.wall_s
        rows.append(row)
    counts = [dict(sample.probe.spans.counts) for sample in traced]
    if any(c != counts[0] for c in counts):
        problems.append("per-layer counts differ between traced calls of one seed")
    samples = {name: [row[name] for row in rows] for name in rows[0]}
    untraced = statistics.median(s.wall_s for s in plain)
    samples["trace.overhead_frac"] = [statistics.median(samples["trace.wall_s"]) / untraced - 1.0]
    return samples, problems


def git_sha() -> str:
    """HEAD of the checkout, or ``unknown`` outside a git repository."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def load_specs() -> dict[str, list[dict[str, Any]]]:
    """The ``end_to_end`` and ``per_layer`` metric lists of BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {section: spec[section] for section in ("end_to_end", "per_layer")}


def report_table(title: str, samples: dict[str, list[float]], specs: dict[str, dict]) -> None:
    """Median and quartiles of every metric; flag a spread above its bound."""
    print(title)
    print(f"  {'metric':<24}{'median':>14}{'q1':>14}{'q3':>14}  {'unit':<8}{'n':>3}  spread")
    for name, values in samples.items():
        q1, med, q3 = quartiles(values)
        spec = specs.get(name, {})
        spread = _ratio(q3 - q1, abs(med))
        verdict = ""
        if "bound" in spec and len(values) > 1:
            verdict = f"{spread:6.1%} " + (
                "ok" if spread <= spec["bound"] else f"UNRESOLVED (bound {spec['bound']:.0%})"
            )
        print(
            f"  {name:<24}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}  "
            f"{spec.get('unit', ''):<8}{len(values):>3}  {verdict}"
        )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None, help="default: the preset's own seed")
    parser.add_argument("--seconds", type=float, default=20.0, help="measuring time per phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None)
    args = parser.parse_args(argv)

    sections = load_specs()
    specs = {m["name"]: m for section in sections.values() for m in section}
    phases = {"end_to_end": args.trace in (None, 0), "per_layer": args.trace in (None, 1)}
    wanted = [m["name"] for section, on in phases.items() if on for m in sections[section]]

    import_program()
    import numpy
    from speed import SpeedMonitor
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    seed = workload.default_seed if args.seed is None else args.seed
    pinned = load_pins().get(workload.name, {}).get(str(seed))

    print(f"E2C benchmark  workload={workload.name}  seed={seed}  ({workload.why})")
    print(
        f"git {git_sha()}  nproc {os.cpu_count()}  python {platform.python_version()}  "
        f"numpy {numpy.__version__}  fingerprint check: "
        + ("pinned" if pinned else "calls agree (seed not pinned)")
    )

    metrics: dict[str, list[float]] = {}
    problems: list[str] = []
    bench = Bench(workload, seed, pinned)
    # The untimed warm-up call runs before the speed probe starts, so its
    # allocations, garbage collections and heap peak repeat exactly.
    warm = bench.peak_heap() if phases["end_to_end"] else bench.call()
    with SpeedMonitor() as bench.monitor:
        if phases["end_to_end"] and warm is not None:
            samples = end_to_end(bench, args.seconds, warm)
            if samples:
                report_table("end-to-end, tracing off", samples, specs)
            metrics.update(samples)
        if phases["per_layer"]:
            samples, problems = per_layer(bench, args.seconds)
            if samples:
                report_table("per-layer, traced calls", samples, specs)
            metrics.update(samples)
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)

    missing = [name for name in wanted if name not in metrics]
    if missing:
        print(f"perfbench: no successful call measured {', '.join(missing)}", file=sys.stderr)
    print(
        f"checks: {bench.attempted} calls, {bench.failed} failed "
        f"(failed_frac {bench.failed / bench.attempted:.3f}); fingerprint {bench.reference}"
    )
    # Printed even when every call failed, so the counts are reported; the
    # metrics that no successful call measured are left out.
    result = {
        "correct": bench.failed == 0 and not problems and not missing,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {
            name: {"value": statistics.median(metrics[name]), "unit": specs[name]["unit"]}
            for name in wanted
            if name in metrics
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
