#!/usr/bin/env python
"""Performance gate: perfbench and service-storm medians of a change against its parent.

Runs each checkout's own ``perfbench/run.py --trace 0`` on every workload
that ``BENCHMARK.json`` declares, and each checkout's own duplicate-
submission storm (``benchmarks/bench_service_load.py``'s ``run_load``), for
a fixed number of pairs. Odd pairs run the parent first and even pairs the
change first, so a slow phase of a shared machine does not land on one side
only. The measuring time per perfbench run is ``BENCHMARK.json``'s
``run_seconds``; the bounds are its ``end_to_end`` bounds. Both are read
from the change's checkout. A storm run is a child process that does one
warm-up storm, then ``STORMS`` timed ones, and reports their median
``submissions_per_sec``; its bound is ``STORM_BOUND``.

The gate fails when

* any run reports ``failed > 0`` or ``correct: false``, or prints no result
  (a storm whose single-flight assertion fires prints none);
* a workload (the storm counts as one), or a metric of a run, is missing;
* on any workload, the change's median of a metric is worse than the
  parent's median by more than that metric's bound (relative to the
  parent, in the metric's ``better`` direction).

Next to each median the table shows the change's wins over the pairs (a
pair whose two sides tie counts for neither) and the interquartile range
of the parent's runs. A speed claim ("wins at least 9 of 10 pairs, and
the median gap exceeds the parent's IQR") reads straight off these.

Usage::

    python tools/perf_gate.py PARENT_CHECKOUT CHANGE_CHECKOUT [--out FILE]

``--out`` writes every run as one record (``pair``, ``side``, ``workload``,
``args``, ``result``) under ``runs``, the shape of the ``BENCH_*.json``
trajectory files, and under ``trees`` which tree each side measured
(:func:`tree_id`). The exit status is 0 on pass and 1 on failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any

#: Parent/change pairs per workload.
PAIRS = 3
SIDES = ("parent", "change")

#: The service storm's row in the runs and the table.
STORM = "service_storm"
#: Timed storms per storm run, after one warm-up storm.
STORMS = 5
#: Largest allowed drop of the storm's median throughput, as for tasks_per_s.
STORM_BOUND = 0.25
STORM_METRICS = [{"name": "submissions_per_sec", "unit": "submissions/s",
                  "better": "higher", "bound": STORM_BOUND}]
STORM_ARGS = f"run_load(): 1 warm-up, {STORMS} timed"
#: One storm run, in perfbench's result shape. ``run_load`` asserts the
#: single-flight invariant on every storm, so a broken run exits non-zero.
STORM_SCRIPT = """
import json, statistics, sys
from bench_service_load import run_load
storms = int(sys.argv[1])
run_load()
rates = [run_load().submissions_per_sec for _ in range(storms)]
print(json.dumps({"attempted": storms, "failed": 0, "correct": True, "metrics": {
    "submissions_per_sec": {"value": statistics.median(rates), "unit": "submissions/s"}}}))
"""


def load_benchmark(checkout: Path) -> dict[str, Any]:
    return json.loads((checkout / "BENCHMARK.json").read_text(encoding="utf-8"))


def tree_id(checkout: Path) -> dict[str, Any]:
    """Which tree *checkout* holds, recorded next to its runs.

    ``sha`` is its git HEAD and ``dirty`` whether its work tree differs from
    HEAD (both None without a ``.git``, e.g. for a ``git archive`` copy).
    ``src_sha256`` digests the sorted paths and bytes of ``src/**/*.py``, so
    an uncommitted change and an archived parent are told apart as well.
    """
    def git(*args: str) -> str | None:
        if not (checkout / ".git").exists():
            return None
        out = subprocess.run(["git", "-C", str(checkout), *args],
                             capture_output=True, text=True)
        return out.stdout.strip() if out.returncode == 0 else None

    digest = hashlib.sha256()
    for path in sorted((checkout / "src").rglob("*.py")):
        data = path.read_bytes()
        digest.update(f"{path.relative_to(checkout).as_posix()}\0{len(data)}\0".encode())
        digest.update(data)
    status = git("status", "--porcelain")
    return {"sha": git("rev-parse", "HEAD"),
            "dirty": None if status is None else status != "",
            "src_sha256": digest.hexdigest()}


def legs(benchmark: dict[str, Any]) -> dict[str, list[dict]]:
    """Workload name -> the metric specs the gate bounds on it."""
    perfbench = {w["name"]: benchmark["end_to_end"] for w in benchmark["workloads"]}
    return {**perfbench, STORM: STORM_METRICS}


def run_child(checkout: Path, argv: list[str], env: dict[str, str] | None = None) -> dict | None:
    """One Python child run from *checkout*; its last line as JSON, or None."""
    out = subprocess.run(
        [sys.executable, *argv], cwd=checkout, env=env, capture_output=True, text=True,
    )
    sys.stderr.write(out.stderr)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def run_leg(checkout: Path, workload: str, args: list[str]) -> dict | None:
    """One perfbench run of *workload*, or one storm run, from *checkout*."""
    if workload == STORM:
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(("src", "benchmarks"))}
        return run_child(checkout, ["-c", STORM_SCRIPT, str(STORMS)], env)
    return run_child(checkout, ["perfbench/run.py", "--workload", workload, *args])


def collect(dirs: dict[str, Path], benchmark: dict[str, Any]) -> list[dict]:
    """Every run of every pair, in the order they ran."""
    args = ["--seconds", str(benchmark["run_seconds"]), "--trace", "0"]
    runs = []
    for pair in range(1, PAIRS + 1):
        order = SIDES if pair % 2 else SIDES[::-1]
        for workload in legs(benchmark):
            for side in order:
                result = run_leg(dirs[side], workload, args)
                runs.append({
                    "pair": pair, "side": side, "workload": workload,
                    "args": STORM_ARGS if workload == STORM else " ".join(args),
                    "result": result, "set": "perf gate",
                })
                print(f"pair {pair} {side:<6} {workload:<20} " + (
                    "no result" if result is None else
                    f"failed {result['failed']}/{result['attempted']}  "
                    f"correct {str(result['correct']).lower()}"
                ), flush=True)
    return runs


def iqr(values: list[float]) -> float:
    """Interquartile range of *values* (0 for fewer than two)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def wins(pairs: list[dict[str, float]], better: str) -> tuple[int, int]:
    """(pairs the change won, pairs with both sides); ties win for neither.

    Each pair maps a side to its value.
    """
    both = [p for p in pairs if len(p) == len(SIDES)]
    sign = 1 if better == "lower" else -1
    won = sum(1 for p in both if sign * (p["parent"] - p["change"]) > 0)
    return won, len(both)


def check(runs: list[dict], benchmark: dict[str, Any]) -> tuple[list[str], list[str]]:
    """(report lines, failures) for *runs* against *benchmark*'s and the storm's bounds."""
    bounded = legs(benchmark)
    failures = []
    # (workload, metric) -> pair -> side -> value
    values: dict[tuple[str, str], dict[int, dict[str, float]]] = {}
    for run in runs:
        where = f"pair {run['pair']} {run['side']} {run['workload']}"
        result = run["result"]
        if result is None:
            failures.append(f"{where}: no result")
            continue
        if result["failed"] > 0:
            failures.append(f"{where}: {result['failed']} failed calls")
        if not result["correct"]:
            failures.append(f"{where}: correct is false")
        for spec in bounded[run["workload"]]:
            measured = result["metrics"].get(spec["name"])
            if measured is None:
                failures.append(f"{where}: metric {spec['name']} missing")
            else:
                pairs = values.setdefault((run["workload"], spec["name"]), {})
                pairs.setdefault(run["pair"], {})[run["side"]] = measured["value"]

    lines = [f"{'workload':<20} {'metric':<19} {'parent':>12} {'change':>12} "
             f"{'worse':>7} {'bound':>6} {'wins':>6} {'parent IQR':>12}"]
    for workload, metrics in bounded.items():
        for side in SIDES:
            if not any(r["side"] == side and r["workload"] == workload for r in runs):
                failures.append(f"{side} {workload}: workload missing")
        for spec in metrics:
            name, bound = spec["name"], spec["bound"]
            pairs = list(values.get((workload, name), {}).values())
            parent = [p["parent"] for p in pairs if "parent" in p]
            change = [p["change"] for p in pairs if "change" in p]
            if not parent or not change:
                continue
            base, head = statistics.median(parent), statistics.median(change)
            worse = (head - base if spec["better"] == "lower" else base - head) / base
            flag = ""
            if worse > bound:
                flag = "  << REGRESSION"
                failures.append(
                    f"{workload} {name}: median {head:.6g} is {worse:.1%} worse "
                    f"than the parent's {base:.6g} (bound {bound:.0%})"
                )
            won, paired = wins(pairs, spec["better"])
            lines.append(f"{workload:<20} {name:<19} {base:>12.6g} {head:>12.6g} "
                         f"{worse:>7.1%} {bound:>6.0%} {f'{won}/{paired}':>6} "
                         f"{iqr(parent):>12.6g}{flag}")
    return lines, failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--out", type=Path, default=None, metavar="FILE",
                        help="write every run and the verdict as JSON")
    args = parser.parse_args(argv)

    dirs = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    benchmark = load_benchmark(dirs["change"])
    runs = collect(dirs, benchmark)
    lines, failures = check(runs, benchmark)
    print("\n" + "\n".join(lines))

    if args.out is not None:
        record = {
            "trees": {side: tree_id(dirs[side]) for side in SIDES},
            "nproc": os.cpu_count(),
            "host": f"{platform.machine()} {platform.system()}, "
                    f"Python {platform.python_version()}",
            "command": "python3 perfbench/run.py --workload <workload> <args>, "
                       f"and for {STORM} a child running bench_service_load."
                       "run_load with PYTHONPATH=src:benchmarks, run from a "
                       "checkout of each side; odd pairs run the parent first "
                       "and even pairs the change first",
            "passed": not failures,
            "failures": failures,
            "runs": runs,
        }
        args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    if failures:
        print(f"\nFAIL: {len(failures)} problem(s):")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print(f"\nOK: {len(runs)} runs, every median within its bound")
    return 0


if __name__ == "__main__":
    sys.exit(main())
