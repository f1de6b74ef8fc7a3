"""The CI performance gate (``tools/perf_gate.py``) on synthetic runs.

No perfbench or storm process is started: each test hands ``check`` the
result records a gate run would have collected, with the bounds of the
repo's own ``BENCHMARK.json`` and the gate's storm bound.
"""

import copy
import importlib.util
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("perf_gate", ROOT / "tools" / "perf_gate.py")
perf_gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(perf_gate)

BENCHMARK = perf_gate.load_benchmark(ROOT)
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
BASE = {"wall_s": 2.0, "setup_s": 0.5, "run_s": 1.5, "tasks_per_s": 10000.0,
        "peak_heap_mb": 40.0}
STORM = perf_gate.STORM
STORM_BASE = {"submissions_per_sec": 400.0}


def _result(base=BASE, **scale):
    """A clean result: *base*, each named metric times its factor."""
    return {
        "correct": True, "attempted": 5, "failed": 0,
        "metrics": {name: {"value": value * scale.get(name, 1.0), "unit": "-"}
                    for name, value in base.items()},
    }


def _storm(**scale):
    """A clean storm result, as the gate's storm child prints it."""
    return _result(STORM_BASE, **scale)


def _runs(change=None, workload="fed_scale"):
    """PAIRS clean pairs on every workload and the storm; *workload*'s
    change side is ``change`` (a result dict) instead."""
    runs = []
    for pair in range(1, perf_gate.PAIRS + 1):
        for name in [*WORKLOADS, STORM]:
            for side in perf_gate.SIDES:
                result = _storm() if name == STORM else _result()
                if side == "change" and name == workload and change is not None:
                    result = copy.deepcopy(change)
                runs.append({"pair": pair, "side": side, "workload": name,
                             "args": "--trace 0", "result": result})
    return runs


def _failures(runs):
    return perf_gate.check(runs, BENCHMARK)[1]


def test_identical_sides_pass():
    lines, failures = perf_gate.check(_runs(), BENCHMARK)
    assert failures == []
    # Header, five end-to-end rows per workload, one storm row.
    assert len(lines) == 1 + len(WORKLOADS) * len(BASE) + 1


@pytest.mark.parametrize("factor,fails", [(1.26, True), (1.24, False)])
def test_run_s_bound(factor, fails):
    failures = _failures(_runs(_result(run_s=factor)))
    assert bool(failures) is fails
    if fails:
        assert failures[0].startswith("fed_scale run_s:")


@pytest.mark.parametrize("factor,fails", [(0.74, True), (0.76, False), (2.0, False)])
def test_tasks_per_s_is_higher_better(factor, fails):
    assert bool(_failures(_runs(_result(tasks_per_s=factor)))) is fails


@pytest.mark.parametrize("factor,fails", [(1.16, True), (1.14, False)])
def test_peak_heap_uses_its_own_bound(factor, fails):
    assert bool(_failures(_runs(_result(peak_heap_mb=factor)))) is fails


def test_failed_calls_fail():
    result = _result()
    result["failed"] = 1
    assert _failures(_runs(result)) == ["pair 1 change fed_scale: 1 failed calls",
                                        "pair 2 change fed_scale: 1 failed calls",
                                        "pair 3 change fed_scale: 1 failed calls"]


def test_incorrect_result_fails():
    result = _result()
    result["correct"] = False
    assert "pair 2 change fed_scale: correct is false" in _failures(_runs(result))


def test_run_without_result_fails():
    runs = _runs()
    runs[0]["result"] = None
    assert _failures(runs) == [f"pair 1 parent {WORKLOADS[0]}: no result"]


def test_missing_metric_fails():
    result = _result()
    del result["metrics"]["setup_s"]
    assert "pair 1 change hier_tree: metric setup_s missing" in _failures(
        _runs(result, workload="hier_tree")
    )


def test_missing_workload_fails():
    runs = [r for r in _runs() if not (r["workload"] == "hier_tree" and r["side"] == "change")]
    assert _failures(runs) == ["change hier_tree: workload missing"]


def _row(lines, workload, metric):
    """The table row of *workload*/*metric*, split on whitespace."""
    (row,) = [line.split() for line in lines[1:] if line.split()[:2] == [workload, metric]]
    return row


def _vary(runs, workload, side, metric, values):
    """Set *metric* of *side*'s runs on *workload*, pair by pair, to *values*."""
    for run in runs:
        if run["workload"] == workload and run["side"] == side:
            run["result"]["metrics"][metric]["value"] = values[run["pair"] - 1]
    return runs


def test_wins_and_parent_iqr_columns():
    lines, failures = perf_gate.check(_runs(), BENCHMARK)
    assert failures == []
    assert lines[0].split()[-3:] == ["wins", "parent", "IQR"]
    # Identical sides: every pair ties, so neither side wins; no spread.
    assert _row(lines, "fed_scale", "setup_s")[-2:] == ["0/3", "0"]


def test_wins_count_pairs_in_the_better_direction():
    runs = _vary(_runs(), "hier_tree", "change", "setup_s", [0.4, 0.5, 0.6])
    runs = _vary(runs, "hier_tree", "change", "tasks_per_s", [11000.0, 9000.0, 12000.0])
    lines = perf_gate.check(runs, BENCHMARK)[0]
    # Lower is better: 0.4 wins, 0.5 ties the parent's 0.5, 0.6 loses.
    assert _row(lines, "hier_tree", "setup_s")[-2] == "1/3"
    # Higher is better: two of three pairs beat the parent's 10000.
    assert _row(lines, "hier_tree", "tasks_per_s")[-2] == "2/3"


def test_parent_iqr_reads_the_parent_runs_only():
    runs = _vary(_runs(), "cluster_heavytail", "parent", "run_s", [1.0, 2.0, 3.0])
    runs = _vary(runs, "cluster_heavytail", "change", "run_s", [1.0, 9.0, 1.0])
    lines = perf_gate.check(runs, BENCHMARK)[0]
    row = _row(lines, "cluster_heavytail", "run_s")
    assert float(row[-1]) == perf_gate.iqr([1.0, 2.0, 3.0]) == 2.0
    assert row[-2] == "1/3"


def test_iqr_and_wins_helpers():
    assert perf_gate.iqr([5.0]) == 0.0
    assert perf_gate.wins([{"parent": 2.0, "change": 1.0}, {"parent": 2.0}],
                          "lower") == (1, 1)


@pytest.mark.parametrize("factor,fails", [(0.74, True), (0.76, False), (2.0, False)])
def test_storm_median_bound(factor, fails):
    failures = _failures(_runs(_storm(submissions_per_sec=factor), workload=STORM))
    assert bool(failures) is fails
    if fails:
        assert failures == [f"{STORM} submissions_per_sec: median 296 is 26.0% worse "
                            "than the parent's 400 (bound 25%)"]


def test_storm_row_has_wins_and_parent_iqr():
    runs = _vary(_runs(), STORM, "parent", "submissions_per_sec", [380.0, 400.0, 420.0])
    runs = _vary(runs, STORM, "change", "submissions_per_sec", [390.0, 390.0, 390.0])
    lines, failures = perf_gate.check(runs, BENCHMARK)
    assert failures == []
    row = _row(lines, STORM, "submissions_per_sec")
    assert row[-3:] == ["25%", "1/3", "40"]
    assert perf_gate.iqr([380.0, 400.0, 420.0]) == 40.0


def test_storm_without_result_fails():
    """A storm whose single-flight assertion fired exits non-zero: no result."""
    runs = _runs()
    (broken,) = [r for r in runs if r["workload"] == STORM and r["pair"] == 2
                 and r["side"] == "change"]
    broken["result"] = None
    assert _failures(runs) == [f"pair 2 change {STORM}: no result"]


def test_missing_storm_fails():
    runs = [r for r in _runs() if not (r["workload"] == STORM and r["side"] == "parent")]
    assert _failures(runs) == [f"parent {STORM}: workload missing"]


def _src_tree(root, body=b"x = 1\n"):
    """A checkout-shaped directory holding ``src/pkg/mod.py``."""
    (root / "src" / "pkg").mkdir(parents=True)
    (root / "src" / "pkg" / "mod.py").write_bytes(body)
    (root / "src" / "pkg" / "__init__.py").write_bytes(b"")
    return root


def test_tree_id_digests_src_without_git(tmp_path):
    parent = perf_gate.tree_id(_src_tree(tmp_path / "parent"))
    change = perf_gate.tree_id(_src_tree(tmp_path / "change", b"x = 2\n"))
    same = perf_gate.tree_id(_src_tree(tmp_path / "same"))
    assert parent["sha"] is None and parent["dirty"] is None
    assert parent["src_sha256"] != change["src_sha256"]
    assert parent["src_sha256"] == same["src_sha256"]


def test_tree_id_reads_head_and_dirty_flag(tmp_path):
    root = _src_tree(tmp_path / "repo")
    git = ["git", "-C", str(root), "-c", "user.name=t", "-c", "user.email=t@t"]
    subprocess.run([*git, "init", "-q"], check=True)
    subprocess.run([*git, "add", "-A"], check=True)
    subprocess.run([*git, "commit", "-q", "-m", "seed"], check=True)
    head = subprocess.run([*git, "rev-parse", "HEAD"], check=True,
                          capture_output=True, text=True).stdout.strip()
    clean = perf_gate.tree_id(root)
    assert clean["sha"] == head and clean["dirty"] is False
    (root / "src" / "pkg" / "mod.py").write_bytes(b"x = 2\n")
    dirty = perf_gate.tree_id(root)
    assert dirty["sha"] == head and dirty["dirty"] is True
    assert dirty["src_sha256"] != clean["src_sha256"]
