"""Every script under examples/ runs to exit 0, as a user would start it."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.name)
def test_example_runs(script, tmp_path):
    # Some examples write reports or tables into the working directory.
    args = [sys.executable, str(script)]
    if "--smoke" in script.read_text(encoding="utf-8"):
        args.append("--smoke")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    done = subprocess.run(
        args, cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr[-2000:]


def test_synthetic_twin_matches_the_trace_in_size_and_span(monkeypatch):
    """trace_vs_synthetic's Poisson twin expects the trace's task count
    over the trace's span, type by type."""
    monkeypatch.syspath_prepend(str(ROOT / "examples"))
    from collections import Counter

    from repro.scenarios import build_scenario
    from trace_vs_synthetic import synthetic_twin

    base = build_scenario("trace_replay", sample=0.4, max_tasks=120)
    trace = base.build_workload()
    span = max(t.arrival_time for t in trace)
    recipe = synthetic_twin(base, trace, span).generator
    assert recipe["duration"] == span
    expected = {
        spec["name"]: spec["arrival"]["rate"] * span for spec in recipe["specs"]
    }
    counts = Counter(t.task_type.name for t in trace)
    assert expected == pytest.approx(dict(counts))

