"""The four pinned workloads: one user call each, plus its result fingerprint.

Each workload is what a user of E2C types: ``build_scenario(...).run()``
for a single run, or ``execute_campaign(spec).to_csv()`` for a classroom
sweep. All run serially in this process, with no pool and no threads.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Callable

from repro.experiments.campaign import CampaignSpec
from repro.experiments.runner import execute_campaign
from repro.scenarios import build_scenario

__all__ = ["WORKLOADS", "Workload"]


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``call(seed)`` is the timed user call and returns what the user gets
    back; ``fingerprint`` reduces that, outside the timed region, to the
    sha256 the pins hold. ``default_seed`` is the preset's own seed.
    """

    name: str
    default_seed: int
    why: str
    call: Callable[[int], Any]
    fingerprint: Callable[[Any], str]


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_fingerprint(result: Any) -> str:
    """sha256 of the canonical summary plus event count and end time."""
    canonical = json.dumps(
        {
            "summary": result.summary.as_dict(),
            "events_processed": result.events_processed,
            "end_time": result.end_time,
        },
        sort_keys=True,
    )
    return _sha256(canonical)


def _single_run(preset: str, **overrides: Any) -> Callable[[int], Any]:
    def call(seed: int) -> Any:
        return build_scenario(preset, seed=seed, **overrides).run()

    return call


#: The classroom sweep: every teaching preset against the batch and
#: immediate policies of the paper, three grid seeds each (90 cells).
CLASSROOM = {
    "scenarios": [
        "classroom_homogeneous",
        "satellite_imaging",
        "edge_ai",
        "fed_rebalance",
        "fed_adaptive",
    ],
    "schedulers": ["FCFS", "MECT", "MM", "MSD", "ELARE", "FELARE"],
    "seeds": [0, 1, 2],
}


def _classroom_campaign(seed: int) -> str:
    spec = CampaignSpec(**CLASSROOM, seed=seed, name="classroom")
    return execute_campaign(spec).to_csv()


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "fed_scale",
            109,
            "24 sites, 1152 machines, ~28k tasks: gateway draw per task, "
            "single-task MM passes, 24 shard results",
            _single_run("scale_federation"),
            run_fingerprint,
        ),
        Workload(
            "hier_tree",
            47,
            "3-level tree, ~11k tasks, ~12 events per task: contended FIFO "
            "uplinks, relays and in-flight cancels",
            _single_run("hier_3region", duration=2400.0),
            run_fingerprint,
        ),
        Workload(
            "cluster_heavytail",
            107,
            "one 128-machine cluster under Pareto bursts: bypasses gateway, "
            "WAN and federation; deadline heap cancels",
            _single_run("scale_heavytail"),
            run_fingerprint,
        ),
        Workload(
            "classroom_campaign",
            2023,
            "90-cell serial policy sweep on 4-machine presets: fixed per-run "
            "costs, batch policies, rebalancer, campaign table",
            _classroom_campaign,
            _sha256,
        ),
    )
}
