#!/usr/bin/env python3
"""Does a policy ranking survive contact with a real trace?

Synthetic arrivals (Poisson, stationary rates) are the default experimental
diet, but real cluster traces are bursty, heavy-tailed and non-stationary.
This example runs the same policy comparisons on both diets:

1. **Local policies, trace vs synthetic** — the ``trace_replay`` preset
   (the bundled Google-style sample pushed through the TraceSpec ingestion
   pipeline) against a synthetic twin: same EET, same machines, a Poisson
   workload of matched size and span. If a policy's rank flips between the
   columns, the synthetic benchmark was flattering it.
2. **Gateway policies under background cross-traffic** — the
   ``diurnal_wan`` preset (uplinks carrying diurnal + bursty MMPP
   cross-traffic) against its quiet twin with the cross-traffic stripped.
   Offload-happy gateways look great on an empty WAN; residual capacity is
   where they earn (or lose) their keep.

Run:  python examples/trace_vs_synthetic.py [--smoke]

--smoke thins the trace and shortens the federated run for CI.
"""

import argparse
from dataclasses import replace

from repro.scenarios import build_scenario

LOCAL_POLICIES = ("FCFS", "MECT", "MSD")
GATEWAYS = ("LOCALITY_FIRST", "LEAST_LOADED", "EET_AWARE_REMOTE")


def synthetic_twin(scenario, workload, span: float):
    """A Poisson-fed copy of a trace-driven scenario, matched in size and span.

    Each task type arrives as a Poisson stream at its trace count / span, so
    the twin expects the trace's size over the trace's span (intensity 1.0
    leaves the explicit rates unscaled).
    """
    counts: dict[str, int] = {}
    for task in workload:
        name = task.task_type.name
        counts[name] = counts.get(name, 0) + 1
    return replace(
        scenario,
        trace=None,
        generator={
            "duration": span,
            "intensity": 1.0,
            "specs": [
                {"name": name, "arrival": {"kind": "poisson", "rate": n / span}}
                for name, n in sorted(counts.items())
            ],
        },
        name=f"{scenario.name}-synthetic",
    )


def quiet_twin(scenario):
    """The same federated scenario with the background cross-traffic removed."""
    from repro.core.config import Scenario

    data = scenario.to_dict()
    for link in data["federation"]["topology"]["links"].values():
        if isinstance(link, dict):
            link.pop("cross_traffic", None)
    return Scenario.from_dict(data)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="thinned trace + short federated run (CI smoke mode)",
    )
    args = parser.parse_args()

    trace_kwargs = {"sample": 0.4, "max_tasks": 120} if args.smoke else {}
    duration = 90.0 if args.smoke else 300.0

    # -- Part 1: local policies, trace-driven vs synthetic ----------------
    base = build_scenario("trace_replay", **trace_kwargs)
    trace_workload = base.build_workload()
    span = max(t.arrival_time for t in trace_workload) or 1.0
    twin = synthetic_twin(base, trace_workload, span)

    print(f"Part 1 — local policies on {len(trace_workload)} tasks "
          f"({span:.0f} s span): trace-driven vs matched synthetic")
    print(f"{'policy':<8} {'trace compl%':>13} {'synth compl%':>13} "
          f"{'trace kJ':>9} {'synth kJ':>9}")
    print("-" * 56)
    for policy in LOCAL_POLICIES:
        on_trace = base.with_scheduler(policy).run().summary
        on_synth = twin.with_scheduler(policy).run().summary
        print(
            f"{policy:<8} {on_trace.completion_rate:>12.1%} "
            f"{on_synth.completion_rate:>12.1%} "
            f"{on_trace.total_energy / 1e3:>9.1f} "
            f"{on_synth.total_energy / 1e3:>9.1f}"
        )
    print()

    # -- Part 2: gateways with and without background cross-traffic -------
    print(f"Part 2 — gateway policies over {duration:.0f} s of WAN load: "
          "contended uplinks vs the quiet twin")
    print(f"{'gateway':<18} {'busy compl%':>12} {'quiet compl%':>13} "
          f"{'busy offl%':>11} {'quiet offl%':>12}")
    print("-" * 70)
    for gateway in GATEWAYS:
        contended = build_scenario(
            "diurnal_wan", gateway=gateway, duration=duration
        )
        busy = contended.run()
        quiet = quiet_twin(contended).run()
        print(
            f"{gateway:<18} {busy.summary.completion_rate:>11.1%} "
            f"{quiet.summary.completion_rate:>12.1%} "
            f"{busy.offload_rate:>10.1%} {quiet.offload_rate:>11.1%}"
        )
    print()
    print("Reading the tables: a rank flip between trace and synthetic "
          "columns, or a gateway that only wins on the quiet WAN, is a "
          "policy conclusion that would not survive deployment.")


if __name__ == "__main__":
    main()
