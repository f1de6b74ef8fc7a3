#!/usr/bin/env python3
"""Live terminal animation — the "visual" in Visual Simulator.

Streams the Fig-1 system view while a simulation runs: the batch queue, each
machine's running task and queue (task-type tags in colour), and the
completed/cancelled/missed counters, plus the Current Time readout. Then
demonstrates the Increment button (single-event stepping) and the missed-task
component (Fig. 4).

Run:  python examples/live_animation.py          # animated
      python examples/live_animation.py --fast   # no pacing
"""

import sys

from repro.scenarios import satellite_imaging
from repro.viz.animation import Animator
from repro.viz.renderer import SystemRenderer


def main() -> None:
    fast = "--fast" in sys.argv
    interactive = sys.stdout.isatty() and not fast

    scenario = satellite_imaging(
        scheduler="MM", intensity="high", duration=120.0
    )
    animator = Animator(
        scenario.build_simulator,
        renderer=SystemRenderer(colour=interactive),
        stream=sys.stdout,
        in_place=interactive,
        speed=40.0 if interactive else 0.0,   # 40 sim-seconds per wall-second
        frame_every=1 if interactive else 50,
        max_frames=10,
    )
    animator.play()

    print()
    print("Single-stepping a fresh run (the Increment button), 5 events:")
    animator.reset()
    for _ in range(5):
        event = animator.step()
        if event is None:
            break
        time, _, _, etype, _, _ = event
        print(
            f"  t={time:8.3f}  {etype.value:<16} "
            f"(events processed: {animator.simulator.events_processed})"
        )

    print()
    # Finish the run and show the Fig-4 missed-tasks component.
    animator.controller.play()
    renderer = SystemRenderer()
    print(renderer.render_missed_tasks(animator.simulator))


if __name__ == "__main__":
    main()
